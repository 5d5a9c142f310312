//! `repro bench-query` — the raw-speed query-path microbenchmark.
//!
//! Measures steady-state latency and throughput of the four query shapes
//! the curation workflows issue against a warm lab: embedding
//! nearest-neighbour lookups (f32 and, with `--quant`, int8), triple
//! classification through the fitted random forest, and BERT sequence
//! scoring. Each query runs under a `query.<kind>` span so the
//! percentiles come from the same [`kcb_obs`] aggregation the profiler
//! uses; throughput is wall-clock over the whole leg, normalised per
//! worker thread. The result document is written to
//! `results/bench_query.json` by the binary.
//!
//! Each leg folds its outputs into a checksum that is included in the
//! document: since queries are pure functions of the lab seed, the
//! checksum must be identical with and without mmap loading, at any
//! thread count, making the report double as a determinism witness.

use kcb_core::adapt::Adaptation;
use kcb_core::compose::{self, TokenAvgEncoder};
use kcb_core::lab::Lab;
use kcb_core::task::TaskKind;
use kcb_embed::{EmbeddingModel, QuantizedEmbeddingTable};
use serde_json::{json, Value};
use std::time::Instant;

/// Version of the `bench_query.json` shape.
pub const SCHEMA_VERSION: u64 = 1;

/// One measured query kind.
struct Leg {
    kind: &'static str,
    count: usize,
    wall_s: f64,
    checksum: f64,
}

/// Runs `n` queries of one kind, each under a `query.<kind>` span.
/// `one` returns a scalar folded into the leg checksum.
fn timed(kind: &'static str, n: usize, mut one: impl FnMut(usize) -> f64) -> Leg {
    let mut checksum = 0.0f64;
    let t0 = Instant::now();
    for i in 0..n {
        let _span = kcb_obs::span("query", format!("query.{kind}"));
        checksum += one(i);
    }
    Leg { kind, count: n, wall_s: t0.elapsed().as_secs_f64(), checksum }
}

/// Runs the query benchmark against `lab` and returns the
/// `bench_query.json` document. Owns the telemetry recorder for the
/// duration of the run (resets it, drains it at the end).
pub fn run(lab: &Lab, quant: bool, threads: usize, fast: bool) -> Value {
    let (nn_q, cls_q, bert_q) = if fast { (32, 64, 8) } else { (128, 256, 24) };
    let was_enabled = kcb_obs::enabled();
    kcb_obs::reset();
    kcb_obs::set_enabled(true);

    let o = lab.ontology();
    let table = lab.glove_chem();
    let split = lab.split(TaskKind::RandomNegatives);
    let mut legs: Vec<Leg> = Vec::new();

    // Nearest-neighbour lookups over the most frequent vocabulary tokens
    // (the vocabulary is ordered by frequency).
    let toks: Vec<String> = (0..nn_q.min(table.vocab_size()) as u32)
        .map(|i| table.vocab().token(i).to_string())
        .collect();
    legs.push(timed("nn-f32", toks.len(), |i| {
        table.nearest(&toks[i], 10).iter().map(|(_, s)| *s as f64).sum()
    }));
    if quant {
        // Quantization happens outside the timed region: the table is a
        // build-once artifact, the queries are the steady state.
        let q = QuantizedEmbeddingTable::quantize(table);
        legs.push(timed("nn-int8", toks.len(), |i| {
            q.nearest(&toks[i], 10).iter().map(|(_, s)| *s as f64).sum()
        }));
    }

    // Triple classification: encode with the same (model, adaptation)
    // pair the forest was fitted on, then score.
    let forest_run = lab.forest_run(TaskKind::RandomNegatives, "glove-chem", "naive");
    let enc = TokenAvgEncoder::new(lab.embedding("glove-chem"), Adaptation::Naive);
    let n = cls_q.min(split.test.len());
    legs.push(timed("triple-classify", n, |i| {
        let v = compose::triple_vector(o, split.test[i].triple, &enc);
        f64::from(forest_run.forest.predict_proba(&v))
    }));

    // BERT sequence scoring over tokenized test triples.
    let (bert, _) = lab.bert();
    let wp = lab.wordpiece();
    let n = bert_q.min(split.test.len());
    legs.push(timed("bert-cls", n, |i| {
        let ids = compose::triple_token_ids(o, split.test[i].triple, wp);
        f64::from(bert.predict_proba(&ids))
    }));

    let telemetry = kcb_obs::drain();
    kcb_obs::set_enabled(was_enabled);
    let stats = kcb_obs::profile::span_stats(&telemetry);
    let kinds: Vec<(String, Value)> = legs
        .iter()
        .map(|leg| {
            let s = stats.get(&format!("query.{}", leg.kind)).copied().unwrap_or_default();
            let row = json!({
                "count": leg.count,
                "total_s": leg.wall_s,
                "qps_per_core": leg.count as f64 / leg.wall_s.max(1e-9) / threads as f64,
                "p50_s": s.p50_s,
                "p95_s": s.p95_s,
                "p99_s": s.p99_s,
                "checksum": leg.checksum,
            });
            (leg.kind.to_string(), row)
        })
        .collect();
    json!({
        "schema_version": SCHEMA_VERSION,
        "threads": threads,
        "quant": quant,
        "fast": fast,
        "kinds": Value::Object(kinds),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcb_core::lab::LabConfig;

    #[test]
    fn query_bench_reports_every_kind() {
        let lab = Lab::new(LabConfig::tiny());
        let doc = run(&lab, true, 1, true);
        assert_eq!(doc["schema_version"], json!(SCHEMA_VERSION));
        for kind in ["nn-f32", "nn-int8", "triple-classify", "bert-cls"] {
            let row = &doc["kinds"][kind];
            assert!(row["count"].as_u64().unwrap() > 0, "{kind}: {row}");
            assert!(row["qps_per_core"].as_f64().unwrap() > 0.0, "{kind}: {row}");
            assert!(row["p99_s"].as_f64().unwrap() >= row["p50_s"].as_f64().unwrap());
        }
        // Without --quant the int8 leg is absent and the rest unchanged.
        let doc2 = run(&lab, false, 1, true);
        assert!(doc2["kinds"]["nn-int8"].is_null());
        assert_eq!(doc["kinds"]["nn-f32"]["checksum"], doc2["kinds"]["nn-f32"]["checksum"]);
    }
}
