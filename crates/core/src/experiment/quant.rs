//! Int8 quantization calibration: the `quant_calibration.json` artifact.
//!
//! Quantization is an inference-only option on the query path; it never
//! feeds training, and the f32 artifact pipeline is untouched by it. This
//! module *proves* the parity that design relies on instead of assuming
//! it, by re-running slices of the paper's measurements with
//! int8-quantized parameters and recording the deltas against f32:
//!
//! - **embeddings** — per-table reconstruction error plus top-10
//!   cosine-neighbour overlap over the most frequent tokens (the query
//!   the int8 NN path actually serves);
//! - **table4** — mini-BERT positive-class probabilities on probe
//!   sequences with int8-dequantized weights vs the f32 checkpoint;
//! - **table5** — BioGPT-mini causal-LM losses on probe sequences (the
//!   deterministic quantity behind its verdicts) f32 vs int8, plus the
//!   fraction of probe pairs whose loss ordering survives;
//! - **fig3** — scenario forest F1 with a quantized embedding encoder vs
//!   the f32 encoder, mirroring [`super::scenarios`]' warm cell.
//!
//! Every leg carries a `pass` flag against the documented tolerances and
//! the document has a top-level conjunction; CI fails the metric-parity
//! job when it is false. The int8 legs run private model copies, so a
//! calibration run never touches the lab's shared models.

use crate::compose::{self, TokenAvgEncoder};
use crate::dataset::{scenario_split, SCENARIOS};
use crate::lab::Lab;
use crate::task::TaskKind;
use kcb_embed::{EmbeddingModel, EmbeddingTable, QuantizedEmbeddingTable};
use kcb_lm::{MiniBert, MiniGpt};
use kcb_ml::linalg::Matrix;
use kcb_ml::quant::QuantizedMatrix;
use serde_json::{json, Value};

/// Version of the `quant_calibration.json` shape.
pub const SCHEMA_VERSION: u64 = 1;

/// Maximum tolerated absolute delta on any probed metric (probabilities,
/// losses, F1) between the f32 and int8 runs.
pub const TOL_METRIC_DELTA: f64 = 0.05;

/// Minimum tolerated mean top-10 cosine-neighbour overlap between the f32
/// and int8 nearest-neighbour rankings.
pub const TOL_TOPK_OVERLAP: f64 = 0.7;

/// Mean top-`k` neighbour overlap over the `n_tokens` most frequent
/// vocabulary tokens.
fn topk_overlap(
    table: &EmbeddingTable,
    q: &QuantizedEmbeddingTable,
    n_tokens: usize,
    k: usize,
) -> f64 {
    let n = n_tokens.min(table.vocab_size());
    if n == 0 {
        return 1.0;
    }
    let mut total = 0.0;
    for id in 0..n as u32 {
        let tok = table.vocab().token(id).to_string();
        let nf: Vec<String> = table.nearest(&tok, k).into_iter().map(|(t, _)| t).collect();
        let ni: Vec<String> = q.nearest(&tok, k).into_iter().map(|(t, _)| t).collect();
        let hits = nf.iter().filter(|t| ni.contains(t)).count();
        total += hits as f64 / nf.len().max(1) as f64;
    }
    total / n as f64
}

/// Round-trips every weight matrix through int8 (quantize then
/// dequantize) — the parameters an int8 inference engine effectively runs
/// with.
fn quantize_weights(weights: &[Matrix]) -> Vec<Matrix> {
    weights.iter().map(|m| QuantizedMatrix::quantize(m).dequantize()).collect()
}

fn max_abs_delta(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| f64::from((x - y).abs())).fold(0.0, f64::max)
}

/// Runs the full calibration against `lab` and returns the
/// `quant_calibration.json` document.
pub fn calibrate(lab: &Lab) -> Value {
    let o = lab.ontology();
    let split = lab.split(TaskKind::RandomNegatives);

    // Embedding tables: reconstruction error + neighbour overlap.
    let mut embeddings: Vec<Value> = Vec::new();
    let mut all_pass = true;
    for name in ["w2v-chem", "glove-chem"] {
        let t = match name {
            "w2v-chem" => lab.w2v_chem(),
            _ => lab.glove_chem(),
        };
        let q = QuantizedEmbeddingTable::quantize(t);
        let overlap = topk_overlap(t, &q, 20, 10);
        let pass = overlap >= TOL_TOPK_OVERLAP;
        all_pass &= pass;
        embeddings.push(json!({
            "table": name,
            "max_abs_error": q.matrix().max_abs_error(t.vectors()),
            "rmse": q.matrix().rmse(t.vectors()),
            "top10_overlap": overlap,
            "payload_bytes": q.payload_bytes(),
            "f32_bytes": t.vectors().as_slice().len() * 4,
            "pass": pass,
        }));
    }

    // Table 4 slice: BERT probabilities under int8-dequantized weights.
    let (bert, bert_weights) = lab.bert();
    let wp = lab.wordpiece();
    let probes: Vec<Vec<u32>> = split
        .test
        .iter()
        .take(16)
        .map(|e| compose::triple_token_ids(o, e.triple, wp))
        .collect();
    let probe_refs: Vec<&[u32]> = probes.iter().map(Vec::as_slice).collect();
    let probs_f32 = bert.predict_proba_batch(&probe_refs);
    let bert_int8 = MiniBert::new(*bert.config());
    bert_int8.restore(&quantize_weights(bert_weights.weights()));
    let probs_int8 = bert_int8.predict_proba_batch(&probe_refs);
    let bert_delta = max_abs_delta(&probs_f32, &probs_int8);
    let bert_pass = bert_delta <= TOL_METRIC_DELTA;
    all_pass &= bert_pass;
    let table4 = json!({
        "probes": probes.len(),
        "max_prob_delta": bert_delta,
        "pass": bert_pass,
    });

    // Table 5 slice: BioGPT losses (the deterministic quantity behind its
    // sampled verdicts) and their pairwise ordering.
    let gpt = lab.biogpt().gpt_model();
    let losses_f32: Vec<f32> = probe_refs.iter().map(|ids| gpt.loss(ids)).collect();
    let gpt_int8 = MiniGpt::new(*gpt.config());
    gpt_int8.restore(&quantize_weights(&gpt.snapshot()));
    let losses_int8: Vec<f32> = probe_refs.iter().map(|ids| gpt_int8.loss(ids)).collect();
    let gpt_delta = max_abs_delta(&losses_f32, &losses_int8);
    let mut pairs = 0usize;
    let mut agree = 0usize;
    for i in 0..losses_f32.len() {
        for j in (i + 1)..losses_f32.len() {
            pairs += 1;
            if (losses_f32[i] <= losses_f32[j]) == (losses_int8[i] <= losses_int8[j]) {
                agree += 1;
            }
        }
    }
    let agreement = if pairs == 0 { 1.0 } else { agree as f64 / pairs as f64 };
    let gpt_pass = gpt_delta <= TOL_METRIC_DELTA && agreement >= TOL_TOPK_OVERLAP;
    all_pass &= gpt_pass;
    let table5 = json!({
        "probes": losses_f32.len(),
        "max_loss_delta": gpt_delta,
        "order_agreement": agreement,
        "pass": gpt_pass,
    });

    // Figure 3 slice: one scenario forest cell, f32 vs quantized encoder.
    // Both sides run uncached so neither pollutes the lab-wide encoding
    // cache with the other's rows.
    let sc = SCENARIOS[0];
    let sc_split = scenario_split(
        lab.task(TaskKind::RandomNegatives),
        lab.config().scenario_fraction,
        sc,
        lab.config().seed,
    );
    let table = lab.glove_chem();
    let adapt = lab.adaptation("naive", "glove-chem");
    let f1_of = |model: &dyn EmbeddingModel| {
        let enc = TokenAvgEncoder::new(model, adapt.clone());
        crate::paradigm::ml::run_forest(
            o,
            &sc_split.train,
            &sc_split.test,
            &enc,
            &lab.config().rf,
        )
        .metrics
        .f1
    };
    let f1_f32 = f1_of(table);
    let q_table = QuantizedEmbeddingTable::quantize(table);
    let f1_int8 = f1_of(&q_table);
    let fig3_delta = (f1_f32 - f1_int8).abs();
    let fig3_pass = fig3_delta <= TOL_METRIC_DELTA;
    all_pass &= fig3_pass;
    let fig3 = json!({
        "scenario_split": sc.split,
        "f1_f32": f1_f32,
        "f1_int8": f1_int8,
        "delta": fig3_delta,
        "pass": fig3_pass,
    });

    let tolerances = json!({
        "metric_delta": TOL_METRIC_DELTA,
        "topk_overlap": TOL_TOPK_OVERLAP,
    });
    json!({
        "schema_version": SCHEMA_VERSION,
        "tolerances": tolerances,
        "embeddings": Value::Array(embeddings),
        "table4": table4,
        "table5": table5,
        "fig3": fig3,
        "pass": all_pass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::LabConfig;

    #[test]
    fn calibration_passes_on_the_tiny_lab_and_restores_models() {
        let lab = Lab::new(LabConfig::tiny());
        let before = lab.bert().0.predict_proba(&[2, 5, 3]);
        let doc = calibrate(&lab);
        assert_eq!(doc["schema_version"], json!(SCHEMA_VERSION));
        assert_eq!(doc["pass"], json!(true), "{doc}");
        for leg in ["table4", "table5", "fig3"] {
            assert_eq!(doc[leg]["pass"], json!(true), "{leg}: {}", doc[leg]);
        }
        assert!(doc["embeddings"][0]["top10_overlap"].as_f64().unwrap() >= TOL_TOPK_OVERLAP);
        // Calibration must leave the f32 weights exactly as it found them.
        let after = lab.bert().0.predict_proba(&[2, 5, 3]);
        assert_eq!(before.to_bits(), after.to_bits());
    }
}
