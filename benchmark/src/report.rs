//! The metric catalogue and the result line.
//!
//! Every workload prints every metric of the catalogue it was asked for,
//! so the result line has the same keys on every workload. A per-layer
//! metric whose layer a workload does not exercise reads 0.

use serde_json::{json, Value};
use std::collections::BTreeMap;

/// End-to-end metrics (printed with `--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("qps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
];

/// Per-layer metrics (printed with `--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    // kcb-core::sched, from RunReport.
    ("sched.util", "ratio"),
    ("sched.idle_s", "s"),
    ("sched.driver_s", "s"),
    ("sched.max_job_s", "s"),
    ("sched.steals", "count"),
    // Busy seconds per job family.
    ("job.forest_s", "s"),
    ("job.rf_s", "s"),
    ("job.ft_s", "s"),
    ("job.lstm_s", "s"),
    ("job.icl_s", "s"),
    ("job.embed_s", "s"),
    ("job.lm_pretrain_s", "s"),
    ("job.data_s", "s"),
    ("job.artifact_s", "s"),
    // kcb-ml / kcb-lm span self time.
    ("ml.forest_fit_s", "s"),
    ("ml.forest_fits", "count"),
    ("lm.fine_tune_s", "s"),
    ("lm.pretrain_mlm_s", "s"),
    ("lm.pretrain_clm_s", "s"),
    // Reuse layers: lab memo caches, compose encodings, ckpt, journal.
    ("ckpt.hits", "count"),
    ("ckpt.misses", "count"),
    ("ckpt.bytes_read", "B"),
    ("ckpt.bytes_written", "B"),
    ("ckpt.save_s", "s"),
    ("journal.appended", "count"),
    ("journal.replayed", "count"),
    ("journal.bytes_appended", "B"),
    ("memo.hit_ratio", "ratio"),
    ("forest_cache.hit_ratio", "ratio"),
    ("encoding.hit_ratio", "ratio"),
    ("encoding.contended", "count"),
    // experiment::sweep and kcb-bench::analysis.
    ("sweep.plan_us", "us"),
    ("sweep.jobs", "count"),
    ("sweep.shared_jobs", "count"),
    ("sweep.labs", "count"),
    ("sweep.dedup_ratio", "ratio"),
    ("analysis.render_s", "s"),
    // Serve set-up.
    ("setup.lab_s", "s"),
    ("setup.freeze_s", "s"),
    ("setup.server_s", "s"),
    // kcb-serve engine, from Server::metrics() (bucketed).
    ("engine.queue_wait_p50_us", "us"),
    ("engine.queue_wait_p99_us", "us"),
    ("engine.batch_service_p50_us", "us"),
    ("engine.batch_service_p99_us", "us"),
    ("engine.batch_size_mean", "count"),
    ("engine.e2e_p99_us", "us"),
    ("engine.served", "count"),
    ("engine.shed", "count"),
    ("engine.errors", "count"),
    // Serve stages, replayed serially through the public functions.
    ("protocol.parse_us", "us"),
    ("serial.nn_us", "us"),
    ("serial.classify_us", "us"),
    ("serial.bert_us", "us"),
    ("serial.embed_us", "us"),
    ("kernel.nn_scan_gbs", "GB/s"),
    ("engine.overhead_us", "us"),
    // The benchmark itself.
    ("trace.overhead", "ratio"),
    ("error_rate", "ratio"),
];

/// Named values; keys are catalogue names.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Of those, the ones that failed their check.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (filled on traced runs).
    pub layers: Metrics,
    /// Host, build and sizing facts recorded with the result.
    pub context: Vec<(&'static str, Value)>,
}

impl Outcome {
    /// Counts `failed` of `attempted` more checked operations.
    pub fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of `catalogue`, in catalogue order. Panics on a metric the
    /// workload forgot to fill or on a non-finite value — either is a
    /// bug in the benchmark, never a result.
    pub fn result_line(
        &self,
        catalogue: &[(&'static str, &'static str)],
        values: &Metrics,
    ) -> String {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let v = *values.get(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            metrics.push((name.to_string(), json!({ "value": v, "unit": unit })));
        }
        let line = json!({
            "correct": self.failed == 0 && self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        });
        serde_json::to_string(&line).expect("result line serializes")
    }
}

/// A catalogue with every value 0: the starting point of a traced run,
/// so layers a workload does not exercise still print.
pub fn zeroed(catalogue: &[(&'static str, &'static str)]) -> Metrics {
    catalogue.iter().map(|&(n, _)| (n, 0.0)).collect()
}

/// Per-key median over several maps (keys missing from a map are
/// skipped for it).
pub fn median_of(maps: &[Metrics]) -> Metrics {
    let mut keys: Vec<&'static str> = maps.iter().flat_map(|m| m.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let xs: Vec<f64> = maps.iter().filter_map(|m| m.get(k).copied()).collect();
            (k, crate::measure::median(&xs))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and `BENCHMARK.json` at the repository root
    /// must name the same metrics with the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = kcb_util::json::parse_value(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> =
                catalogue.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn error_rate_counts_failed_over_attempted() {
        let mut o = Outcome::default();
        assert_eq!(o.error_rate(), 0.0);
        o.check(17, 0);
        o.check(3, 1);
        assert_eq!(o.error_rate(), 0.05);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(2, 0);
        let values: Metrics = END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect();
        let line = o.result_line(END_TO_END, &values);
        let v = kcb_util::json::parse_value(&line).expect("valid json");
        let obj = v.as_object().expect("object");
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"], json!(true));
        assert_eq!(v["metrics"]["qps"]["unit"], json!("1/s"));
    }
}
