//! The head-to-head comparison of the three paradigms: Table 6.
//!
//! 100 previously-unseen test triples per task (50 positive, 50 negative,
//! no relationship-type constraint, §3.2), classified by GPT-4-sim, the
//! two best ML models (GloVe-Chem and W2V-Chem with naive adaptation) and
//! the PubmedBERT-mini-embedding forest.

use crate::compose::triple_vector;
use crate::lab::Lab;
use crate::paradigm::icl::{build_examples, build_queries, QueryPolicy};
use crate::report::Artifact;
use crate::task::{LabeledTriple, TaskKind};
use kcb_icl::{run_protocol, LlmOracle, OracleProfile, PromptVariant};
use kcb_ml::metrics::BinaryMetrics;
use kcb_util::fmt::{metric, Table};
use kcb_util::Rng;

/// Table 6: head-to-head comparison of the three NLP paradigms.
pub fn table6(lab: &Lab) -> Artifact {
    let mut a = Artifact::new("Table 6", "Head-to-head comparisons of three NLP paradigms");
    let mut json = Vec::new();
    for task in TaskKind::ALL {
        let split = lab.split(task);
        // 50 + 50 unconstrained test triples.
        let mut rng = Rng::seed_stream(lab.config().seed, 0x6ead + task.number() as u64);
        let mut pos: Vec<LabeledTriple> =
            split.test.iter().copied().filter(|e| e.label).collect();
        let mut neg: Vec<LabeledTriple> =
            split.test.iter().copied().filter(|e| !e.label).collect();
        rng.shuffle(&mut pos);
        rng.shuffle(&mut neg);
        let n = lab.config().icl_queries.min(pos.len()).min(neg.len());
        let mut sample: Vec<LabeledTriple> =
            pos[..n].iter().copied().chain(neg[..n].iter().copied()).collect();
        rng.shuffle(&mut sample);

        let mut t = Table::new(
            format!("Task {}", task.number()),
            &["Model", "Embeddings", "Accuracy", "Precision", "Recall", "F1 score"],
        )
        .numeric_after(2);

        // --- paradigm 1: GPT-4-sim over the same triples -----------------
        let items = build_queries(
            lab.ontology(),
            &sample,
            task,
            QueryPolicy { n_per_class: n, is_a_only: false, max_tokens: usize::MAX },
            lab.config().seed,
        );
        let builder = build_examples(lab.ontology(), &split.train, lab.config().seed);
        let oracle = LlmOracle::new(OracleProfile::gpt4_sim());
        let r = run_protocol(&oracle, &builder, &items, PromptVariant::Base, 2, lab.config().seed);
        t.row(vec![
            "GPT-4-sim".into(),
            "-".into(),
            metric(r.accuracy_mean),
            metric(r.precision_mean),
            metric(r.recall_mean),
            metric(r.f1_mean),
        ]);
        json.push(serde_json::json!({
            "task": task.number(), "model": "gpt-4-sim",
            "accuracy": r.accuracy_mean, "f1": r.f1_mean,
        }));

        // --- paradigms 2 & 3: forests over the same triples ---------------
        for (model, adapt) in
            [("glove-chem", "naive"), ("w2v-chem", "naive"), ("pubmedbert", "none")]
        {
            let run = lab.forest_run(task, model, adapt);
            // Re-evaluate the cached forest on exactly the sampled triples,
            // featurised by the same encoder family.
            let enc = lab.encoder(model, adapt);
            let preds: Vec<bool> = sample
                .iter()
                .map(|e| run.forest.predict(&triple_vector(lab.ontology(), e.triple, enc.as_ref())))
                .collect();
            let labels: Vec<bool> = sample.iter().map(|e| e.label).collect();
            // Macro-averaged for the forests vs positive-class for the ICL
            // row above — intentionally mirroring the paper's own Table 6,
            // whose RF rows show P≈R≈accuracy (macro) while its GPT-4 row
            // shows P=.975/R=.8125 (positive-class).
            let m = BinaryMetrics::from_predictions(&preds, &labels);
            t.row(vec![
                "Random forest".into(),
                model.to_string(),
                metric(m.accuracy),
                metric(m.precision),
                metric(m.recall),
                metric(m.f1),
            ]);
            json.push(serde_json::json!({
                "task": task.number(), "model": model,
                "accuracy": m.accuracy, "f1": m.f1,
            }));
        }
        a.push_table(t);
    }
    a.set_json(serde_json::Value::Array(json));
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::LabConfig;

    #[test]
    fn table6_ml_beats_icl_given_abundant_training_data() {
        let lab = Lab::new(LabConfig::tiny());
        let a = table6(&lab);
        let rows = a.json.as_array().unwrap();
        assert_eq!(rows.len(), 12); // 3 tasks × 4 models
        // The paper's headline ordering (ML wins by 0.11–0.17 accuracy)
        // needs abundant training data; the tiny test lab sits in the
        // low-data regime where the paper itself shows GPT-4 ahead on
        // tasks 1 and 3. Here we assert sanity plus the one ordering that
        // holds in every regime: ICL never beats ML on task 2.
        for r in rows {
            let acc = r["accuracy"].as_f64().unwrap();
            assert!((0.0..=1.0).contains(&acc), "{r}");
        }
        let acc = |task: u64, model: &str| -> f64 {
            rows.iter()
                .find(|r| r["task"] == task && r["model"] == model)
                .map(|r| r["accuracy"].as_f64().unwrap())
                .unwrap()
        };
        let best_ml_t2 =
            acc(2, "glove-chem").max(acc(2, "w2v-chem")).max(acc(2, "pubmedbert"));
        assert!(
            best_ml_t2 >= acc(2, "gpt-4-sim") - 0.05,
            "task 2: ML {best_ml_t2} must not trail ICL {}",
            acc(2, "gpt-4-sim")
        );
    }
}
