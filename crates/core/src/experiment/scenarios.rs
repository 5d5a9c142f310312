//! Data-availability scenario sweeps: Figure 3 and Figure A2 (§2.8).
//!
//! Five scenarios per task, from abundant/balanced training data to scarce
//! and heavily imbalanced; the figures plot F1 of representative models
//! from all three paradigms, with GPT-4's training-data-independent score
//! as a horizontal reference line.

use crate::dataset::{scenario_split, Scenario, SCENARIOS};
use crate::lab::{Lab, EMBEDDING_NAMES};
use crate::paradigm::icl::{build_examples, build_queries, QueryPolicy};
use crate::report::Artifact;
use crate::task::TaskKind;
use kcb_icl::{run_protocol, LlmOracle, OracleProfile, PromptVariant, PromptedModel};
use kcb_util::fmt::{metric, Table};
use std::sync::Arc;

// The scenario figures overlap heavily: Figure 3 and Figure A2 share their
// fine-tuned-BERT and GPT-4 series verbatim plus two forest columns, and
// within one figure the five scenarios of a task re-encode one overlapping
// triple pool. Each cell is therefore memoised in the [`Lab`] (keyed by the
// full cell identity) and every forest run encodes through the lab-wide
// [`crate::compose::EncodingCache`].

/// One forest cell — any supervised model, PubmedBERT included — on a
/// scenario split. Exposed for integration tests and ablations.
pub fn scenario_cell(lab: &Lab, task: TaskKind, sc: Scenario, model: &str, adapt: &str) -> f64 {
    let key = format!("rf|{}|{}|{}|{model}|{adapt}", task.number(), sc.split, sc.pos_ratio);
    lab.memo_score(key, || {
        let split =
            scenario_split(lab.task(task), lab.config().scenario_fraction, sc, lab.config().seed);
        crate::paradigm::ml::run_forest_cached(
            lab.ontology(),
            &split.train,
            &split.test,
            lab.encoder(model, adapt).as_ref(),
            &lab.config().rf,
            Some(lab.encodings()),
        )
        .metrics
        .f1
    })
}

/// One fine-tuning cell: a private copy of the pre-trained mini-BERT,
/// fine-tuned on the scenario split.
pub(crate) fn ft_f1(lab: &Lab, task: TaskKind, sc: Scenario) -> f64 {
    let key = format!("ft|{}|{}|{}", task.number(), sc.split, sc.pos_ratio);
    lab.memo_score(key, || {
        let mut split =
            scenario_split(lab.task(task), lab.config().scenario_fraction, sc, lab.config().seed);
        split.train.truncate(lab.config().ft_train_cap);
        let run = crate::paradigm::ft::run_fine_tune(
            lab.ontology(),
            &split,
            &lab.bert().1.instantiate(),
            lab.wordpiece(),
            &lab.config().ft_schedule,
        );
        // Figures compare macro-F1-like series; positive-class F1 is what
        // the paper plots for FT (its Table 4 convention).
        run.metrics.f1
    })
}

/// GPT-4's score does not depend on the training data, so it is evaluated
/// once per task on the constant scenario test set and shared by every
/// figure that draws the reference line.
pub(crate) fn gpt4_f1(lab: &Lab, task: TaskKind) -> f64 {
    let key = format!("gpt4|{}", task.number());
    lab.memo_score(key, || {
        let split = scenario_split(
            lab.task(task),
            lab.config().scenario_fraction,
            SCENARIOS[0],
            lab.config().seed,
        );
        let n = (split.test.len() / 2).min(lab.config().icl_queries);
        let items = build_queries(
            lab.ontology(),
            &split.test,
            task,
            QueryPolicy { n_per_class: n, is_a_only: false, max_tokens: usize::MAX },
            lab.config().seed,
        );
        let builder = build_examples(lab.ontology(), &split.train, lab.config().seed);
        let oracle = LlmOracle::new(OracleProfile::gpt4_sim());
        run_protocol(&oracle, &builder, &items, PromptVariant::Base, 2, lab.config().seed).f1_mean
    })
}

/// The ICL paradigm cell shared by sweep variants: `[f1_mean, f1_sd,
/// kappa]` for one (task, oracle) pair — a simulated oracle or the
/// generative BioGPT-mini. Like the GPT-4 reference line, ICL consumes no
/// training data, so the cell is scenario-independent: every scenario
/// variant of a sweep shares it.
pub(crate) fn icl_stats(lab: &Lab, task: TaskKind, oracle: &str) -> Arc<Vec<f64>> {
    lab.memo_vec(format!("icl|{}|{oracle}", task.number()), || {
        let profile = match oracle {
            "biogpt-mini" => return icl_protocol(lab, task, lab.biogpt()),
            "gpt-4-sim" => OracleProfile::gpt4_sim(),
            "gpt-3.5-sim" => OracleProfile::gpt35_sim(),
            "llama2-sim" => OracleProfile::llama2_sim(),
            other => panic!("unknown oracle {other:?}"),
        };
        icl_protocol(lab, task, &LlmOracle::new(profile))
    })
}

fn icl_protocol(lab: &Lab, task: TaskKind, model: &dyn PromptedModel) -> Vec<f64> {
    let split = scenario_split(
        lab.task(task),
        lab.config().scenario_fraction,
        SCENARIOS[0],
        lab.config().seed,
    );
    let n = (split.test.len() / 2).min(lab.config().icl_queries);
    let items = build_queries(
        lab.ontology(),
        &split.test,
        task,
        QueryPolicy { n_per_class: n, is_a_only: false, max_tokens: usize::MAX },
        lab.config().seed,
    );
    let builder = build_examples(lab.ontology(), &split.train, lab.config().seed);
    let repeats = lab.config().icl_repeats.max(2);
    let r = run_protocol(model, &builder, &items, PromptVariant::Base, repeats, lab.config().seed);
    vec![r.f1_mean, r.f1_sd, r.kappa]
}

fn scenario_figure(lab: &Lab, id: &str, title: &str, models: &[(&str, &str)]) -> Artifact {
    let mut a = Artifact::new(id, title);
    let mut json = Vec::new();
    for task in TaskKind::ALL {
        let mut headers: Vec<String> = vec!["Scenario".to_string()];
        headers.extend(models.iter().map(|(m, ad)| {
            if *ad == "none" || *m == "pubmedbert" {
                m.to_string()
            } else {
                format!("{m} ({ad})")
            }
        }));
        headers.push("fine-tuned bert".to_string());
        headers.push("gpt-4-sim".to_string());
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(format!("Task {} — F1 by scenario", task.number()), &header_refs)
            .numeric_after(1);

        let gpt4 = gpt4_f1(lab, task);
        for sc in SCENARIOS {
            let mut row = vec![sc.label()];
            for (model, adapt) in models {
                let f1 = scenario_cell(lab, task, sc, model, adapt);
                row.push(metric(f1));
                json.push(serde_json::json!({
                    "task": task.number(), "scenario": sc.label(),
                    "split": sc.split, "pos_ratio": sc.pos_ratio,
                    "model": format!("{model}/{adapt}"), "f1": f1,
                }));
            }
            let ft = ft_f1(lab, task, sc);
            row.push(metric(ft));
            json.push(serde_json::json!({
                "task": task.number(), "scenario": sc.label(),
                "model": "fine-tuned-bert", "f1": ft,
            }));
            row.push(metric(gpt4));
            t.row(row);
        }
        json.push(serde_json::json!({
            "task": task.number(), "model": "gpt-4-sim", "f1": gpt4,
        }));
        a.push_table(t);
    }
    a.set_json(serde_json::Value::Array(json));
    a
}

/// Figure 3: representative models (random reference + the two most
/// consistent ML models) plus FT and GPT-4 lines, by scenario.
pub fn fig3(lab: &Lab) -> Artifact {
    scenario_figure(
        lab,
        "Figure 3",
        "F1 by training-data volume and imbalance — representative models from all paradigms",
        &[("random", "naive"), ("glove-chem", "task-oriented"), ("pubmedbert", "none")],
    )
}

/// Figure A2: every embedding with naive adaptation, by scenario.
pub fn fig_a2(lab: &Lab) -> Artifact {
    let models: Vec<(&str, &str)> = EMBEDDING_NAMES
        .iter()
        .map(|&m| (m, "naive"))
        .chain([("pubmedbert", "none")])
        .collect();
    scenario_figure(
        lab,
        "Figure A2",
        "F1 by training-data volume and imbalance — embeddings with naive adaptation",
        &models,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::LabConfig;

    #[test]
    fn performance_degrades_with_scarcity_and_imbalance() {
        let lab = Lab::new(LabConfig::tiny());
        // Compare the most abundant vs the most extreme scenario for the
        // random-embedding forest on task 1 (the paper's sharpest drop).
        let rich = scenario_cell(&lab, TaskKind::RandomNegatives, SCENARIOS[0], "random", "naive");
        let poor = scenario_cell(&lab, TaskKind::RandomNegatives, SCENARIOS[4], "random", "naive");
        assert!(
            rich > poor + 0.03,
            "rich {rich} should clearly beat poor {poor} for random embeddings"
        );
    }

    #[test]
    fn scenario_cells_are_memoised() {
        let lab = Lab::new(LabConfig::tiny());
        let a = scenario_cell(&lab, TaskKind::RandomNegatives, SCENARIOS[1], "random", "naive");
        let cached = lab.encodings().len();
        assert!(cached > 0, "forest run must populate the encoding cache");
        let b = scenario_cell(&lab, TaskKind::RandomNegatives, SCENARIOS[1], "random", "naive");
        assert_eq!(a, b);
        assert_eq!(lab.encodings().len(), cached, "memoised cell must not re-encode");
    }

    #[test]
    fn gpt4_reference_line_is_reasonable() {
        let lab = Lab::new(LabConfig::tiny());
        let f1 = gpt4_f1(&lab, TaskKind::RandomNegatives);
        assert!(f1 > 0.7 && f1 <= 1.0, "gpt4 line {f1}");
    }
}
