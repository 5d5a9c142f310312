//! Fine-tuning artifacts: Table 4.

use crate::dataset::Split;
use crate::lab::Lab;
use crate::paradigm::ft::run_fine_tune;
use crate::report::Artifact;
use crate::task::TaskKind;
use kcb_util::fmt::{count, metric, Table};

/// Table 4: fine-tuning datasets (8:1:1) and the fine-tuned mini-BERT's
/// test performance on each task.
pub fn table4(lab: &Lab) -> Artifact {
    let mut a = Artifact::new(
        "Table 4",
        "Fine-tuning datasets and performances of fine-tuned PubmedBERT-mini on three tasks",
    );
    let mut t = Table::new(
        "8:1:1 stratified splits",
        &["Task", "Training", "Validation", "Test", "Accuracy", "Precision", "Recall", "F1"],
    )
    .numeric_after(1);
    let mut json = Vec::new();
    for task in TaskKind::ALL {
        // Memoised through the lab so the derived checkpoint replays the
        // whole row on warm runs without touching BERT: the three split
        // sizes plus the four test metrics.
        let nums = lab.memo_vec(format!("ft4|{}", task.number()), || {
            let full = Split::eight_one_one(lab.task(task), lab.config().seed);
            // Cap set sizes for tractability; ratios preserved.
            let cap = lab.config().ft_train_cap;
            let split = Split {
                train: full.train[..full.train.len().min(cap)].to_vec(),
                validation: full.validation[..full.validation.len().min(cap / 8)].to_vec(),
                test: full.test[..full.test.len().min(cap / 4)].to_vec(),
                task,
            };
            let run = run_fine_tune(
                lab.ontology(),
                &split,
                &lab.bert().1.instantiate(),
                lab.wordpiece(),
                &lab.config().ft_schedule,
            );
            vec![
                run.sizes.0 as f64,
                run.sizes.1 as f64,
                run.sizes.2 as f64,
                run.metrics.accuracy,
                run.metrics.precision,
                run.metrics.recall,
                run.metrics.f1,
            ]
        });
        t.row(vec![
            format!("Task {}", task.number()),
            count(nums[0] as usize),
            count(nums[1] as usize),
            count(nums[2] as usize),
            metric(nums[3]),
            metric(nums[4]),
            metric(nums[5]),
            metric(nums[6]),
        ]);
        json.push(serde_json::json!({
            "task": task.number(),
            "train": nums[0] as usize,
            "validation": nums[1] as usize,
            "test": nums[2] as usize,
            "accuracy": nums[3],
            "precision": nums[4],
            "recall": nums[5],
            "f1": nums[6],
        }));
    }
    a.push_table(t);
    a.set_json(serde_json::Value::Array(json));
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::LabConfig;

    #[test]
    fn table4_runs_all_tasks_and_leaves_bert_unchanged() {
        let lab = Lab::new(LabConfig::tiny());
        let before = lab.bert().0.predict_proba(&[2, 7, 8]);
        let a = table4(&lab);
        let rows = a.json.as_array().unwrap();
        assert_eq!(rows.len(), 3);
        for r in rows {
            let acc = r["accuracy"].as_f64().unwrap();
            assert!((0.0..=1.0).contains(&acc));
            assert!(r["train"].as_u64().unwrap() > 0);
        }
        // Fine-tuning trained private copies: the lab's pre-trained model
        // and weights are untouched.
        let (bert, weights) = lab.bert();
        assert_eq!(bert.predict_proba(&[2, 7, 8]).to_bits(), before.to_bits());
        for (live, sealed) in bert.snapshot().iter().zip(weights.weights()) {
            assert_eq!(live.as_slice(), sealed.as_slice());
        }
    }
}
