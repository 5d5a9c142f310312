//! Sweep determinism: the `analysis/` tables must be byte-identical at
//! any worker count, and a variant's artifact payload must not depend on
//! which sweep it was computed inside (a K-variant sweep and a
//! single-variant sweep of the same config produce the same bytes).

use kcb_bench::analysis;
use kcb_core::experiment::sweep::{run_sweep, GridSpec, SweepSpec};
use kcb_core::lab::LabConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const GRID: &str = "seeds=7,8;scenarios=0,1;paradigms=sup,icl;model=random;adapt=naive";

/// Every language-model job kind: PubmedBERT forest cells, fine-tuning
/// and BioGPT prompting.
const LM_GRID: &str = "seeds=7;scenarios=0;paradigms=sup,ft,icl;model=pubmedbert;oracles=biogpt";

fn spec(workers: usize) -> SweepSpec {
    SweepSpec { workers, journal: None, store: None }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kcb-sweepdet-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir`, relative path → bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for e in std::fs::read_dir(dir).expect("readable").flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(root, &p, out);
            } else {
                let rel = p.strip_prefix(root).expect("under root");
                out.insert(rel.to_string_lossy().to_string(), std::fs::read(&p).expect("read"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

#[test]
fn analysis_tables_are_byte_identical_across_worker_counts() {
    let base = LabConfig::tiny();
    for (i, text) in [GRID, LM_GRID].into_iter().enumerate() {
        let grid = GridSpec::parse(text).expect("valid grid");
        let (d1, d4) = (tmp(&format!("g{i}-w1")), tmp(&format!("g{i}-w4")));
        let o1 = run_sweep(&base, &grid, &spec(1));
        let o4 = run_sweep(&base, &grid, &spec(4));
        analysis::write_analysis(&d1, &o1).expect("write w1");
        analysis::write_analysis(&d4, &o4).expect("write w4");
        let (f1, f4) = (files(&d1), files(&d4));
        assert!(f1.len() >= 4, "analysis dir has the tables: {:?}", f1.keys());
        assert_eq!(
            f1.keys().collect::<Vec<_>>(),
            f4.keys().collect::<Vec<_>>(),
            "{text}: same file set at 1 vs 4 workers"
        );
        for (name, bytes) in &f1 {
            assert_eq!(bytes, &f4[name], "{text}: {name} differs between 1 and 4 workers");
        }
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d4);
    }
}

#[test]
fn variant_payloads_do_not_depend_on_the_surrounding_sweep() {
    let base = LabConfig::tiny();
    let grid = GridSpec::parse(GRID).expect("valid grid");
    let full = run_sweep(&base, &grid, &spec(2));
    assert_eq!(full.artifacts.len(), 8, "2 seeds x 2 scenarios x 2 paradigms");
    // Re-run two of the variants as their own single-variant sweeps and
    // compare the persisted payload bytes.
    for single_grid in [
        "seeds=7;scenarios=0;paradigms=sup;model=random;adapt=naive",
        "seeds=8;scenarios=1;paradigms=icl;model=random;adapt=naive",
    ] {
        let g = GridSpec::parse(single_grid).expect("valid grid");
        let solo = run_sweep(&base, &g, &spec(2));
        assert_eq!(solo.artifacts.len(), 1);
        let (id, a) = &solo.artifacts[0];
        let (_, inside) = full
            .artifacts
            .iter()
            .find(|(fid, _)| fid == id)
            .unwrap_or_else(|| panic!("{id} missing from the full sweep"));
        assert_eq!(
            a.to_replay_json().render_json(None),
            inside.to_replay_json().render_json(None),
            "{id} payload differs between the solo and the 8-variant sweep"
        );
    }
}
