//! The batch workloads: `cold`, `warm` and `sweep`.
//!
//! Each drives the same public calls `repro` makes — `Lab::with_checkpoints`,
//! `run_scheduled_with` with the journal attached, `save_checkpoints`,
//! `Artifact::write_json`, `sweep::plan` / `run_sweep` and
//! `analysis::write_analysis` — and times them from outside.

use crate::measure::{self, timed, Span};
use crate::report::{Metrics, Outcome};
use crate::Ctx;
use kcb_core::ckpt::CkptStore;
use kcb_core::experiment::plan::{run_scheduled_with, JournalSpec, PlanReport};
use kcb_core::experiment::{sweep, ALL_IDS};
use kcb_core::journal;
use kcb_core::lab::{Lab, LabConfig};
use kcb_core::sched::RunReport;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Instant, SystemTime};

/// Scheduler workers (and `kcb_lm::pool` threads) for every workload.
pub const WORKERS: usize = 2;

/// Set-ups timed per repetition; `setup_s` is their median. Opening a
/// store and building a lab takes microseconds, so one sample would be
/// mostly timer and page-fault noise.
const SETUP_REPEATS: usize = 25;

/// The `--fast` configuration reseeded with the workload seed, sized for
/// [`WORKERS`] — what `repro all --fast --seed N --threads 2` runs.
pub fn tiny(seed: u64) -> LabConfig {
    let mut cfg = LabConfig::tiny();
    cfg.reseed(seed);
    cfg.rf.n_threads = WORKERS;
    cfg
}

/// The sweep grid for a workload seed: three seeds from it, every
/// scenario, every paradigm (45 variants over 3 labs).
pub fn sweep_grid(seed: u64) -> String {
    format!(
        "seeds={},{},{};scenarios=0,1,2,3,4;paradigms=sup,ft,icl",
        seed,
        seed.wrapping_add(1),
        seed.wrapping_add(2)
    )
}

/// Pinned payload digests of the reference seed (`reference.json`).
pub struct Reference {
    pub seed: u64,
    pub cold: BTreeMap<String, String>,
    pub sweep: BTreeMap<String, String>,
}

/// Parses the pinned references compiled into the binary.
pub fn reference() -> Reference {
    let doc = kcb_util::json::parse_value(include_str!("../reference.json"))
        .expect("reference.json parses");
    let table = |key: &str| -> BTreeMap<String, String> {
        doc.get(key)
            .and_then(|v| v.as_object())
            .expect("reference table")
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().expect("hex digest").to_string()))
            .collect()
    };
    Reference {
        seed: doc.get("seed").and_then(|v| v.as_u64()).expect("reference seed"),
        cold: table("cold"),
        sweep: table("sweep"),
    }
}

/// `(id, digest of the written payload)` per expected output; `None`
/// when the output is missing.
pub type Digests = Vec<(String, Option<String>)>;

/// Checks `got` against `want`: one operation per output, failing when
/// the output is missing, unknown to `want`, or its bytes differ.
/// Returns `(attempted, failed)`.
pub fn check_digests(got: &Digests, want: &BTreeMap<String, String>) -> (u64, u64) {
    let failed = got.iter().filter(|(id, d)| d.is_none() || want.get(id) != d.as_ref()).count();
    (got.len() as u64, failed as u64)
}

fn as_map(d: &Digests) -> BTreeMap<String, String> {
    d.iter().filter_map(|(id, d)| d.clone().map(|d| (id.clone(), d))).collect()
}

fn read_digest(path: &Path) -> Option<String> {
    std::fs::read(path).ok().map(|b| measure::digest(&b))
}

/// Every regular file under `dir` with its size and mtime.
fn files(dir: &Path) -> BTreeMap<PathBuf, (u64, Option<SystemTime>)> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in rd.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                stack.push(e.path());
            } else {
                out.insert(e.path(), (meta.len(), meta.modified().ok()));
            }
        }
    }
    out
}

/// Bytes of files under a store that are new or rewritten since `before`.
fn bytes_written(
    before: &BTreeMap<PathBuf, (u64, Option<SystemTime>)>,
    after: &BTreeMap<PathBuf, (u64, Option<SystemTime>)>,
) -> u64 {
    after.iter().filter(|(p, v)| before.get(*p) != Some(v)).map(|(_, v)| v.0).sum()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// The scheduler's job family of a label, or `None` for jobs no family
/// metric covers. Labels carry an optional `<lab-prefix>/` in sweeps.
pub fn job_family(label: &str) -> Option<&'static str> {
    let (kind, rest) = label.split_once(':')?;
    let rest = rest.rsplit('/').next().unwrap_or(rest);
    let head = rest.split('|').next().unwrap_or(rest);
    Some(match (kind, head) {
        ("artifact", _) => "job.artifact_s",
        ("cell", "forest") => "job.forest_s",
        ("cell", "rf") => "job.rf_s",
        ("cell", "ft") => "job.ft_s",
        ("cell", h) if h.starts_with("lstm") => "job.lstm_s",
        ("cell", "icl" | "gpt4") => "job.icl_s",
        ("provider", h) if h.starts_with("embed-") => "job.embed_s",
        ("provider", "bert" | "biogpt") => "job.lm_pretrain_s",
        ("provider", _) => "job.data_s",
        _ => return None,
    })
}

/// Scheduler and job-family metrics of one DAG run.
pub fn sched_layers(r: &RunReport, m: &mut Metrics) {
    let busy: f64 = r.jobs.iter().map(|j| j.seconds).sum();
    let capacity = r.workers as f64 * r.wall_seconds;
    m.insert("sched.util", if capacity > 0.0 { busy / capacity } else { 0.0 });
    m.insert("sched.idle_s", (capacity - busy).max(0.0));
    m.insert(
        "sched.driver_s",
        r.jobs.iter().filter(|j| j.kind == "driver").map(|j| j.seconds).sum(),
    );
    m.insert("sched.max_job_s", r.jobs.iter().map(|j| j.seconds).fold(0.0, f64::max));
    m.insert("sched.steals", r.steals as f64);
    for j in &r.jobs {
        if let Some(f) = job_family(&j.label) {
            *m.entry(f).or_insert(0.0) += j.seconds;
        }
    }
}

fn ratio(hits: usize, misses: usize) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Reuse-layer metrics carried by a plan report.
fn plan_layers(r: &PlanReport, m: &mut Metrics) {
    sched_layers(&r.scheduler, m);
    m.insert("ckpt.hits", r.cache.ckpt_hits as f64);
    m.insert("ckpt.misses", r.cache.ckpt_misses as f64);
    m.insert(
        "ckpt.bytes_read",
        r.checkpoints.iter().filter(|e| e.hit).map(|e| e.bytes as f64).sum(),
    );
    m.insert("journal.appended", r.journal.appended as f64);
    m.insert("journal.replayed", r.journal.replayed as f64);
    m.insert("memo.hit_ratio", ratio(r.cache.memo_hits, r.cache.memo_misses));
    m.insert("forest_cache.hit_ratio", ratio(r.cache.forest_hits, r.cache.forest_misses));
    m.insert("encoding.hit_ratio", ratio(r.encoding_hits, r.encoding_misses));
    m.insert("encoding.contended", r.encoding_contended as f64);
}

/// Span self times from the recorder, for traced runs.
fn span_layers(t: &kcb_obs::Telemetry, m: &mut Metrics) {
    let stats = kcb_obs::profile::span_stats(t);
    let self_s = |k: &str| stats.get(k).map(|s| s.self_s).unwrap_or(0.0);
    m.insert("ml.forest_fit_s", self_s("forest.fit"));
    m.insert("ml.forest_fits", stats.get("forest.fit").map(|s| s.count as f64).unwrap_or(0.0));
    m.insert("lm.fine_tune_s", self_s("bert.fine_tune"));
    m.insert("lm.pretrain_mlm_s", self_s("bert.pretrain_mlm"));
    m.insert("lm.pretrain_clm_s", self_s("gpt.pretrain_clm"));
}

/// Runs `f` with the recorder on when `trace` is set and folds the
/// recorded spans into `m`.
fn traced<T>(trace: bool, m: &mut Metrics, f: impl FnOnce() -> T) -> T {
    if trace {
        kcb_obs::reset();
        kcb_obs::set_enabled(true);
    }
    let out = f();
    if trace {
        let t = kcb_obs::drain();
        kcb_obs::set_enabled(false);
        span_layers(&t, m);
    }
    out
}

/// One measured repetition of a batch workload.
struct Rep {
    /// Set-up samples (seconds).
    setup_s: Vec<f64>,
    /// The timed phase.
    span: Span,
    /// Ready time of each output, µs (see [`Ready`]).
    ready_us: Vec<f64>,
    /// Output digests.
    digests: Digests,
    /// Layer metrics.
    layers: Metrics,
}

/// Repetitions an untraced cold or sweep run makes at least, whatever
/// its seconds. The same work takes 7.5 s when the scheduler keeps both
/// cores busy and 9-11 s when the driver lane leaves one idle for
/// seconds, so one repetition is close to a coin flip: with four, the
/// ten-run spread of the median still reached 0.2-0.26. A traced run
/// makes a quarter as many per pass; it reports layers, not bounds.
const MIN_REPS: usize = 8;

/// [`MIN_REPS`] for a run with or without the recorder.
fn min_reps(trace: bool) -> usize {
    if trace {
        MIN_REPS / 4
    } else {
        MIN_REPS
    }
}

/// Repeats `rep` until `seconds` have passed and `min` repetitions ran.
fn repeat_for<T>(seconds: f64, min: usize, mut rep: impl FnMut(usize) -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min.max(1) || t0.elapsed().as_secs_f64() < seconds {
        out.push(rep(out.len()));
    }
    out
}

/// Opens the store and builds the lab — the set-up of an artifact run.
pub fn open_lab(cfg: &LabConfig, store_dir: &Path) -> Lab {
    Lab::with_checkpoints(cfg.clone(), Arc::new(CkptStore::open(store_dir)))
}

/// Times [`SETUP_REPEATS`] set-ups against `store_dir` and keeps the last.
fn timed_setups(cfg: &LabConfig, store_dir: &Path) -> (Lab, Vec<f64>) {
    let mut samples = Vec::with_capacity(SETUP_REPEATS);
    let mut lab = None;
    for _ in 0..SETUP_REPEATS {
        let (l, span) = timed(|| open_lab(cfg, store_dir));
        samples.push(span.wall_s);
        lab = Some(l);
    }
    (lab.expect("at least one set-up"), samples)
}

/// Where one artifact run keeps its state.
struct RunDirs {
    store: PathBuf,
    runs: PathBuf,
    out: PathBuf,
}

impl RunDirs {
    fn under(dir: &Path) -> Self {
        Self { store: dir.join("store"), runs: dir.join("runs"), out: dir.join("out") }
    }
}

fn manifest(lab: &Lab, ids: &[String]) -> journal::RunManifest {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    journal::RunManifest {
        run_id: format!("{}-{now}", lab.config_digest()),
        config_digest: lab.config_digest(),
        seed: lab.config().seed,
        scale: lab.config().scale,
        threads: WORKERS as u64,
        fast: true,
        ids: ids.to_vec(),
        started_unix_ms: now,
        updated_unix_ms: now,
        outcome: "running".to_string(),
        jobs_run: 0,
        jobs_replayed: 0,
        resume: false,
        wall_s: 0.0,
        artifacts: Vec::new(),
    }
}

/// When an output of an artifact run counts as ready.
#[derive(Clone, Copy)]
enum Ready {
    /// Its assembly job ended, µs from the start of the scheduled run
    /// (cold: assembly is where the outputs are computed).
    Assembled,
    /// Its JSON file was written, µs from the start of the timed phase
    /// (warm: every artifact is replayed from a payload loaded while the
    /// graph is built, so its "assembly" job only hands it over, and when
    /// those hand-overs end measures thread start-up and lock hand-offs —
    /// two states that differed 1.7× between runs, spread 0.27 over ten).
    Written,
}

/// The timed phase of an artifact run, as `repro all` performs it: run
/// index start record, the journaled DAG run over all 17 artifacts,
/// `save_checkpoints`, one JSON file per artifact, the terminal index
/// record. Followed, untimed, by reading back the written payloads.
fn artifact_run(lab: &Lab, dirs: &RunDirs, trace: bool, ready: Ready) -> Rep {
    let ids: Vec<String> = ALL_IDS.iter().map(|s| s.to_ascii_lowercase()).collect();
    let spec = JournalSpec { dir: journal::run_dir(&dirs.runs, &lab.config_digest()), fault: None };
    let journal_file = journal::journal_path(&spec.dir);
    let (store_before, journal_before) = (files(&dirs.store), file_len(&journal_file));
    let mut layers = Metrics::new();
    let ((report, paths, written_us, save_s), span) = traced(trace, &mut layers, || {
        timed(|| {
            let phase = Instant::now();
            let mut m = manifest(lab, &ids);
            journal::index_append(&dirs.runs, &m);
            let t0 = Instant::now();
            let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
            let (artifacts, report) = run_scheduled_with(lab, &id_refs, WORKERS, Some(&spec));
            let (_, save) = timed(|| lab.save_checkpoints());
            let mut written_us = Vec::with_capacity(artifacts.len());
            let paths: BTreeMap<String, PathBuf> = artifacts
                .iter()
                .filter_map(|(id, a)| {
                    let p = a.write_json(&dirs.out).ok()?;
                    written_us.push(phase.elapsed().as_secs_f64() * 1e6);
                    Some((id.clone(), p))
                })
                .collect();
            m.outcome = "complete".to_string();
            m.jobs_run = report.journal.appended;
            m.jobs_replayed = report.journal.replayed;
            m.resume = report.journal.resume;
            m.wall_s = t0.elapsed().as_secs_f64();
            m.artifacts = artifacts
                .iter()
                .map(|(id, a)| {
                    let body = a.to_replay_json().render_json(None);
                    (id.clone(), journal::fnv64_hex(body.as_bytes()))
                })
                .collect();
            journal::index_append(&dirs.runs, &m);
            (report, paths, written_us, save.wall_s)
        })
    });
    plan_layers(&report, &mut layers);
    layers.insert("ckpt.save_s", save_s);
    layers.insert("ckpt.bytes_written", bytes_written(&store_before, &files(&dirs.store)) as f64);
    layers.insert(
        "journal.bytes_appended",
        file_len(&journal_file).saturating_sub(journal_before) as f64,
    );
    let digests =
        ids.iter().map(|id| (id.clone(), paths.get(id).and_then(|p| read_digest(p)))).collect();
    let ready_us = match ready {
        Ready::Assembled => ready_us(&report.scheduler),
        Ready::Written => written_us,
    };
    Rep { setup_s: Vec::new(), span, ready_us, digests, layers }
}

/// A cold repetition: fresh store and journal under `dir`.
fn cold_rep(cfg: &LabConfig, dir: &Path, trace: bool) -> Rep {
    let _ = std::fs::remove_dir_all(dir);
    measure::flush_dirty_pages();
    let dirs = RunDirs::under(dir);
    let (lab, setup_s) = timed_setups(cfg, &dirs.store);
    Rep { setup_s, ..artifact_run(&lab, &dirs, trace, Ready::Assembled) }
}

/// The untimed cold run a warm workload starts from (run in a child
/// process so its peak RSS stays out of the warm figures).
pub fn prep_cold(seed: u64, dir: &Path) {
    let rep = cold_rep(&tiny(seed), dir, false);
    let text: String = rep
        .digests
        .iter()
        .map(|(id, d)| format!("{id} {}\n", d.as_deref().unwrap_or("missing")))
        .collect();
    std::fs::write(dir.join(DIGESTS), text).expect("write prep digests");
}

/// File in which the warm preparation leaves its artifact digests.
const DIGESTS: &str = "digests.txt";

/// One warm iteration against `dirs` (untimed set-up included).
fn warm_iteration(cfg: &LabConfig, dirs: &RunDirs, trace: bool) -> Rep {
    let (lab, span) = timed(|| open_lab(cfg, &dirs.store));
    Rep { setup_s: vec![span.wall_s], ..artifact_run(&lab, dirs, trace, Ready::Written) }
}

/// End-to-end metrics common to the batch workloads. `wall_s`, `cpu_s`
/// and `setup_s` are medians over the repetitions (set-ups); `qps` is
/// outputs per second of the median repetition. `p50_us`/`p99_us` take,
/// per repetition, the nearest-rank percentile of its outputs' ready
/// times (assembly job ended for cold and sweep, file written for warm;
/// see [`Ready`]), then the nearest-rank median over the repetitions: a
/// median over repetitions rather than a pool, so the rare stalled warm
/// iteration cannot own the tail, and a nearest-rank one, so the
/// two-state cold and sweep schedules are never averaged into a value no
/// repetition took.
fn batch_e2e(reps: &[Rep]) -> Metrics {
    let setups: Vec<f64> = reps.iter().flat_map(|r| r.setup_s.iter().copied()).collect();
    let wall_s = measure::median(&reps.iter().map(|r| r.span.wall_s).collect::<Vec<_>>());
    let ready_pct = |p: f64| {
        let mut per_rep: Vec<f64> = reps
            .iter()
            .map(|r| {
                let mut ready = r.ready_us.clone();
                ready.sort_by(f64::total_cmp);
                measure::nearest_rank(&ready, p).unwrap_or(0.0)
            })
            .collect();
        per_rep.sort_by(f64::total_cmp);
        measure::nearest_rank(&per_rep, 50.0).unwrap_or(0.0)
    };
    let mut m = Metrics::new();
    m.insert("setup_s", measure::median(&setups));
    m.insert("wall_s", wall_s);
    m.insert("cpu_s", measure::median(&reps.iter().map(|r| r.span.cpu_s).collect::<Vec<_>>()));
    m.insert("peak_rss_mb", measure::peak_rss_mb());
    m.insert("qps", reps[0].digests.len() as f64 / wall_s);
    m.insert("p50_us", ready_pct(50.0));
    m.insert("p99_us", ready_pct(99.0));
    m
}

/// When each output's assembly job ended, µs from the start of the run.
fn ready_us(r: &RunReport) -> Vec<f64> {
    r.jobs.iter().filter(|j| j.label.starts_with("artifact:")).map(|j| j.end * 1e6).collect()
}

fn finish(out: &mut Outcome, reps: &[Rep], unit: &str) {
    out.e2e = batch_e2e(reps);
    out.layers =
        crate::report::median_of(&reps.iter().map(|r| r.layers.clone()).collect::<Vec<_>>());
    out.context.push(("repetitions", serde_json::json!(reps.len())));
    let walls: Vec<f64> = reps.iter().map(|r| r.span.wall_s).collect();
    out.context.push(("repetition_wall_s", serde_json::json!(walls)));
    out.context.push(("unit_of_work", serde_json::json!(unit)));
    let samples: usize = reps.iter().map(|r| r.ready_us.len()).sum();
    out.context.push(("latency_samples", serde_json::json!(samples)));
    out.context.push((
        "setup_samples",
        serde_json::json!(reps.iter().map(|r| r.setup_s.len()).sum::<usize>()),
    ));
}

fn print_digests(kind: &str, d: &Digests) {
    for (id, dg) in d {
        eprintln!("# digest {kind} {id} {}", dg.as_deref().unwrap_or("missing"));
    }
}

/// `cold`: every artifact from an empty store and journal, repeated for
/// the run's seconds. The expected bytes are the pinned references at
/// the reference seed and, at any other seed, those of an untimed warm
/// re-run over the last repetition's store and journal.
pub fn cold(ctx: &Ctx) -> Outcome {
    let cfg = tiny(ctx.seed);
    let mut last = PathBuf::new();
    let reps = repeat_for(ctx.seconds, min_reps(ctx.trace), |k| {
        let _ = std::fs::remove_dir_all(&last);
        last = ctx.work.join(format!("cold-{k}"));
        cold_rep(&cfg, &last, ctx.trace)
    });
    let warm = warm_iteration(&cfg, &RunDirs::under(&last), false);
    print_digests("cold", &reps[0].digests);
    let reference = reference();
    let want =
        if ctx.seed == reference.seed { reference.cold.clone() } else { as_map(&warm.digests) };
    let mut out = Outcome::default();
    for r in reps.iter().chain(std::iter::once(&warm).filter(|_| ctx.seed == reference.seed)) {
        let (a, f) = check_digests(&r.digests, &want);
        out.check(a, f);
    }
    finish(&mut out, &reps, "one cold `repro all --fast` (17 artifacts)");
    out
}

/// Spawns this binary to run the untimed preparation `what` into `dir`.
pub fn spawn_prep(what: &str, seed: u64, dir: &Path) {
    let exe = std::env::current_exe().expect("benchmark executable path");
    let status = std::process::Command::new(exe)
        .args(["--prep", what, "--seed", &seed.to_string(), "--work"])
        .arg(dir)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn the preparation run");
    assert!(status.success(), "preparation `{what}` failed: {status}");
    measure::flush_dirty_pages();
}

/// `warm`: a fresh lab over the store and journal an untimed cold run
/// left behind, repeated for the run's seconds. The post-cold journal
/// and run index are restored before every iteration (untimed), so each
/// iteration sees the same state.
pub fn warm(ctx: &Ctx) -> Outcome {
    let cfg = tiny(ctx.seed);
    let prep = ctx.work.join("prep");
    spawn_prep("cold", ctx.seed, &prep);
    let dirs = RunDirs::under(&prep);
    let journal_file = journal::journal_path(&journal::run_dir(
        &dirs.runs,
        &Lab::new(cfg.clone()).config_digest(),
    ));
    let index_file = journal::index_path(&dirs.runs);
    let saved_journal = std::fs::read(&journal_file).expect("post-cold journal");
    let saved_index = std::fs::read(&index_file).expect("post-cold run index");
    let cold_digests: Digests = std::fs::read_to_string(prep.join(DIGESTS))
        .expect("prep digests")
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(id, d)| (id.to_string(), (d != "missing").then(|| d.to_string())))
        .collect();
    let reference = reference();
    let want =
        if ctx.seed == reference.seed { reference.cold.clone() } else { as_map(&cold_digests) };
    let mut out = Outcome::default();
    let reps = repeat_for(ctx.seconds, 1, |_| {
        std::fs::write(&journal_file, &saved_journal).expect("restore journal");
        std::fs::write(&index_file, &saved_index).expect("restore run index");
        measure::flush_dirty_pages();
        warm_iteration(&cfg, &dirs, ctx.trace)
    });
    print_digests("warm", &reps[0].digests);
    for r in &reps {
        let (a, f) = check_digests(&r.digests, &want);
        out.check(a, f);
    }
    finish(&mut out, &reps, "one warm iteration (17 artifacts)");
    out
}

/// One sweep repetition: fresh store and journal under `dir`.
fn sweep_rep(base: &LabConfig, grid_text: &str, dir: &Path, trace: bool) -> Rep {
    let _ = std::fs::remove_dir_all(dir);
    measure::flush_dirty_pages();
    let (store_dir, runs, analysis_dir) =
        (dir.join("store"), dir.join("runs"), dir.join("analysis"));
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut plan_us = Vec::with_capacity(SETUP_REPEATS);
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        let (r, span) = timed(|| {
            let store = Arc::new(CkptStore::open(&store_dir));
            let grid = sweep::GridSpec::parse(grid_text).expect("benchmark grid parses");
            let (plan, p) = timed(|| sweep::plan(base, &grid));
            (store, grid, plan, p.wall_s)
        });
        setup_s.push(span.wall_s);
        plan_us.push(r.3 * 1e6);
        ready = Some((r.0, r.1, r.2));
    }
    let (store, grid, plan) = ready.expect("at least one set-up");
    let mut rep = run_sweep_timed(base, &grid, store, &runs, &analysis_dir, trace);
    rep.setup_s = setup_s;
    let m = &mut rep.layers;
    m.insert("sweep.plan_us", measure::median(&plan_us));
    m.insert("sweep.jobs", plan.total_jobs as f64);
    m.insert("sweep.shared_jobs", plan.shared_jobs as f64);
    m.insert("sweep.labs", plan.labs as f64);
    let refs: usize = plan.jobs.iter().map(|j| j.refs).sum();
    m.insert("sweep.dedup_ratio", refs as f64 / plan.total_jobs.max(1) as f64);
    rep
}

/// The timed phase of a sweep: the journaled `run_sweep` and the
/// `analysis/` tables, then (untimed) the variant payload digests.
fn run_sweep_timed(
    base: &LabConfig,
    grid: &sweep::GridSpec,
    store: Arc<CkptStore>,
    runs: &Path,
    analysis_dir: &Path,
    trace: bool,
) -> Rep {
    let store_dir = store.dir().to_path_buf();
    let store_before = files(&store_dir);
    let spec = sweep::SweepSpec {
        workers: WORKERS,
        journal: Some(JournalSpec {
            dir: journal::run_dir(runs, &format!("sweep-{}", sweep::grid_digest(base, grid))),
            fault: None,
        }),
        store: Some(store),
    };
    let journal_file = journal::journal_path(&spec.journal.as_ref().expect("journal").dir);
    let journal_before = file_len(&journal_file);
    let mut layers = Metrics::new();
    let ((outcome, render_s), span) = traced(trace, &mut layers, || {
        timed(|| {
            let outcome = sweep::run_sweep(base, grid, &spec);
            let (written, render) =
                timed(|| kcb_bench::analysis::write_analysis(analysis_dir, &outcome));
            written.expect("write analysis tables");
            (outcome, render.wall_s)
        })
    });
    plan_layers(&outcome.report, &mut layers);
    layers.insert("analysis.render_s", render_s);
    layers.insert("ckpt.bytes_written", bytes_written(&store_before, &files(&store_dir)) as f64);
    layers.insert(
        "journal.bytes_appended",
        file_len(&journal_file).saturating_sub(journal_before) as f64,
    );
    let digests = outcome
        .plan
        .variant_ids
        .iter()
        .map(|vid| {
            (vid.clone(), read_digest(&analysis_dir.join("variants").join(format!("{vid}.json"))))
        })
        .collect();
    Rep {
        setup_s: Vec::new(),
        span,
        ready_us: ready_us(&outcome.report.scheduler),
        digests,
        layers,
    }
}

/// `sweep`: the 45-variant grid from an empty store, repeated for the
/// run's seconds. The expected payloads are the pinned references at the
/// reference seed and, at any other seed, those of an untimed re-run
/// over the last repetition's store and journal.
pub fn sweep(ctx: &Ctx) -> Outcome {
    let base = tiny(ctx.seed);
    let grid_text = sweep_grid(ctx.seed);
    let mut last = PathBuf::new();
    let reps = repeat_for(ctx.seconds, min_reps(ctx.trace), |k| {
        let _ = std::fs::remove_dir_all(&last);
        last = ctx.work.join(format!("sweep-{k}"));
        sweep_rep(&base, &grid_text, &last, ctx.trace)
    });
    print_digests("sweep", &reps[0].digests);
    let reference = reference();
    let mut out = Outcome::default();
    let want = if ctx.seed == reference.seed {
        reference.sweep.clone()
    } else {
        let grid = sweep::GridSpec::parse(&grid_text).expect("benchmark grid parses");
        let store = Arc::new(CkptStore::open(last.join("store")));
        let rerun =
            run_sweep_timed(&base, &grid, store, &last.join("runs"), &last.join("rerun"), false);
        as_map(&rerun.digests)
    };
    for r in &reps {
        let (a, f) = check_digests(&r.digests, &want);
        out.check(a, f);
    }
    finish(&mut out, &reps, "one 45-variant sweep");
    out.context.push(("grid", serde_json::json!(grid_text)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcb_core::sched::JobReport;

    fn job(label: &str, kind: &'static str, seconds: f64) -> JobReport {
        JobReport { label: label.into(), kind, seconds, start: 0.0, end: seconds, worker: 0 }
    }

    #[test]
    fn synthetic_run_report_yields_known_sched_metrics() {
        // 2 workers × 10 s wall = 20 s of capacity; 6 + 4 + 2 = 12 s busy.
        let r = RunReport {
            workers: 2,
            jobs: vec![
                job("provider:embed-glove", "par", 6.0),
                job("cell:ft|1|0|0.5", "driver", 4.0),
                job("artifact:table2", "driver", 2.0),
            ],
            steals: 3,
            wall_seconds: 10.0,
        };
        let mut m = Metrics::new();
        sched_layers(&r, &mut m);
        assert_eq!(m["sched.util"], 0.6);
        assert_eq!(m["sched.idle_s"], 8.0);
        assert_eq!(m["sched.driver_s"], 6.0);
        assert_eq!(m["sched.max_job_s"], 6.0);
        assert_eq!(m["sched.steals"], 3.0);
        assert_eq!(m["job.embed_s"], 6.0);
        assert_eq!(m["job.ft_s"], 4.0);
        assert_eq!(m["job.artifact_s"], 2.0);
    }

    #[test]
    fn job_families_cover_plain_and_sweep_labels() {
        assert_eq!(job_family("cell:forest|1|glove|naive"), Some("job.forest_s"));
        assert_eq!(job_family("cell:0123abcd/rf|1|0|0.5|random|naive"), Some("job.rf_s"));
        assert_eq!(job_family("cell:icl|2|gpt-4-sim"), Some("job.icl_s"));
        assert_eq!(job_family("cell:gpt4|3"), Some("job.icl_s"));
        assert_eq!(job_family("provider:0123abcd/biogpt"), Some("job.lm_pretrain_s"));
        assert_eq!(job_family("provider:split2"), Some("job.data_s"));
        assert_eq!(job_family("artifact:s42-x0.006-sc0-sup"), Some("job.artifact_s"));
        assert_eq!(job_family("graph:run"), None);
    }

    #[test]
    fn a_flipped_reference_byte_fails_one_artifact() {
        let got: Digests = vec![
            ("table2".into(), Some("00000000000000aa".into())),
            ("fig3".into(), Some("00000000000000bb".into())),
        ];
        let mut want = as_map(&got);
        assert_eq!(check_digests(&got, &want), (2, 0));
        want.insert("fig3".into(), "00000000000000bc".into());
        assert_eq!(check_digests(&got, &want), (2, 1));
    }

    #[test]
    fn a_missing_artifact_fails() {
        let got: Digests = vec![("table2".into(), None)];
        let want = BTreeMap::from([("table2".to_string(), "00000000000000aa".to_string())]);
        assert_eq!(check_digests(&got, &want), (1, 1));
    }

    #[test]
    fn pinned_reference_covers_all_outputs() {
        let r = reference();
        assert_eq!(r.cold.len(), ALL_IDS.len());
        for id in ALL_IDS {
            assert!(r.cold.contains_key(&id.to_ascii_lowercase()), "{id} not pinned");
        }
        let grid = sweep::GridSpec::parse(&sweep_grid(r.seed)).expect("grid parses");
        let plan = sweep::plan(&tiny(r.seed), &grid);
        assert_eq!(plan.variant_ids.len(), 45);
        assert_eq!(plan.labs, 3);
        for vid in &plan.variant_ids {
            assert!(r.sweep.contains_key(vid), "{vid} not pinned");
        }
    }
}
