//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro all                       # every artifact at the default scale
//! repro table3a fig3              # specific artifacts
//! repro --list                    # show artifact ids with descriptions
//! repro all --scale 0.05 --seed 7 --out results/
//! repro all --fast                # tiny smoke-test configuration
//! repro all --fast --trace t.json --metrics --profile   # observability
//! ```
//!
//! Numbers are not expected to match the paper's absolute values (the
//! substrate is a mini-scale simulator — see DESIGN.md); the comparisons
//! that must hold are recorded in EXPERIMENTS.md.
//!
//! Telemetry: `--trace` writes a Chrome trace-event timeline (open in
//! `chrome://tracing` or Perfetto), `--metrics` writes the versioned
//! `results/run_meta.json` run manifest, `--profile` prints a per-span
//! wall-time table. All three draw on one recording pass that is strictly
//! out-of-band of the artifact pipeline — artifact bytes are identical
//! with or without them (enforced by the determinism suite).

use kcb_bench::analysis;
use kcb_bench::cli::{self, Command, EngineOpts, JournalOpts, LabOpts, ObsOpts, SweepMode};
use kcb_bench::run_meta::{self, RunMetaInputs};
use kcb_bench::runs;
use kcb_core::ckpt::CkptStore;
use kcb_core::experiment::plan::{run_scheduled, run_scheduled_with, JournalSpec, PlanReport};
use kcb_core::experiment::sweep::{self, GridSpec};
use kcb_core::journal;
use kcb_core::lab::{Lab, LabConfig};
use kcb_core::report::Artifact;
use kcb_core::snapshot::{Snapshot, SnapshotSpec};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "\
repro — regenerate the paper's tables and figures

USAGE: repro [ARTIFACT...] [OPTIONS]
       repro SUBCOMMAND [OPTIONS]

ARTIFACTS:
  all            every artifact in paper order
  table2 table3a table3b table4 table5 table6
  tableA1..tableA7 fig2 fig3 figA1 figA2
  ablations      ablation-corpus ablation-dim ablation-forest ablation-adapt
  summary        machine-checked scorecard of the paper's key findings
  ext-llama2     extension: the paper's future work (open-weight oracle)

SUBCOMMANDS:
  bench-query    run the raw-speed query-path microbenchmark and write
                 results/bench_query.json (qps/core, p50/p95/p99 per
                 query kind); combines with --fast / --quant / --no-mmap
  serve          freeze a warm snapshot and answer NDJSON queries over
                 TCP (--port, default 7878) and/or a Unix socket
                 (--socket PATH); any artifact ids given are assembled
                 first and preloaded for the `artifact` op; admin verbs
                 `stats`, `health` and `flight` answer inline, and the
                 same TCP port answers HTTP GET /metrics (Prometheus
                 text exposition) and GET /health; slow / recent requests
                 are kept in a flight-recorder ring flushed to
                 results/serve_flight.jsonl on shutdown and on overload;
                 stop with {\"op\":\"shutdown\"} or SIGINT/SIGTERM (both
                 drain the queue and flush the flight recorder first)
  serve-bench    run the serving load harness (N client connections
                 against the batching engine, then a serial replay of the
                 same workload) and write results/bench_serve.json
                 (qps, qps/core, p50/p95/p99, batch-size histogram, shed
                 count, a queue-depth/shed time series sampled during the
                 run, byte-identity checksums)
  serve-top      attach to a running `serve` daemon (--port) and render a
                 refreshing terminal table of live qps, latency
                 percentiles, queue depth, sheds and the per-verb mix;
                 --interval-ms sets the poll cadence, --samples bounds
                 the frame count (0 = until the daemon exits)
  sweep          compile a variant grid (seed x scale x scenario x
                 paradigm x oracle) into one structure-shared DAG and run
                 it: provider and cell jobs shared between variants are
                 trained once, so a K-variant sweep costs well under K
                 single runs; writes per-variant tables plus seed-repeat
                 aggregates (Fleiss kappa, Welch t-tests) under
                 results/analysis/ (or --out DIR) and the efficiency
                 numbers (shared vs unique jobs, measured speedup with
                 --baseline) to results/bench_sweep.json; journaled under
                 the grid digest, so an interrupted sweep resumes mid-DAG
                   --grid SPEC    the grid, `key=v1,v2;key=...` over keys
                                  seeds / scales / scenarios / paradigms
                                  (sup|ft|icl|all) / oracles / model /
                                  adapt, e.g.
                                  \"seeds=7,8;scenarios=0,1;paradigms=all\"
                   --plan         dry run: print the dedup plan (every
                                  job with its cross-variant refcount)
                                  and exit without scheduling anything
                   --baseline     also run every variant sequentially in
                                  a fresh lab to measure the speedup and
                                  assert row byte-identity
  runs           query the run index (results/runs/index.jsonl):
                   runs [list]        latest manifest per run, newest first
                                      (columns include the journal's jobs
                                      appended + replayed counts, and
                                      resumed runs are marked)
                   runs show ID       one manifest in full (unique prefixes
                                      ok) — jobs_run / jobs_replayed /
                                      resume rows are the journal stats
                   runs diff ID ID    field-by-field manifest comparison,
                                      including per-artifact checksums

OPTIONS (each applies only to the commands it names; passing one to any
other command is an error):
 lab options — artifact runs, sweep, serve, serve-bench, bench-query:
  --scale S      ontology scale relative to real ChEBI (default 0.03)
  --seed N       master seed (default 42)
  --threads N    worker threads for the cell scheduler; nested forest /
                 LM kernels share the same pool and yield to cell-level
                 parallelism (default: CPU count, capped at 16);
                 artifacts are byte-identical at any thread count
  --fast         tiny smoke-test configuration (seconds, not minutes)
  --cache-dir DIR  persistent checkpoint store for trained providers and
                 derived results (default results/ckpt); a warm cache only
                 changes wall time, never artifact bytes
  --cold         ignore existing checkpoints: retrain and overwrite them
  --no-mmap      decode checkpoint containers through the byte reader
                 instead of borrowing them zero-copy from an mmap; bytes
                 are identical either way, only warm-start time changes
  --cache-cap BYTES  after the run, evict oldest checkpoints until the
                 store fits under BYTES
 outputs:
  --out DIR      artifact runs: also write one JSON file per artifact into
                 DIR; sweep: the analysis-table directory
  --md FILE      artifact runs: also write a combined Markdown report
 telemetry — artifact runs, sweep, serve:
  --trace FILE   write a Chrome trace-event timeline of the run
  --metrics      write results/run_meta.json (manifest + counters + series)
  --profile      print per-span wall-time statistics to stdout
 run journal:
  --runs-dir DIR artifact runs, sweep, runs: run-journal root (default
                 results/runs); artifact runs and sweeps journal every
                 completed job there and resume mid-DAG after an
                 interruption, byte-identically
  --no-journal   artifact runs, sweep: disable the run journal
 subcommand options:
  --quant        bench-query: add the int8-quantized query legs
  --port N       serve / serve-top: TCP port (default 7878)
  --socket PATH  serve: also listen on a Unix socket (unix only)
  --clients N    serve-bench: concurrent client connections
  --requests N   serve-bench: requests per client
  --queue-cap N  serve / serve-bench: bounded request-queue capacity;
                 submissions beyond it get a typed `overloaded` reply
  --batch-max N  serve / serve-bench: largest micro-batch one worker
                 drains at once (default 32)
  --slow-us N    serve: flight-recorder slow-request threshold, µs
                 (default 10000)
  --interval-ms N  serve-top: polling interval (default 1000)
  --samples N    serve-top: frames to render; 0 = until daemon exit
  --list         list artifact ids with descriptions and exit
  --help, -h     print this text

FAULT INJECTION:
  KCB_FAULT=abort_after_job:N   abort the process after the Nth journaled
                 job of this run — the crash used by the CI resume test;
                 rerunning the same command resumes from the journal

LIVE TELEMETRY:
  KCB_LIVE=off   serve / serve-bench: disable per-request timing (latency
                 histograms + flight recorder) to measure the telemetry
                 plane's own overhead; counters, gauges and admission
                 control stay on";

/// Re-execs the binary once with glibc's allocator tuned for the autograd
/// workload. Each training step builds and tears down a multi-megabyte
/// tape; with the default tunables glibc trims the freed pages back to the
/// kernel after every step and immediately faults them in again (~20% of
/// wall time in system calls). Raising the trim/mmap thresholds keeps the
/// pages in the arena. The env vars must be set before the first malloc,
/// hence the exec rather than a runtime call.
#[cfg(unix)]
fn tune_allocator_via_reexec() {
    const MARKER: &str = "KCB_MALLOC_TUNED";
    if std::env::var_os(MARKER).is_some() {
        return;
    }
    let Ok(exe) = std::env::current_exe() else { return };
    use std::os::unix::process::CommandExt;
    // exec only returns on failure; in that case run untuned.
    let _ = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(MARKER, "1")
        .env("MALLOC_TRIM_THRESHOLD_", "1073741824")
        .env("MALLOC_MMAP_THRESHOLD_", "268435456")
        .exec();
}

#[cfg(not(unix))]
fn tune_allocator_via_reexec() {}

/// Current unix time in milliseconds (run ids and manifest timestamps).
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The run-journal root (`--runs-dir`, default `results/runs`).
fn runs_root(runs_dir: Option<PathBuf>) -> PathBuf {
    runs_dir.unwrap_or_else(|| Path::new("results").join("runs"))
}

/// Writes `doc` as pretty JSON to `results/<name>` and reports the path.
/// Returns the text written, or `None` once the error is reported.
fn write_result(name: &str, doc: &Value) -> Option<String> {
    let path = Path::new("results").join(name);
    let text = serde_json::to_string_pretty(doc).expect("serializable");
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, &text)) {
        Ok(()) => {
            eprintln!("# wrote {}", path.display());
            Some(text)
        }
        Err(e) => {
            eprintln!("error writing {}: {e}", path.display());
            None
        }
    }
}

/// The lab configuration and checkpoint store every lab-building command
/// starts from.
struct Setup {
    cfg: LabConfig,
    threads: usize,
    fast: bool,
    /// FNV-64 of the full configuration, for `run_meta.json`.
    config_digest: String,
    store: Arc<CkptStore>,
    cache_cap: Option<u64>,
}

impl Setup {
    /// Applies the lab options; `record` turns the telemetry recorder on
    /// before any instrumented work.
    fn new(opts: &LabOpts, record: bool) -> Self {
        let mut cfg = if opts.fast { LabConfig::tiny() } else { LabConfig::default() };
        if let Some(s) = opts.scale {
            cfg.scale = s;
        }
        if let Some(s) = opts.seed {
            cfg.reseed(s);
        }
        if let Some(t) = opts.threads {
            cfg.rf.n_threads = t;
            // The same pool size drives the LM matmul kernels; results are
            // bitwise identical at any thread count (see kcb_lm::pool).
            kcb_lm::pool::set_threads(t);
        }
        eprintln!(
            "# kcb repro — scale {} seed {}{}",
            cfg.scale,
            cfg.seed,
            if opts.fast { " (fast mode)" } else { "" }
        );
        // The artifact path never reads telemetry, so recording cannot
        // change output bytes.
        if record {
            kcb_obs::reset();
            kcb_obs::set_enabled(true);
        }
        // Trained providers and derived results persist across runs in a
        // content-addressed store; a stale or corrupt entry falls back to
        // retraining, so the cache is purely a wall-clock knob.
        let cache_dir = opts.cache_dir.clone().unwrap_or_else(|| Path::new("results").join("ckpt"));
        let mut store =
            if opts.cold { CkptStore::cold(cache_dir) } else { CkptStore::open(cache_dir) };
        // Zero-copy warm start is the default; --no-mmap drops to the
        // decode path (same bytes, more copies).
        store.set_mmap(!opts.no_mmap);
        Self {
            threads: opts.threads.unwrap_or_else(kcb_lm::pool::threads),
            fast: opts.fast,
            config_digest: kcb_util::fnv64_hex(format!("{cfg:?}").as_bytes()),
            cfg,
            store: Arc::new(store),
            cache_cap: opts.cache_cap,
        }
    }

    /// A lab over this setup's checkpoint store.
    fn lab(&self) -> Lab {
        Lab::with_checkpoints(self.cfg.clone(), Arc::clone(&self.store))
    }

    /// Persists the lab's checkpoints so the next run replays them, then
    /// applies `--cache-cap`.
    fn save(&self, lab: &Lab) {
        lab.save_checkpoints();
        self.gc();
    }

    /// Evicts the oldest checkpoints until the store fits `--cache-cap`.
    fn gc(&self) {
        if let Some(cap) = self.cache_cap {
            eprintln!("# {}", self.store.gc(cap));
        }
    }
}

/// A recorded run — `artifacts`, `sweep` or `serve` — from its start to
/// its exit code: the wall clock, the run-index manifest and the
/// telemetry exporters.
struct Run<'a> {
    setup: &'a Setup,
    obs: ObsOpts,
    /// `run_meta.json` manifest mode.
    mode: &'static str,
    t0: Instant,
    /// Runs root and the start manifest, when the run is journaled.
    index: Option<(PathBuf, journal::RunManifest)>,
}

impl<'a> Run<'a> {
    fn new(setup: &'a Setup, obs: ObsOpts, mode: &'static str) -> Self {
        Self { setup, obs, mode, t0: Instant::now(), index: None }
    }

    /// Opens the run journal under `digest` unless `--no-journal`, and
    /// appends the `running` index record that [`Run::finish`] folds
    /// over. Every completed job is then appended (fsynced) under
    /// `<runs-dir>/<digest>/`, so a killed run resumes mid-DAG on the next
    /// invocation with byte-identical output. `KCB_FAULT` injects the
    /// crash the CI resume test proves this with.
    fn journal(
        &mut self,
        opts: &JournalOpts,
        digest: &str,
        ids: Vec<String>,
    ) -> Result<Option<JournalSpec>, String> {
        let fault = journal::FaultPlan::from_env()?;
        if opts.off {
            return Ok(None);
        }
        let root = runs_root(opts.runs_dir.clone());
        let started = unix_ms();
        let manifest = journal::RunManifest {
            run_id: format!("{digest}-{started}"),
            config_digest: digest.to_string(),
            seed: self.setup.cfg.seed,
            scale: self.setup.cfg.scale,
            threads: self.setup.threads as u64,
            fast: self.setup.fast,
            ids,
            started_unix_ms: started,
            updated_unix_ms: started,
            outcome: "running".to_string(),
            jobs_run: 0,
            jobs_replayed: 0,
            resume: false,
            wall_s: 0.0,
            artifacts: Vec::new(),
        };
        journal::index_append(&root, &manifest);
        let dir = journal::run_dir(&root, digest);
        self.index = Some((root, manifest));
        Ok(Some(JournalSpec { dir, fault }))
    }

    /// Prints the scheduler and journal summary lines.
    fn summarize(&self, report: &PlanReport, spec: Option<&JournalSpec>) {
        let s = &report.scheduler;
        eprintln!(
            "# scheduler: {} workers, {} jobs, {} steals, {:.1}s",
            s.workers,
            s.jobs.len(),
            s.steals,
            s.wall_seconds
        );
        let j = &report.journal;
        if j.enabled {
            let noun = if self.mode == "sweep" { "sweep" } else { "run" };
            let resumed = j.resume.then(|| format!(" — resumed an interrupted {noun}"));
            eprintln!(
                "# journal: {} appended, {} replayed{} ({})",
                j.appended,
                j.replayed,
                resumed.unwrap_or_default(),
                spec.map(|s| s.dir.display().to_string()).unwrap_or_default()
            );
        }
    }

    /// Drains the telemetry into the requested exporters, appends the
    /// terminal index record (so `repro runs list` shows the run as
    /// complete / failed, or still `running` had it crashed before here),
    /// and turns `failed` into the exit code.
    fn finish(
        self,
        report: &PlanReport,
        artifacts: &[(String, Artifact)],
        serve: Option<Value>,
        sweep: Option<Value>,
        mut failed: bool,
    ) -> ExitCode {
        let total_secs = self.t0.elapsed().as_secs_f64();
        // One drain serves all three exporters; after this the recorder is
        // empty again.
        let telemetry = kcb_obs::drain();
        kcb_obs::set_enabled(false);
        if let Some(path) = &self.obs.trace {
            let doc = kcb_obs::trace::chrome_trace_string(&telemetry);
            match std::fs::write(path, &doc) {
                Ok(()) => eprintln!("# wrote {} ({} spans)", path.display(), telemetry.spans.len()),
                Err(e) => {
                    eprintln!("error writing trace {}: {e}", path.display());
                    failed = true;
                }
            }
        }
        if self.obs.metrics {
            let meta = run_meta::run_meta_json(&RunMetaInputs {
                seed: self.setup.cfg.seed,
                scale: self.setup.cfg.scale,
                threads: self.setup.threads,
                fast: self.setup.fast,
                mode: self.mode,
                total_seconds: total_secs,
                config_digest: self.setup.config_digest.clone(),
                git_rev: run_meta::git_rev(),
                report,
                telemetry: &telemetry,
                serve,
                sweep,
            });
            match write_result("run_meta.json", &meta) {
                Some(text) if artifacts.iter().any(|(id, _)| id == "summary") => {
                    println!("\n## Run metadata (results/run_meta.json)\n{text}");
                }
                Some(_) => {}
                None => failed = true,
            }
        }
        if self.obs.profile {
            println!("\n## Span profile ({} spans)\n", telemetry.spans.len());
            print!("{}", kcb_obs::profile::render_table(&telemetry));
            if !report.checkpoints.is_empty() {
                println!(
                    "\n## Checkpoints ({} hits, {} misses)\n",
                    report.cache.ckpt_hits, report.cache.ckpt_misses
                );
                println!("{:<20} {:<18} {:>6} {:>12}", "provider", "key", "state", "bytes");
                for e in &report.checkpoints {
                    let state = if e.hit { "hit" } else { "miss" };
                    println!("{:<20} {:<18} {:>6} {:>12}", e.provider, e.key, state, e.bytes);
                }
            }
        }
        if let Some((root, mut manifest)) = self.index {
            manifest.outcome = if failed { "failed" } else { "complete" }.to_string();
            manifest.updated_unix_ms = unix_ms();
            manifest.jobs_run = report.journal.appended;
            manifest.jobs_replayed = report.journal.replayed;
            manifest.resume = report.journal.resume;
            manifest.wall_s = total_secs;
            manifest.artifacts = artifacts
                .iter()
                .map(|(id, a)| {
                    let body = a.to_replay_json().render_json(None);
                    (id.clone(), journal::fnv64_hex(body.as_bytes()))
                })
                .collect();
            journal::index_append(&root, &manifest);
        }
        eprintln!("# total {total_secs:.1}s");
        if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// Prints `error: {e}` and fails.
fn fail(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

/// `repro ARTIFACT...`: decomposes the requested artifacts into the
/// dependency-aware cell DAG and runs it; artifacts come back in request
/// (= canonical) order and are byte-identical at any worker count.
fn artifacts(
    s: &Setup,
    ids: Vec<String>,
    out: Option<PathBuf>,
    md: Option<PathBuf>,
    obs: ObsOpts,
    jopts: &JournalOpts,
) -> ExitCode {
    let lab = s.lab();
    let mut run = Run::new(s, obs, "artifacts");
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let spec = match run.journal(jopts, &lab.config_digest(), ids.clone()) {
        Ok(spec) => spec,
        Err(e) => return fail(e),
    };
    let (artifacts, report) = run_scheduled_with(&lab, &id_refs, s.threads, spec.as_ref());
    s.save(&lab);
    run.summarize(&report, spec.as_ref());
    eprintln!(
        "# checkpoints: {} hits, {} misses ({})",
        report.cache.ckpt_hits,
        report.cache.ckpt_misses,
        s.store.dir().display()
    );
    for j in &report.scheduler.jobs {
        if let Some(id) = j.label.strip_prefix("artifact:") {
            eprintln!("# {id} assembled in {:.1}s", j.seconds);
        }
    }
    let mut markdown = String::from("# kcb reproduction report\n\n");
    let mut failed = false;
    for (id, artifact) in &artifacts {
        println!("{}", artifact.render());
        markdown.push_str(&artifact.render_markdown());
        if let Some(dir) = &out {
            match artifact.write_json(dir) {
                Ok(path) => eprintln!("# wrote {}", path.display()),
                Err(e) => {
                    eprintln!("error writing {id}: {e}");
                    failed = true;
                }
            }
        }
    }
    if let Some(path) = &md {
        match std::fs::write(path, &markdown) {
            Ok(()) => eprintln!("# wrote {}", path.display()),
            Err(e) => {
                eprintln!("error writing markdown report: {e}");
                failed = true;
            }
        }
    }
    run.finish(&report, &artifacts, None, None, failed)
}

/// `repro sweep --grid SPEC`: compiles the variant grid into one
/// structure-shared DAG, runs it (resumably, under the journal), writes
/// the `analysis/` tables plus `results/bench_sweep.json`, and — with
/// `--baseline` — re-runs every variant sequentially to measure the
/// speedup and prove the rows byte-identical.
fn sweep_cmd(
    s: &Setup,
    grid: &GridSpec,
    mode: SweepMode,
    out: Option<PathBuf>,
    obs: ObsOpts,
    jopts: &JournalOpts,
) -> ExitCode {
    // The sweep compiler builds its own labs (one per seed × scale group)
    // over the shared store.
    let splan = sweep::plan(&s.cfg, grid);
    let SweepMode::Run { baseline } = mode else {
        // Dry run: show what would be deduplicated, schedule nothing.
        print!("{}", analysis::render_plan(grid, &splan));
        return ExitCode::SUCCESS;
    };
    let gdigest = format!("sweep-{}", sweep::grid_digest(&s.cfg, grid));
    eprintln!(
        "# sweep {} — {} variants / {} labs, {} jobs ({} shared, {} unique)",
        grid.render(),
        splan.variant_ids.len(),
        splan.labs,
        splan.total_jobs,
        splan.shared_jobs,
        splan.unique_jobs
    );
    let mut run = Run::new(s, obs, "sweep");
    // The sweep journals under its grid digest (not one variant's config
    // digest) so a resumed sweep finds every variant's completions.
    let journal = match run.journal(jopts, &gdigest, splan.variant_ids.clone()) {
        Ok(journal) => journal,
        Err(e) => return fail(e),
    };
    let spec = sweep::SweepSpec { workers: s.threads, journal, store: Some(Arc::clone(&s.store)) };
    let outcome = sweep::run_sweep(&s.cfg, grid, &spec);
    s.gc();
    run.summarize(&outcome.report, spec.journal.as_ref());

    // The sequential baseline reruns every variant in a fresh lab — the
    // cost a user without the sweep compiler would pay — and doubles as a
    // byte-identity check on the shared-DAG rows.
    let seq = baseline.then(|| {
        eprintln!("# baseline: running {} variants sequentially…", splan.variant_ids.len());
        let (per_variant, wall_s) = sweep::run_sequential(&s.cfg, grid);
        analysis::SeqBaseline { per_variant, wall_s }
    });
    let mut failed = false;
    if let Some(seq) = &seq {
        if seq.rows_match(&outcome) {
            eprintln!(
                "# baseline: rows byte-identical — sequential {:.1}s vs sweep {:.1}s ({:.2}x)",
                seq.wall_s,
                outcome.wall_s,
                if outcome.wall_s > 0.0 { seq.wall_s / outcome.wall_s } else { 0.0 }
            );
        } else {
            eprintln!("error: sweep rows differ from the sequential reference");
            failed = true;
        }
    }

    print!("{}", analysis::render_variants(&outcome));
    print!("{}", analysis::render_aggregates(&outcome.aggregates));
    print!("{}", analysis::render_significance(&outcome.tests));

    let analysis_dir = out.unwrap_or_else(|| Path::new("results").join("analysis"));
    match analysis::write_analysis(&analysis_dir, &outcome) {
        Ok(()) => eprintln!("# wrote {}/", analysis_dir.display()),
        Err(e) => {
            eprintln!("error writing {}: {e}", analysis_dir.display());
            failed = true;
        }
    }
    let bench_doc = analysis::bench_sweep_json(grid, &outcome, seq.as_ref());
    failed |= write_result("bench_sweep.json", &bench_doc).is_none();
    let meta = analysis::sweep_meta(grid, &outcome, seq.as_ref());
    run.finish(&outcome.report, &outcome.artifacts, None, Some(meta), failed)
}

/// `repro serve [ARTIFACT...]`: freezes a snapshot and runs the NDJSON
/// daemon until a shutdown verb or a signal.
fn serve(
    s: &Setup,
    ids: Vec<String>,
    port: Option<u16>,
    socket: Option<PathBuf>,
    engine: EngineOpts,
    slow_us: Option<u64>,
    obs: ObsOpts,
) -> ExitCode {
    let lab = s.lab();
    let run = Run::new(s, obs, "serve");
    // Assemble any requested artifacts first so the daemon can serve
    // their JSON payloads by id. (Empty id list → empty DAG, but the
    // report still feeds run_meta.)
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let (preload, report) = run_scheduled(&lab, &id_refs, s.threads);
    let mut snap = Snapshot::freeze(&lab, SnapshotSpec::default());
    for (id, artifact) in &preload {
        let payload = serde_json::json!({
            "id": artifact.id,
            "title": artifact.title,
            "data": artifact.json,
        });
        snap.add_artifact(id.clone(), payload);
    }
    s.save(&lab);
    // Flight-recorder dumps land next to the other result files.
    let flight_path = Path::new("results").join("serve_flight.jsonl");
    let _ = std::fs::create_dir_all("results");
    let slow_us = slow_us.unwrap_or(10_000);
    let cfg = kcb_serve::ServerConfig {
        tcp: Some(format!("127.0.0.1:{}", port.unwrap_or(7878))),
        socket: socket.clone(),
        engine: kcb_serve::EngineConfig {
            workers: s.threads,
            queue_cap: engine.queue_cap.unwrap_or(4096),
            batch_max: engine.batch_max.unwrap_or(32),
            flight: kcb_serve::FlightConfig {
                path: Some(flight_path.clone()),
                slow_us,
                ..Default::default()
            },
        },
    };
    let server = match kcb_serve::Server::start(Arc::new(snap), &cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error starting server: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = server.tcp_addr {
        eprintln!("# serving on tcp://{addr} ({} workers)", s.threads);
        eprintln!("# scrape GET http://{addr}/metrics (Prometheus) or /health");
    }
    if let Some(path) = &socket {
        eprintln!("# serving on unix:{}", path.display());
    }
    eprintln!("# admin verbs: stats / health / flight — watch live with `repro serve-top`");
    eprintln!("# flight recorder -> {} (slow >= {slow_us}us)", flight_path.display());
    eprintln!("# stop with: {{\"id\":0,\"op\":\"shutdown\"}} or SIGINT/SIGTERM");
    // Graceful drain: a signal trips the latch; the poll loop turns it
    // into the same stop path a shutdown verb takes (acceptors close,
    // workers drain the queue, the flight recorder flushes).
    kcb_util::signal::install();
    while !server.stopped() && !kcb_util::signal::triggered() {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    if !server.stopped() {
        eprintln!("# signal — draining queue, flushing flight recorder");
        server.stop();
    }
    // Counters keep moving until the drain finishes inside wait(), which
    // consumes the server — clone the handles that must report post-drain
    // values.
    let live_timing = server.metrics().timing();
    let uptime_s = server.metrics().uptime_s();
    let verb_counts = server.metrics().verb_counts();
    let errors_h = Arc::clone(&server.metrics().errors);
    let e2e_h = Arc::clone(&server.metrics().e2e_us);
    let stats = server.wait();
    let (errors, e2e) = (errors_h.get(), e2e_h.snapshot());
    eprintln!(
        "# served {} requests, shed {}, errors {errors}, p99 {}us",
        stats.served,
        stats.shed,
        e2e.percentile(99.0)
    );
    let verbs = verb_counts.into_iter().map(|(k, v)| (k.to_string(), serde_json::json!(v)));
    let verbs = Value::Object(verbs.collect());
    let e2e_json = serde_json::json!({
        "count": e2e.count(),
        "sum_us": e2e.sum,
        "max_us": e2e.max,
        "p50_us": e2e.percentile(50.0),
        "p95_us": e2e.percentile(95.0),
        "p99_us": e2e.percentile(99.0),
    });
    let summary = serde_json::json!({
        "served": stats.served,
        "shed": stats.shed,
        "errors": errors,
        "uptime_s": uptime_s,
        "live_timing": live_timing,
        "verbs": verbs,
        "e2e": e2e_json,
    });
    run.finish(&report, &[], Some(summary), None, false)
}

/// `repro serve-bench`: the serving load harness over a frozen snapshot.
fn serve_bench(
    s: &Setup,
    clients: Option<usize>,
    requests: Option<usize>,
    engine: EngineOpts,
) -> ExitCode {
    let lab = s.lab();
    let snap = Snapshot::freeze(&lab, SnapshotSpec::default());
    s.save(&lab);
    let mut bcfg = kcb_serve::bench::BenchConfig::sized(s.threads, s.cfg.seed, s.fast);
    bcfg.clients = clients.unwrap_or(bcfg.clients);
    bcfg.requests = requests.unwrap_or(bcfg.requests);
    bcfg.queue_cap = engine.queue_cap.unwrap_or(bcfg.queue_cap);
    bcfg.batch_max = engine.batch_max.unwrap_or(bcfg.batch_max);
    let doc = kcb_serve::bench::run(Arc::new(snap), &bcfg);
    let served = &doc["served"];
    eprintln!(
        "# served: {} reqs in {:.2}s — {:.0} qps ({:.0} qps/core), p50 {:.0}us p99 {:.0}us, shed {}",
        served["requests"],
        served["wall_s"].as_f64().unwrap_or(0.0),
        served["qps"].as_f64().unwrap_or(0.0),
        served["qps_per_core"].as_f64().unwrap_or(0.0),
        served["p50_us"].as_f64().unwrap_or(0.0),
        served["p99_us"].as_f64().unwrap_or(0.0),
        served["shed"],
    );
    eprintln!(
        "# serial: {:.0} qps — speedup {:.1}x, byte_identical {}",
        doc["serial"]["qps"].as_f64().unwrap_or(0.0),
        doc["speedup_vs_serial"].as_f64().unwrap_or(0.0),
        doc["byte_identical"],
    );
    if write_result("bench_serve.json", &doc).is_none() {
        return ExitCode::FAILURE;
    }
    // A checksum mismatch between the batched and serial paths is a
    // determinism breach, not a performance number.
    if doc["byte_identical"] != serde_json::json!(true) {
        return fail("served replies differ from the serial reference");
    }
    ExitCode::SUCCESS
}

/// `repro bench-query`: the query-path microbenchmark (plus, with
/// `--quant`, the int8 calibration audit).
fn bench_query(s: &Setup, quant: bool) -> ExitCode {
    let lab = s.lab();
    let doc = kcb_bench::bench_query::run(&lab, quant, s.threads, s.fast);
    if quant {
        // Prove metric parity of the int8 legs rather than assume it.
        let calib = kcb_core::experiment::quant::calibrate(&lab);
        if write_result("quant_calibration.json", &calib).is_none() {
            return ExitCode::FAILURE;
        }
        let pass = calib["pass"] == serde_json::json!(true);
        eprintln!("# calibration: {}", if pass { "pass" } else { "FAIL" });
    }
    s.save(&lab);
    if let Some(kinds) = doc["kinds"].as_object() {
        for (kind, row) in kinds {
            eprintln!(
                "# {kind}: {} queries, {:.0} qps/core, p50 {:.1}us p99 {:.1}us",
                row["count"],
                row["qps_per_core"].as_f64().unwrap_or(0.0),
                row["p50_s"].as_f64().unwrap_or(0.0) * 1e6,
                row["p99_s"].as_f64().unwrap_or(0.0) * 1e6,
            );
        }
    }
    if write_result("bench_query.json", &doc).is_none() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `repro serve-top`: a pure client — attaches to a daemon's stats verb,
/// no lab needed.
fn serve_top(port: Option<u16>, interval_ms: Option<u64>, samples: Option<u64>) -> ExitCode {
    kcb_util::signal::install();
    let addr = format!("127.0.0.1:{}", port.unwrap_or(7878));
    let interval = std::time::Duration::from_millis(interval_ms.unwrap_or(1000));
    eprintln!("# serve-top — polling {addr} every {}ms (Ctrl-C to stop)", interval.as_millis());
    match kcb_bench::serve_top::run(&addr, interval, samples.unwrap_or(0), &mut std::io::stdout()) {
        Ok(frames) => {
            eprintln!("# {frames} frames");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error polling {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro runs ...`: answers an index query — no lab, no training, no
/// journal writes.
fn runs_query(cmd: &cli::RunsCmd, root: &Path) -> ExitCode {
    let folded = journal::index_fold(journal::index_load(root));
    let rendered = match cmd {
        cli::RunsCmd::List => Ok(runs::render_list(&folded)),
        cli::RunsCmd::Show(id) => runs::resolve(&folded, id).map(runs::render_show),
        cli::RunsCmd::Diff(a, b) => runs::resolve(&folded, a).and_then(|ma| {
            runs::resolve(&folded, b).map(|mb| {
                // Manifest fields first, then the journal-level answer to
                // "which inputs changed" (per job, per input entry).
                let mut out = runs::render_diff(ma, mb);
                out.push_str(&runs::input_diff_for(root, ma, mb));
                out
            })
        }),
    };
    match rendered {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn main() -> ExitCode {
    tune_allocator_via_reexec();
    let cmd = match cli::parse(std::env::args().skip(1)) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Command::List => {
            let ids = cli::known_ids();
            let width = ids.iter().map(|id| id.len()).max().unwrap_or(0);
            for id in ids {
                let what = kcb_core::experiment::describe(id).unwrap_or("");
                println!("{id:width$}  {what}");
            }
            ExitCode::SUCCESS
        }
        Command::Runs { query, runs_dir } => runs_query(&query, &runs_root(runs_dir)),
        Command::ServeTop { port, interval_ms, samples } => serve_top(port, interval_ms, samples),
        Command::Artifacts { lab, ids, out, md, obs, journal } => {
            artifacts(&Setup::new(&lab, obs.wanted()), ids, out, md, obs, &journal)
        }
        Command::Sweep { lab, grid, mode, out, obs, journal } => {
            sweep_cmd(&Setup::new(&lab, obs.wanted()), &grid, mode, out, obs, &journal)
        }
        Command::Serve { lab, ids, port, socket, engine, slow_us, obs } => {
            serve(&Setup::new(&lab, obs.wanted()), ids, port, socket, engine, slow_us, obs)
        }
        Command::ServeBench { lab, clients, requests, engine } => {
            serve_bench(&Setup::new(&lab, false), clients, requests, engine)
        }
        Command::BenchQuery { lab, quant } => bench_query(&Setup::new(&lab, false), quant),
    }
}
