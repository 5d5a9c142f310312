//! `kcb-benchmark` — end-to-end and per-layer benchmark of the kcb
//! workspace.
//!
//! ```text
//! kcb-benchmark --workload cold|warm|sweep|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with the
//! telemetry recorder off. With `--trace 1` it spends half the seconds
//! untraced and half with the `kcb_obs` recorder on, and reports the
//! per-layer metrics plus `trace.overhead`. Every output is checked; the
//! last stdout line is the JSON result, the line before it the context
//! (host, build, sizing). See README.md in this directory.

mod batch;
mod measure;
mod report;
mod serve;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: kcb-benchmark --workload cold|warm|sweep|serve --seed N --seconds S --trace 0|1";

/// Scratch state of all runs lives under this directory of the working
/// directory (the checkout root); each run removes its own subdirectory.
const WORK_ROOT: &str = ".kcbbench-work";

const WORKLOADS: [&str; 4] = ["cold", "warm", "sweep", "serve"];

/// What a workload needs to know about its run.
pub struct Ctx {
    /// Private scratch directory of this run.
    pub work: PathBuf,
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// How long to keep measuring.
    pub seconds: f64,
    /// Whether the `kcb_obs` recorder is on during timed regions.
    pub trace: bool,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run an untimed preparation (`cold` or `serve`) into
    /// `work` and exit.
    prep: Option<String>,
    work: Option<PathBuf>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a =
        Args { workload: None, seed: 42, seconds: 10.0, trace: false, prep: None, work: None };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload '{w}'"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--prep" => a.prep = Some(value()?),
            "--work" => a.work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

/// Re-execs once with glibc's allocator tuned exactly as `repro` tunes
/// it, so the measured code runs under the same allocator settings (see
/// `tune_allocator_via_reexec` in `repro.rs`). Preparation children
/// inherit the environment.
#[cfg(unix)]
fn tune_allocator_via_reexec() {
    const MARKER: &str = "KCB_MALLOC_TUNED";
    if std::env::var_os(MARKER).is_some() {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
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

/// Removes a run's scratch directory on every exit path, panics included.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using the root.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(workload: &str, ctx: &Ctx) -> Outcome {
    std::fs::create_dir_all(&ctx.work).expect("create the run's scratch directory");
    match workload {
        "cold" => batch::cold(ctx),
        "warm" => batch::warm(ctx),
        "sweep" => batch::sweep(ctx),
        "serve" => serve::serve(ctx),
        other => unreachable!("workload {other} was validated by parse"),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The facts recorded with every result.
fn context(args: &Args, workload: &str, outcome: &Outcome) -> serde_json::Value {
    let cfg =
        if workload == "serve" { serve::serve_config(args.seed) } else { batch::tiny(args.seed) };
    let mut c: Vec<(String, serde_json::Value)> = vec![
        ("workload".into(), serde_json::json!(workload)),
        ("seed".into(), serde_json::json!(args.seed)),
        ("run_seconds".into(), serde_json::json!(args.seconds)),
        ("trace".into(), serde_json::json!(args.trace)),
        (
            "nproc".into(),
            serde_json::json!(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0)),
        ),
        ("cpu_model".into(), serde_json::json!(cpu_model())),
        ("rustc".into(), serde_json::json!(env!("KCB_BENCHMARK_RUSTC"))),
        ("git_rev".into(), serde_json::json!(kcb_bench::run_meta::git_rev())),
        (
            "config_digest".into(),
            serde_json::json!(kcb_core::lab::Lab::new(cfg.clone()).config_digest()),
        ),
        ("scale".into(), serde_json::json!(cfg.scale)),
        ("workers".into(), serde_json::json!(batch::WORKERS)),
    ];
    c.extend(outcome.context.iter().map(|(k, v)| (k.to_string(), v.clone())));
    serde_json::json!({ "context": serde_json::Value::Object(c) })
}

fn main() -> ExitCode {
    tune_allocator_via_reexec();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    kcb_lm::pool::set_threads(batch::WORKERS);
    if let Some(what) = &args.prep {
        let Some(dir) = &args.work else {
            eprintln!("error: --prep needs --work DIR");
            return ExitCode::from(2);
        };
        match what.as_str() {
            "cold" => batch::prep_cold(args.seed, dir),
            "serve" => serve::prep_serve(args.seed, dir),
            other => {
                eprintln!("error: unknown preparation '{other}'");
                return ExitCode::from(2);
            }
        }
        return ExitCode::SUCCESS;
    }
    let Some(workload) = args.workload.clone() else {
        eprintln!("error: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let guard = WorkDir(Path::new(WORK_ROOT).join(format!("{workload}-{}", std::process::id())));
    let ctx = |pass: &str, trace: bool, seconds: f64| Ctx {
        work: guard.0.join(pass),
        seed: args.seed,
        seconds,
        trace,
    };

    let (outcome, line) = if !args.trace {
        let o = run(&workload, &ctx("plain", false, args.seconds));
        let line = o.result_line(END_TO_END, &o.e2e);
        (o, line)
    } else {
        let half = args.seconds / 2.0;
        let plain = run(&workload, &ctx("plain", false, half));
        let mut traced = run(&workload, &ctx("traced", true, half));
        // Serve measures a rate, the batch workloads a duration.
        let overhead = if workload == "serve" {
            plain.e2e["qps"] / traced.e2e["qps"] - 1.0
        } else {
            traced.e2e["wall_s"] / plain.e2e["wall_s"] - 1.0
        };
        traced.check(plain.attempted, plain.failed);
        let mut layers = report::zeroed(PER_LAYER);
        layers.extend(std::mem::take(&mut traced.layers));
        layers.insert("trace.overhead", overhead);
        layers.insert("error_rate", traced.error_rate());
        let line = traced.result_line(PER_LAYER, &layers);
        (traced, line)
    };
    println!("{}", serde_json::to_string(&context(&args, &workload, &outcome)).expect("json"));
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload sweep --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(a.workload.as_deref(), Some("sweep"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--frobnicate 1").is_err());
    }
}
