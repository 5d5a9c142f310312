//! Argument parsing and validation for the `repro` binary.
//!
//! Lives in the library (rather than `bin/repro.rs`) so the parser and
//! every rejection path are unit-testable: `repro` itself only turns a
//! returned `Err` into an exit code. Errors are one-liners that name the
//! offending value — the binary appends the usage text.
//!
//! [`parse`] returns one [`Command`] whose variant carries only the
//! options that command reads. Which flags a command accepts is decided
//! in one place, the [`FLAGS`] table: a flag given to a command that does
//! not read it is an error naming the commands it does apply to.

use kcb_core::experiment::sweep::GridSpec;
use std::path::PathBuf;

/// A parsed `repro` command line. `None` options take the defaults that
/// `repro --help` lists.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `repro ARTIFACT...`: `ids` in request order with aliases expanded,
    /// never empty; `--out` per-artifact JSON directory, `--md` report.
    Artifacts {
        lab: LabOpts,
        ids: Vec<String>,
        out: Option<PathBuf>,
        md: Option<PathBuf>,
        obs: ObsOpts,
        journal: JournalOpts,
    },
    /// `repro sweep --grid SPEC`; `--out` is the analysis-table directory.
    Sweep {
        lab: LabOpts,
        grid: GridSpec,
        mode: SweepMode,
        out: Option<PathBuf>,
        obs: ObsOpts,
        journal: JournalOpts,
    },
    /// `repro serve [ARTIFACT...]`: the daemon, preloading `ids`.
    Serve {
        lab: LabOpts,
        ids: Vec<String>,
        port: Option<u16>,
        socket: Option<PathBuf>,
        engine: EngineOpts,
        slow_us: Option<u64>,
        obs: ObsOpts,
    },
    /// `repro serve-bench`: the serving load harness.
    ServeBench { lab: LabOpts, clients: Option<usize>, requests: Option<usize>, engine: EngineOpts },
    /// `repro serve-top`: poll a running daemon's `stats` verb.
    ServeTop { port: Option<u16>, interval_ms: Option<u64>, samples: Option<u64> },
    /// `repro bench-query`: the query-path microbenchmark.
    BenchQuery { lab: LabOpts, quant: bool },
    /// `repro runs [list|show|diff]` over the index under `--runs-dir`.
    Runs { query: RunsCmd, runs_dir: Option<PathBuf> },
    /// `--list`: list artifact ids and exit.
    List,
    /// `--help` / `-h`.
    Help,
}

/// Options of every command that builds a lab, one field per flag:
/// `--scale`, `--seed`, `--threads`, `--fast`, `--cache-dir`, `--cold`,
/// `--no-mmap` and `--cache-cap`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabOpts {
    pub scale: Option<f64>,
    pub seed: Option<u64>,
    pub threads: Option<usize>,
    pub fast: bool,
    pub cache_dir: Option<PathBuf>,
    pub cold: bool,
    pub no_mmap: bool,
    pub cache_cap: Option<u64>,
}

/// Telemetry exporters of a recorded run (`artifacts`, `sweep`, `serve`):
/// `--trace FILE`, `--metrics` and `--profile`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsOpts {
    pub trace: Option<PathBuf>,
    pub metrics: bool,
    pub profile: bool,
}

impl ObsOpts {
    /// Whether any exporter needs the telemetry recorder on.
    pub fn wanted(&self) -> bool {
        self.trace.is_some() || self.metrics || self.profile
    }
}

/// Run-journal options of a journaled run (`artifacts`, `sweep`):
/// `--runs-dir DIR` and `--no-journal` (`off`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalOpts {
    pub runs_dir: Option<PathBuf>,
    pub off: bool,
}

/// Batching-engine options of `serve` and `serve-bench`: `--queue-cap`
/// and `--batch-max`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineOpts {
    pub queue_cap: Option<usize>,
    pub batch_max: Option<usize>,
}

/// What `repro sweep` does with its grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SweepMode {
    /// `--plan`: print the dedup plan and exit without running.
    Plan,
    /// Run the grid; with `--baseline`, also rerun every variant
    /// sequentially and record the measured speedup.
    Run { baseline: bool },
}

/// The `repro runs` query surface over `results/runs/index.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub enum RunsCmd {
    /// Latest manifest per run, newest first.
    List,
    /// Full manifest of one run id (prefixes accepted when unambiguous).
    Show(String),
    /// Field-by-field manifest diff of two run ids.
    Diff(String, String),
}

/// The commands, as the applicability table names them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Artifacts,
    Sweep,
    Serve,
    ServeBench,
    ServeTop,
    BenchQuery,
    Runs,
    List,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Artifacts => "artifact runs",
            Kind::Sweep => "sweep",
            Kind::Serve => "serve",
            Kind::ServeBench => "serve-bench",
            Kind::ServeTop => "serve-top",
            Kind::BenchQuery => "bench-query",
            Kind::Runs => "runs",
            Kind::List => "--list",
        }
    }
}

const LAB: &[Kind] =
    &[Kind::Artifacts, Kind::Sweep, Kind::Serve, Kind::ServeBench, Kind::BenchQuery];
const RECORDED: &[Kind] = &[Kind::Artifacts, Kind::Sweep, Kind::Serve];
const JOURNALED: &[Kind] = &[Kind::Artifacts, Kind::Sweep];
const ENGINE: &[Kind] = &[Kind::Serve, Kind::ServeBench];
const VALUE: Option<&str> = Some("a value");
const DIR: Option<&str> = Some("a directory");
const FILE: Option<&str> = Some("a file path");

/// Every option `repro` accepts: its name, what its value is (`None` for
/// a switch), and the commands that read it — the one place flag
/// applicability is decided.
const FLAGS: &[(&str, Option<&str>, &[Kind])] = &[
    ("--scale", VALUE, LAB),
    ("--seed", VALUE, LAB),
    ("--threads", VALUE, LAB),
    ("--fast", None, LAB),
    ("--cache-dir", DIR, LAB),
    ("--cold", None, LAB),
    ("--no-mmap", None, LAB),
    ("--cache-cap", Some("a byte count"), LAB),
    ("--out", DIR, JOURNALED),
    ("--md", FILE, &[Kind::Artifacts]),
    ("--trace", FILE, RECORDED),
    ("--metrics", None, RECORDED),
    ("--profile", None, RECORDED),
    ("--runs-dir", DIR, &[Kind::Artifacts, Kind::Sweep, Kind::Runs]),
    ("--no-journal", None, JOURNALED),
    ("--grid", Some("a spec (key=v1,v2;key=...)"), &[Kind::Sweep]),
    ("--plan", None, &[Kind::Sweep]),
    ("--baseline", None, &[Kind::Sweep]),
    ("--quant", None, &[Kind::BenchQuery]),
    ("--port", VALUE, &[Kind::Serve, Kind::ServeTop]),
    ("--socket", Some("a path"), &[Kind::Serve]),
    ("--slow-us", VALUE, &[Kind::Serve]),
    ("--queue-cap", VALUE, ENGINE),
    ("--batch-max", VALUE, ENGINE),
    ("--clients", VALUE, &[Kind::ServeBench]),
    ("--requests", VALUE, &[Kind::ServeBench]),
    ("--interval-ms", VALUE, &[Kind::ServeTop]),
    ("--samples", VALUE, &[Kind::ServeTop]),
];

/// Parses `v` as a number; `what` names it in the error.
fn num<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {what} {v}"))
}

/// [`num`] that also rejects zero, naming `flag`.
fn positive<T>(flag: &str, v: &str, what: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
{
    let n = num(v, what)?;
    if n == T::default() {
        return Err(format!("{flag} must be at least 1, got 0"));
    }
    Ok(n)
}

/// A directory flag's value: non-empty and not an existing file.
fn dir(flag: &str, v: String) -> Result<PathBuf, String> {
    match PathBuf::from(&v) {
        _ if v.is_empty() => Err(format!("{flag} needs a non-empty directory")),
        p if p.is_file() => Err(format!("{flag} {v} is a file, not a directory")),
        p => Ok(p),
    }
}

/// Parses `repro` arguments (without the program name). Flag values are
/// validated here so every bad input fails before any work starts.
pub fn parse<I>(args: I) -> Result<Command, String>
where
    I: IntoIterator<Item = String>,
{
    let (mut lab, mut obs, mut journal) =
        (LabOpts::default(), ObsOpts::default(), JournalOpts::default());
    let (mut ids, mut out, mut md, mut grid) = (Vec::new(), None, None, None);
    let (mut plan, mut baseline, mut quant) = (false, false, false);
    let (mut port, mut socket, mut slow_us, mut engine) = (None, None, None, EngineOpts::default());
    let (mut clients, mut requests, mut interval_ms, mut samples) = (None, None, None, None);
    let (mut runs, mut kind, mut seen) = (None, None, Vec::new());
    let mut select = |k: Kind| match kind.replace(k) {
        Some(prev) if prev != k => {
            Err(format!("{} and {} are mutually exclusive", prev.name(), k.name()))
        }
        _ => Ok(()),
    };

    let mut it = args.into_iter().peekable();
    while let Some(a) = it.next() {
        let Some(&(flag, value, applies)) = FLAGS.iter().find(|f| f.0 == a) else {
            match a.as_str() {
                "--help" | "-h" => return Ok(Command::Help),
                "--list" => select(Kind::List)?,
                "bench-query" => select(Kind::BenchQuery)?,
                "sweep" => select(Kind::Sweep)?,
                "serve" => select(Kind::Serve)?,
                "serve-bench" => select(Kind::ServeBench)?,
                "serve-top" => select(Kind::ServeTop)?,
                "runs" => {
                    select(Kind::Runs)?;
                    // `runs` with no (or a flag) next token defaults to `list`.
                    let verb = it.next_if(|s| !s.starts_with('-'));
                    let mut id = |e: &str| it.next().ok_or_else(|| e.to_string());
                    runs = Some(match verb.as_deref().unwrap_or("list") {
                        "list" => RunsCmd::List,
                        "show" => RunsCmd::Show(id("runs show needs a run id")?),
                        "diff" => {
                            let e = "runs diff needs two run ids";
                            RunsCmd::Diff(id(e)?, id(e)?)
                        }
                        other => return Err(format!("bad runs verb '{other}' (list|show|diff)")),
                    });
                }
                other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
                other => ids.push(other.to_string()),
            }
            continue;
        };
        let v = match value {
            Some(what) => it.next().ok_or_else(|| format!("{flag} needs {what}"))?,
            None => String::new(),
        };
        seen.push((flag, applies));
        match flag {
            "--scale" => {
                let s: f64 = num(&v, "scale")?;
                if !(s > 0.0 && s <= 4.0) {
                    return Err(format!("--scale must be in (0, 4], got {v}"));
                }
                lab.scale = Some(s);
            }
            "--seed" => lab.seed = Some(num(&v, "seed")?),
            "--threads" => lab.threads = Some(positive(flag, &v, "thread count")?),
            "--fast" => lab.fast = true,
            "--cache-dir" => lab.cache_dir = Some(dir(flag, v)?),
            "--cold" => lab.cold = true,
            "--no-mmap" => lab.no_mmap = true,
            "--cache-cap" => lab.cache_cap = Some(positive(flag, &v, "cache cap")?),
            "--out" => out = Some(PathBuf::from(v)),
            "--md" => md = Some(PathBuf::from(v)),
            "--trace" => obs.trace = Some(PathBuf::from(v)),
            "--metrics" => obs.metrics = true,
            "--profile" => obs.profile = true,
            "--runs-dir" => journal.runs_dir = Some(dir(flag, v)?),
            "--no-journal" => journal.off = true,
            // Parsed here, once, so a bad grid fails before any work starts.
            "--grid" => grid = Some(GridSpec::parse(&v).map_err(|e| format!("--grid: {e}"))?),
            "--plan" => plan = true,
            "--baseline" => baseline = true,
            "--quant" => quant = true,
            "--port" => port = Some(num(&v, "port")?),
            "--socket" if v.is_empty() => return Err("--socket needs a non-empty path".into()),
            "--socket" => socket = Some(PathBuf::from(v)),
            "--slow-us" => slow_us = Some(positive(flag, &v, "threshold")?),
            "--queue-cap" => engine.queue_cap = Some(positive(flag, &v, "queue cap")?),
            "--batch-max" => engine.batch_max = Some(positive(flag, &v, "batch max")?),
            "--clients" => clients = Some(positive(flag, &v, "client count")?),
            "--requests" => requests = Some(positive(flag, &v, "request count")?),
            "--interval-ms" => interval_ms = Some(positive(flag, &v, "interval")?),
            "--samples" => samples = Some(num(&v, "sample count")?),
            other => unreachable!("{other} is in FLAGS but has no parse arm"),
        }
    }
    let kind = kind.unwrap_or(Kind::Artifacts);
    if let Some((flag, applies)) = seen.into_iter().find(|(_, applies)| !applies.contains(&kind)) {
        let names: Vec<&str> = applies.iter().map(|k| k.name()).collect();
        return Err(format!("{flag} only applies to {}", names.join(" / ")));
    }
    if !ids.is_empty() && !matches!(kind, Kind::Artifacts | Kind::Serve) {
        return Err(format!("{} takes no artifact ids, got '{}'", kind.name(), ids[0]));
    }
    expand_aliases(&mut ids);
    validate_ids(&ids)?;
    Ok(match kind {
        Kind::Artifacts if ids.is_empty() => return Err("no artifacts requested".to_string()),
        Kind::Artifacts => Command::Artifacts { lab, ids, out, md, obs, journal },
        Kind::Sweep if plan && baseline => {
            return Err("--plan is a dry run; it cannot be combined with --baseline".into())
        }
        Kind::Sweep => Command::Sweep {
            lab,
            grid: grid.ok_or("sweep needs --grid (e.g. --grid \"seeds=7,8;scenarios=0,2\")")?,
            mode: if plan { SweepMode::Plan } else { SweepMode::Run { baseline } },
            out,
            obs,
            journal,
        },
        Kind::Serve => Command::Serve { lab, ids, port, socket, engine, slow_us, obs },
        Kind::ServeBench => Command::ServeBench { lab, clients, requests, engine },
        Kind::ServeTop => Command::ServeTop { port, interval_ms, samples },
        Kind::BenchQuery => Command::BenchQuery { lab, quant },
        Kind::Runs => Command::Runs { query: runs.expect("parsed"), runs_dir: journal.runs_dir },
        Kind::List => Command::List,
    })
}

/// Every runnable artifact id, lowercase, in listing order.
pub fn known_ids() -> Vec<&'static str> {
    kcb_core::experiment::ALL_IDS
        .iter()
        .chain(kcb_core::experiment::ABLATION_IDS)
        .chain(kcb_core::experiment::EXTENSION_IDS)
        .chain(std::iter::once(&kcb_core::experiment::SUMMARY_ID))
        .copied()
        .collect()
}

/// Expands the `all` / `ablations` aliases in place (preserving request
/// order, deduplicating the `all` block like the historical behaviour).
pub fn expand_aliases(ids: &mut Vec<String>) {
    if let Some(pos) = ids.iter().position(|i| i == "all") {
        ids.splice(pos..=pos, kcb_core::experiment::ALL_IDS.iter().map(|s| s.to_string()));
        ids.dedup();
    }
    if let Some(pos) = ids.iter().position(|i| i == "ablations") {
        ids.remove(pos);
        ids.extend(kcb_core::experiment::ABLATION_IDS.iter().map(|s| s.to_string()));
    }
}

/// Rejects ids outside the artifact registry, naming the first offender.
pub fn validate_ids(ids: &[String]) -> Result<(), String> {
    let known: Vec<String> = known_ids().iter().map(|s| s.to_ascii_lowercase()).collect();
    for id in ids {
        if !known.contains(&id.to_ascii_lowercase()) {
            return Err(format!("unknown artifact '{id}' (see --list)"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcb_core::experiment::{ABLATION_IDS, ALL_IDS};

    fn p(args: &[&str]) -> Result<Command, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    fn strings(ids: &[&str]) -> Vec<String> {
        ids.iter().map(|s| s.to_string()).collect()
    }

    fn path(s: &str) -> Option<PathBuf> {
        Some(PathBuf::from(s))
    }

    /// The lab options of a lab-building command.
    fn lab_of(cmd: Command) -> LabOpts {
        match cmd {
            Command::Artifacts { lab, .. }
            | Command::Sweep { lab, .. }
            | Command::Serve { lab, .. }
            | Command::ServeBench { lab, .. }
            | Command::BenchQuery { lab, .. } => lab,
            other => panic!("{other:?} builds no lab"),
        }
    }

    fn fast(seed: Option<u64>, threads: Option<usize>) -> LabOpts {
        LabOpts { fast: true, seed, threads, ..LabOpts::default() }
    }

    fn artifacts(ids: &[&str], lab: LabOpts, out: Option<PathBuf>, obs: ObsOpts) -> Command {
        let journal = JournalOpts::default();
        Command::Artifacts { lab, ids: strings(ids), out, md: None, obs, journal }
    }

    fn metrics() -> ObsOpts {
        ObsOpts { metrics: true, ..ObsOpts::default() }
    }

    fn serve(lab: LabOpts, ids: &[&str], port: Option<u16>, socket: Option<PathBuf>) -> Command {
        let (engine, slow_us, obs) = (EngineOpts::default(), None, ObsOpts::default());
        Command::Serve { lab, ids: strings(ids), port, socket, engine, slow_us, obs }
    }

    fn serve_bench(lab: LabOpts, clients: Option<usize>, requests: Option<usize>) -> Command {
        Command::ServeBench { lab, clients, requests, engine: EngineOpts::default() }
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = p(&[
            "all", "--fast", "--threads", "4", "--scale", "0.05", "--seed", "7", "--trace",
            "t.json", "--metrics", "--profile", "--out", "results",
        ])
        .unwrap();
        let Command::Artifacts { lab, ids, out, md, obs, journal } = a else { panic!("{a:?}") };
        assert_eq!(ids, strings(ALL_IDS), "`all` expands at parse time");
        assert_eq!(lab, LabOpts { scale: Some(0.05), ..fast(Some(7), Some(4)) });
        assert_eq!(obs.trace.as_deref(), Some(std::path::Path::new("t.json")));
        assert!(obs.metrics && obs.profile && obs.wanted());
        assert_eq!((out, md, journal), (path("results"), None, JournalOpts::default()));
        let all = artifacts(ALL_IDS, LabOpts::default(), None, ObsOpts::default());
        assert_eq!(p(&["all"]).unwrap(), all);
    }

    #[test]
    fn rejects_zero_threads_naming_the_value() {
        let e = p(&["all", "--threads", "0"]).unwrap_err();
        assert!(e.contains("--threads") && e.contains('0'), "{e}");
    }

    #[test]
    fn rejects_bad_scales_naming_the_value() {
        for bad in ["0", "-1", "nan", "inf", "4.5"] {
            let e = p(&["all", "--scale", bad]).unwrap_err();
            assert!(e.contains("scale"), "{bad}: {e}");
        }
        assert_eq!(lab_of(p(&["table2", "--scale", "0.5"]).unwrap()).scale, Some(0.5));
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(p(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(p(&["--trace"]).unwrap_err().contains("--trace"));
        assert!(p(&["--threads"]).unwrap_err().contains("--threads"));
        assert!(p(&["--cache-dir"]).unwrap_err().contains("--cache-dir"));
    }

    #[test]
    fn parses_cache_flags() {
        let lab = lab_of(p(&["table4", "--cache-dir", "warm", "--cold"]).unwrap());
        assert_eq!(lab, LabOpts { cache_dir: path("warm"), cold: true, ..LabOpts::default() });
        assert_eq!(lab_of(p(&["table4"]).unwrap()), LabOpts::default());
    }

    #[test]
    fn rejects_bad_cache_dirs_naming_the_value() {
        let e = p(&["--cache-dir", ""]).unwrap_err();
        assert!(e.contains("--cache-dir"), "{e}");
        // A path that names an existing *file* is rejected at parse time.
        let file = std::env::temp_dir().join(format!("kcb-cli-test-{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let e = p(&["--cache-dir", file.to_str().unwrap()]).unwrap_err();
        assert!(e.contains("is a file"), "{e}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn parses_query_path_flags() {
        let a = p(&["bench-query", "--quant", "--no-mmap", "--fast", "--cache-cap", "1024"])
            .unwrap();
        let lab = LabOpts { no_mmap: true, cache_cap: Some(1024), ..fast(None, None) };
        assert_eq!(a, Command::BenchQuery { lab, quant: true });
        assert_eq!(lab_of(p(&["table4"]).unwrap()), LabOpts::default());
    }

    #[test]
    fn quant_requires_bench_query() {
        let e = p(&["table4", "--quant"]).unwrap_err();
        assert!(e.contains("--quant") && e.contains("bench-query"), "{e}");
        let e = p(&["--quant"]).unwrap_err();
        assert!(e.contains("bench-query"), "{e}");
    }

    #[test]
    fn bench_query_rejects_artifact_ids_and_bad_caps() {
        let e = p(&["bench-query", "table4"]).unwrap_err();
        assert!(e.contains("table4"), "{e}");
        let e = p(&["bench-query", "--cache-cap", "0"]).unwrap_err();
        assert!(e.contains("--cache-cap"), "{e}");
        let e = p(&["bench-query", "--cache-cap", "lots"]).unwrap_err();
        assert!(e.contains("lots"), "{e}");
        assert!(p(&["bench-query", "--cache-cap"]).unwrap_err().contains("--cache-cap"));
    }

    #[test]
    fn parses_serve_flags() {
        let a = p(&["serve", "table2", "--port", "9000", "--socket", "/tmp/kcb.sock",
            "--queue-cap", "128", "--batch-max", "16"])
            .unwrap();
        let Command::Serve { ids, port, socket, engine, .. } = a else { panic!("{a:?}") };
        assert_eq!(ids, vec!["table2"]);
        assert_eq!((port, socket), (Some(9000), path("/tmp/kcb.sock")));
        assert_eq!(engine, EngineOpts { queue_cap: Some(128), batch_max: Some(16) });
        let a = p(&["serve-bench", "--clients", "4", "--requests", "100", "--fast"]).unwrap();
        assert_eq!(a, serve_bench(fast(None, None), Some(4), Some(100)));
    }

    #[test]
    fn serve_flags_are_validated() {
        let e = p(&["serve", "serve-bench"]).unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        let e = p(&["bench-query", "serve"]).unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        let e = p(&["--port", "9000"]).unwrap_err();
        assert!(e.contains("serve"), "{e}");
        let e = p(&["serve", "--clients", "4"]).unwrap_err();
        assert!(e.contains("serve-bench"), "{e}");
        let e = p(&["table2", "--queue-cap", "4"]).unwrap_err();
        assert!(e.contains("serve"), "{e}");
        let e = p(&["serve-bench", "table2"]).unwrap_err();
        assert!(e.contains("table2"), "{e}");
        for bad in [["serve", "--port", "notaport"], ["serve-bench", "--clients", "0"],
            ["serve-bench", "--requests", "0"], ["serve", "--queue-cap", "0"],
            ["serve", "--batch-max", "0"]]
        {
            assert!(p(&bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_serve_top_flags() {
        let a = p(&["serve-top", "--port", "9000", "--interval-ms", "250", "--samples", "10"])
            .unwrap();
        let (port, interval_ms, samples) = (Some(9000), Some(250), Some(10));
        assert_eq!(a, Command::ServeTop { port, interval_ms, samples });
        // --samples 0 means "poll until the daemon goes away".
        let a = p(&["serve-top", "--samples", "0"]).unwrap();
        assert!(matches!(a, Command::ServeTop { samples: Some(0), .. }), "{a:?}");
        let a = p(&["serve", "--slow-us", "2500"]).unwrap();
        assert!(matches!(a, Command::Serve { slow_us: Some(2500), .. }), "{a:?}");
    }

    #[test]
    fn serve_top_flags_are_validated() {
        let e = p(&["serve-top", "serve"]).unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        let e = p(&["serve-top", "table2"]).unwrap_err();
        assert!(e.contains("table2"), "{e}");
        let e = p(&["--interval-ms", "250"]).unwrap_err();
        assert!(e.contains("serve-top"), "{e}");
        let e = p(&["serve", "--samples", "3"]).unwrap_err();
        assert!(e.contains("serve-top"), "{e}");
        let e = p(&["serve-top", "--slow-us", "100"]).unwrap_err();
        assert!(e.contains("serve"), "{e}");
        let e = p(&["serve-top", "--socket", "/tmp/x.sock"]).unwrap_err();
        assert!(e.contains("--socket"), "{e}");
        for bad in [["serve-top", "--interval-ms", "0"], ["serve", "--slow-us", "0"],
            ["serve-top", "--samples", "many"]]
        {
            assert!(p(&bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_sweep_flags() {
        let spec = "seeds=7,8;scenarios=0,2;paradigms=sup,icl";
        let a = p(&["sweep", "--grid", spec, "--fast"]).unwrap();
        let Command::Sweep { lab, grid, mode, .. } = a else { panic!("{a:?}") };
        assert!(lab.fast);
        assert_eq!(grid, GridSpec::parse(spec).unwrap(), "--grid is parsed once, here");
        assert_eq!(mode, SweepMode::Run { baseline: false });
        let a = p(&["sweep", "--grid", "scenarios=0", "--plan"]).unwrap();
        assert!(matches!(a, Command::Sweep { mode: SweepMode::Plan, .. }), "{a:?}");
        let a = p(&["sweep", "--grid", "scenarios=0", "--baseline", "--no-journal"]).unwrap();
        let Command::Sweep { mode, journal, .. } = a else { panic!("{a:?}") };
        assert_eq!(mode, SweepMode::Run { baseline: true });
        assert!(journal.off, "sweep composes with --no-journal");
    }

    #[test]
    fn sweep_flags_are_validated() {
        let e = p(&["sweep"]).unwrap_err();
        assert!(e.contains("--grid"), "{e}");
        let e = p(&["sweep", "--grid", "scenarios=9"]).unwrap_err();
        assert!(e.contains("scenario"), "bad grids fail at parse time: {e}");
        let e = p(&["sweep", "--grid", "scales=5"]).unwrap_err();
        assert!(e.contains("scale"), "{e}");
        let e = p(&["sweep", "--grid", "scenarios=0", "table2"]).unwrap_err();
        assert!(e.contains("table2"), "{e}");
        let e = p(&["sweep", "bench-query", "--grid", "scenarios=0"]).unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        let e = p(&["--grid", "scenarios=0"]).unwrap_err();
        assert!(e.contains("sweep"), "{e}");
        let e = p(&["table2", "--plan"]).unwrap_err();
        assert!(e.contains("sweep"), "{e}");
        let e = p(&["--baseline"]).unwrap_err();
        assert!(e.contains("sweep"), "{e}");
        let e = p(&["sweep", "--grid", "scenarios=0", "--plan", "--baseline"]).unwrap_err();
        assert!(e.contains("dry run"), "{e}");
    }

    #[test]
    fn parses_runs_subcommands() {
        let runs = |query, runs_dir| Command::Runs { query, runs_dir };
        assert_eq!(p(&["runs"]).unwrap(), runs(RunsCmd::List, None));
        assert_eq!(p(&["runs", "list"]).unwrap(), runs(RunsCmd::List, None));
        assert_eq!(p(&["runs", "--runs-dir", "r"]).unwrap(), runs(RunsCmd::List, path("r")));
        assert_eq!(
            p(&["runs", "show", "deadbeef-1"]).unwrap(),
            runs(RunsCmd::Show("deadbeef-1".to_string()), None)
        );
        assert_eq!(
            p(&["runs", "diff", "a-1", "b-2"]).unwrap(),
            runs(RunsCmd::Diff("a-1".to_string(), "b-2".to_string()), None)
        );
    }

    #[test]
    fn runs_subcommand_is_validated() {
        let e = p(&["runs", "frobnicate"]).unwrap_err();
        assert!(e.contains("frobnicate"), "{e}");
        assert!(p(&["runs", "show"]).unwrap_err().contains("run id"));
        assert!(p(&["runs", "diff", "only-one"]).unwrap_err().contains("two run ids"));
        let e = p(&["runs", "list", "table2"]).unwrap_err();
        assert!(e.contains("table2"), "{e}");
        let e = p(&["runs", "bench-query"]).unwrap_err();
        assert!(e.contains("bench-query"), "{e}");
        assert!(p(&["--runs-dir", ""]).unwrap_err().contains("--runs-dir"));
    }

    #[test]
    fn journal_flags_are_validated() {
        let a = p(&["all", "--no-journal", "--runs-dir", "elsewhere"]).unwrap();
        let Command::Artifacts { journal, .. } = a else { panic!("{a:?}") };
        assert_eq!(journal, JournalOpts { runs_dir: path("elsewhere"), off: true });
        let a = p(&["all"]).unwrap();
        assert!(matches!(a, Command::Artifacts { journal: JournalOpts { off: false, .. }, .. }));
        let e = p(&["bench-query", "--no-journal"]).unwrap_err();
        assert!(e.contains("--no-journal"), "{e}");
        let e = p(&["runs", "--no-journal"]).unwrap_err();
        assert!(e.contains("--no-journal"), "{e}");
    }

    #[test]
    fn artifact_runs_need_known_ids() {
        assert!(p(&[]).unwrap_err().contains("no artifacts"));
        assert!(p(&["--fast"]).unwrap_err().contains("no artifacts"));
        assert!(p(&["tabel3"]).unwrap_err().contains("tabel3"));
        assert!(p(&["serve", "tabel3"]).unwrap_err().contains("tabel3"));
        assert_eq!(p(&["serve"]).unwrap(), serve(LabOpts::default(), &[], None, None));
    }

    #[test]
    fn help_wins_and_list_stands_alone() {
        assert_eq!(p(&["-h"]).unwrap(), Command::Help);
        assert_eq!(p(&["serve", "--port", "1", "--help"]).unwrap(), Command::Help);
        assert_eq!(p(&["--list"]).unwrap(), Command::List);
        assert!(p(&["--list", "--fast"]).unwrap_err().contains("--fast"));
        assert!(p(&["--list", "table2"]).unwrap_err().contains("table2"));
        assert!(p(&["--list", "serve"]).unwrap_err().contains("mutually exclusive"));
    }

    /// Flags that used to be accepted and then ignored are now rejected,
    /// naming the flag.
    #[test]
    fn flags_a_command_does_not_read_are_rejected() {
        let cases: &[&[&str]] = &[
            &["serve-bench", "--trace", "t.json"],
            &["serve-bench", "--metrics"],
            &["serve-bench", "--profile"],
            &["bench-query", "--trace", "t.json"],
            &["bench-query", "--metrics"],
            &["bench-query", "--profile"],
            &["sweep", "--grid", "scenarios=0", "--md", "r.md"],
            &["serve", "--md", "r.md"],
            &["serve", "--out", "o"],
            &["serve-bench", "--out", "o"],
            &["bench-query", "--out", "o"],
        ];
        for args in cases {
            let flag = args.iter().rev().find(|a| a.starts_with("--")).unwrap();
            let e = p(args).unwrap_err();
            assert!(e.contains(flag) && e.contains("only applies to"), "{args:?}: {e}");
        }
        for &(flag, value, _) in FLAGS.iter().filter(|f| f.2 == LAB) {
            for cmd in ["runs", "serve-top"] {
                let args = [cmd, flag, "1"];
                let e = p(&args[..if value.is_some() { 3 } else { 2 }]).unwrap_err();
                assert!(e.contains(flag) && e.contains("only applies to"), "{args:?}: {e}");
            }
        }
    }

    /// Every row of the table parses for every command it applies to and
    /// is rejected, by name, for every other command.
    #[test]
    fn the_flag_table_is_the_whole_applicability_rule() {
        let base: &[(Kind, &[&str])] = &[
            (Kind::Artifacts, &["table2"]),
            (Kind::Sweep, &["sweep", "--grid", "scenarios=0"]),
            (Kind::Serve, &["serve"]),
            (Kind::ServeBench, &["serve-bench"]),
            (Kind::ServeTop, &["serve-top"]),
            (Kind::BenchQuery, &["bench-query"]),
            (Kind::Runs, &["runs"]),
            (Kind::List, &["--list"]),
        ];
        for &(flag, value, applies) in FLAGS {
            for (kind, cmd) in base {
                let mut args = cmd.to_vec();
                args.push(flag);
                if value.is_some() {
                    args.push(if flag == "--grid" { "scenarios=0" } else { "1" });
                }
                let parsed = p(&args);
                if applies.contains(kind) {
                    assert!(parsed.is_ok(), "{args:?}: {parsed:?}");
                } else {
                    let e = parsed.unwrap_err();
                    assert!(e.contains(flag), "{args:?}: {e}");
                }
            }
        }
    }

    /// Every `repro` command line in `.github/workflows/ci.yml` and the
    /// README parses to the command it has always run. CI's `$GRID` and
    /// `${{ matrix.threads }}` are substituted; shell quoting is dropped.
    #[test]
    fn every_documented_command_line_parses_to_its_command() {
        const GRID: &str = "seeds=7,8;scenarios=0;paradigms=sup,icl;model=random;adapt=naive";
        let four = ["table2", "table3a", "tableA6", "fig3"];
        let resume_lab = |dir: &str| LabOpts { cache_dir: path(dir), ..fast(Some(7), Some(2)) };
        let resume_journal = |dir: &str| JournalOpts { runs_dir: path(dir), off: false };
        let sweep = |lab, grid: &str, mode, out: Option<PathBuf>, obs, journal| Command::Sweep {
            lab,
            grid: GridSpec::parse(grid).unwrap(),
            mode,
            out,
            obs,
            journal,
        };
        let runs = |query, runs_dir| Command::Runs { query, runs_dir };
        let no_obs = ObsOpts::default;
        let cases: Vec<(String, Command)> = vec![
            // .github/workflows/ci.yml
            (
                "table2 table3a tableA6 fig3 --fast --seed 7 --threads 1 --out out-threads-1".into(),
                artifacts(&four, fast(Some(7), Some(1)), path("out-threads-1"), no_obs()),
            ),
            (
                "table2 table3a tableA6 fig3 --fast --seed 7 --threads 4 --out out-warm".into(),
                artifacts(&four, fast(Some(7), Some(4)), path("out-warm"), no_obs()),
            ),
            (
                "table2 table3a tableA6 fig3 --fast --threads 4 --trace /tmp/trace.json --metrics --profile"
                    .into(),
                artifacts(&four, fast(None, Some(4)), None, ObsOpts {
                    trace: path("/tmp/trace.json"),
                    metrics: true,
                    profile: true,
                }),
            ),
            (
                "table4 tableA6 --fast --metrics --out out-cold".into(),
                artifacts(&["table4", "tableA6"], fast(None, None), path("out-cold"), metrics()),
            ),
            (
                "table4 tableA6 --fast --metrics --no-mmap --out out-warm-nommap".into(),
                artifacts(
                    &["table4", "tableA6"],
                    LabOpts { no_mmap: true, ..fast(None, None) },
                    path("out-warm-nommap"),
                    metrics(),
                ),
            ),
            ("bench-query --fast --quant".into(), Command::BenchQuery { lab: fast(None, None), quant: true }),
            (
                "bench-query --fast --quant --threads 2".into(),
                Command::BenchQuery { lab: fast(None, Some(2)), quant: true },
            ),
            (
                "table2 table3a tableA6 fig3 --fast --seed 7 --threads 2 --out out-resume --cache-dir ckpt-resume --runs-dir runs-resume"
                    .into(),
                Command::Artifacts {
                    lab: resume_lab("ckpt-resume"),
                    ids: strings(&four),
                    out: path("out-resume"),
                    md: None,
                    obs: no_obs(),
                    journal: resume_journal("runs-resume"),
                },
            ),
            ("runs list --runs-dir runs-resume".into(), runs(RunsCmd::List, path("runs-resume"))),
            ("serve-bench --fast --seed 7 --threads 4".into(), serve_bench(fast(Some(7), Some(4)), None, None)),
            ("serve --fast --metrics --port 7878 --queue-cap 256".into(), Command::Serve {
                lab: fast(None, None),
                ids: Vec::new(),
                port: Some(7878),
                socket: None,
                engine: EngineOpts { queue_cap: Some(256), batch_max: None },
                slow_us: None,
                obs: metrics(),
            }),
            (
                format!("sweep --grid {GRID} --fast --plan"),
                sweep(fast(None, None), GRID, SweepMode::Plan, None, no_obs(), JournalOpts::default()),
            ),
            (
                format!("sweep --grid {GRID} --fast --threads 2 --metrics --baseline --out out-ref --cache-dir ckpt-ref --runs-dir runs-ref"),
                sweep(
                    LabOpts { seed: None, ..resume_lab("ckpt-ref") },
                    GRID,
                    SweepMode::Run { baseline: true },
                    path("out-ref"),
                    metrics(),
                    resume_journal("runs-ref"),
                ),
            ),
            (
                format!("sweep --grid {GRID} --fast --threads 2 --out out-resume --cache-dir ckpt-resume --runs-dir runs-resume"),
                sweep(
                    LabOpts { seed: None, ..resume_lab("ckpt-resume") },
                    GRID,
                    SweepMode::Run { baseline: false },
                    path("out-resume"),
                    no_obs(),
                    resume_journal("runs-resume"),
                ),
            ),
            // README.md
            ("all".into(), artifacts(ALL_IDS, LabOpts::default(), None, no_obs())),
            ("table5 fig3".into(), artifacts(&["table5", "fig3"], LabOpts::default(), None, no_obs())),
            ("all --fast".into(), artifacts(ALL_IDS, fast(None, None), None, no_obs())),
            ("all --scale 0.06 --seed 7 --out results/ --md report.md".into(), Command::Artifacts {
                lab: LabOpts { scale: Some(0.06), seed: Some(7), ..LabOpts::default() },
                ids: strings(ALL_IDS),
                out: path("results/"),
                md: path("report.md"),
                obs: no_obs(),
                journal: JournalOpts::default(),
            }),
            ("summary".into(), artifacts(&["summary"], LabOpts::default(), None, no_obs())),
            ("ablations".into(), artifacts(ABLATION_IDS, LabOpts::default(), None, no_obs())),
            ("runs".into(), runs(RunsCmd::List, None)),
            ("runs show 3fa9c2-17".into(), runs(RunsCmd::Show("3fa9c2-17".into()), None)),
            ("runs diff 3fa9 77b0".into(), runs(RunsCmd::Diff("3fa9".into(), "77b0".into()), None)),
            (
                "sweep --grid seeds=7;scenarios=0,1,2,3,4;paradigms=sup,icl --baseline".into(),
                sweep(
                    LabOpts::default(),
                    "seeds=7;scenarios=0,1,2,3,4;paradigms=sup,icl",
                    SweepMode::Run { baseline: true },
                    None,
                    no_obs(),
                    JournalOpts::default(),
                ),
            ),
            (
                "sweep --grid seeds=7,8;paradigms=all --plan".into(),
                sweep(
                    LabOpts::default(),
                    "seeds=7,8;paradigms=all",
                    SweepMode::Plan,
                    None,
                    no_obs(),
                    JournalOpts::default(),
                ),
            ),
            ("serve --port 7878".into(), serve(LabOpts::default(), &[], Some(7878), None)),
            (
                "serve table2 --socket /tmp/kcb.sock".into(),
                serve(LabOpts::default(), &["table2"], None, path("/tmp/kcb.sock")),
            ),
            ("serve --metrics".into(), Command::Serve {
                lab: LabOpts::default(),
                ids: Vec::new(),
                port: None,
                socket: None,
                engine: EngineOpts::default(),
                slow_us: None,
                obs: metrics(),
            }),
            (
                "serve-top --port 7878".into(),
                Command::ServeTop { port: Some(7878), interval_ms: None, samples: None },
            ),
            ("serve-bench --fast --threads 4".into(), serve_bench(fast(None, Some(4)), None, None)),
            (
                "all --fast --trace trace.json --metrics --profile".into(),
                artifacts(ALL_IDS, fast(None, None), None, ObsOpts {
                    trace: path("trace.json"),
                    metrics: true,
                    profile: true,
                }),
            ),
            ("--list".into(), Command::List),
            ("--help".into(), Command::Help),
        ];
        for (line, want) in cases {
            let args: Vec<&str> = line.split_whitespace().collect();
            let got = p(&args).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(got, want, "{line}");
        }
    }

    #[test]
    fn id_validation_names_the_offender() {
        assert!(validate_ids(&["table2".into(), "Fig3".into()]).is_ok());
        let e = validate_ids(&["table2".into(), "tabel3".into()]).unwrap_err();
        assert!(e.contains("tabel3"), "{e}");
    }

    #[test]
    fn aliases_expand_in_request_order() {
        let mut ids = vec!["summary".to_string(), "all".to_string(), "ablations".to_string()];
        expand_aliases(&mut ids);
        assert_eq!(ids[0], "summary");
        assert_eq!(ids[1], "table2");
        assert!(ids.contains(&"ablation-dim".to_string()));
        assert!(validate_ids(&ids).is_ok());
    }

    #[test]
    fn every_known_id_has_a_description() {
        for id in known_ids() {
            assert!(
                kcb_core::experiment::describe(id).is_some(),
                "{id} is listed but has no description"
            );
        }
        assert!(kcb_core::experiment::describe("nope").is_none());
    }
}
