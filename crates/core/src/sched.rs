//! Dependency-aware cell scheduler for the reproduction pipeline.
//!
//! [`Graph`] holds a DAG of `Send` jobs — provider builds, forest and
//! fine-tuning cells, artifact assembly — any of which may run on any
//! worker thread. Dependencies always point at earlier ids, so push order
//! is a valid topological order and the single-worker path degenerates to
//! plain sequential execution in exactly that order.
//!
//! With `workers > 1` the graph runs on scoped worker threads with
//! per-worker LIFO deques, FIFO stealing, and a shared injector queue;
//! the thread that called [`Graph::run`] is worker 0. Jobs executing on a
//! multi-worker run hold a [`pool::CoreReservation`] and are pinned to
//! [`pool::run_serial`], so nested LM/forest fan-out yields to cell-level
//! parallelism.
//!
//! Determinism contract: jobs communicate only through write-once slots
//! and memoised caches whose values are independent of scheduling, and
//! callers assemble outputs in push order from the slots afterwards —
//! the scheduler itself never reorders observable results.
//!
//! Telemetry: when the [`kcb_obs`] recorder is enabled, every job emits a
//! span (categorised by its label prefix, annotated with worker id and
//! kind) into the executing thread's buffer, steals emit instant events,
//! and queue promotions are counted — all out-of-band of the job
//! closures, so recording can never perturb artifact bytes. The
//! per-thread buffers are merged only after [`Graph::run`] returns, at
//! `kcb_obs::drain()` time, so instrumentation adds no cross-worker
//! contention.

use kcb_util::pool;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Condvar;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The job kind every report carries. One kind since every job is `Send`;
/// the field stays because `run_meta` and the journal record it.
const KIND: &str = "par";

/// Span category for a job label: providers/cells/artifacts get their own
/// trace categories, anything else files under the scheduler itself.
fn cat_for(label: &str) -> &'static str {
    if label.starts_with("provider:") {
        "provider"
    } else if label.starts_with("cell:") {
        "cell"
    } else if label.starts_with("artifact:") {
        "artifact"
    } else {
        "sched"
    }
}

/// Handle to a job pushed onto a [`Graph`]; used to declare dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobId(usize);

/// Completion notice passed to a [`Graph::run_hooked`] hook right after a
/// job's closure returns successfully — the attachment point for the run
/// journal, which appends (and fsyncs) one record per completed job.
#[derive(Debug, Clone)]
pub struct JobDone<'r> {
    /// Push-order index of the job.
    pub index: usize,
    /// The label given at push time.
    pub label: &'r str,
    /// Always `"par"`.
    pub kind: &'static str,
    /// Wall-clock seconds inside the closure.
    pub seconds: f64,
    /// Worker that executed the job (0 = the calling thread).
    pub worker: usize,
}

/// Job-completion hook. Runs on the executing worker's thread (hence
/// `Sync`), after the job's own work and timing but before dependents are
/// promoted — so anything the hook persists is durable before downstream
/// jobs can observe the result.
pub type DoneHook<'h> = dyn Fn(&JobDone<'_>) + Sync + 'h;

type JobFn<'a> = Box<dyn FnOnce() + Send + 'a>;

struct Node {
    label: String,
    deps: Vec<usize>,
}

/// Per-job execution record, in push (= canonical) order.
#[derive(Debug, Clone, serde::Serialize)]
pub struct JobReport {
    /// The label given at push time.
    pub label: String,
    /// Always `"par"`.
    pub kind: &'static str,
    /// Wall-clock seconds spent inside the closure (`end - start`).
    pub seconds: f64,
    /// Seconds from graph start when the closure began.
    pub start: f64,
    /// Seconds from graph start when the closure returned.
    pub end: f64,
    /// Worker that executed the job (0 = the calling thread).
    pub worker: usize,
}

/// Start/end offsets (seconds from graph start) and executing worker.
#[derive(Debug, Clone, Copy, Default)]
struct Timing {
    start: f64,
    end: f64,
    worker: usize,
}

/// Records a job span into the executing thread's `kcb_obs` buffer.
fn record_job_span(label: &str, epoch_us: u64, t: Timing) {
    if !kcb_obs::enabled() {
        return;
    }
    kcb_obs::record_span(
        cat_for(label),
        label,
        epoch_us + (t.start * 1e6) as u64,
        ((t.end - t.start).max(0.0) * 1e6) as u64,
        vec![("worker", t.worker.to_string()), ("kind", KIND.to_string())],
    );
}

/// What one [`Graph::run`] did.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RunReport {
    /// Worker threads used (1 = sequential execution on the calling thread).
    pub workers: usize,
    /// Per-job timings in push order.
    pub jobs: Vec<JobReport>,
    /// Successful steals from another worker's local deque.
    pub steals: usize,
    /// End-to-end wall-clock seconds for the whole graph.
    pub wall_seconds: f64,
}

/// A DAG of labelled jobs. See the module docs for the execution model.
#[derive(Default)]
pub struct Graph<'a> {
    nodes: Vec<Node>,
    fns: Vec<Option<JobFn<'a>>>,
}

impl<'a> Graph<'a> {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of jobs pushed so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no jobs have been pushed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The label of an already-pushed job (for provenance maps that key
    /// journal input digests by dependency label).
    pub fn label_of(&self, id: JobId) -> &str {
        &self.nodes[id.0].label
    }

    /// Pushes a job: it may run on any worker thread once all `deps` have
    /// finished.
    pub fn add(
        &mut self,
        label: impl Into<String>,
        deps: &[JobId],
        f: impl FnOnce() + Send + 'a,
    ) -> JobId {
        let id = self.nodes.len();
        for d in deps {
            assert!(d.0 < id, "dependency {} of job {id} not yet pushed", d.0);
        }
        self.nodes.push(Node { label: label.into(), deps: deps.iter().map(|d| d.0).collect() });
        self.fns.push(Some(Box::new(f)));
        JobId(id)
    }

    /// Executes the whole graph and returns the run report. Panics in
    /// jobs are re-raised here after the scope unwinds.
    pub fn run(self, workers: usize) -> RunReport {
        self.run_hooked(workers, None)
    }

    /// [`Graph::run`] with an optional per-job completion hook (see
    /// [`DoneHook`]); the journal attaches here.
    pub fn run_hooked(self, workers: usize, hook: Option<&DoneHook<'_>>) -> RunReport {
        let started = Instant::now();
        let epoch_us = kcb_obs::now_us();
        let n = self.nodes.len();
        let labels: Vec<String> = self.nodes.iter().map(|nd| nd.label.clone()).collect();
        let mut timing = vec![Timing::default(); n];
        let (steals, workers) = if workers <= 1 || n <= 1 {
            self.run_sequential(started, epoch_us, &mut timing, hook);
            (0, 1)
        } else {
            (self.run_parallel(workers, started, epoch_us, &mut timing, hook), workers)
        };
        let jobs = labels
            .into_iter()
            .zip(timing)
            .map(|(label, t)| JobReport {
                label,
                kind: KIND,
                seconds: (t.end - t.start).max(0.0),
                start: t.start,
                end: t.end,
                worker: t.worker,
            })
            .collect();
        RunReport { workers, jobs, steals, wall_seconds: started.elapsed().as_secs_f64() }
    }

    fn run_sequential(
        self,
        t0: Instant,
        epoch_us: u64,
        timing: &mut [Timing],
        hook: Option<&DoneHook<'_>>,
    ) {
        kcb_obs::set_thread_label("worker-0");
        for (i, (node, f)) in self.nodes.into_iter().zip(self.fns).enumerate() {
            let start = t0.elapsed().as_secs_f64();
            (f.expect("job present"))();
            let end = t0.elapsed().as_secs_f64();
            timing[i] = Timing { start, end, worker: 0 };
            record_job_span(&node.label, epoch_us, timing[i]);
            if let Some(h) = hook {
                h(&JobDone {
                    index: i,
                    label: &node.label,
                    kind: KIND,
                    seconds: (end - start).max(0.0),
                    worker: 0,
                });
            }
        }
    }

    fn run_parallel(
        self,
        workers: usize,
        t0: Instant,
        epoch_us: u64,
        timing: &mut [Timing],
        hook: Option<&DoneHook<'_>>,
    ) -> usize {
        let Graph { nodes, fns } = self;
        let n = nodes.len();

        let pending: Vec<usize> = nodes.iter().map(|nd| nd.deps.len()).collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, nd) in nodes.iter().enumerate() {
            for &d in &nd.deps {
                dependents[d].push(i);
            }
        }
        // Seed the injector with dep-free jobs, in push order.
        let injector = (0..n).filter(|&i| pending[i] == 0).collect();
        let state = State { pending, dependents, injector, remaining: n, panic: None };

        let shared = Shared {
            nodes,
            fns: fns.into_iter().map(Mutex::new).collect(),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            timing: (0..n).map(|_| Mutex::new(Timing::default())).collect(),
            state: Mutex::new(state),
            cv: Condvar::new(),
            steals: AtomicUsize::new(0),
            t0,
            epoch_us,
            hook,
        };

        std::thread::scope(|s| {
            // The calling thread is worker 0.
            for w in 1..workers {
                let shared = &shared;
                s.spawn(move || shared.worker_loop(w));
            }
            shared.worker_loop(0);
        });

        for (dst, src) in timing.iter_mut().zip(&shared.timing) {
            *dst = *src.lock();
        }
        if let Some(payload) = shared.state.lock().panic.take() {
            resume_unwind(payload);
        }
        shared.steals.load(Ordering::Relaxed)
    }
}

struct State {
    pending: Vec<usize>,
    dependents: Vec<Vec<usize>>,
    /// Global FIFO of ready jobs not yet claimed by a local deque.
    injector: VecDeque<usize>,
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Shared<'a> {
    nodes: Vec<Node>,
    fns: Vec<Mutex<Option<JobFn<'a>>>>,
    locals: Vec<Mutex<VecDeque<usize>>>,
    timing: Vec<Mutex<Timing>>,
    state: Mutex<State>,
    cv: Condvar,
    steals: AtomicUsize,
    /// Graph start, shared so every thread reports offsets on one clock.
    t0: Instant,
    /// Recorder-epoch microseconds at graph start, for span timestamps.
    epoch_us: u64,
    /// Optional completion hook, fired on the executing thread after each
    /// successful job and before its dependents are promoted.
    hook: Option<&'a DoneHook<'a>>,
}

impl Shared<'_> {
    /// Runs job `i` on worker `w`: reserve a core and pin nested kernels
    /// to serial so cell-level parallelism wins the machine.
    fn run_job(&self, i: usize, w: usize) {
        let f = self.fns[i].lock().take().expect("job claimed twice");
        let _core = pool::CoreReservation::claim();
        let start = self.t0.elapsed().as_secs_f64();
        let result = catch_unwind(AssertUnwindSafe(|| pool::run_serial(f)));
        let t = Timing { start, end: self.t0.elapsed().as_secs_f64(), worker: w };
        *self.timing[i].lock() = t;
        record_job_span(&self.nodes[i].label, self.epoch_us, t);
        if result.is_ok() {
            if let Some(h) = self.hook {
                h(&JobDone {
                    index: i,
                    label: &self.nodes[i].label,
                    kind: KIND,
                    seconds: (t.end - t.start).max(0.0),
                    worker: w,
                });
            }
        }
        self.finish(i, w, result);
    }

    /// Marks job `i` done, promoting newly-ready jobs. The first
    /// newly-ready job goes to worker `w`'s own deque (LIFO locality); the
    /// rest go to the injector.
    fn finish(&self, i: usize, w: usize, result: Result<(), Box<dyn std::any::Any + Send>>) {
        let mut st = self.state.lock();
        match result {
            Ok(()) => {
                let mut kept_local = false;
                let deps_of: Vec<usize> = st.dependents[i].clone();
                for j in deps_of {
                    st.pending[j] -= 1;
                    if st.pending[j] == 0 {
                        if kept_local {
                            st.injector.push_back(j);
                            kcb_obs::counter("sched.injector_pushes", 1);
                        } else {
                            kept_local = true;
                            self.locals[w].lock().push_back(j);
                            kcb_obs::counter("sched.local_pushes", 1);
                        }
                    }
                }
            }
            Err(payload) => {
                if st.panic.is_none() {
                    st.panic = Some(payload);
                }
            }
        }
        st.remaining -= 1;
        drop(st);
        self.cv.notify_all();
    }

    /// Next job for worker `w`: own deque (LIFO) → steal others (FIFO,
    /// scanning `w+1, w+2, …` wrapping) → injector.
    fn next_job(&self, w: usize) -> Option<usize> {
        if let Some(i) = self.locals[w].lock().pop_back() {
            return Some(i);
        }
        let k = self.locals.len();
        for off in 1..k {
            if let Some(i) = self.locals[(w + off) % k].lock().pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                kcb_obs::counter("sched.steals", 1);
                kcb_obs::instant("sched", "steal");
                return Some(i);
            }
        }
        self.state.lock().injector.pop_front()
    }

    fn worker_loop(&self, w: usize) {
        kcb_obs::set_thread_label(format!("worker-{w}"));
        loop {
            if let Some(i) = self.next_job(w) {
                self.run_job(i, w);
                continue;
            }
            let st = self.state.lock();
            if st.remaining == 0 || st.panic.is_some() {
                return;
            }
            // Timed wait: steals from peer deques are not signalled
            // through the state condvar, so retry periodically.
            drop(self.cv.wait_timeout(st, Duration::from_millis(2)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// Records completion order; returns (graph-builder helper, log).
    fn log() -> Arc<StdMutex<Vec<&'static str>>> {
        Arc::new(StdMutex::new(Vec::new()))
    }

    #[test]
    fn sequential_runs_in_push_order() {
        let mut g = Graph::new();
        let l = log();
        for name in ["a", "b", "c", "d"] {
            let l = l.clone();
            g.add(name, &[], move || l.lock().unwrap().push(name));
        }
        let report = g.run(1);
        assert_eq!(*l.lock().unwrap(), vec!["a", "b", "c", "d"]);
        assert_eq!(report.workers, 1);
        assert_eq!(report.steals, 0);
        assert_eq!(report.jobs.len(), 4);
        assert!(report.jobs.iter().all(|j| j.kind == "par"));
    }

    #[test]
    fn diamond_dependencies_are_respected() {
        for workers in [1, 2, 4] {
            let mut g = Graph::new();
            let l = log();
            let mk = |l: &Arc<StdMutex<Vec<&'static str>>>, name: &'static str| {
                let l = l.clone();
                move || l.lock().unwrap().push(name)
            };
            let a = g.add("a", &[], mk(&l, "a"));
            let b = g.add("b", &[a], mk(&l, "b"));
            let c = g.add("c", &[a], mk(&l, "c"));
            let _d = g.add("d", &[b, c], mk(&l, "d"));
            g.run(workers);
            let order = l.lock().unwrap().clone();
            assert_eq!(order.len(), 4, "workers={workers}");
            let pos = |x| order.iter().position(|&o| o == x).unwrap();
            assert!(pos("a") < pos("b") && pos("a") < pos("c"));
            assert_eq!(pos("d"), 3);
        }
    }

    #[test]
    fn shared_results_flow_through_slots() {
        // Providers fill OnceLock slots; consumers read them — the pattern
        // plan.rs uses for ontology/embedding/checkpoint intermediates.
        use std::sync::OnceLock;
        for workers in [1, 3] {
            let slot: Arc<OnceLock<u64>> = Arc::new(OnceLock::new());
            let sum = Arc::new(StdMutex::new(0u64));
            let mut g = Graph::new();
            let provider = {
                let slot = slot.clone();
                g.add("provider", &[], move || {
                    slot.set(21).unwrap();
                })
            };
            for _ in 0..6 {
                let slot = slot.clone();
                let sum = sum.clone();
                g.add("consumer", &[provider], move || {
                    *sum.lock().unwrap() += slot.get().copied().unwrap();
                });
            }
            g.run(workers);
            assert_eq!(*sum.lock().unwrap(), 126, "workers={workers}");
        }
    }

    #[test]
    fn panics_propagate_after_the_scope_unwinds() {
        for workers in [1, 3] {
            let mut g = Graph::new();
            g.add("ok", &[], || {});
            g.add("boom", &[], || panic!("cell failed"));
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| g.run(workers)))
                .expect_err("panic should propagate");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "cell failed", "workers={workers}");
        }
    }

    #[test]
    fn report_records_every_job_with_timing() {
        let mut g = Graph::new();
        let a = g.add("sleepy", &[], || std::thread::sleep(Duration::from_millis(5)));
        g.add("after", &[a], || {});
        let report = g.run(2);
        assert_eq!(report.jobs.len(), 2);
        assert_eq!(report.jobs[0].label, "sleepy");
        assert_eq!(report.jobs[0].kind, "par");
        assert!(report.jobs[0].seconds >= 0.004, "{}", report.jobs[0].seconds);
        assert_eq!(report.jobs[1].kind, "par");
        assert!(report.wall_seconds >= report.jobs[0].seconds);
    }

    #[test]
    #[should_panic(expected = "not yet pushed")]
    fn forward_dependencies_are_rejected() {
        let mut g = Graph::new();
        let a = g.add("a", &[], || {});
        let _ = a;
        // A JobId forged beyond the current length must be rejected.
        let bogus = JobId(5);
        g.add("b", &[bogus], || {});
    }

    #[test]
    fn hook_sees_every_successful_job_exactly_once() {
        for workers in [1, 3] {
            let mut g = Graph::new();
            let a = g.add("a", &[], || {});
            let b = g.add("b", &[a], || {});
            g.add("c", &[b], || {});
            let seen = StdMutex::new(Vec::new());
            let hook = |d: &JobDone<'_>| {
                seen.lock().unwrap().push((d.index, d.label.to_string(), d.kind));
            };
            g.run_hooked(workers, Some(&hook));
            let mut got = seen.lock().unwrap().clone();
            got.sort();
            assert_eq!(
                got,
                vec![
                    (0, "a".to_string(), "par"),
                    (1, "b".to_string(), "par"),
                    (2, "c".to_string(), "par"),
                ],
                "workers={workers}"
            );
        }
    }

    #[test]
    fn hook_skips_panicked_jobs() {
        let mut g = Graph::new();
        g.add("ok", &[], || {});
        g.add("boom", &[], || panic!("nope"));
        let seen = StdMutex::new(Vec::new());
        let hook = |d: &JobDone<'_>| seen.lock().unwrap().push(d.label.to_string());
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| g.run_hooked(1, Some(&hook))));
        assert_eq!(*seen.lock().unwrap(), vec!["ok".to_string()]);
    }

    #[test]
    fn par_cells_are_serial_inside_multiworker_runs() {
        let observed = Arc::new(StdMutex::new(Vec::new()));
        let mut g = Graph::new();
        for _ in 0..3 {
            let observed = observed.clone();
            g.add("cell", &[], move || {
                observed.lock().unwrap().push(pool::serial_mode());
            });
        }
        g.run(2);
        assert!(observed.lock().unwrap().iter().all(|&s| s), "multi-worker par cells pin serial");

        let observed = Arc::new(StdMutex::new(Vec::new()));
        let mut g = Graph::new();
        let obs = observed.clone();
        g.add("cell", &[], move || obs.lock().unwrap().push(pool::serial_mode()));
        g.run(1);
        assert!(!observed.lock().unwrap()[0], "sequential runs keep full nested fan-out");
    }
}
