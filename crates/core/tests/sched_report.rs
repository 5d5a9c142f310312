//! Invariants of the scheduler's [`RunReport`] on synthetic graphs: every
//! job is timed with `end >= start`, summed self-times never exceed
//! `wall * workers` (the report cannot claim more CPU than existed), and
//! single-worker runs never steal.

use kcb_core::sched::{Graph, RunReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A diamond of jobs with measurable sleeps plus one sink.
fn diamond(counter: &AtomicUsize) -> Graph<'_> {
    let mut g = Graph::new();
    let root = g.add("provider:root", &[], move || {
        std::thread::sleep(Duration::from_millis(5));
        counter.fetch_add(1, Ordering::Relaxed);
    });
    let mut mids = Vec::new();
    for i in 0..6 {
        mids.push(g.add(format!("cell:mid|{i}"), &[root], move || {
            std::thread::sleep(Duration::from_millis(5));
            counter.fetch_add(1, Ordering::Relaxed);
        }));
    }
    g.add("artifact:sink", &mids, move || {
        std::thread::sleep(Duration::from_millis(2));
        counter.fetch_add(1, Ordering::Relaxed);
    });
    g
}

fn check_common(r: &RunReport, jobs: usize) {
    assert_eq!(r.jobs.len(), jobs, "every pushed job is reported");
    assert!(r.wall_seconds > 0.0);
    for j in &r.jobs {
        assert!(j.end >= j.start, "{}: end {} < start {}", j.label, j.end, j.start);
        assert!(j.start >= 0.0, "{}: negative start {}", j.label, j.start);
        assert!(
            j.end <= r.wall_seconds + 1e-6,
            "{}: end {} past wall {}",
            j.label,
            j.end,
            r.wall_seconds
        );
        assert!(
            (j.seconds - (j.end - j.start)).abs() < 1e-9,
            "{}: seconds {} != end - start",
            j.label,
            j.seconds
        );
        assert!(j.worker < r.workers, "{}: worker {} out of range", j.label, j.worker);
    }
    // The report cannot account for more CPU-time than workers * wall.
    let busy: f64 = r.jobs.iter().map(|j| j.seconds).sum();
    assert!(
        busy <= r.wall_seconds * r.workers as f64 + 1e-6,
        "self-times {busy} exceed {} workers x {} wall",
        r.workers,
        r.wall_seconds
    );
}

#[test]
fn single_worker_runs_in_push_order_without_steals() {
    let counter = AtomicUsize::new(0);
    let g = diamond(&counter);
    let jobs = g.len();
    let r = g.run(1);
    assert_eq!(counter.load(Ordering::Relaxed), jobs, "every closure ran");
    assert_eq!(r.workers, 1);
    assert_eq!(r.steals, 0, "one worker has nobody to steal from");
    check_common(&r, jobs);
    // Sequential execution: jobs never overlap and follow push order.
    for w in r.jobs.windows(2) {
        assert!(
            w[1].start >= w[0].end - 1e-9,
            "{} began before {} ended",
            w[1].label,
            w[0].label
        );
    }
    assert!(r.jobs.iter().all(|j| j.worker == 0));
}

#[test]
fn parallel_run_reports_every_job_within_capacity() {
    let counter = AtomicUsize::new(0);
    let g = diamond(&counter);
    let jobs = g.len();
    let r = g.run(4);
    assert_eq!(counter.load(Ordering::Relaxed), jobs, "every closure ran");
    assert_eq!(r.workers, 4);
    check_common(&r, jobs);
    // Dependencies are honoured in the report: the root finishes before
    // any dependent starts, and the sink runs last.
    let root_end = r.jobs[0].end;
    for j in &r.jobs[1..] {
        assert!(j.start >= root_end - 1e-9, "{} overlapped its dependency", j.label);
    }
    let sink = r.jobs.last().expect("sink job");
    assert!(r.jobs.iter().all(|j| j.kind == "par"), "every job has the one kind");
    assert!(r.jobs[..jobs - 1].iter().all(|j| sink.start >= j.end - 1e-9));
}

#[test]
fn empty_and_single_job_graphs_degrade_to_sequential() {
    let r = Graph::new().run(8);
    assert_eq!(r.workers, 1, "nothing to parallelise");
    assert_eq!(r.steals, 0);
    assert!(r.jobs.is_empty());

    let mut g = Graph::new();
    g.add("cell:only", &[], || {});
    let r = g.run(8);
    assert_eq!(r.workers, 1);
    assert_eq!(r.jobs.len(), 1);
    assert_eq!(r.jobs[0].worker, 0);
    assert!(r.jobs[0].end >= r.jobs[0].start);
}
