//! Cell-scheduler throughput: a synthetic DAG shaped like the artifact
//! plan (providers feeding a wide fan-out of cells, plus an assembly
//! barrier) at 1 / 2 / max worker threads. On a single-core
//! host the thread counts should tie; with real cores the multi-worker
//! configurations show the cell-level speedup.

use criterion::{criterion_group, criterion_main, Criterion};
use kcb_core::sched::Graph;
use std::hint::black_box;

/// Busy work standing in for a forest / scenario cell (~50µs of float
/// arithmetic; deterministic, optimisation-resistant).
fn cell_work(seed: u64) -> f64 {
    let mut acc = seed as f64;
    for i in 1..4_000u64 {
        acc = (acc + i as f64).sqrt() * 1.0001;
    }
    acc
}

/// A plan-shaped DAG: `providers` dep-free jobs, `cells` jobs each
/// depending on one provider, one assembly depending on all cells.
fn run_plan_shaped(workers: usize, providers: usize, cells: usize) -> f64 {
    let mut g = Graph::new();
    let provider_ids: Vec<_> = (0..providers)
        .map(|p| g.add(format!("provider:{p}"), &[], move || {
            black_box(cell_work(p as u64));
        }))
        .collect();
    let cell_ids: Vec<_> = (0..cells)
        .map(|i| {
            let dep = provider_ids[i % providers];
            g.add(format!("cell:{i}"), &[dep], move || {
                black_box(cell_work(i as u64));
            })
        })
        .collect();
    g.add("artifact:final", &cell_ids, || {});
    let report = g.run(workers);
    report.wall_seconds
}

fn bench_scheduler(c: &mut Criterion) {
    let hw = kcb_lm::pool::hardware_threads();
    let mut group = c.benchmark_group("scheduler");
    group.sample_size(20);
    let mut worker_counts = vec![1usize, 2, hw.max(2)];
    worker_counts.dedup();
    for workers in worker_counts {
        group.bench_function(format!("plan_shaped/120_cells/{workers}_workers"), |b| {
            b.iter(|| run_plan_shaped(black_box(workers), 6, 120))
        });
    }
    // Dependency-chain overhead: a deep sequential chain measures raw
    // per-job scheduling cost (no parallelism to extract).
    group.bench_function("chain/200_jobs/2_workers", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let mut prev = None;
            for i in 0..200usize {
                let deps: Vec<_> = prev.into_iter().collect();
                prev = Some(g.add(format!("j{i}"), &deps, move || {
                    black_box(i);
                }));
            }
            g.run(2).jobs.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
