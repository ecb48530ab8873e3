//! Kernel microbenchmarks: the event queue and the parallel analysis
//! pipeline.
//!
//! ```sh
//! cargo bench --bench kernel
//! cargo bench --bench kernel -- --test     # CI smoke mode
//! ```
//!
//! Groups:
//!
//! * `queue_push_pop` — bulk push then full drain of the binary-heap
//!   event queue over a queue-depth sweep.
//! * `queue_hold` — the classic hold model (pop one, push one a bounded
//!   delay ahead) at steady depth: the access pattern every simulator in
//!   the workspace actually generates.
//! * `wide_vs_scalar` — the lane-batched lockstep kernel against the
//!   scalar reference engine on the tracked ring/torus/random sweeps
//!   (b ∈ {4, 8, 32}), asserted bit-identical before any timing.
//! * `simd_vs_portable` — the same sweeps with the wide kernel pinned
//!   to each backend this CPU offers (portable, then AVX2 when
//!   detected), every backend asserted bit-identical down to each lane
//!   matrix cell before any timing.
//! * `analysis` — `CycleTimeAnalysis::run` vs `tsg_bench::analyze_batch` over a
//!   64-graph `tsg_gen` sweep at 1/2/4/8 threads.
//!
//! The `bench` binary runs the same workloads outside Criterion and
//! writes machine-readable `BENCH_kernel.json`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tsg_bench::{
    assert_backends_match, assert_wide_matches_scalar, available_backends, hold, push_pop,
    wide_scenarios,
};
use tsg_core::analysis::initiated::SimArena;
use tsg_core::analysis::wide::AnalysisArena;
use tsg_core::analysis::CycleTimeAnalysis;
use tsg_core::SignalGraph;
use tsg_sim::{BatchRunner, EventQueue};

fn bench_push_pop(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_push_pop");
    for depth in [64usize, 1024, 16384] {
        group.bench_with_input(
            BenchmarkId::new("binary_heap", depth),
            &depth,
            |b, &depth| b.iter(|| push_pop(EventQueue::with_capacity(depth), black_box(depth))),
        );
    }
    group.finish();
}

fn bench_hold(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_hold");
    for depth in [64usize, 1024, 16384] {
        group.bench_with_input(
            BenchmarkId::new("binary_heap", depth),
            &depth,
            |b, &depth| {
                b.iter(|| {
                    hold(
                        EventQueue::with_capacity(depth),
                        black_box(depth),
                        4 * depth,
                    )
                })
            },
        );
    }
    group.finish();
}

/// The 64-graph `tsg_gen` sweep of the acceptance criterion.
fn sweep_graphs() -> Vec<SignalGraph> {
    (0..64u64)
        .map(|seed| tsg_gen::random_live_tsg(seed, tsg_gen::RandomTsgConfig::default()))
        .collect()
}

fn bench_wide_vs_scalar(c: &mut Criterion) {
    let mut group = c.benchmark_group("wide_vs_scalar");
    let mut scalar_arena = SimArena::new();
    let mut wide_arena = AnalysisArena::new();
    for (name, sg) in wide_scenarios() {
        // A speedup of a wrong answer is not a speedup: bit-identity
        // (full analyses, every border's record included) is asserted
        // once per scenario before any timing.
        assert_wide_matches_scalar(&sg, &name);

        group.bench_with_input(BenchmarkId::new("scalar", &name), &sg, |bench, sg| {
            bench.iter(|| {
                CycleTimeAnalysis::run_scalar_in(black_box(sg), None, &mut scalar_arena)
                    .unwrap()
                    .cycle_time()
                    .as_f64()
            })
        });
        group.bench_with_input(BenchmarkId::new("wide", &name), &sg, |bench, sg| {
            bench.iter(|| {
                CycleTimeAnalysis::run_in(black_box(sg), None, &mut wide_arena)
                    .unwrap()
                    .cycle_time()
                    .as_f64()
            })
        });
    }
    group.finish();
}

fn bench_simd_vs_portable(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_vs_portable");
    let backends = available_backends();
    let mut arenas: Vec<AnalysisArena> = backends
        .iter()
        .map(|&b| AnalysisArena::with_kernel(b))
        .collect();
    for (name, sg) in wide_scenarios() {
        // Every backend the CPU offers is asserted bit-identical to the
        // scalar kernel — analyses and their records — before any
        // timing.
        assert_backends_match(&sg, &name);

        for (backend, arena) in backends.iter().zip(arenas.iter_mut()) {
            group.bench_with_input(BenchmarkId::new(backend.name(), &name), &sg, |bench, sg| {
                bench.iter(|| {
                    CycleTimeAnalysis::run_in(black_box(sg), None, arena)
                        .unwrap()
                        .cycle_time()
                        .as_f64()
                })
            });
        }
    }
    group.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let graphs = sweep_graphs();
    let mut group = c.benchmark_group("analysis");
    group.bench_function("sequential_64", |b| {
        b.iter(|| {
            graphs
                .iter()
                .map(|sg| CycleTimeAnalysis::run(sg).unwrap().cycle_time().as_f64())
                .sum::<f64>()
        })
    });
    for threads in [1usize, 2, 4, 8] {
        let runner = BatchRunner::with_threads(threads);
        group.bench_with_input(
            BenchmarkId::new("analyze_batch_64", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    tsg_bench::analyze_batch(black_box(&graphs), &runner)
                        .into_iter()
                        .map(|a| a.unwrap().cycle_time().as_f64())
                        .sum::<f64>()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = kernel;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_push_pop, bench_hold, bench_wide_vs_scalar, bench_simd_vs_portable, bench_analysis
}
criterion_main!(kernel);
