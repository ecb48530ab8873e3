//! Ablation benchmarks for the design choices DESIGN.md calls out.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use tsg_core::analysis::border::{exact_max_occurrence_period, minimum_cut_set};
use tsg_core::analysis::wide::AnalysisArena;
use tsg_core::analysis::CycleTimeAnalysis;
use tsg_gen::{handshake_pipeline, PipelineConfig};

/// Simulation-length ablation: the default b periods (justified by the
/// border-set bound on ε_max) versus the tight exact ε_max — the saving
/// available when the structure is known, as Section VIII.C's "one period
/// suffices" remark exploits.
fn bench_period_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/period_bound");
    for stages in [4usize, 8] {
        let sg = handshake_pipeline(stages, PipelineConfig::default());
        let b_periods = sg.border_events().len() as u32;
        let min_cut = exact_max_occurrence_period(&sg, 1_000_000).unwrap_or(b_periods);
        group.bench_with_input(BenchmarkId::new("b_periods", stages), &sg, |bench, sg| {
            bench.iter(|| {
                CycleTimeAnalysis::run_in(black_box(sg), Some(b_periods), &mut AnalysisArena::new())
                    .unwrap()
                    .cycle_time()
                    .as_f64()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("exact_eps_periods", stages),
            &sg,
            |bench, sg| {
                bench.iter(|| {
                    CycleTimeAnalysis::run_in(
                        black_box(sg),
                        Some(min_cut),
                        &mut AnalysisArena::new(),
                    )
                    .unwrap()
                    .cycle_time()
                    .as_f64()
                })
            },
        );
    }
    group.finish();
}

/// Cost of the minimum-cut-set search itself (why the paper uses the free
/// border set instead).
fn bench_min_cut_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/min_cut_search");
    for stages in [2usize, 4] {
        let sg = handshake_pipeline(stages, PipelineConfig::default());
        group.bench_with_input(BenchmarkId::new("exact_fvs", stages), &sg, |b, sg| {
            b.iter(|| minimum_cut_set(black_box(sg), 64))
        });
        group.bench_with_input(BenchmarkId::new("border_set", stages), &sg, |b, sg| {
            b.iter(|| black_box(sg).border_events())
        });
    }
    group.finish();
}

/// Long-run simulation horizon needed to match the exact τ — the Figure 4
/// argument in benchmark form.
fn bench_longrun_horizon(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/longrun_horizon");
    let sg = tsg_gen::stack66();
    for periods in [8u32, 32, 128] {
        group.bench_with_input(
            BenchmarkId::new("simulate", periods),
            &periods,
            |b, &periods| {
                b.iter(|| tsg_baselines::longrun_estimate(black_box(&sg), periods).unwrap())
            },
        );
    }
    group.bench_function("exact_paper_algorithm", |b| {
        b.iter(|| {
            CycleTimeAnalysis::run(black_box(&sg))
                .unwrap()
                .cycle_time()
                .as_f64()
        })
    });
    group.finish();
}

criterion_group! {
    name = ablation;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_period_bound, bench_min_cut_cost, bench_longrun_horizon
}
criterion_main!(ablation);
