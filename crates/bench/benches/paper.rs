//! One Criterion benchmark per paper artefact (see DESIGN.md §3).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use tsg_core::analysis::initiated::SimArena;
use tsg_core::analysis::sim::TimingSimulation;
use tsg_core::analysis::CycleTimeAnalysis;

/// perf8b — Section VIII.B: full analysis of the 66-event / 112-arc
/// stack-class graph (paper: 74 ms on a DEC 5000).
fn bench_stack66(c: &mut Criterion) {
    let sg = tsg_gen::stack66();
    c.bench_function("perf8b/stack66_cycle_time", |b| {
        b.iter(|| {
            CycleTimeAnalysis::run(black_box(&sg))
                .unwrap()
                .cycle_time()
                .as_f64()
        })
    });
}

/// fig1b — netlist → Signal Graph extraction of the oscillator.
fn bench_extraction(c: &mut Criterion) {
    let nl = tsg_circuit::library::c_element_oscillator();
    c.bench_function("fig1b/extract_oscillator", |b| {
        b.iter(|| {
            tsg_extract::extract(black_box(&nl), tsg_extract::ExtractOptions::default()).unwrap()
        })
    });
}

/// ex3/fig1c — plain timing simulation of the oscillator.
fn bench_timing_simulation(c: &mut Criterion) {
    let sg = tsg_circuit::library::c_element_oscillator_tsg();
    c.bench_function("ex3/timing_simulation_8_periods", |b| {
        b.iter(|| {
            TimingSimulation::run(black_box(&sg), 8, None)
                .unwrap()
                .horizon()
        })
    });
}

/// tab8c — the two border-initiated simulations of Section VIII.C.
fn bench_initiated(c: &mut Criterion) {
    let sg = tsg_circuit::library::c_element_oscillator_tsg();
    let ap = sg.event_by_label("a+").unwrap();
    c.bench_function("tab8c/initiated_simulation", |b| {
        b.iter(|| {
            let mut sim = SimArena::new();
            sim.run(black_box(&sg), ap, 2, true).unwrap();
            sim.distance_series()
        })
    });
}

/// tab8d — extraction + analysis of the 5-stage Muller ring.
fn bench_muller_ring(c: &mut Criterion) {
    let nl = tsg_circuit::library::muller_ring(5, 1.0);
    c.bench_function("tab8d/muller5_extract_and_analyze", |b| {
        b.iter(|| {
            let sg = tsg_extract::extract(black_box(&nl), tsg_extract::ExtractOptions::default())
                .unwrap();
            CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64()
        })
    });
}

/// ex56 — exhaustive cycle enumeration on the oscillator (the approach the
/// algorithm replaces).
fn bench_enumeration(c: &mut Criterion) {
    let sg = tsg_circuit::library::c_element_oscillator_tsg();
    c.bench_function("ex56/enumerate_cycles", |b| {
        b.iter(|| tsg_baselines::enumerate_cycle_time(black_box(&sg), 1000).unwrap())
    });
}

/// fig4 — the 40-period δ-series of on- and off-cycle events.
fn bench_asymptotic(c: &mut Criterion) {
    let sg = tsg_circuit::library::c_element_oscillator_tsg();
    let bp = sg.event_by_label("b+").unwrap();
    c.bench_function("fig4/delta_series_40", |b| {
        b.iter(|| tsg_core::analysis::asymptotic::delta_series(black_box(&sg), bp, 40).unwrap())
    });
}

criterion_group! {
    name = paper;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_stack66, bench_extraction, bench_timing_simulation, bench_initiated, bench_muller_ring, bench_enumeration, bench_asymptotic
}
criterion_main!(paper);
