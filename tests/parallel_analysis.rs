//! The parallel analysis pipeline against the sequential algorithm.
//!
//! `tsg_bench::analyze_batch` and the lane chunks of a multi-worker `run_in` must
//! be *observably absent*: any thread or worker count, any arena reuse
//! pattern, the same bits out as the
//! sequential `CycleTimeAnalysis::run`. These tests sweep the `tsg_gen`
//! generator families (including the seeded random live graphs) to pin
//! that down.

use proptest::prelude::*;
use tsg::core::analysis::wide::AnalysisArena;
use tsg::core::analysis::CycleTimeAnalysis;
use tsg::core::SignalGraph;
use tsg::gen::{random_live_tsg, ring, torus, RandomTsgConfig};
use tsg::sim::BatchRunner;

fn assert_bit_identical(a: &CycleTimeAnalysis, b: &CycleTimeAnalysis, ctx: &str) {
    assert_eq!(
        a.cycle_time().as_f64().to_bits(),
        b.cycle_time().as_f64().to_bits(),
        "{ctx}: cycle time bits"
    );
    assert_eq!(
        a.cycle_time().periods(),
        b.cycle_time().periods(),
        "{ctx}: periods"
    );
    assert_eq!(a.critical_cycle(), b.critical_cycle(), "{ctx}: cycle");
    assert_eq!(a.critical_borders(), b.critical_borders(), "{ctx}: borders");
    let da: Vec<_> = a.records().iter().map(|r| r.distances.clone()).collect();
    let db: Vec<_> = b.records().iter().map(|r| r.distances.clone()).collect();
    assert_eq!(da, db, "{ctx}: distance tables");
}

/// The acceptance-criterion sweep: 64 random live graphs through
/// `analyze_batch` at several thread counts, bit-identical to the
/// sequential loop.
#[test]
fn analyze_batch_64_graph_sweep_is_bit_identical() {
    let graphs: Vec<SignalGraph> = (0..64u64)
        .map(|seed| random_live_tsg(seed, RandomTsgConfig::default()))
        .collect();
    let sequential: Vec<CycleTimeAnalysis> = graphs
        .iter()
        .map(|sg| CycleTimeAnalysis::run(sg).expect("generated graphs are live"))
        .collect();
    for threads in [1usize, 2, 8] {
        let batch = tsg_bench::analyze_batch(&graphs, &BatchRunner::with_threads(threads));
        assert_eq!(batch.len(), graphs.len());
        for (i, (want, got)) in sequential.iter().zip(&batch).enumerate() {
            assert_bit_identical(
                want,
                got.as_ref().expect("live"),
                &format!("graph {i} at {threads} threads"),
            );
        }
    }
}

/// Mixed generator families through one shared arena: reuse across very
/// different graph shapes leaves no residue.
#[test]
fn arena_reuse_across_generator_families() {
    let graphs: Vec<SignalGraph> = vec![
        ring(24, 3, 2.0),
        torus(4, 5, 10.0, 1.0),
        tsg::gen::stack66(),
        ring(4, 1, 1.0),
        random_live_tsg(7, RandomTsgConfig::default()),
        torus(3, 3, 1.0, 5.0),
    ];
    let mut arena = AnalysisArena::new();
    for (i, sg) in graphs.iter().enumerate() {
        let reused = CycleTimeAnalysis::run_in(sg, None, &mut arena).unwrap();
        let fresh = CycleTimeAnalysis::run(sg).unwrap();
        assert_bit_identical(&fresh, &reused, &format!("graph {i}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `analyze_batch` ≡ sequential `run` on random live graphs, any
    /// batch size and thread count.
    #[test]
    fn analyze_batch_equals_sequential_run(
        seed in 0u64..10_000,
        count in 1usize..7,
        threads in 1usize..6,
    ) {
        let graphs: Vec<SignalGraph> = (0..count as u64)
            .map(|i| random_live_tsg(seed.wrapping_add(i), RandomTsgConfig::default()))
            .collect();
        let batch =
            tsg_bench::analyze_batch(&graphs, &BatchRunner::with_threads(threads));
        for (i, (sg, got)) in graphs.iter().zip(&batch).enumerate() {
            let want = CycleTimeAnalysis::run(sg).unwrap();
            assert_bit_identical(&want, got.as_ref().unwrap(), &format!("graph {i}"));
        }
    }

    /// Lane-chunked `run_in` ≡ `run` on random live graphs at any
    /// worker count.
    #[test]
    fn lane_chunked_run_in_equals_run(seed in 0u64..10_000, threads in 1usize..9) {
        let sg = random_live_tsg(seed, RandomTsgConfig::default());
        let seq = CycleTimeAnalysis::run(&sg).unwrap();
        let par =
            CycleTimeAnalysis::run_in(&sg, None, &mut AnalysisArena::new().with_workers(threads)).unwrap();
        assert_bit_identical(&seq, &par, "lane chunks");
    }
}
