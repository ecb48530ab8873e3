//! Arena reuse against fresh analyses.
//!
//! An `AnalysisArena` reused across graphs must be *observably absent*:
//! `CycleTimeAnalysis::run_in` on a warm arena gives the same bits as a
//! fresh `CycleTimeAnalysis::run`, whatever shapes the arena held
//! before. The test sweeps the `tsg_gen` generator families (including
//! a seeded random live graph) to pin that down.

use tsg::core::analysis::wide::AnalysisArena;
use tsg::core::analysis::CycleTimeAnalysis;
use tsg::core::SignalGraph;
use tsg::gen::{random_live_tsg, ring, torus, RandomTsgConfig};

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
