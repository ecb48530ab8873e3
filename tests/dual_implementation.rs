//! Dual-implementation cross-check: the production timing simulations run
//! period-synchronously without materialising the unfolding; this test
//! recomputes the same quantities with a *second, independent*
//! implementation — explicit unfolding construction plus a generic DAG
//! longest-path pass — and asserts exact agreement.

use proptest::prelude::*;

use tsg::core::analysis::initiated::SimArena;
use tsg::core::analysis::sim::TimingSimulation;
use tsg::core::SignalGraph;
use tsg::gen::{random_live_tsg, RandomTsgConfig};
use tsg::graph::topo::topological_order;
use tsg::graph::NodeId;
use tsg_oracles::unfold::{InstId, Unfolding};

/// Longest-path times over the explicit unfolding, sources at 0.
fn unfolding_times(sg: &SignalGraph, u: &Unfolding) -> Vec<f64> {
    let g = u.digraph();
    let order = topological_order(g).expect("unfolding is a DAG");
    let mut t = vec![0.0f64; u.instance_count()];
    for node in order {
        for (k, &e) in g.in_edges(node).iter().enumerate() {
            let _ = k;
            let src = g.src(e);
            let arc = sg.arc(u.edge_origin(e.index()));
            t[node.index()] = t[node.index()].max(t[src.index()] + arc.delay().get());
        }
    }
    t
}

/// Longest path from one instantiation, `NEG_INFINITY` where unreachable.
fn unfolding_initiated(sg: &SignalGraph, u: &Unfolding, origin: InstId) -> Vec<f64> {
    let g = u.digraph();
    let order = topological_order(g).expect("unfolding is a DAG");
    let mut t = vec![f64::NEG_INFINITY; u.instance_count()];
    t[origin.index()] = 0.0;
    for node in order {
        if node == NodeId(origin.0) {
            continue;
        }
        for &e in g.in_edges(node) {
            let src = g.src(e);
            if t[src.index()] == f64::NEG_INFINITY {
                continue;
            }
            let arc = sg.arc(u.edge_origin(e.index()));
            t[node.index()] = t[node.index()].max(t[src.index()] + arc.delay().get());
        }
    }
    t
}

fn cfg() -> RandomTsgConfig {
    RandomTsgConfig {
        events: 10,
        tokens: 3,
        chords: 10,
        max_delay: 7,
        with_prefix: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `TimingSimulation` equals the explicit-unfolding longest path.
    #[test]
    fn full_simulation_agrees_with_unfolding(seed in 0u64..10_000) {
        let sg = random_live_tsg(seed, cfg());
        let periods = 4;
        let sim = TimingSimulation::run(&sg, periods, None).unwrap();
        let unfolding = Unfolding::build(&sg, periods);
        let times = unfolding_times(&sg, &unfolding);
        for id in unfolding.instance_ids() {
            let info = unfolding.info(id);
            let got = sim.time(info.event, info.index).expect("within horizon");
            prop_assert!(
                (got - times[id.index()]).abs() < 1e-9,
                "{} : sim {got} vs unfolding {}",
                unfolding.display(&sg, id),
                times[id.index()]
            );
        }
    }

    /// `SimArena` equals the explicit-unfolding single-source
    /// longest path, including unreachability.
    #[test]
    fn initiated_simulation_agrees_with_unfolding(seed in 0u64..10_000) {
        let sg = random_live_tsg(seed, cfg());
        let periods = 4;
        let unfolding = Unfolding::build(&sg, periods + 1);
        for &g in sg.border_events().iter().take(3) {
            let mut sim = SimArena::new();
            sim.run(&sg, g, periods, false).unwrap();
            let origin = unfolding.instance(g, 0).unwrap();
            let times = unfolding_initiated(&sg, &unfolding, origin);
            for e in sg.repetitive_events() {
                for p in 0..=periods {
                    let id = unfolding.instance(e, p).unwrap();
                    match sim.time(e, p) {
                        Some(t) => prop_assert!(
                            (t - times[id.index()]).abs() < 1e-9,
                            "{}: {t} vs {}", unfolding.display(&sg, id), times[id.index()]
                        ),
                        None => prop_assert_eq!(
                            times[id.index()], f64::NEG_INFINITY,
                            "{} should be unreachable", unfolding.display(&sg, id)
                        ),
                    }
                }
            }
        }
    }

    /// Precedence in the unfolding implies time ordering in the simulation
    /// (causality soundness).
    #[test]
    fn precedence_implies_time_order(seed in 0u64..2_000) {
        let sg = random_live_tsg(seed, cfg());
        let periods = 3;
        let sim = TimingSimulation::run(&sg, periods, None).unwrap();
        let unfolding = Unfolding::build(&sg, periods);
        let ids: Vec<_> = unfolding.instance_ids().collect();
        for &a in ids.iter().take(12) {
            for &b in ids.iter().take(12) {
                if a != b && unfolding.precedes(a, b) {
                    let ia = unfolding.info(a);
                    let ib = unfolding.info(b);
                    let ta = sim.time(ia.event, ia.index).unwrap();
                    let tb = sim.time(ib.event, ib.index).unwrap();
                    prop_assert!(ta <= tb + 1e-9, "precedence violated: {ta} > {tb}");
                }
            }
        }
    }
}
