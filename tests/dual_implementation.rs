//! Dual-implementation cross-check: the production timing simulations run
//! period-synchronously without materialising the unfolding; this test
//! recomputes the same quantities with a *second, independent*
//! implementation — explicit unfolding construction plus a generic DAG
//! longest-path pass — and asserts exact agreement.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use tsg::circuit::library::c_element_oscillator_tsg as oscillator_tsg;
use tsg::core::analysis::diagram::{self, DiagramOptions};
use tsg::core::analysis::initiated::SimArena;
use tsg::core::analysis::sim::TimingSimulation;
use tsg::core::SignalGraph;
use tsg::gen::{random_live_tsg, RandomTsgConfig};
use tsg::graph::topo::topological_order;
use tsg::graph::NodeId;
use tsg::stg::{
    parse_stg, StgOptions, EXAMPLE_MULTI_EVENT, EXAMPLE_OSCILLATOR, EXAMPLE_PIPELINE_2PH,
    EXAMPLE_RING5,
};
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

/// The `|` columns of each signal row of a rendered diagram.
fn drawn_transitions(text: &str) -> BTreeMap<String, BTreeSet<usize>> {
    text.lines()
        .skip(2) // the ruler
        .map(|line| {
            let (signal, row) = line.split_once(' ').expect("name, then the row");
            let row = row.trim_start_matches(' ');
            let cols = row
                .char_indices()
                .filter(|&(_, c)| c == '|')
                .map(|(i, _)| i);
            (signal.to_owned(), cols.collect())
        })
        .collect()
}

/// An event-initiated diagram draws every instance the explicit
/// unfolding reaches from the initiating instance, at its longest-path
/// time, and nothing else: Figure 1d (`repro --experiment fig1d`, where
/// `b+₀` is concurrent with `a+₀` but `b+₁` and `b+₂` are reached) and
/// the diagram initiated at every border event of every bundled example.
#[test]
fn initiated_diagrams_draw_every_reached_instance() {
    let mut cases = vec![(
        "Figure 1d".to_owned(),
        oscillator_tsg(),
        vec!["a+".to_owned()],
    )];
    for (name, text) in [
        ("oscillator", EXAMPLE_OSCILLATOR),
        ("pipeline", EXAMPLE_PIPELINE_2PH),
        ("ring5", EXAMPLE_RING5),
        ("multi-event", EXAMPLE_MULTI_EVENT),
    ] {
        let sg = parse_stg(text, StgOptions::default()).unwrap();
        let borders = sg
            .border_events()
            .iter()
            .map(|&g| sg.label(g).to_string())
            .collect();
        cases.push((name.to_owned(), sg, borders));
    }
    let opts = DiagramOptions::default();
    for (name, sg, borders) in &cases {
        let periods = 3;
        let unfolding = Unfolding::build(sg, periods + 1);
        for border in borders {
            let g = sg.event_by_label(border).unwrap();
            let mut sim = SimArena::new();
            sim.run(sg, g, periods, false).unwrap();
            let origin = unfolding.instance(g, 0).unwrap();
            let times = unfolding_initiated(sg, &unfolding, origin);
            let mut expected: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
            for id in unfolding.instance_ids() {
                let info = unfolding.info(id);
                let t = times[id.index()];
                let got = sim.time(info.event, info.index);
                let ctx = format!("{name} from {border}: {}", unfolding.display(sg, id));
                assert_eq!(got, (t > f64::NEG_INFINITY).then_some(t), "{ctx}");
                let label = sg.label(info.event);
                if let (Some(t), Some(_)) = (got, label.polarity()) {
                    let col = (t * opts.chars_per_unit).round() as usize;
                    expected
                        .entry(label.signal().to_owned())
                        .or_default()
                        .insert(col);
                }
            }
            let text = diagram::render_initiated(sg, &sim, opts).unwrap();
            assert_eq!(
                drawn_transitions(&text),
                expected,
                "{name} from {border}:\n{text}"
            );
        }
    }
}
