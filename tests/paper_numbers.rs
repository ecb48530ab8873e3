//! End-to-end verification of every headline number in the paper, through
//! the public facade crate.

use tsg::baselines;
use tsg::circuit::{library, EventDrivenSim};
use tsg::core::analysis::initiated::SimArena;
use tsg::core::analysis::sim::TimingSimulation;
use tsg::core::analysis::CycleTimeAnalysis;
use tsg::core::Ratio;
use tsg::extract::{explore, extract, ExtractOptions};

/// Section II / Example 3: the full timing table of Figure 1.
#[test]
fn example3_full_table() {
    let sg = library::c_element_oscillator_tsg();
    let sim = TimingSimulation::run(&sg, 2, None).unwrap();
    let expect = [
        ("e-", 0, 0.0),
        ("f-", 0, 3.0),
        ("a+", 0, 2.0),
        ("b+", 0, 4.0),
        ("c+", 0, 6.0),
        ("a-", 0, 8.0),
        ("b-", 0, 7.0),
        ("c-", 0, 11.0),
        ("a+", 1, 13.0),
        ("b+", 1, 12.0),
        ("c+", 1, 16.0),
    ];
    for (label, i, want) in expect {
        let e = sg.event_by_label(label).unwrap();
        assert_eq!(sim.time(e, i), Some(want), "{label}_{i}");
    }
}

/// Section II: the a+ average-occurrence-distance sequence 2, 6.5, 7.67, …
#[test]
fn section2_average_sequence() {
    let sg = library::c_element_oscillator_tsg();
    let sim = TimingSimulation::run(&sg, 6, None).unwrap();
    let ap = sg.event_by_label("a+").unwrap();
    let seq: Vec<f64> = (0..6)
        .map(|i| sim.average_distance(ap, i).unwrap())
        .collect();
    let want = [2.0, 6.5, 23.0 / 3.0, 8.25, 8.6, 53.0 / 6.0];
    for (got, want) in seq.iter().zip(want) {
        assert!((got - want).abs() < 1e-12);
    }
}

/// The whole Section VIII.C pipeline: τ = 10 via border simulations, with
/// the per-border tables.
#[test]
fn section8c_cycle_time_and_tables() {
    let sg = library::c_element_oscillator_tsg();
    let analysis = CycleTimeAnalysis::run(&sg).unwrap();
    assert_eq!(analysis.cycle_time().as_f64(), 10.0);
    assert_eq!(analysis.border_events().len(), 2);
    let rec_a = &analysis.records()[0];
    assert_eq!(rec_a.distances, vec![(1, 10.0, 10.0), (2, 20.0, 10.0)]);
    let rec_b = &analysis.records()[1];
    assert_eq!(rec_b.distances, vec![(1, 8.0, 8.0), (2, 18.0, 9.0)]);
}

/// Example 6: enumeration gives τ = max{10, 8, 8, 6} = 10.
#[test]
fn example6_enumeration() {
    let sg = library::c_element_oscillator_tsg();
    let inv = baselines::CycleInventory::build(&sg, 100).unwrap();
    let mut lengths: Vec<f64> = inv.cycles.iter().map(|c| c.1).collect();
    lengths.sort_by(f64::total_cmp);
    assert_eq!(lengths, vec![6.0, 8.0, 8.0, 10.0]);
}

/// The netlist → extraction → analysis flow agrees with the hand-built
/// graph and with the gate-level event-driven simulation.
#[test]
fn figure1_three_way_agreement() {
    let netlist = library::c_element_oscillator();
    assert!(explore(&netlist, 100_000).is_semimodular());
    let extracted = extract(&netlist, ExtractOptions::default()).unwrap();
    let tau = CycleTimeAnalysis::run(&extracted).unwrap().cycle_time();
    assert_eq!(tau.as_f64(), 10.0);

    let mut des = EventDrivenSim::new(&netlist);
    let trace = des.run(500.0, 100_000).unwrap();
    for name in ["a", "b", "c"] {
        let s = netlist.signal(name).unwrap();
        assert_eq!(
            EventDrivenSim::steady_period(&trace, s, true),
            Some(10.0),
            "{name}"
        );
    }
}

/// Section VIII.D: the Muller ring, full fidelity.
#[test]
fn section8d_muller_ring() {
    let netlist = library::muller_ring(5, 1.0);
    assert!(explore(&netlist, 1_000_000).is_semimodular());
    let sg = extract(&netlist, ExtractOptions::default()).unwrap();

    let mut borders: Vec<String> = sg
        .border_events()
        .iter()
        .map(|&e| sg.label(e).to_string())
        .collect();
    borders.sort();
    assert_eq!(borders, vec!["s0+", "s1+", "s2+", "s4-"]);

    let s0 = sg.event_by_label("s0+").unwrap();
    let mut sim = SimArena::new();
    sim.run(&sg, s0, 10, false).unwrap();
    let times: Vec<f64> = (1..=10).map(|i| sim.time(s0, i).unwrap()).collect();
    assert_eq!(
        times,
        vec![6.0, 13.0, 20.0, 26.0, 33.0, 40.0, 46.0, 53.0, 60.0, 66.0]
    );
    // per-period distances 6,7,7,6,7,7,6,7,7 and averages → 20/3
    let analysis = CycleTimeAnalysis::run(&sg).unwrap();
    assert_eq!(analysis.cycle_time().exact(), Some(Ratio::new(20, 3)));
    assert_eq!(analysis.cycle_time().periods(), 3);

    // Gate-level DES agrees on the long-run average.
    let mut des = EventDrivenSim::new(&netlist);
    let trace = des.run(4000.0, 1_000_000).unwrap();
    let s = netlist.signal("s0").unwrap();
    let p = EventDrivenSim::average_period(&trace, s, true).unwrap();
    assert!((p - 20.0 / 3.0).abs() < 0.02, "DES period {p}");
}

/// Section VIII.B: the 66-event / 112-arc size point, all algorithms
/// agreeing.
#[test]
fn section8b_stack_consensus() {
    let sg = tsg::gen::stack66();
    assert_eq!((sg.event_count(), sg.arc_count()), (66, 112));
    let tau = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
    assert_eq!(baselines::howard_cycle_time(&sg).unwrap().as_f64(), tau);
    assert_eq!(baselines::karp_cycle_time(&sg).unwrap().as_f64(), tau);
    assert_eq!(baselines::lawler_cycle_time(&sg, 60).unwrap().as_f64(), tau);
    assert_eq!(
        baselines::enumerate_cycle_time(&sg, 5_000_000)
            .unwrap()
            .unwrap()
            .as_f64(),
        tau
    );
}

/// The paper's erratum: VIII.C prints C2 as the critical cycle, but its own
/// Example 5 assigns C2 length 8 < 10. We assert the consistent reading.
#[test]
fn section8c_erratum_c1_is_critical() {
    let sg = library::c_element_oscillator_tsg();
    let analysis = CycleTimeAnalysis::run(&sg).unwrap();
    let cycle = sg.display_path(analysis.critical_cycle());
    assert_eq!(cycle, "a+ -3-> c+ -2-> a- -3-> c- -2*-> a+");
    // The cycle the paper's VIII.C text names has effective length 8:
    let inv = baselines::CycleInventory::build(&sg, 100).unwrap();
    let c2 = inv
        .cycles
        .iter()
        .find(|(arcs, _, _)| {
            let labels: Vec<String> = arcs
                .iter()
                .map(|&a| sg.label(sg.arc(a).src()).to_string())
                .collect();
            labels.contains(&"a+".to_owned()) && labels.contains(&"b-".to_owned())
        })
        .unwrap();
    assert_eq!(c2.1, 8.0);
}
