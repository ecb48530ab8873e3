//! Integration of the circuit substrate: netlist text round-trips,
//! extraction vs. event-driven simulation on whole circuit families.

use proptest::prelude::*;

use tsg::circuit::parse::{parse_ckt, write_ckt};
use tsg::circuit::{library, EventDrivenSim};
use tsg::core::analysis::CycleTimeAnalysis;
use tsg::extract::{explore, extract, ExtractOptions};

/// For every library circuit: the analytical cycle time from the extracted
/// graph equals the steady-state period observed by the gate-level DES.
#[test]
fn analysis_matches_des_on_library() {
    let circuits: Vec<(&str, tsg::circuit::Netlist, &str)> = vec![
        ("oscillator", library::c_element_oscillator(), "a"),
        ("muller3", library::muller_ring(3, 1.0), "s0"),
        ("muller5", library::muller_ring(5, 1.0), "s0"),
        ("muller7", library::muller_ring(7, 2.0), "s0"),
        ("inv_ring5", library::inverter_ring(5, 1.0), "g0"),
        ("inv_ring7", library::inverter_ring(7, 3.0), "g0"),
    ];
    for (name, nl, probe) in circuits {
        let sg = extract(&nl, ExtractOptions::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let tau = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
        let mut des = EventDrivenSim::new(&nl);
        let trace = des.run(tau * 400.0, 2_000_000).unwrap();
        let s = nl.signal(probe).unwrap();
        let observed = EventDrivenSim::average_period(&trace, s, true)
            .unwrap_or_else(|| panic!("{name}: no steady period"));
        assert!(
            (observed - tau).abs() < tau * 0.02 + 1e-9,
            "{name}: DES {observed} vs analysis {tau}"
        );
    }
}

/// Extraction output always passes Signal Graph validation and its border
/// set is a cut set.
#[test]
fn extraction_output_is_well_formed() {
    for n in 3..9 {
        let nl = library::muller_ring(n, 1.0);
        let sg = extract(&nl, ExtractOptions::default()).unwrap();
        assert!(tsg_oracles::border::is_cut_set(&sg, &sg.border_events()));
        assert!(tsg_oracles::unfold::check_signal_consistency(&sg).is_ok());
    }
}

/// Semimodularity holds for all Muller rings (they are delay-insensitive
/// up to the inverter forks).
#[test]
fn muller_rings_semimodular() {
    for n in 3..8 {
        let report = explore(&library::muller_ring(n, 1.0), 5_000_000);
        assert!(report.is_semimodular(), "ring {n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `.ckt` round-trip preserves the netlist and therefore the analysis.
    #[test]
    fn ckt_roundtrip(n in 3usize..9, delay in 1u32..5) {
        let nl = library::muller_ring(n, f64::from(delay));
        let text = write_ckt(&nl);
        let back = parse_ckt(&text).unwrap();
        prop_assert_eq!(write_ckt(&back), text);
        let sg1 = extract(&nl, ExtractOptions::default()).unwrap();
        let sg2 = extract(&back, ExtractOptions::default()).unwrap();
        let t1 = CycleTimeAnalysis::run(&sg1).unwrap().cycle_time().as_f64();
        let t2 = CycleTimeAnalysis::run(&sg2).unwrap().cycle_time().as_f64();
        prop_assert_eq!(t1, t2);
    }

    /// Scaling every gate delay scales the extracted cycle time linearly.
    #[test]
    fn extraction_delay_scaling(n in 3usize..8, k in 1u32..6) {
        let base = extract(&library::muller_ring(n, 1.0), ExtractOptions::default()).unwrap();
        let scaled = extract(
            &library::muller_ring(n, f64::from(k)),
            ExtractOptions::default(),
        )
        .unwrap();
        let t1 = CycleTimeAnalysis::run(&base).unwrap().cycle_time().as_f64();
        let t2 = CycleTimeAnalysis::run(&scaled).unwrap().cycle_time().as_f64();
        prop_assert!((t2 - t1 * f64::from(k)).abs() < 1e-9);
    }
}
