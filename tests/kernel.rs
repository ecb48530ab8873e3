//! The simulators end to end: deterministic netlist replay and
//! cross-validation of the timing simulation against the paper's exact
//! cycle-time analysis on every generator family.

use tsg::baselines;
use tsg::circuit::{library, EventDrivenSim};
use tsg::core::analysis::sim::TimingSimulation;
use tsg::core::analysis::CycleTimeAnalysis;
use tsg::core::SignalGraph;
use tsg::gen::{random_live_tsg, ring, torus, RandomTsgConfig};
use tsg::sim::{EventQueue, TraceRecorder};

/// Steady-state occurrence distance of a border event over the last
/// `span` periods of a TSG timing simulation. When `span` is a
/// multiple of the critical cycle's period count ε, this equals τ
/// exactly once the transient has died out (Proposition 2).
fn observed_period(sg: &SignalGraph, periods: u32, span: u32) -> f64 {
    let probe = sg.border_events()[0];
    let sim = TimingSimulation::run(sg, periods, None).unwrap();
    let t_start = sim
        .time(probe, periods - 1 - span)
        .expect("start occurrence");
    let t_end = sim.time(probe, periods - 1).expect("final occurrence");
    (t_end - t_start) / span as f64
}

/// Same seed ⇒ byte-identical transition stream, run after run.
#[test]
fn netlist_replay_is_deterministic() {
    for nl in [
        library::c_element_oscillator(),
        library::muller_ring(5, 1.0),
        library::inverter_ring(7, 3.0),
    ] {
        let t1 = EventDrivenSim::new(&nl).run(200.0, 1_000_000).unwrap();
        let t2 = EventDrivenSim::new(&nl).run(200.0, 1_000_000).unwrap();
        assert_eq!(t1, t2);
        assert!(!t1.is_empty());
    }
}

/// Timing simulation agrees with the exact analysis: on rings and
/// tori the steady state is reached and the observed period equals τ to
/// floating-point accuracy; random live graphs converge within the
/// asymptotic tolerance of Section IV.C.
#[test]
fn kernel_simulation_cross_validates_analysis() {
    for (name, sg) in [
        ("ring(16,1)", ring(16, 1, 3.0)),
        ("ring(31,5)", ring(31, 5, 2.0)),
        ("torus(3,4)", torus(3, 4, 10.0, 1.0)),
        ("torus(5,5)", torus(5, 5, 2.0, 2.0)),
    ] {
        let tau = CycleTimeAnalysis::run(&sg).unwrap().cycle_time();
        // Averaging over a multiple of ε makes the steady-state slope
        // exact (fractional τ like 62/5 cycles within the ε window).
        let span = tau.periods() * 4;
        let got = observed_period(&sg, 64 + span, span);
        assert!(
            (got - tau.as_f64()).abs() <= 1e-9,
            "{name}: observed {got}, τ = {tau}"
        );
    }
    for seed in 0..12u64 {
        let sg = random_live_tsg(seed, RandomTsgConfig::default());
        let tau = CycleTimeAnalysis::run(&sg).unwrap().cycle_time();
        let span = tau.periods() * 8;
        let got = observed_period(&sg, 128 + span, span);
        assert!(
            (got - tau.as_f64()).abs() <= tau.as_f64() * 0.05 + 1e-9,
            "seed {seed}: observed {got}, τ = {tau}"
        );
    }
}

/// Long-run estimation over a batch of scenarios approximates τ —
/// approximates only, because a finite averaging window is exactly the
/// limitation the paper holds against long-run estimation.
#[test]
fn batched_longrun_agrees_with_exact() {
    let scenarios: Vec<SignalGraph> = (1..=10).map(|k| ring(40, k, 2.0)).collect();
    let sequential: Vec<Option<f64>> = scenarios
        .iter()
        .map(|sg| baselines::longrun_estimate(sg, 96))
        .collect();
    for (sg, est) in scenarios.iter().zip(&sequential) {
        let tau = CycleTimeAnalysis::run(sg).unwrap().cycle_time().as_f64();
        assert!(
            (est.unwrap() - tau).abs() <= tau * 0.02,
            "{} vs τ = {tau}",
            est.unwrap()
        );
    }
}

/// A traced netlist simulation dumps a well-formed VCD containing every
/// signal and the Example 3 occurrence times.
#[test]
fn traced_netlist_simulation_dumps_vcd() {
    let nl = library::c_element_oscillator();
    let mut sim = EventDrivenSim::new(&nl);
    sim.enable_trace();
    sim.run(17.0, 10_000).unwrap();
    let recorder = sim.take_trace().unwrap();
    let vcd = recorder.to_vcd_string();
    assert!(vcd.contains("$enddefinitions $end"));
    for s in nl.signals() {
        assert!(vcd.contains(&format!(" {} $end", nl.name(s))));
    }
    // a+ at t = 2 and c+ at t = 6 from Example 3, at 1ps resolution.
    assert!(vcd.contains("#2000"), "{vcd}");
    assert!(vcd.contains("#6000"), "{vcd}");
}

/// The queue's reject-at-enqueue contract holds through the facade.
#[test]
fn queue_rejects_nan_and_regression() {
    let mut q: EventQueue<u32> = EventQueue::new();
    assert!(q.try_schedule(f64::NAN, 1).is_err());
    assert!(q.try_schedule(f64::NEG_INFINITY, 1).is_err());
    q.schedule(5.0, 2);
    assert_eq!(q.pop().unwrap().payload, 2);
    assert!(q.try_schedule(4.0, 3).is_err(), "past is closed after pop");
}

/// TSG traces map polarity-labelled events onto per-signal wires.
#[test]
fn tsg_trace_uses_signal_wires() {
    let sg = library::c_element_oscillator_tsg();
    let sim = TimingSimulation::run(&sg, 2, None).unwrap();
    let mut recorder = TraceRecorder::new("osc");
    sim.record_trace(&sg, &mut recorder);
    // Signals a, b, c, e, f — not one wire per event.
    assert_eq!(recorder.signal_count(), 5);
    assert!(recorder.changes().len() >= sg.event_count());
}
