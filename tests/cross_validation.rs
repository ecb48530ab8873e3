//! Property-based cross-validation: on seeded random live Signal Graphs,
//! the paper's algorithm, the enumeration ground truth and every baseline
//! must produce the same cycle time, and the reported critical cycle must
//! witness it.

use proptest::prelude::*;

use tsg::baselines;
use tsg::core::analysis::cycle_time::cycle_ratio;
use tsg::core::analysis::CycleTimeAnalysis;
use tsg::core::marking::Marking;
use tsg::gen::{random_live_tsg, RandomTsgConfig};
use tsg::graph::cycles::is_simple_cycle;

fn config_strategy() -> impl Strategy<Value = RandomTsgConfig> {
    (2usize..16, 1usize..6, 0usize..24, 0u32..8, any::<bool>()).prop_map(
        |(events, tokens, chords, max_delay, with_prefix)| RandomTsgConfig {
            events,
            tokens: tokens.min(events),
            chords,
            max_delay,
            with_prefix,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The paper's algorithm equals exhaustive enumeration (exact ground
    /// truth), Howard, Karp and Lawler.
    #[test]
    fn all_algorithms_agree(seed in 0u64..10_000, cfg in config_strategy()) {
        let sg = random_live_tsg(seed, cfg);
        let paper = CycleTimeAnalysis::run(&sg).unwrap().cycle_time();
        if let Ok(Some(truth)) = baselines::enumerate_cycle_time(&sg, 200_000) {
            // exact rational comparison via cross multiplication
            prop_assert_eq!(
                paper.length() * truth.periods() as f64,
                truth.length() * paper.periods() as f64,
                "paper {} vs enumeration {}", paper, truth
            );
        }
        let howard = baselines::howard_cycle_time(&sg).unwrap();
        prop_assert!((howard.as_f64() - paper.as_f64()).abs() < 1e-6 * (1.0 + paper.as_f64()));
        let karp = baselines::karp_cycle_time(&sg).unwrap();
        prop_assert!((karp.as_f64() - paper.as_f64()).abs() < 1e-6 * (1.0 + paper.as_f64()));
        let lawler = baselines::lawler_cycle_time(&sg, 60).unwrap();
        prop_assert!((lawler.as_f64() - paper.as_f64()).abs() < 1e-6 * (1.0 + paper.as_f64()));
    }

    /// The reported critical cycle is a well-formed simple cycle whose
    /// effective length equals τ.
    #[test]
    fn critical_cycle_witnesses_tau(seed in 0u64..10_000, cfg in config_strategy()) {
        let sg = random_live_tsg(seed, cfg);
        let analysis = CycleTimeAnalysis::run(&sg).unwrap();
        let cycle = analysis.critical_cycle();
        prop_assert!(!cycle.is_empty());
        // valid cycle in the underlying digraph
        let edges: Vec<tsg::graph::EdgeId> =
            cycle.iter().map(|a| tsg::graph::EdgeId(a.0)).collect();
        prop_assert!(is_simple_cycle(sg.digraph(), &edges));
        // its ratio equals the cycle time (cross-multiplied)
        let ratio = cycle_ratio(&sg, cycle);
        let tau = analysis.cycle_time();
        prop_assert_eq!(
            ratio.length() * tau.periods() as f64,
            tau.length() * ratio.periods() as f64
        );
    }

    /// Scaling all delays by a constant scales τ by the same constant.
    #[test]
    fn delay_scaling_equivariance(seed in 0u64..10_000, k in 1u32..8) {
        let cfg = RandomTsgConfig::default();
        let sg = random_live_tsg(seed, cfg);
        let tau = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();

        // rebuild with delays multiplied by k
        let mut b = tsg::core::SignalGraph::builder();
        let ids: Vec<_> = sg
            .events()
            .map(|e| b.event_with(sg.label(e), sg.kind(e)))
            .collect();
        for a in sg.arc_ids() {
            let arc = sg.arc(a);
            let (s, d) = (ids[arc.src().index()], ids[arc.dst().index()]);
            let delay = arc.delay().get() * f64::from(k);
            if arc.is_marked() {
                b.marked_arc(s, d, delay);
            } else if arc.is_disengageable() {
                b.disengageable_arc(s, d, delay);
            } else {
                b.arc(s, d, delay);
            }
        }
        let scaled = b.build().unwrap();
        let tau2 = CycleTimeAnalysis::run(&scaled).unwrap().cycle_time().as_f64();
        prop_assert!((tau2 - tau * f64::from(k)).abs() < 1e-9 * (1.0 + tau2));
    }

    /// Firing one full period of the token game returns the cyclic marking
    /// to its initial value (Marked Graph invariant).
    #[test]
    fn token_game_period_invariance(seed in 0u64..10_000) {
        let cfg = RandomTsgConfig { with_prefix: true, ..RandomTsgConfig::default() };
        let sg = random_live_tsg(seed, cfg);
        let mut m = Marking::initial(&sg);
        let before: Vec<u32> = sg
            .arc_ids()
            .filter(|&a| {
                sg.is_repetitive(sg.arc(a).src()) && sg.is_repetitive(sg.arc(a).dst())
            })
            .map(|a| m.tokens(a))
            .collect();
        m.fire_period(&sg).unwrap();
        let after: Vec<u32> = sg
            .arc_ids()
            .filter(|&a| {
                sg.is_repetitive(sg.arc(a).src()) && sg.is_repetitive(sg.arc(a).dst())
            })
            .map(|a| m.tokens(a))
            .collect();
        prop_assert_eq!(before, after);
    }

    /// The long-run simulation estimate converges to τ (Figure 4's
    /// asymptote) within a generous horizon.
    #[test]
    fn longrun_converges(seed in 0u64..1_000) {
        let cfg = RandomTsgConfig { max_delay: 5, ..RandomTsgConfig::default() };
        let sg = random_live_tsg(seed, cfg);
        let tau = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
        let est = baselines::longrun_estimate(&sg, 512).unwrap();
        // The estimate is an average over the second half of the horizon;
        // it converges like O(1/n) to τ from below or above.
        prop_assert!((est - tau).abs() <= tau * 0.05 + 1e-9, "est {est} vs tau {tau}");
    }
}

/// Removing an unmarked arc leaves a detached tombstone in the graph's
/// edge list. The edited graph must answer exactly like the graph built
/// without the arc: the same simulation times, the same Karp τ and the
/// same cut-set answers — and none of them may panic.
#[test]
fn removed_unmarked_arc_answers_like_the_graph_built_without_it() {
    use tsg::core::analysis::border::is_cut_set;
    use tsg::core::analysis::sim::TimingSimulation;
    use tsg::core::{EventId, SignalGraph};

    let build = |chord: bool| {
        let mut b = SignalGraph::builder();
        let ev: Vec<EventId> = ["a+", "b+", "a-", "b-"].map(|l| b.event(l)).to_vec();
        b.arc(ev[0], ev[1], 2.0);
        b.arc(ev[1], ev[2], 3.0);
        b.arc(ev[2], ev[3], 1.0);
        b.marked_arc(ev[3], ev[0], 2.0);
        let chord = chord.then(|| b.arc(ev[0], ev[2], 7.0));
        (b.build().unwrap(), chord)
    };
    let (mut edited, chord) = build(true);
    edited.remove_arc(chord.unwrap()).unwrap();
    edited.validate().unwrap();
    let (plain, _) = build(false);

    let (got, want) = (
        TimingSimulation::run(&edited, 3, None).unwrap(),
        TimingSimulation::run(&plain, 3, None).unwrap(),
    );
    for e in plain.events() {
        for p in 0..3 {
            assert_eq!(
                got.time(e, p).map(f64::to_bits),
                want.time(e, p).map(f64::to_bits),
                "{} instance {p}",
                plain.label(e)
            );
        }
    }

    let (got, want) = (
        baselines::karp_cycle_time(&edited).unwrap(),
        baselines::karp_cycle_time(&plain).unwrap(),
    );
    assert_eq!(got.as_f64().to_bits(), want.as_f64().to_bits());
    assert_eq!(got.as_f64(), 8.0);

    let events: Vec<EventId> = plain.events().collect();
    assert!(!is_cut_set(&plain, &[]));
    for &e in &events {
        assert!(is_cut_set(&plain, &[e]), "{}", plain.label(e));
        assert_eq!(is_cut_set(&edited, &[e]), is_cut_set(&plain, &[e]));
    }
    assert_eq!(is_cut_set(&edited, &[]), is_cut_set(&plain, &[]));
}
