//! Property tests for the paper's propositions (Sections IV–VI).

use proptest::prelude::*;

use tsg::core::analysis::asymptotic::delta_series;
use tsg::core::analysis::initiated::SimArena;
use tsg::core::analysis::CycleTimeAnalysis;
use tsg::gen::{random_live_tsg, RandomTsgConfig};
use tsg_oracles::border::{
    exact_max_occurrence_period, is_cut_set, max_occurrence_period_bound, minimum_cut_set,
};

fn small_cfg() -> RandomTsgConfig {
    RandomTsgConfig {
        events: 10,
        tokens: 3,
        chords: 8,
        max_delay: 7,
        with_prefix: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Proposition 1: `t_g(e_k)` is realised by an actual path — the
    /// backtracked path's length equals the simulated time.
    #[test]
    fn prop1_backtracked_path_realises_time(seed in 0u64..10_000) {
        let sg = random_live_tsg(seed, small_cfg());
        let g = sg.border_events()[0];
        let periods = 4;
        let mut sim = SimArena::new();
        sim.run(&sg, g, periods, true).unwrap();
        for e in sg.repetitive_events() {
            for p in 0..=periods {
                if let Some(t) = sim.time(e, p) {
                    let path = sim.backtrack_in(&sg, e, p).unwrap();
                    prop_assert!((sg.path_length(&path) - t).abs() < 1e-9);
                    prop_assert_eq!(sg.occurrence_period(&path), p);
                }
            }
        }
    }

    /// Proposition 2: all repetitive events share the same cycle time —
    /// every event's δ-series converges to τ.
    #[test]
    fn prop2_common_cycle_time(seed in 0u64..2_000) {
        let sg = random_live_tsg(seed, small_cfg());
        let tau = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
        let horizon = 192;
        for e in sg.repetitive_events() {
            let series = delta_series(&sg, e, horizon).unwrap();
            let last = series.last().unwrap();
            prop_assert!(
                (last.delta - tau).abs() <= tau * 0.08 + 1e-9,
                "event {} converges to {} not {}", sg.label(e), last.delta, tau
            );
        }
    }

    /// Proposition 3 ("triangular inequality"):
    /// `t_g(g_k) >= t_g(g_j) + t_g(g_{k-j})`.
    #[test]
    fn prop3_triangle_inequality(seed in 0u64..10_000) {
        let sg = random_live_tsg(seed, small_cfg());
        for &g in &sg.border_events() {
            let periods = 6;
            let mut sim = SimArena::new();
            sim.run(&sg, g, periods, false).unwrap();
            for k in 2..=periods {
                let Some(tk) = sim.time(g, k) else { continue };
                for j in 1..k {
                    let (Some(tj), Some(tkj)) = (sim.time(g, j), sim.time(g, k - j)) else {
                        continue;
                    };
                    prop_assert!(
                        tk + 1e-9 >= tj + tkj,
                        "t({k})={tk} < t({j})={tj} + t({})={tkj}", k - j
                    );
                }
            }
        }
    }

    /// Propositions 4/7: τ is attained by some border event within b
    /// periods, and never exceeded by any δ value.
    #[test]
    fn prop4_7_max_within_b_periods(seed in 0u64..10_000) {
        let sg = random_live_tsg(seed, small_cfg());
        let analysis = CycleTimeAnalysis::run(&sg).unwrap();
        let tau = analysis.cycle_time();
        let b = sg.border_events().len() as u32;
        let mut attained = false;
        for &g in &sg.border_events() {
            let mut sim = SimArena::new();
            sim.run(&sg, g, b, false).unwrap();
            for (i, t, _) in sim.distance_series() {
                // no δ exceeds τ (cross-multiplied)
                prop_assert!(
                    t * tau.periods() as f64 <= tau.length() * i as f64 + 1e-9,
                    "δ at i={i} exceeds τ"
                );
                if (t * tau.periods() as f64 - tau.length() * i as f64).abs() < 1e-9 {
                    attained = true;
                }
            }
        }
        prop_assert!(attained, "τ must be attained by a border event within b periods");
    }

    /// Proposition 8: a border event off every critical cycle stays
    /// strictly below τ at every horizon.
    #[test]
    fn prop8_off_cycle_strictly_below(seed in 0u64..2_000) {
        let sg = random_live_tsg(seed, small_cfg());
        let analysis = CycleTimeAnalysis::run(&sg).unwrap();
        let tau = analysis.cycle_time();
        for &g in &sg.border_events() {
            if analysis.critical_borders().contains(&g) {
                continue;
            }
            let mut sim = SimArena::new();
            sim.run(&sg, g, 24, false).unwrap();
            for (i, t, _) in sim.distance_series() {
                prop_assert!(
                    (t * tau.periods() as f64) < (tau.length() * i as f64),
                    "off-critical border {} attains τ at i={i}", sg.label(g)
                );
            }
        }
    }

    /// Proposition 6, corrected: no simple cycle spans more periods than
    /// the border-set size (the bound the algorithm actually relies on);
    /// the exact ε_max matches enumeration; the border set is a cut set.
    ///
    /// Note: the paper states the bound as the *minimum cut set* size,
    /// which is falsified by a 4-ring with two tokens (see the regression
    /// test in `tsg-core::analysis::border`); minimum cut sets are still
    /// valid cut sets and never larger than the border set.
    #[test]
    fn prop6_epsilon_bound(seed in 0u64..2_000) {
        let sg = random_live_tsg(seed, small_cfg());
        prop_assert!(is_cut_set(&sg, &sg.border_events()));
        let bound = max_occurrence_period_bound(&sg);
        let exact = exact_max_occurrence_period(&sg, 100_000);
        if let Ok(inventory) = tsg::baselines::CycleInventory::build(&sg, 100_000) {
            let max_eps = inventory.cycles.iter().map(|c| c.2).max().unwrap_or(0);
            prop_assert_eq!(exact, (max_eps > 0).then_some(max_eps));
            for (_, _, eps) in &inventory.cycles {
                prop_assert!(
                    *eps as usize <= bound,
                    "cycle spans {eps} periods > border bound {bound}"
                );
            }
        }
        if let Some(min_cut) = minimum_cut_set(&sg, 24) {
            prop_assert!(is_cut_set(&sg, &min_cut));
            prop_assert!(min_cut.len() <= sg.border_events().len());
        }
    }
}
