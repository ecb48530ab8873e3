//! Facade-level tests of per-arc slack analysis.

use proptest::prelude::*;

use tsg::core::analysis::slack::SlackAnalysis;
use tsg::core::analysis::CycleTimeAnalysis;
use tsg::gen::{random_live_tsg, torus, RandomTsgConfig};

#[test]
fn torus_slack_isolates_the_slow_rings() {
    // Rows cost 10 per hop, columns 1: every row arc is critical, column
    // arcs have lots of slack.
    let sg = torus(3, 4, 10.0, 1.0);
    let sa = SlackAnalysis::run(&sg, None).unwrap();
    assert_eq!(sa.cycle_time(), 40.0);
    let mut critical = 0;
    let mut loose = 0;
    for a in sg.arc_ids() {
        let arc = sg.arc(a);
        let src = sg.label(arc.src()).to_string();
        let dst = sg.label(arc.dst()).to_string();
        let same_row = src.split('_').next() == dst.split('_').next();
        let s = sa.slack(a).unwrap();
        if same_row {
            assert_eq!(s, 0.0, "row arc {src}->{dst} must be critical");
            critical += 1;
        } else {
            assert!(s > 0.0, "column arc {src}->{dst} must have slack");
            loose += 1;
        }
    }
    assert_eq!(critical, 12);
    assert_eq!(loose, 12);
}

#[test]
fn balanced_torus_is_fully_critical() {
    let sg = torus(4, 4, 2.0, 2.0);
    let sa = SlackAnalysis::run(&sg, None).unwrap();
    assert!(sg.arc_ids().all(|a| sa.is_critical(a, 1e-9)));
}

#[test]
fn stack66_has_nontrivial_slack_profile() {
    let sg = tsg::gen::stack66();
    let sa = SlackAnalysis::run(&sg, None).unwrap();
    let critical = sa.critical_arcs(1e-9);
    assert!(!critical.is_empty());
    assert!(critical.len() < sg.arc_count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Slack values are consistent with the definition: stretching an arc
    /// by less than its slack never raises τ.
    #[test]
    fn slack_is_safe_margin(seed in 0u64..300) {
        let sg = random_live_tsg(seed, RandomTsgConfig::default());
        let sa = SlackAnalysis::run(&sg, None).unwrap();
        let tau = sa.cycle_time();
        // pick the first arc with strictly positive slack, if any
        let probe = sg.arc_ids().find(|&a| matches!(sa.slack(a), Some(s) if s > 0.5));
        if let Some(probe) = probe {
            let margin = sa.slack(probe).unwrap() - 0.25;
            let mut stretched = sg.clone();
            stretched.set_delay(probe, sg.arc(probe).delay().get() + margin).unwrap();
            let t2 = CycleTimeAnalysis::run(&stretched).unwrap().cycle_time().as_f64();
            prop_assert!((t2 - tau).abs() < 1e-9, "τ moved from {tau} to {t2}");
        }
    }

    /// Critical arcs are exactly those on maximum-ratio cycles, checked
    /// against enumeration on small graphs.
    #[test]
    fn critical_arcs_match_enumeration(seed in 0u64..300) {
        let cfg = RandomTsgConfig { events: 8, tokens: 2, chords: 6, max_delay: 7, with_prefix: false };
        let sg = random_live_tsg(seed, cfg);
        let sa = SlackAnalysis::run(&sg, None).unwrap();
        let inventory = tsg::baselines::CycleInventory::build(&sg, 100_000).unwrap();
        let tau = sa.cycle_time();
        let mut on_critical = vec![false; sg.arc_count()];
        for (arcs, len, eps) in &inventory.cycles {
            if (len - tau * *eps as f64).abs() < 1e-9 {
                for a in arcs {
                    on_critical[a.index()] = true;
                }
            }
        }
        for a in sg.arc_ids() {
            if sa.slack(a).is_some() {
                prop_assert_eq!(
                    sa.is_critical(a, 1e-9),
                    on_critical[a.index()],
                    "arc {} disagreement", a
                );
            }
        }
    }
}
