//! The `analyze` report's bytes against the `write!` renderer it
//! replaced.
//!
//! `ops::report_in` writes the δ table and the critical cycle through
//! `tsg_core::decimal` instead of `core::fmt`. The reference below is
//! the per-cell `write!` renderer, kept only here. Both must agree byte
//! for byte on every generator family, under integral delays and under
//! centi delays (`k/100`, whose sums and ratios are not integral).

use std::fmt::Write as _;

use tsg::core::analysis::wide::AnalysisArena;
use tsg::core::analysis::CycleTimeAnalysis;
use tsg::core::{ArcId, SignalGraph};
use tsg::gen::{PipelineConfig, RandomTsgConfig};
use tsg::serve::ops::{report_in, AnalyzeOptions};

/// `SignalGraph::display_path` as one `write!` per arc.
fn display_path_fmt(sg: &SignalGraph, arcs: &[ArcId]) -> String {
    let mut s = String::new();
    for (i, &a) in arcs.iter().enumerate() {
        let arc = sg.arc(a);
        if i == 0 {
            let _ = write!(s, "{}", sg.label(arc.src()));
        }
        let _ = write!(
            s,
            " -{}{}-> {}",
            arc.delay(),
            if arc.is_marked() { "*" } else { "" },
            sg.label(arc.dst())
        );
    }
    s
}

/// The report of default options (no scenarios, baselines, slack,
/// diagram or DOT), one `write!` per piece.
fn report_fmt(sg: &SignalGraph) -> String {
    let mut out = String::new();
    let analysis = CycleTimeAnalysis::run_in(sg, None, &mut AnalysisArena::new());
    let borders = match &analysis {
        Ok(a) => a.border_events().len(),
        Err(_) => sg.border_events().len(),
    };
    let _ = writeln!(
        out,
        "graph: {} events, {} arcs, {borders} border event(s)",
        sg.event_count(),
        sg.arc_count(),
    );
    match analysis {
        Ok(a) => {
            let _ = writeln!(out, "cycle time: {}", a.cycle_time());
            let _ = writeln!(
                out,
                "critical cycle: {}",
                display_path_fmt(sg, a.critical_cycle())
            );
            out.push_str("critical border event(s): ");
            for (k, &e) in a.critical_borders().iter().enumerate() {
                let sep = if k == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}{}", sg.label(e));
            }
            out.push('\n');
            for rec in a.records() {
                let _ = write!(out, "  {:<6} ", sg.label(rec.event).to_string());
                for (k, (i, t, d)) in rec.distances.iter().enumerate() {
                    let sep = if k == 0 { "" } else { "  " };
                    let _ = write!(out, "{sep}δ({i})={t}/{i}={d:.4}");
                }
                out.push('\n');
            }
        }
        Err(e) => {
            let _ = writeln!(out, "cycle time: undefined ({e})");
        }
    }
    out
}

/// One graph of each generator family, small and mid-sized.
fn families() -> Vec<(String, SignalGraph)> {
    let mut graphs = vec![
        ("ring 7/2".to_owned(), tsg::gen::ring(7, 2, 3.0)),
        ("ring 64/9".to_owned(), tsg::gen::ring(64, 9, 1.0)),
        ("ring 5/2, halves".to_owned(), tsg::gen::ring(5, 2, 2.5)),
        ("torus 3x4".to_owned(), tsg::gen::torus(3, 4, 2.0, 5.0)),
        (
            "pipeline 6".to_owned(),
            tsg::gen::handshake_pipeline(6, PipelineConfig::default()),
        ),
        ("stack66".to_owned(), tsg::gen::stack66()),
    ];
    for (seed, events, tokens, chords, with_prefix) in [
        (1, 12, 2, 4, false),
        (2, 40, 3, 10, true),
        (3, 256, 6, 24, false),
    ] {
        let config = RandomTsgConfig {
            events,
            tokens,
            chords,
            max_delay: 9,
            with_prefix,
        };
        graphs.push((
            format!("random seed {seed}, {events} events"),
            tsg::gen::random_live_tsg(seed, config),
        ));
    }
    graphs
}

/// Reassigns every delay from a fixed stream: integers 0..=20, or
/// hundredths 0.00..=20.00.
fn redelay(sg: &SignalGraph, centi: bool, seed: u64) -> SignalGraph {
    let mut out = sg.clone();
    let mut state = seed | 1;
    let ids: Vec<ArcId> = out.arc_ids().collect();
    for a in ids {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        let draw = (state >> 33) % 2001;
        let delay = if centi {
            draw as f64 / 100.0
        } else {
            (draw % 21) as f64
        };
        out.set_delay(a, delay).expect("finite, non-negative");
    }
    out
}

#[test]
fn report_bytes_equal_the_write_renderer() {
    let mut arena = AnalysisArena::new();
    let opts = AnalyzeOptions::default();
    for (name, sg) in families() {
        // The family's own delays, then integral and centi redraws.
        let variants = [
            None,
            Some((false, 11)),
            Some((false, 12)),
            Some((true, 13)),
            Some((true, 14)),
        ];
        for variant in variants {
            let sg = match variant {
                Some((centi, seed)) => redelay(&sg, centi, seed),
                None => sg.clone(),
            };
            let got = report_in(&sg, &opts, &mut arena).expect("renders");
            assert_eq!(got, report_fmt(&sg), "{name}, {variant:?}");
        }
    }
}
