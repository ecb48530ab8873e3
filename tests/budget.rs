//! Analyses too large to hold are refused before anything is allocated.
//!
//! A ring of 40 000 events carrying 20 000 tokens has 20 000 border
//! events: its two-row lane window alone would be 2 × 40 000 × 20 000
//! cells (12.8 GB of `f64`). Every entry point that sizes the window
//! checks its cells against `sim::MAX_CELLS` first and returns a
//! structured error naming the count. The slack analysis' n × n table
//! and the results a scenario sweep keeps are held to the same
//! constant.

use tsg::core::analysis::cycle_time::analysis_cells;
use tsg::core::analysis::sim::MAX_CELLS;
use tsg::core::analysis::slack::SlackAnalysis;
use tsg::core::analysis::wide::AnalysisArena;
use tsg::core::analysis::{AnalysisError, CycleTimeAnalysis};
use tsg::serve::ops::{AnalyzeOptions, Source, Workspace};
use tsg::stg::{parse_stg, StgOptions};

const EVENTS: usize = 40_000;
const TOKENS: usize = 20_000;

/// The ring `e0+ -> e1+ -> … -> e0+` of [`EVENTS`] events as `.g`
/// text, with a token on every `EVENTS / tokens`-th arc.
fn ring(tokens: usize) -> String {
    let mut text = String::from(".model ring\n.graph\n");
    for i in 0..EVENTS {
        text.push_str(&format!("e{i}+ e{}+\n", (i + 1) % EVENTS));
    }
    text.push_str(".marking {");
    for i in (1..EVENTS).step_by(EVENTS / tokens) {
        text.push_str(&format!(" <e{i}+,e{}+>", (i + 1) % EVENTS));
    }
    text.push_str(" }\n.end\n");
    text
}

fn big_ring() -> String {
    ring(TOKENS)
}

#[test]
fn oversized_window_is_an_error_before_allocation() {
    let text = big_ring();
    let sg = parse_stg(&text, StgOptions::default()).unwrap();
    assert_eq!(sg.border_events().len(), TOKENS);

    let cells = analysis_cells(EVENTS, TOKENS, TOKENS as u32).unwrap();
    assert!(cells > MAX_CELLS);
    let err = CycleTimeAnalysis::run_in(&sg, None, &mut AnalysisArena::new()).unwrap_err();
    assert_eq!(
        err,
        AnalysisError::TooLarge {
            events: EVENTS,
            lanes: TOKENS,
            periods: TOKENS as u32,
            cells,
        }
    );
    assert!(err.to_string().contains(&cells.to_string()), "{err}");

    // A caller-supplied period count that overflows the count is
    // refused the same way.
    let err =
        CycleTimeAnalysis::run_in(&sg, Some(u32::MAX), &mut AnalysisArena::new()).unwrap_err();
    assert!(matches!(err, AnalysisError::TooLarge { .. }), "{err}");

    let source = Source::Inline {
        name: "ring.g".to_owned(),
        text,
    };
    let err = Workspace::new()
        .analyze(&source, &AnalyzeOptions::default(), None)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains(&format!("need {cells} time cells")), "{msg}");
}

#[test]
fn budget_counts_windows_strips_and_the_winner_rerun() {
    // 3 lanes, 10 events, 3 periods: 3 × (2·10 + 4) + 10 · 4.
    assert_eq!(analysis_cells(10, 3, 3), Some(3 * 24 + 40));
    assert_eq!(analysis_cells(usize::MAX, 2, 1), None);
}

#[test]
fn oversized_slack_table_is_an_error_before_allocation() {
    // One token: the analysis is small, but slack's n × n table would
    // be 1.6e9 cells (12.8 GB of `f64`).
    let text = ring(1);
    let sg = parse_stg(&text, StgOptions::default()).unwrap();
    assert_eq!(sg.border_events().len(), 1);
    let cells = EVENTS * EVENTS;
    assert!(cells > MAX_CELLS);
    let err = SlackAnalysis::run(&sg, None).unwrap_err();
    assert_eq!(
        err,
        AnalysisError::SlackTooLarge {
            events: EVENTS,
            cells,
        }
    );
    assert!(err.to_string().contains(&cells.to_string()), "{err}");

    // The report says why slack is missing, and the workspace serves on.
    let source = Source::Inline {
        name: "ring.g".to_owned(),
        text,
    };
    let opts = AnalyzeOptions {
        slack: true,
        ..AnalyzeOptions::default()
    };
    let mut workspace = Workspace::new();
    let report = workspace.analyze(&source, &opts, None).unwrap();
    assert!(
        report.contains(&format!("slack: unavailable ({err})")),
        "{report}"
    );
    let small = Source::Inline {
        name: "osc.g".to_owned(),
        text: tsg::stg::EXAMPLE_OSCILLATOR.to_owned(),
    };
    let report = workspace.analyze(&small, &opts, None).unwrap();
    assert!(
        report.contains("cyclic arcs are timing-critical"),
        "{report}"
    );
}

/// The cells a sweep of `scenarios` scenarios over the one-token ring
/// keeps: per scenario a critical cycle of at most `EVENTS` arcs, one
/// record of one `(i, t, δ)` triple and two one-event border lists,
/// plus one factor row over the `EVENTS` arcs.
fn one_token_sweep_cells(scenarios: usize) -> usize {
    scenarios * (EVENTS + 3 + 2) + EVENTS
}

/// A sweep whose results alone are over the budget is refused before
/// its first scenario runs; the report says why the scenarios are
/// missing, and the workspace serves on.
fn assert_sweep_refused(opts: AnalyzeOptions, scenarios: usize) {
    let text = ring(1);
    let sg = parse_stg(&text, StgOptions::default()).unwrap();
    let cells = one_token_sweep_cells(scenarios);
    assert!(cells > MAX_CELLS);
    let set = tsg::serve::ops::scenario_set_for(&opts).unwrap().unwrap();
    assert_eq!(set.len(), scenarios);
    let err = CycleTimeAnalysis::run_scenarios_in(&sg, &set, &mut AnalysisArena::new(), None)
        .unwrap_err();
    assert_eq!(err, AnalysisError::SweepTooLarge { scenarios, cells });
    assert!(err.to_string().contains(&cells.to_string()), "{err}");

    let source = Source::Inline {
        name: "ring.g".to_owned(),
        text,
    };
    let mut workspace = Workspace::new();
    let report = workspace.analyze(&source, &opts, None).unwrap();
    assert!(report.contains("cycle time: 40000"), "{report}");
    assert!(
        report.contains(&format!("scenarios: unavailable ({err})")),
        "{report}"
    );
    let small = Source::Inline {
        name: "osc.g".to_owned(),
        text: tsg::stg::EXAMPLE_OSCILLATOR.to_owned(),
    };
    let report = workspace.analyze(&small, &opts, None).unwrap();
    assert!(report.contains("arc criticality:"), "{report}");
}

#[test]
fn oversized_sample_sweep_is_refused_before_it_runs() {
    let opts = AnalyzeOptions {
        samples: 4096,
        ..AnalyzeOptions::default()
    };
    assert_sweep_refused(opts, 4096);
}

#[test]
fn oversized_corner_sweep_is_refused_before_it_runs() {
    use tsg::core::analysis::scenario::Corner;
    let corners = [Corner::Min, Corner::Typ, Corner::Max];
    let opts = AnalyzeOptions {
        corners: (0..20_000).map(|k| corners[k % 3]).collect(),
        ..AnalyzeOptions::default()
    };
    assert_sweep_refused(opts, 20_000);
}
