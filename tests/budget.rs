//! Analyses too large to hold are refused before anything is allocated.
//!
//! A ring of 40 000 events carrying 20 000 tokens has 20 000 border
//! events: its two-row lane window alone would be 2 × 40 000 × 20 000
//! cells (12.8 GB of `f64`). Every entry point that sizes the window
//! checks its cells against `sim::MAX_CELLS` first and returns a
//! structured error naming the count.

use tsg::core::analysis::cycle_time::analysis_cells;
use tsg::core::analysis::sim::MAX_CELLS;
use tsg::core::analysis::wide::AnalysisArena;
use tsg::core::analysis::{AnalysisError, CycleTimeAnalysis};
use tsg::serve::ops::{AnalyzeOptions, Source, Workspace};
use tsg::stg::{parse_stg, StgOptions};

const EVENTS: usize = 40_000;
const TOKENS: usize = 20_000;

/// The ring `e0+ -> e1+ -> … -> e0+` as `.g` text, with a token on
/// every other arc.
fn big_ring() -> String {
    let mut text = String::from(".model ring\n.graph\n");
    for i in 0..EVENTS {
        text.push_str(&format!("e{i}+ e{}+\n", (i + 1) % EVENTS));
    }
    text.push_str(".marking {");
    for i in (1..EVENTS).step_by(EVENTS / TOKENS) {
        text.push_str(&format!(" <e{i}+,e{}+>", (i + 1) % EVENTS));
    }
    text.push_str(" }\n.end\n");
    text
}

#[test]
fn oversized_window_is_an_error_before_allocation() {
    let text = big_ring();
    let sg = parse_stg(&text, StgOptions::default()).unwrap();
    assert_eq!(sg.border_events().len(), TOKENS);

    let cells = analysis_cells(EVENTS, TOKENS, TOKENS as u32, 1).unwrap();
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

    // More workers split the lanes, not the budget.
    let mut arena = AnalysisArena::new().with_workers(4);
    assert!(matches!(
        CycleTimeAnalysis::run_in(&sg, None, &mut arena),
        Err(AnalysisError::TooLarge { .. })
    ));
    // A caller-supplied period count that overflows the count is
    // refused the same way.
    let err = CycleTimeAnalysis::run_in(&sg, Some(u32::MAX), &mut arena).unwrap_err();
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
    // One worker, 3 lanes, 10 events, 3 periods: 3 × (2·10 + 4) + 10 · 4.
    assert_eq!(analysis_cells(10, 3, 3, 1), Some(3 * 24 + 40));
    // Two workers take chunks of 2 lanes; more workers than lanes idle.
    assert_eq!(analysis_cells(10, 3, 3, 2), Some(2 * 2 * 24 + 40));
    assert_eq!(analysis_cells(10, 3, 3, 8), analysis_cells(10, 3, 3, 3));
    assert_eq!(analysis_cells(usize::MAX, 2, 1, 1), None);
}
