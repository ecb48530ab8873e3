//! Design-space exploration with the analyzer in the loop: sweep the gate
//! delays of a handshake pipeline, watch the critical cycle move between
//! the stage logic and the inter-stage coupling, and quantify per-arc
//! slack — the "bottleneck hunting" workflow the paper's introduction
//! motivates.
//!
//! The sweep runs through **one** [`AnalysisSession`]: the pipeline is
//! built once, every grid point is a batch of delay edits, and each
//! batch re-runs the analysis on the session's warm arena. Each row is
//! cross-checked against a from-scratch `CycleTimeAnalysis::run_in`
//! (itself reusing a single `AnalysisArena`, so even the checking loop
//! is allocation-free after warm-up) — bit-identical, every time.
//!
//! ```sh
//! cargo run --example design_space
//! ```

use tsg::core::analysis::session::{AnalysisSession, DelayEdit};
use tsg::core::analysis::slack::SlackAnalysis;
use tsg::core::analysis::wide::AnalysisArena;
use tsg::core::analysis::CycleTimeAnalysis;
use tsg::core::{ArcId, SignalGraph};
use tsg::gen::{handshake_pipeline, PipelineConfig};

/// Which delay knob of the pipeline generator an arc belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Knob {
    /// Intra-stage request-side logic (`r{k}± -> a{k}±`).
    Req,
    /// Intra-stage acknowledge-side logic (`a{k}± -> r{k}∓`).
    Ack,
    /// Inter-stage wiring and the environment loop.
    Coupling,
}

/// Parses a stage label like `r12+` into its kind letter and stage.
fn stage_of(label: &str) -> Option<(char, usize)> {
    let kind = label.chars().next()?;
    let digits: String = label[1..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok().map(|stage| (kind, stage))
}

fn knob_of(sg: &SignalGraph, a: ArcId) -> Knob {
    let arc = sg.arc(a);
    let src = sg.label(arc.src()).to_string();
    let dst = sg.label(arc.dst()).to_string();
    match (stage_of(&src), stage_of(&dst)) {
        (Some(('r', i)), Some(('a', j))) if i == j => Knob::Req,
        (Some(('a', i)), Some(('r', j))) if i == j => Knob::Ack,
        _ => Knob::Coupling,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One pipeline, one session, one verification arena for the whole
    // sweep.
    let stages = 8;
    let mut session = AnalysisSession::open(handshake_pipeline(stages, PipelineConfig::default()))?;
    let knobs: Vec<Knob> = session
        .graph()
        .arc_ids()
        .map(|a| knob_of(session.graph(), a))
        .collect();
    let mut arena = AnalysisArena::new();

    println!(
        "{:>10} {:>10} {:>10} {:>8} {:>10}  critical cycle",
        "req_delay", "ack_delay", "coupling", "tau", "rows"
    );
    for req in [1.0, 2.0, 4.0] {
        for coupling in [1.0, 4.0, 8.0] {
            let cfg = PipelineConfig {
                req_delay: req,
                ack_delay: 1.0,
                coupling_delay: coupling,
            };
            // One edit batch per grid point: every req/coupling arc to
            // its new delay (ack arcs keep the default).
            let edits: Vec<DelayEdit> = session
                .graph()
                .arc_ids()
                .filter_map(|a| match knobs[a.index()] {
                    Knob::Req => Some(DelayEdit {
                        arc: a,
                        delay: cfg.req_delay,
                    }),
                    Knob::Coupling => Some(DelayEdit {
                        arc: a,
                        delay: cfg.coupling_delay,
                    }),
                    Knob::Ack => None,
                })
                .collect();
            let delta = session.edit_delays(&edits, None)?;

            // Verify against a from-scratch analysis of an equivalently
            // configured pipeline, through the arena-reusing entry point.
            let fresh = handshake_pipeline(stages, cfg);
            let scratch = CycleTimeAnalysis::run_in(&fresh, None, &mut arena)?;
            assert_eq!(
                session.analysis().cycle_time().as_f64().to_bits(),
                scratch.cycle_time().as_f64().to_bits(),
                "incremental sweep diverged at req={req} coupling={coupling}"
            );
            assert_eq!(
                session.analysis().critical_cycle(),
                scratch.critical_cycle()
            );

            let cycle = session
                .graph()
                .display_path(session.analysis().critical_cycle());
            let shown = if cycle.len() > 44 {
                format!("{}…", &cycle[..44])
            } else {
                cycle
            };
            println!(
                "{:>10} {:>10} {:>10} {:>8} {:>6}/{:<3}  {}",
                req,
                cfg.ack_delay,
                coupling,
                session.analysis().cycle_time().as_f64(),
                delta.rows,
                delta.rows_total,
                shown
            );
        }
    }
    println!(
        "all 9 grid points bit-identical to from-scratch analyses \
         ({} edit batches on one warm session)",
        session.edits_applied()
    );

    // Slack analysis: how far can each arc's delay stretch before the
    // cycle time degrades? Zero-slack arcs are the bottlenecks.
    let cfg = PipelineConfig::default();
    let sg = handshake_pipeline(4, cfg);
    let slack = SlackAnalysis::run(&sg, None)?;
    println!("\nslack analysis (τ = {}):", slack.cycle_time());
    let critical = slack.critical_arcs(1e-9);
    println!(
        "  {} of {} arcs are timing-critical (zero slack):",
        critical.len(),
        sg.arc_count()
    );
    for &a in critical.iter().take(8) {
        let arc = sg.arc(a);
        println!("    {} -> {}", sg.label(arc.src()), sg.label(arc.dst()));
    }
    // The loosest arcs — places where a slower, smaller gate would do.
    let mut loose: Vec<(f64, String)> = sg
        .arc_ids()
        .filter_map(|a| {
            slack.slack(a).map(|s| {
                let arc = sg.arc(a);
                (
                    s,
                    format!("{} -> {}", sg.label(arc.src()), sg.label(arc.dst())),
                )
            })
        })
        .collect();
    loose.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    println!("  loosest arcs:");
    for (s, arc) in loose.iter().take(5) {
        println!("    {arc:<16} slack {s:.3}");
    }
    Ok(())
}
