//! Shared kernel-benchmark workloads and correctness gates.
//!
//! The `bench` binary (which writes `BENCH_kernel.json`) times these
//! workloads, and the workspace tests (`tests/wide.rs`,
//! `tests/incremental.rs`, …) run the same graphs and edit scripts
//! through the same bit-identity gates, so a tracked speedup and the
//! property it relies on always cover the same inputs.

use tsg_core::analysis::session::GraphEdit;
use tsg_core::analysis::wide::AnalysisArena;
use tsg_core::analysis::{CycleTimeAnalysis, KernelBackend, ScenarioSet};
use tsg_core::{ArcId, EventId, SignalGraph};
use tsg_sim::EventQueue;
use tsg_stg::{parse_stg, StgOptions};

/// Upper bound of [`delay`]'s distribution.
pub const DELAY_BOUND: f64 = 8.25;

/// Deterministic bounded delays: a low-discrepancy scramble uniform in
/// `[0.25, DELAY_BOUND)`, the continuous shape gate libraries produce.
pub fn delay(i: u64) -> f64 {
    let scrambled = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
    0.25 + scrambled as f64 / (1u64 << 53) as f64 * 8.0
}

/// Bulk workload: `depth` pushes, then a full drain.
///
/// Returns the number of queue operations performed (for throughput
/// math and as a `black_box`-able result).
pub fn push_pop(mut q: EventQueue<u64>, depth: usize) -> usize {
    for i in 0..depth as u64 {
        q.schedule(delay(i), i);
    }
    let mut pops = 0usize;
    while q.pop().is_some() {
        pops += 1;
    }
    assert_eq!(pops, depth);
    2 * depth
}

/// Hold workload: steady depth, pop one / push one a bounded delay
/// ahead — the access pattern every simulator in the workspace
/// generates.
///
/// Returns the number of queue operations performed.
pub fn hold(mut q: EventQueue<u64>, depth: usize, ops: usize) -> usize {
    for i in 0..depth as u64 {
        q.schedule(delay(i), i);
    }
    for i in 0..ops as u64 {
        let ev = q.pop().expect("steady-state queue never drains");
        q.schedule(ev.time + delay(i), ev.payload);
    }
    depth + 2 * ops
}

/// `.g` text of a ring with chords for the `load` rows: the
/// `random_live_tsg` graph of `events` events (`events / 128` tokens,
/// `events / 16` chords, seed 1), each event relabelled `vI+` so the
/// format can express it. Written by `write_stg`, so every arc has its
/// own `.delay` line, as in the served `analyze-large` requests.
pub fn ring_with_chords_text(events: usize) -> String {
    let config = tsg_gen::RandomTsgConfig {
        events,
        tokens: (events / 128).max(1),
        chords: events / 16,
        max_delay: 9,
        with_prefix: false,
    };
    let sg = tsg_gen::random_live_tsg(1, config);
    let mut b = SignalGraph::builder();
    let ids: Vec<EventId> = sg
        .events()
        .map(|e| b.event(&format!("{}+", sg.label(e))))
        .collect();
    for arc in sg.arcs() {
        let (src, dst) = (ids[arc.src().index()], ids[arc.dst().index()]);
        if arc.is_marked() {
            b.marked_arc(src, dst, arc.delay().get());
        } else {
            b.arc(src, dst, arc.delay().get());
        }
    }
    let sg = b
        .build()
        .expect("relabelling keeps the generator's invariants");
    tsg_stg::write_stg(&sg, "load").expect("every event is a transition")
}

/// The tracked workloads of the `wide-vs-scalar` scenario: rings and
/// tori at border counts b ∈ {4, 8, 32} (a ring's border count is its
/// token count; an `h × w` torus has `h + w - 1` border events), the
/// ring-with-chords skeletons of [`ring_with_chords_text`] at 1024
/// events (b = 37) and 512 (b = 17), whose lane counts leave padding
/// lanes, plus seeded random live graphs. The `bench` binary and
/// `tests/wide.rs` both iterate this exact list, so the tracked
/// speedups and the bit-identity property tests cover the same graphs
/// by construction.
pub fn wide_scenarios() -> Vec<(String, SignalGraph)> {
    let mut out: Vec<(String, SignalGraph)> = Vec::new();
    for b in [4usize, 8, 32] {
        out.push((format!("ring n=1024 b={b}"), tsg_gen::ring(1024, b, 1.0)));
    }
    for events in [1024usize, 512] {
        let sg = parse_stg(&ring_with_chords_text(events), StgOptions::default())
            .expect("written text parses");
        out.push((
            format!("chords n={events} b={}", sg.border_events().len()),
            sg,
        ));
    }
    for (h, w) in [(2usize, 3usize), (4, 5), (16, 17)] {
        out.push((
            format!("torus {h}x{w} b={}", h + w - 1),
            tsg_gen::torus(h, w, 2.0, 3.0),
        ));
    }
    for seed in [3u64, 17] {
        let sg = tsg_gen::random_live_tsg(seed, tsg_gen::RandomTsgConfig::default());
        out.push((
            format!("random seed={seed} b={}", sg.border_events().len()),
            sg,
        ));
    }
    out
}

/// Asserts two analyses carry the same bits everywhere they report:
/// cycle time, periods, critical cycle (i.e. the backtracked parents
/// along the winning walk), critical borders, border order, and every
/// per-border distance table. The one bit-identity gate shared by the
/// `bench` binary and the workspace tests — a speedup of a wrong
/// answer is not a speedup, and drifting copies of this check would
/// each gate a different subset of the result.
///
/// # Panics
///
/// Panics (with `ctx`) on the first field whose bits differ.
pub fn assert_analyses_identical(expected: &CycleTimeAnalysis, got: &CycleTimeAnalysis, ctx: &str) {
    assert_eq!(
        expected.cycle_time().as_f64().to_bits(),
        got.cycle_time().as_f64().to_bits(),
        "{ctx}: cycle time bits"
    );
    assert_eq!(
        expected.cycle_time().periods(),
        got.cycle_time().periods(),
        "{ctx}: periods"
    );
    assert_eq!(
        expected.critical_cycle(),
        got.critical_cycle(),
        "{ctx}: backtracked critical cycle"
    );
    assert_eq!(
        expected.critical_borders(),
        got.critical_borders(),
        "{ctx}: critical borders"
    );
    assert_eq!(
        expected.border_events(),
        got.border_events(),
        "{ctx}: border order"
    );
    for (re, rg) in expected.records().iter().zip(got.records()) {
        assert_eq!(re.event, rg.event, "{ctx}: record event");
        assert_eq!(re.distances, rg.distances, "{ctx}: distance table");
    }
}

/// The wide-vs-scalar correctness gate for one graph: runs both
/// engines and asserts the analyses bit-identical through
/// [`assert_analyses_identical`] — every border's record included, so
/// every lane's origin cell of every row. (The wide kernel's other
/// cells are checked against the scalar kernel's in `tsg-core`'s own
/// tests; an analysis keeps only two rows of them.)
///
/// # Panics
///
/// Panics (with `ctx`) on any divergence.
pub fn assert_wide_matches_scalar(sg: &SignalGraph, ctx: &str) {
    let scalar = CycleTimeAnalysis::run_scalar(sg).expect("scenario is live");
    let wide = CycleTimeAnalysis::run(sg).expect("live");
    assert_analyses_identical(&scalar, &wide, ctx);
}

/// The explicit wide-kernel backends this CPU can run, narrowest
/// first — always starts with [`KernelBackend::Portable`], then AVX2
/// and AVX-512 when the features are present, so the sweeps can pin
/// each one.
pub fn available_backends() -> Vec<KernelBackend> {
    KernelBackend::ALL
        .into_iter()
        .filter(|b| b.available())
        .collect()
}

/// The backend correctness gate for one graph: runs the scalar
/// reference engine plus an analysis on every backend this CPU offers,
/// and asserts each backend's analysis bit-identical to the scalar one
/// through [`assert_analyses_identical`], records included.
///
/// # Panics
///
/// Panics (with `ctx` and the backend name) on any divergence.
pub fn assert_backends_match(sg: &SignalGraph, ctx: &str) {
    let scalar = CycleTimeAnalysis::run_scalar(sg).expect("scenario is live");
    for backend in available_backends() {
        let got = CycleTimeAnalysis::run_in(sg, None, &mut AnalysisArena::with_kernel(backend))
            .expect("live");
        assert_analyses_identical(&scalar, &got, &format!("{ctx} [{}]", backend.name()));
    }
}

/// The scenario-sweep correctness gate for one graph: runs the sweep
/// (one wide analysis per scenario), then asserts every scenario's
/// analysis bit-identical — through [`assert_analyses_identical`], so
/// times, critical cycle and backtracked parents included — to a
/// from-scratch *scalar* analysis of the corresponding reweighted
/// graph, which is the definition of what a scenario means.
///
/// # Panics
///
/// Panics (with `ctx` and the scenario label) on any divergence.
pub fn assert_scenarios_match_scalar(sg: &SignalGraph, set: &ScenarioSet, ctx: &str) {
    let swept = CycleTimeAnalysis::run_scenarios_in(sg, set, &mut AnalysisArena::new(), None)
        .expect("scenarios stay live");
    assert_eq!(swept.len(), set.len(), "{ctx}: scenario count");
    for j in 0..set.len() {
        let scratch =
            CycleTimeAnalysis::run_scalar(&set.reweighted(sg, j).expect("finite scaled delays"))
                .expect("reweighting keeps the graph live");
        assert_analyses_identical(
            &scratch,
            swept.analysis(j),
            &format!("{ctx} [{}]", set.label(j)),
        );
    }
}

/// Applies one [`GraphEdit`] batch directly to a graph through the
/// mutation API — the from-scratch side the session tests compare
/// against, and the mirror [`structural_edit_script`] builds its later
/// batches against.
///
/// # Panics
///
/// Panics if an edit is rejected: the scripts produced here are valid
/// by construction, so a rejection is a harness bug.
pub fn apply_graph_edits(sg: &mut SignalGraph, batch: &[GraphEdit]) {
    for edit in batch {
        match edit {
            GraphEdit::Delay { arc, delay } => sg.set_delay(*arc, *delay).expect("valid delay"),
            GraphEdit::AddArc {
                src,
                dst,
                delay,
                marked,
            } => {
                sg.add_arc(*src, *dst, *delay, *marked).expect("valid arc");
            }
            GraphEdit::RemoveArc { arc } => sg.remove_arc(*arc).expect("live arc"),
            GraphEdit::AddEvent { label } => {
                sg.add_event(label).expect("fresh label");
            }
            GraphEdit::RemoveEvent { event } => sg.remove_event(*event).expect("isolated event"),
        }
    }
}

/// A deterministic mixed structural script over `sg`: `count` batches
/// alternating always-valid pipeline-stage splits (one fresh event
/// each, the second half marked) with delay nudges, valid by
/// construction so a session and a from-scratch replay apply identical
/// edits. Batches
/// are built against an evolving mirror of the graph, so the ids each
/// batch names are exactly the ids the session assigns when the batches
/// apply in order.
pub fn structural_edit_script(sg: &SignalGraph, count: usize) -> Vec<Vec<GraphEdit>> {
    let mut mirror = sg.clone();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let batch = if i.is_multiple_of(2) {
            let cyclic: Vec<ArcId> = mirror
                .arc_ids()
                .filter(|&a| {
                    let arc = mirror.arc(a);
                    mirror.is_live_arc(a)
                        && !arc.is_disengageable()
                        && mirror.is_repetitive(arc.src())
                        && mirror.is_repetitive(arc.dst())
                })
                .collect();
            let a = cyclic[(i * 31) % cyclic.len()];
            let arc = mirror.arc(a);
            let mid = EventId(mirror.event_count() as u32);
            let half = arc.delay().get() / 2.0;
            vec![
                GraphEdit::RemoveArc { arc: a },
                GraphEdit::AddEvent {
                    label: format!("s{i}"),
                },
                GraphEdit::AddArc {
                    src: arc.src(),
                    dst: mid,
                    delay: half,
                    marked: arc.is_marked(),
                },
                GraphEdit::AddArc {
                    src: mid,
                    dst: arc.dst(),
                    delay: half,
                    marked: true,
                },
            ]
        } else {
            let live: Vec<ArcId> = mirror
                .arc_ids()
                .filter(|&a| mirror.is_live_arc(a))
                .collect();
            let arc = live[(i * 37) % live.len()];
            vec![GraphEdit::Delay {
                arc,
                delay: mirror.arc(arc).delay().get() + 0.25 + (i % 4) as f64 * 0.25,
            }]
        };
        apply_graph_edits(&mut mirror, &batch);
        out.push(batch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_report_operation_counts() {
        assert_eq!(push_pop(EventQueue::new(), 100), 200);
        assert_eq!(hold(EventQueue::new(), 50, 200), 450);
    }

    #[test]
    fn structural_script_matches_between_session_and_scratch() {
        let sg = tsg_gen::ring(16, 2, 1.0);
        let script = structural_edit_script(&sg, 9);
        assert_eq!(script.len(), 9);

        let mut session =
            tsg_core::analysis::session::AnalysisSession::open(sg.clone()).expect("cyclic");
        let mut scratch = sg;
        for (i, batch) in script.iter().enumerate() {
            session
                .edit_structure(batch, None)
                .unwrap_or_else(|e| panic!("batch {i} rejected: {e}"));
            apply_graph_edits(&mut scratch, batch);
            let full = CycleTimeAnalysis::run(&scratch).expect("cyclic");
            assert_analyses_identical(&full, session.analysis(), &format!("batch {i}"));
        }
        // Splits added one fresh event per even-indexed batch.
        assert_eq!(scratch.event_count(), 16 + 5);
    }

    #[test]
    fn delay_is_bounded_and_continuous() {
        let mut distinct = std::collections::HashSet::new();
        for i in 0..1000 {
            let d = delay(i);
            assert!((0.25..DELAY_BOUND).contains(&d), "{d}");
            distinct.insert(d.to_bits());
        }
        assert!(distinct.len() > 900, "{} distinct values", distinct.len());
    }
}
