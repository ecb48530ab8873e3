//! Incremental analysis sessions against the from-scratch algorithm.
//!
//! The correctness bar of `AnalysisSession`: after *any* sequence of
//! delay edits on *any* graph, the session's analysis is bit-identical
//! to `CycleTimeAnalysis::run` on the edited graph — same cycle-time
//! bits, same critical cycle, same border records. These properties
//! drive random edit scripts over every `tsg_gen` generator family
//! (rings, tori, handshake pipelines, seeded random live graphs),
//! structural batches, scenario lanes, cancellations and snapshots.

use proptest::prelude::*;
use tsg::core::analysis::session::{AnalysisSession, DelayEdit, EditError, GraphEdit};
use tsg::core::analysis::wide::AnalysisArena;
use tsg::core::analysis::{AnalysisError, Corner, CycleTimeAnalysis, ScenarioSet};
use tsg::core::{ArcId, EventId, SignalGraph};
use tsg::gen::{handshake_pipeline, random_live_tsg, ring, torus, PipelineConfig, RandomTsgConfig};
use tsg::sim::CancelToken;
use tsg_bench::{assert_analyses_identical, available_backends};

/// One generated graph per `(family, seed)` pair, covering every
/// generator family with modest sizes.
fn graph(family: usize, seed: u64) -> SignalGraph {
    match family % 4 {
        0 => ring(5 + (seed % 28) as usize, 1 + (seed % 5) as usize, 1.5),
        1 => torus(
            2 + (seed % 3) as usize,
            2 + (seed / 3 % 4) as usize,
            2.0,
            3.0,
        ),
        2 => handshake_pipeline(
            1 + (seed % 5) as usize,
            PipelineConfig {
                req_delay: 2.0,
                ack_delay: 1.0,
                coupling_delay: 1.0 + (seed % 3) as f64,
            },
        ),
        _ => random_live_tsg(seed, RandomTsgConfig::default()),
    }
}

/// A deterministic edit script from one seed: arc indices stride
/// through the graph, delays cycle through a small value set (including
/// repeats and zeros).
fn script(sg: &SignalGraph, seed: u64, count: usize) -> Vec<DelayEdit> {
    let m = sg.arc_count() as u64;
    (0..count as u64)
        .map(|i| {
            let k = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i * 37);
            DelayEdit {
                arc: ArcId((k % m) as u32),
                delay: [0.0, 0.5, 1.0, 2.5, 4.0, 7.25][(k / m % 6) as usize],
            }
        })
        .collect()
}

/// One deterministic mixed move per `k`: a delay edit, a pipeline-stage
/// split (always valid), a speculative marked-arc addition, or an arc
/// removal. The last two may break a graph rule — the session's
/// transactional edit API rejects those batches whole, which the
/// properties treat as a legal (state-preserving) outcome.
fn mixed_batch(sg: &SignalGraph, k: u64, fresh: &mut u32) -> Vec<GraphEdit> {
    let live: Vec<ArcId> = sg.arc_ids().filter(|&a| sg.is_live_arc(a)).collect();
    let pick_arc = |xs: &[ArcId], j: u64| xs[(j % xs.len() as u64) as usize];
    match k % 5 {
        0 | 1 => vec![GraphEdit::Delay {
            arc: pick_arc(&live, k / 5),
            delay: [0.0, 0.5, 1.0, 2.5, 4.0, 7.25][(k / 7 % 6) as usize],
        }],
        2 => {
            // Pipeline split: replace a cyclic arc by two halves through
            // a fresh event, the second half marked — always valid.
            let cyclic: Vec<ArcId> = sg
                .arc_ids()
                .filter(|&a| {
                    let arc = sg.arc(a);
                    sg.is_live_arc(a)
                        && !arc.is_disengageable()
                        && sg.is_repetitive(arc.src())
                        && sg.is_repetitive(arc.dst())
                })
                .collect();
            let a = pick_arc(&cyclic, k / 5);
            let arc = sg.arc(a);
            *fresh += 1;
            let mid = EventId(sg.event_count() as u32);
            let half = arc.delay().get() / 2.0;
            vec![
                GraphEdit::RemoveArc { arc: a },
                GraphEdit::AddEvent {
                    label: format!("w{fresh}"),
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
        }
        3 => {
            // Speculative arc addition between two repetitive events;
            // an unmarked choice that closes a token-free cycle is
            // rejected by validation.
            let reps: Vec<EventId> = sg
                .events()
                .filter(|&e| sg.is_live_event(e) && sg.is_repetitive(e))
                .collect();
            let u = reps[(k / 5 % reps.len() as u64) as usize];
            let v = reps[(k / 11 % reps.len() as u64) as usize];
            vec![GraphEdit::AddArc {
                src: u,
                dst: v,
                delay: [0.5, 1.0, 2.0][(k / 13 % 3) as usize],
                marked: k.is_multiple_of(2),
            }]
        }
        _ => vec![GraphEdit::RemoveArc {
            arc: pick_arc(&live, k / 5),
        }],
    }
}

/// Key of the `step`-th mixed move of a seeded script.
fn mix_key(seed: u64, step: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(step * 43)
}

/// Applies one mixed batch, tolerating transactional rejection (the
/// session is unchanged then) and panicking on any other error.
fn apply_mixed(session: &mut AnalysisSession, batch: &[GraphEdit], ctx: &str) -> bool {
    match session.edit_structure(batch, None) {
        Ok(delta) => {
            assert!(delta.rows <= delta.rows_total, "{ctx}");
            assert!(delta.dirty <= delta.borders, "{ctx}");
            true
        }
        Err(EditError::Invalid(_) | EditError::NoCyclicBehavior) => false,
        Err(e) => panic!("{ctx}: unexpected edit error: {e:?}"),
    }
}

/// A scenario set: corner sets of 1–3 corners for even `pick`, seeded
/// sample sets of 1–5 scenarios otherwise (the same mix the wide-kernel
/// properties sweep).
fn scenario_set(pick: u64) -> ScenarioSet {
    const CORNERS: [Corner; 3] = [Corner::Min, Corner::Typ, Corner::Max];
    if pick.is_multiple_of(2) {
        let count = 1 + (pick / 2 % 3) as usize;
        let derate = [5.0, 10.0, 25.0][(pick / 7 % 3) as usize];
        ScenarioSet::corners(derate, &CORNERS[..count]).expect("non-empty corner list")
    } else {
        let count = 1 + (pick / 2 % 5) as usize;
        ScenarioSet::samples(count, pick, 10.0).expect("non-zero sample count")
    }
}

/// Every scenario lane the session keeps warm must hold the exact bits
/// of a from-scratch *scalar* analysis of the corresponding reweighted
/// graph — the session's own (possibly resized) set is the oracle, so
/// structural edits that grow the arc table are covered too.
fn assert_scenario_lanes_match_scratch(session: &AnalysisSession, ctx: &str) {
    let set = session.scenario_set().expect("scenarios enabled");
    let sa = session.scenario_analysis().expect("scenarios enabled");
    assert_eq!(sa.len(), set.len(), "{ctx}: scenario lane count");
    for j in 0..set.len() {
        let scalar = CycleTimeAnalysis::run_scalar(&set.reweighted(session.graph(), j).unwrap())
            .expect("reweighting keeps the graph live");
        assert_analyses_identical(
            &scalar,
            sa.analysis(j),
            &format!("{ctx} [{}]", set.label(j)),
        );
    }
}

fn assert_session_matches_scratch(session: &AnalysisSession, ctx: &str) {
    let scratch = CycleTimeAnalysis::run(session.graph()).expect("graph stays live");
    let a = session.analysis();
    assert_eq!(
        a.cycle_time().as_f64().to_bits(),
        scratch.cycle_time().as_f64().to_bits(),
        "{ctx}: cycle time bits"
    );
    assert_eq!(
        a.cycle_time().periods(),
        scratch.cycle_time().periods(),
        "{ctx}: periods"
    );
    assert_eq!(a.critical_cycle(), scratch.critical_cycle(), "{ctx}: cycle");
    assert_eq!(
        a.critical_borders(),
        scratch.critical_borders(),
        "{ctx}: critical borders"
    );
    assert_eq!(a.border_events(), scratch.border_events(), "{ctx}: borders");
    for (ra, rb) in a.records().iter().zip(scratch.records()) {
        assert_eq!(ra.event, rb.event, "{ctx}");
        assert_eq!(ra.distances, rb.distances, "{ctx}: record distances");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance criterion: random edit sequences on every
    /// generator family, each step bit-identical to from-scratch.
    #[test]
    fn random_edit_sequences_match_from_scratch(
        family in 0usize..4,
        seed in 0u64..10_000,
        edits in 1usize..10,
    ) {
        let sg = graph(family, seed);
        let mut session = AnalysisSession::open(sg).expect("generated graphs are live");
        for (step, e) in script(session.graph(), seed, edits).into_iter().enumerate() {
            let delta = session.edit_delays(std::slice::from_ref(&e), None).unwrap();
            prop_assert!(delta.rows <= delta.rows_total);
            prop_assert!(delta.dirty <= delta.borders);
            assert_session_matches_scratch(
                &session,
                &format!("family {family} seed {seed} step {step}"),
            );
        }
    }

    /// Batched edits apply atomically and match from-scratch too.
    #[test]
    fn batched_edits_match_from_scratch(
        family in 0usize..4,
        seed in 0u64..10_000,
        edits in 2usize..8,
    ) {
        let sg = graph(family, seed);
        let mut session = AnalysisSession::open(sg).expect("generated graphs are live");
        let batch = script(session.graph(), seed, edits);
        session.edit_delays(&batch, None).unwrap();
        assert_session_matches_scratch(&session, &format!("family {family} seed {seed} batch"));
    }

    /// Structural incremental edits (PR 8): random interleavings of
    /// delay edits, pipeline splits, arc additions and removals on
    /// every generator family — after every step (applied or rejected
    /// whole) the session is bit-identical to from-scratch.
    #[test]
    fn mixed_structural_scripts_match_from_scratch(
        family in 0usize..4,
        seed in 0u64..10_000,
        steps in 1usize..8,
    ) {
        let mut session = AnalysisSession::open(graph(family, seed)).expect("live");
        let mut fresh = 0u32;
        for step in 0..steps as u64 {
            let ctx = format!("family {family} seed {seed} struct step {step}");
            let batch = mixed_batch(session.graph(), mix_key(seed, step), &mut fresh);
            apply_mixed(&mut session, &batch, &ctx);
            assert_session_matches_scratch(&session, &ctx);
        }
    }

    /// One batch mixing a delay edit with a structural splice applies
    /// atomically and matches from-scratch.
    #[test]
    fn combined_delay_and_structural_batches_match_from_scratch(
        family in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let mut session = AnalysisSession::open(graph(family, seed)).expect("live");
        let mut fresh = 0u32;
        let delay = mixed_batch(session.graph(), mix_key(seed, 0) / 5 * 5, &mut fresh);
        let split = mixed_batch(session.graph(), mix_key(seed, 1) / 5 * 5 + 2, &mut fresh);
        let batch: Vec<GraphEdit> = delay.into_iter().chain(split).collect();
        let ctx = format!("family {family} seed {seed} combined");
        apply_mixed(&mut session, &batch, &ctx);
        assert_session_matches_scratch(&session, &ctx);
    }

    /// Scenario lanes follow the session's edits: with a corner or
    /// sample set enabled, every delay edit re-runs every scenario's
    /// analysis, and after every step each scenario must match a
    /// from-scratch scalar analysis of its reweighted graph — alongside
    /// the nominal lanes.
    #[test]
    fn scenario_lanes_survive_random_delay_edits(
        family in 0usize..4,
        seed in 0u64..10_000,
        edits in 1usize..6,
        pick in 0u64..1_000,
    ) {
        let sg = graph(family, seed);
        let mut session = AnalysisSession::open(sg).expect("generated graphs are live");
        let set = scenario_set(pick);
        session.enable_scenarios(&set, None).expect("live");
        assert_scenario_lanes_match_scratch(
            &session,
            &format!("family {family} seed {seed} pick {pick} enable"),
        );
        for (step, e) in script(session.graph(), seed, edits).into_iter().enumerate() {
            session.edit_delays(std::slice::from_ref(&e), None).unwrap();
            let ctx = format!("family {family} seed {seed} pick {pick} step {step}");
            assert_session_matches_scratch(&session, &ctx);
            assert_scenario_lanes_match_scratch(&session, &ctx);
        }
    }

    /// Scenarios across *structural* edit scripts: splices that grow
    /// the arc table make every sweep derive its factor rows over the
    /// new slots; after every batch (applied or rejected whole) each
    /// scenario must still match the scalar engine on its reweighted
    /// graph.
    #[test]
    fn scenario_lanes_survive_mixed_structural_scripts(
        family in 0usize..4,
        seed in 0u64..10_000,
        steps in 1usize..6,
        pick in 0u64..1_000,
    ) {
        let mut session = AnalysisSession::open(graph(family, seed)).expect("live");
        let set = scenario_set(pick);
        session.enable_scenarios(&set, None).expect("live");
        let mut fresh = 0u32;
        for step in 0..steps as u64 {
            let ctx = format!("family {family} seed {seed} pick {pick} struct step {step}");
            let batch = mixed_batch(session.graph(), mix_key(seed, step), &mut fresh);
            apply_mixed(&mut session, &batch, &ctx);
            assert_session_matches_scratch(&session, &ctx);
            assert_scenario_lanes_match_scratch(&session, &ctx);
        }
    }

    /// The same holds with the kernel pinned to each backend this CPU
    /// offers: scenario lanes re-run by a short edit script stay bit-identical to the scalar engine on
    /// every backend.
    #[test]
    fn scenario_lanes_resume_mid_matrix_on_every_backend(
        family in 0usize..4,
        seed in 0u64..10_000,
        edits in 1usize..4,
        pick in 0u64..1_000,
    ) {
        for backend in available_backends() {
            let sg = graph(family, seed);
            let mut session = AnalysisSession::open_in(sg, AnalysisArena::with_kernel(backend), None).expect("live");
            let set = scenario_set(pick);
            session.enable_scenarios(&set, None).expect("live");
            for (step, e) in script(session.graph(), seed, edits).into_iter().enumerate() {
                session.edit_delays(std::slice::from_ref(&e), None).unwrap();
                assert_scenario_lanes_match_scratch(
                    &session,
                    &format!("family {family} seed {seed} pick {pick} step {step} [{}]", backend.name()),
                );
            }
        }
    }
}

/// A long deterministic soak on one graph per family: 40 edits each,
/// verified bit-identically at every step (catches drift that only
/// accumulates over many edits).
#[test]
fn long_edit_soak_per_family() {
    for family in 0..4usize {
        let mut session = AnalysisSession::open(graph(family, 7)).expect("live");
        for (step, e) in script(session.graph(), 7, 40).into_iter().enumerate() {
            session.edit_delays(std::slice::from_ref(&e), None).unwrap();
            if step % 5 == 4 {
                assert_session_matches_scratch(&session, &format!("family {family} step {step}"));
            }
        }
        assert_session_matches_scratch(&session, &format!("family {family} final"));
    }
}

/// A deterministic scenario soak per family: 16 mixed structural moves
/// on one session with a 4-sample set enabled throughout, nominal and
/// scenarios bit-verified after every batch (catches factor drift that
/// only shows after repeated arc-table growth).
#[test]
fn long_scenario_soak_per_family() {
    for family in 0..4usize {
        let mut session = AnalysisSession::open(graph(family, 9)).expect("live");
        let set = ScenarioSet::samples(4, 9, 10.0).expect("live");
        session.enable_scenarios(&set, None).expect("live");
        let mut fresh = 0u32;
        for step in 0..16u64 {
            let ctx = format!("family {family} scenario soak step {step}");
            let batch = mixed_batch(session.graph(), mix_key(9, step), &mut fresh);
            apply_mixed(&mut session, &batch, &ctx);
            assert_session_matches_scratch(&session, &ctx);
            assert_scenario_lanes_match_scratch(&session, &ctx);
        }
    }
}

// ---------------------------------------------------------------------
// Cancellation bit-safety (PR 7): a session aborted mid-matrix by a
// cancel token stays consistent — the edits are applied, the session
// reports itself stale, and the next uncancelled call (even an empty
// batch) heals it to the exact bits a fresh analysis produces.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random batches under a random check budget: whether the token
    /// fires or the batch survives, the healed session is always
    /// bit-identical to from-scratch.
    #[test]
    fn aborted_batch_edits_heal_bit_identically(
        family in 0usize..4,
        seed in 0u64..10_000,
        edits in 2usize..8,
        budget in 0u64..8,
    ) {
        let sg = graph(family, seed);
        let mut session = AnalysisSession::open(sg).expect("generated graphs are live");
        let batch = script(session.graph(), seed, edits);
        let token = CancelToken::cancel_after_checks(budget);
        match session.edit_delays(&batch, Some(&token)) {
            Ok(_) => prop_assert!(!session.is_stale()),
            Err(EditError::Cancelled { rows_done, rows_total, .. }) => {
                prop_assert!(session.is_stale());
                prop_assert!(rows_done <= rows_total);
                // An empty uncancelled batch heals the stale region.
                session.edit_delays(&[], None).unwrap();
            }
            Err(e) => panic!("unexpected edit error: {e:?}"),
        }
        prop_assert!(!session.is_stale());
        assert_session_matches_scratch(
            &session,
            &format!("family {family} seed {seed} abort budget {budget}"),
        );
    }

    /// Cancel-then-heal for *structural* edits: a pipeline split whose
    /// re-analysis is aborted leaves the new
    /// graph committed with a stale analysis, and the next uncancelled
    /// call heals it to the from-scratch bits.
    #[test]
    fn aborted_structural_edits_heal_bit_identically(
        family in 0usize..4,
        seed in 0u64..10_000,
        budget in 0u64..8,
    ) {
        let mut session = AnalysisSession::open(graph(family, seed)).expect("live");
        let mut fresh = 0u32;
        // Force the always-valid split move (key % 5 == 2) so the only
        // possible failure is the cancellation under test.
        let batch = mixed_batch(session.graph(), mix_key(seed, 0) / 5 * 5 + 2, &mut fresh);
        let event_count = session.graph().event_count();
        let token = CancelToken::cancel_after_checks(budget);
        match session.edit_structure(&batch, Some(&token)) {
            Ok(_) => prop_assert!(!session.is_stale()),
            Err(EditError::Cancelled { rows_done, rows_total, .. }) => {
                prop_assert!(session.is_stale());
                prop_assert!(rows_done <= rows_total);
                prop_assert_eq!(
                    session.graph().event_count(),
                    event_count + 1,
                    "the structural batch commits even when the rerun is cancelled"
                );
                session.edit_delays(&[], None).unwrap();
            }
            Err(e) => panic!("unexpected edit error: {e:?}"),
        }
        prop_assert!(!session.is_stale());
        assert_session_matches_scratch(
            &session,
            &format!("family {family} seed {seed} struct abort budget {budget}"),
        );
    }
}

/// A deterministic soak of repeated aborts mid-script: every chunk is
/// attempted under a tiny check budget, healed when it fired, and the
/// session must match from-scratch after every step.
#[test]
fn repeated_aborts_mid_script_heal_bit_identically() {
    for family in 0..4usize {
        let mut session = AnalysisSession::open(graph(family, 13)).expect("live");
        let edits = script(session.graph(), 13, 24);
        for (step, chunk) in edits.chunks(3).enumerate() {
            let token = CancelToken::cancel_after_checks((step % 4) as u64);
            match session.edit_delays(chunk, Some(&token)) {
                Ok(_) => {}
                Err(EditError::Cancelled { .. }) => {
                    session.edit_delays(&[], None).unwrap();
                }
                Err(e) => panic!("unexpected edit error: {e:?}"),
            }
            assert!(!session.is_stale());
            assert_session_matches_scratch(&session, &format!("family {family} step {step}"));
        }
    }
}

/// A long deterministic structural soak on one graph per family: 24
/// mixed moves (delay nudges, splits, additions, removals) with a
/// cancel-then-heal cycle every fourth step, bit-verified throughout.
#[test]
fn long_structural_soak_with_aborts_per_family() {
    for family in 0..4usize {
        let mut session = AnalysisSession::open(graph(family, 17)).expect("live");
        let mut fresh = 0u32;
        for step in 0..24u64 {
            let ctx = format!("family {family} struct soak step {step}");
            let batch = mixed_batch(session.graph(), mix_key(17, step), &mut fresh);
            if step % 4 == 3 {
                let token = CancelToken::cancel_after_checks(step % 3);
                match session.edit_structure(&batch, Some(&token)) {
                    Ok(_) | Err(EditError::Invalid(_) | EditError::NoCyclicBehavior) => {}
                    Err(EditError::Cancelled { .. }) => {
                        session.edit_delays(&[], None).unwrap();
                    }
                    Err(e) => panic!("{ctx}: unexpected edit error: {e:?}"),
                }
            } else {
                apply_mixed(&mut session, &batch, &ctx);
            }
            assert!(!session.is_stale(), "{ctx}");
            assert_session_matches_scratch(&session, &ctx);
        }
    }
}

/// An opening analysis aborted by its token creates no session; a clean
/// retry on the same graph is bit-identical to from-scratch.
#[test]
fn cancelled_open_retries_cleanly() {
    for family in 0..4usize {
        let aborted = AnalysisSession::open_in(
            graph(family, 3),
            AnalysisArena::new(),
            Some(&CancelToken::cancel_after_checks(0)),
        );
        assert!(
            matches!(aborted, Err(AnalysisError::Cancelled { .. })),
            "family {family}: a zero-budget token must abort the open"
        );
        let session = AnalysisSession::open(graph(family, 3)).expect("live");
        assert_session_matches_scratch(&session, &format!("family {family} clean reopen"));
    }
}
