//! The lane-batched wide kernel against the scalar reference engine.
//!
//! The correctness bar: everything the analysis reports — cycle-time
//! bits, critical cycle (i.e. the backtracked parents), critical
//! borders and per-border distance tables — must be **bit-identical**
//! between the lockstep SIMD-friendly wide kernel (what
//! `CycleTimeAnalysis::run` executes) and the scalar engine (kept as
//! `CycleTimeAnalysis::run_scalar`). The wide kernel's individual cells
//! are checked against the scalar kernel's in `tsg-core`'s own tests. The properties sweep every
//! `tsg_gen` generator family and random edit scripts through
//! `AnalysisSession`.
//!
//! PR 6 widens the bar to the explicit-SIMD backends: every backend
//! the CPU offers (portable always, AVX2 when detected) must
//! produce the same bits as `run_scalar` — including odd lane counts
//! that force the masked remainder paths, and session edit scripts
//! mid-matrix with the kernel pinned per backend.
//!
//! PR 8 adds structural edits to the mix: interleaved pipeline-stage
//! splits and delay nudges applied through
//! `AnalysisSession::edit_structure` change the border set, and each
//! batch must leave the session
//! bit-identical to a from-scratch scalar analysis — on every backend.
//!
//! PR 9 adds the scenario axis: a `ScenarioSet` of `s` delay
//! reweightings (derated corners or seeded samples). A sweep runs one
//! wide analysis per scenario on the reweighted graph, and each
//! scenario's result must hold the exact bits of a from-scratch scalar
//! analysis of that graph — across every generator family, every
//! backend and odd lane counts.

use proptest::prelude::*;
use tsg::core::analysis::session::{AnalysisSession, DelayEdit};
use tsg::core::analysis::wide::AnalysisArena;
use tsg::core::analysis::{Corner, CycleTimeAnalysis, ScenarioSet};
use tsg::core::{ArcId, SignalGraph};
use tsg::gen::{handshake_pipeline, random_live_tsg, ring, torus, PipelineConfig, RandomTsgConfig};
use tsg_bench::{
    assert_analyses_identical, assert_backends_match, assert_scenarios_match_scalar,
    assert_wide_matches_scalar, available_backends, structural_edit_script,
};

/// A scenario set: corner sets of 1–3 corners for even `pick`, seeded
/// sample sets of 1–5 scenarios otherwise.
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

/// One generated graph per `(family, seed)` pair — the same family mix
/// the incremental-session properties use.
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

/// A deterministic delay-edit script striding through the arcs.
fn script(sg: &SignalGraph, seed: u64, count: usize) -> Vec<(ArcId, f64)> {
    let m = sg.arc_count() as u64;
    (0..count as u64)
        .map(|i| {
            let k = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i * 41);
            (
                ArcId((k % m) as u32),
                [0.0, 0.5, 1.0, 2.5, 4.0, 7.25][(k / m % 6) as usize],
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance criterion: `run` (wide) ≡ `run_scalar` on every
    /// generator family, records included (the shared gate from
    /// `tsg_bench`, the same one the `bench` binary runs before timing
    /// anything).
    #[test]
    fn wide_equals_scalar_across_families(family in 0usize..4, seed in 0u64..10_000) {
        let sg = graph(family, seed);
        assert_wide_matches_scalar(&sg, &format!("family {family} seed {seed}"));
    }

    /// Random edit scripts through an `AnalysisSession` (which re-runs
    /// the wide kernel per edit): every step bit-identical to a
    /// from-scratch scalar analysis of the edited graph.
    #[test]
    fn session_edits_match_the_scalar_engine(
        family in 0usize..4,
        seed in 0u64..10_000,
        edits in 1usize..8,
    ) {
        let sg = graph(family, seed);
        let mut session = AnalysisSession::open(sg).expect("live");
        for (step, (arc, delay)) in script(session.graph(), seed, edits).into_iter().enumerate() {
            session.edit_delays(&[DelayEdit { arc, delay }], None).unwrap();
            let scalar = CycleTimeAnalysis::run_scalar(session.graph()).expect("stays live");
            assert_analyses_identical(
                &scalar,
                session.analysis(),
                &format!("family {family} seed {seed} step {step}"),
            );
        }
    }

    /// Every explicit kernel backend this CPU offers (portable always;
    /// AVX2 when detected) ≡ `run_scalar` on every generator
    /// family — analyses bit-identical, records included.
    #[test]
    fn every_backend_equals_scalar_across_families(family in 0usize..4, seed in 0u64..10_000) {
        let sg = graph(family, seed);
        assert_backends_match(&sg, &format!("family {family} seed {seed}"));
    }

    /// Odd lane counts force the remainder paths (AVX2 maskload /
    /// maskstore tails): rings with b ∈ {1, 3,
    /// 5, 7} tokens give exactly b lanes, never a multiple of the
    /// vector width.
    #[test]
    fn odd_lane_counts_exercise_the_masked_remainders(
        bi in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let b = [1usize, 3, 5, 7][bi];
        let n = b + 1 + (seed % 40) as usize;
        let sg = ring(n, b, 1.5);
        assert_backends_match(&sg, &format!("ring n={n} b={b} seed {seed}"));
    }

    /// Random edit scripts on a session pinned to each backend: every
    /// step must stay bit-identical to a from-scratch scalar analysis.
    #[test]
    fn session_edits_resume_mid_matrix_on_every_backend(
        family in 0usize..4,
        seed in 0u64..10_000,
        edits in 1usize..6,
    ) {
        for backend in available_backends() {
            let sg = graph(family, seed);
            let mut session = AnalysisSession::open_in(sg, AnalysisArena::with_kernel(backend), None).expect("live");
            for (step, (arc, delay)) in
                script(session.graph(), seed, edits).into_iter().enumerate()
            {
                session.edit_delays(&[DelayEdit { arc, delay }], None).unwrap();
                let scalar = CycleTimeAnalysis::run_scalar(session.graph()).expect("stays live");
                assert_analyses_identical(
                    &scalar,
                    session.analysis(),
                    &format!("family {family} seed {seed} step {step} [{}]", backend.name()),
                );
            }
        }
    }

    /// Interleaved structural + delay scripts on a session pinned to
    /// each backend: pipeline-stage splits grow the event set (and can
    /// grow or shuffle the border set), delay nudges change single
    /// arcs — after every batch the session must hold the exact bits of a
    /// from-scratch scalar analysis of the edited graph.
    #[test]
    fn structural_scripts_resume_on_every_backend(
        family in 0usize..4,
        seed in 0u64..10_000,
        batches in 1usize..6,
    ) {
        for backend in available_backends() {
            let sg = graph(family, seed);
            let script = structural_edit_script(&sg, batches);
            let mut session = AnalysisSession::open_in(sg, AnalysisArena::with_kernel(backend), None).expect("live");
            for (step, batch) in script.iter().enumerate() {
                session.edit_structure(batch, None).unwrap();
                let scalar = CycleTimeAnalysis::run_scalar(session.graph()).expect("stays live");
                assert_analyses_identical(
                    &scalar,
                    session.analysis(),
                    &format!("family {family} seed {seed} batch {step} [{}]", backend.name()),
                );
            }
        }
    }

    /// The scenario acceptance criterion: a sweep over a corner or
    /// sample set ≡ a scalar re-run per reweighted graph, on every
    /// generator family (the shared gate from `tsg_bench`, the same one
    /// the `corner_sweep` bench runs before timing anything).
    #[test]
    fn scenario_lanes_equal_scalar_across_families(
        family in 0usize..4,
        seed in 0u64..10_000,
        pick in 0u64..1_000,
    ) {
        let sg = graph(family, seed);
        let set = scenario_set(pick);
        assert_scenarios_match_scalar(&sg, &set, &format!("family {family} seed {seed} pick {pick}"));
    }

    /// Odd lane counts force the masked remainder paths of every
    /// backend: rings with b ∈ {1, 3, 5, 7} tokens give 1, 3, 5 or 7
    /// lanes per scenario — never a multiple of the vector width —
    /// swept over s ∈ {1, 3, 5} sampled scenarios. Each backend's sweep
    /// is pinned through its own arena and checked scenario by scenario
    /// against the scalar engine on the reweighted graph.
    #[test]
    fn odd_scenario_lane_products_on_every_backend(
        bi in 0usize..4,
        si in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let b = [1usize, 3, 5, 7][bi];
        let n = b + 1 + (seed % 40) as usize;
        let sg = ring(n, b, 1.5);
        let s = [1usize, 3, 5][si];
        let set = ScenarioSet::samples(s, seed, 10.0).expect("s >= 1");
        for backend in available_backends() {
            let mut arena = AnalysisArena::with_kernel(backend);
            let swept = CycleTimeAnalysis::run_scenarios_in(&sg, &set, &mut arena, None)
                .expect("rings stay live");
            for j in 0..set.len() {
                let scalar = CycleTimeAnalysis::run_scalar(&set.reweighted(&sg, j).unwrap())
                    .expect("reweighting keeps the ring live");
                assert_analyses_identical(
                    &scalar,
                    swept.analysis(j),
                    &format!("ring n={n} b={b} s={s} seed {seed} [{}] scenario {j}", backend.name()),
                );
            }
        }
    }
}

/// A deterministic soak per family: 32 edits on one session, wide vs
/// scalar verified at every step (catches drift that only accumulates
/// over many edits).
#[test]
fn long_wide_session_soak_per_family() {
    for family in 0..4usize {
        let mut session = AnalysisSession::open(graph(family, 11)).expect("live");
        for (step, (arc, delay)) in script(session.graph(), 11, 32).into_iter().enumerate() {
            session
                .edit_delays(&[DelayEdit { arc, delay }], None)
                .unwrap();
            let scalar = CycleTimeAnalysis::run_scalar(session.graph()).expect("live");
            assert_analyses_identical(
                &scalar,
                session.analysis(),
                &format!("family {family} step {step}"),
            );
        }
    }
}

/// A deterministic structural soak per family and backend: 16
/// interleaved split/nudge batches on one session, so the wide matrix
/// grows through repeated lane remaps and the accumulated state is
/// verified against the scalar engine at every step.
#[test]
fn long_structural_soak_per_family_on_every_backend() {
    for family in 0..4usize {
        for backend in available_backends() {
            let sg = graph(family, 11);
            let script = structural_edit_script(&sg, 16);
            let mut session =
                AnalysisSession::open_in(sg, AnalysisArena::with_kernel(backend), None)
                    .expect("live");
            for (step, batch) in script.iter().enumerate() {
                session.edit_structure(batch, None).unwrap();
                let scalar = CycleTimeAnalysis::run_scalar(session.graph()).expect("live");
                assert_analyses_identical(
                    &scalar,
                    session.analysis(),
                    &format!("family {family} step {step} [{}]", backend.name()),
                );
            }
        }
    }
}

/// The tracked bench workloads of the `wide-vs-scalar` scenario are
/// themselves property-checked here, so the bench binary's assertion
/// never fires first in CI.
#[test]
fn tracked_bench_workloads_are_bit_identical() {
    for (name, sg) in tsg_bench::wide_scenarios() {
        assert_wide_matches_scalar(&sg, &name);
    }
}

/// Cancellation bit-safety of the wide kernel (PR 7): a run aborted
/// mid-matrix reports its partial progress and leaves the arena fully
/// reusable — the next uncancelled run in the *same* arena overwrites
/// the partial matrix and produces the exact bits of a fresh analysis.
#[test]
fn cancelled_run_leaves_arena_bit_identical_on_rerun() {
    use tsg::core::analysis::wide::AnalysisArena;
    use tsg::core::analysis::AnalysisError;
    use tsg::sim::{CancelKind, CancelToken};
    for family in 0..4usize {
        let sg = graph(family, 11);
        let full = CycleTimeAnalysis::run(&sg).expect("live");
        let mut arena = AnalysisArena::new();
        let token = CancelToken::cancel_after_checks(1);
        match CycleTimeAnalysis::run_in_with_cancel(&sg, None, &mut arena, Some(&token)) {
            Err(AnalysisError::Cancelled {
                kind,
                rows_done,
                rows_total,
            }) => {
                assert_eq!(kind, CancelKind::Explicit);
                assert!(rows_done < rows_total, "family {family}: partial progress");
            }
            other => panic!("family {family}: expected cancellation, got {other:?}"),
        }
        let redo = CycleTimeAnalysis::run_in(&sg, None, &mut arena).expect("live");
        assert_analyses_identical(&full, &redo, &format!("family {family} post-abort arena"));
    }
}

/// Figure 2c of the paper with its prefix: the initial event `e-` and
/// the finite event `f-` sit outside the cyclic structure, so their
/// columns are never written by the recurrence and must read
/// `NEG_INFINITY` in every row slot.
fn figure2_with_prefix() -> SignalGraph {
    let mut b = SignalGraph::builder();
    let e = b.initial_event("e-");
    let f = b.finite_event("f-");
    let ap = b.event("a+");
    let bp = b.event("b+");
    let cp = b.event("c+");
    let am = b.event("a-");
    let bm = b.event("b-");
    let cm = b.event("c-");
    b.arc(e, f, 3.0);
    b.disengageable_arc(e, ap, 2.0);
    b.disengageable_arc(f, bp, 1.0);
    b.arc(ap, cp, 3.0);
    b.arc(bp, cp, 2.0);
    b.arc(cp, am, 2.0);
    b.arc(cp, bm, 1.0);
    b.arc(am, cm, 3.0);
    b.arc(bm, cm, 2.0);
    b.marked_arc(cm, ap, 2.0);
    b.marked_arc(cm, bp, 1.0);
    b.build().unwrap()
}

/// The graphs of the window-vs-matrix checks: every generator family,
/// plus graphs with prefix/finite events, in an order that makes one
/// reused arena shrink and grow again.
fn window_corpus() -> Vec<(String, SignalGraph)> {
    let mut out: Vec<(String, SignalGraph)> = Vec::new();
    for family in 0..4usize {
        for seed in [3u64, 11, 29] {
            out.push((format!("family {family} seed {seed}"), graph(family, seed)));
        }
    }
    out.push(("figure 2 with prefix".into(), figure2_with_prefix()));
    for seed in [1u64, 2, 5] {
        let config = RandomTsgConfig {
            with_prefix: true,
            ..RandomTsgConfig::default()
        };
        out.push((
            format!("random prefix seed {seed}"),
            random_live_tsg(seed, config),
        ));
    }
    // Big → small → big on the same arena.
    out.push(("ring 40/9".into(), ring(40, 9, 1.25)));
    out.push(("ring 3/1".into(), ring(3, 1, 2.0)));
    out.push(("torus 4x5".into(), torus(4, 5, 2.0, 3.0)));
    out
}

/// Records as raw bits: `(border event index, [(i, t bits, δ bits)])`
/// in border order.
type RecordBits = Vec<(usize, Vec<(u32, u64, u64)>)>;

/// Every record of `a` as raw bits.
fn record_bits(a: &CycleTimeAnalysis) -> RecordBits {
    a.records()
        .iter()
        .map(|r| {
            let bits = r
                .distances
                .iter()
                .map(|&(i, t, d)| (i, t.to_bits(), d.to_bits()))
                .collect();
            (r.event.index(), bits)
        })
        .collect()
}

/// One-shot analyses run in a two-row window; their records must equal
/// bit for bit those of the scalar engine, which keeps the full
/// `(periods + 1)`-row matrix — at the default `b` periods (also
/// against an `AnalysisSession` open) and at overridden periods. One
/// arena serves the whole corpus, so a stale slot or strip cell of an
/// earlier, larger shape would show.
#[test]
fn oneshot_window_records_equal_the_full_matrix() {
    use tsg::core::analysis::initiated::SimArena;
    for backend in available_backends() {
        let mut arena = AnalysisArena::with_kernel(backend);
        let mut scalar_arena = SimArena::new();
        for (name, sg) in window_corpus() {
            let ctx = format!("{name} [{}]", backend.name());
            let b = sg.border_events().len() as u32;
            let scalar = CycleTimeAnalysis::run_scalar(&sg).expect("live");
            let oneshot = CycleTimeAnalysis::run_in(&sg, None, &mut arena).expect("live");
            assert_analyses_identical(&scalar, &oneshot, &ctx);
            assert_eq!(record_bits(&oneshot), record_bits(&scalar), "{ctx}");
            let session =
                AnalysisSession::open_in(sg.clone(), AnalysisArena::with_kernel(backend), None)
                    .expect("live");
            assert_eq!(
                record_bits(&oneshot),
                record_bits(session.analysis()),
                "{ctx}: session"
            );
            for periods in [b + 1, b + 2, 2 * b + 3] {
                let pctx = format!("{ctx} periods={periods}");
                let oneshot =
                    CycleTimeAnalysis::run_in(&sg, Some(periods), &mut arena).expect("live");
                let scalar =
                    CycleTimeAnalysis::run_scalar_in(&sg, Some(periods), &mut scalar_arena)
                        .expect("live");
                assert_analyses_identical(&scalar, &oneshot, &pctx);
                assert_eq!(record_bits(&oneshot), record_bits(&scalar), "{pctx}");
            }
        }
    }
}

/// A one-shot analysis really runs in the window: on a fresh arena its
/// wide buffer holds at most two rows (`2 · n · w` cells at the lane
/// stride `w = b.next_multiple_of(4)`, rounded up to whole 64-byte
/// lines), so a return to the full `(b + 1)`-row matrix fails here, not
/// only in the served benchmark. A run cancelled at any row and re-run
/// on the same arena gives the bits of a fresh run.
#[test]
fn oneshot_run_keeps_a_two_row_window() {
    use tsg::core::analysis::AnalysisError;
    use tsg::sim::CancelToken;
    for (name, sg) in window_corpus() {
        let n = sg.event_count();
        let b = sg.border_events().len();
        let w = b.next_multiple_of(4);
        let mut arena = AnalysisArena::new();
        let fresh = CycleTimeAnalysis::run_in(&sg, None, &mut arena).expect("live");
        let window = (2 * n * w).next_multiple_of(8);
        assert!(
            arena.capacity().0 <= window,
            "{name}: {} wide cells for n={n}, b={b}: more than a two-row window ({window})",
            arena.capacity().0
        );
        if b >= 2 {
            // The full matrix would hold b + 1 >= 3 rows at the same
            // stride.
            assert!(arena.capacity().0 < (b + 1) * n * w, "{name}");
        }
        for budget in 0..=b as u64 {
            let token = CancelToken::cancel_after_checks(budget);
            match CycleTimeAnalysis::run_in_with_cancel(&sg, None, &mut arena, Some(&token)) {
                Err(AnalysisError::Cancelled { rows_done, .. }) => {
                    assert_eq!(rows_done, budget as usize, "{name}");
                }
                other => panic!("{name}: budget {budget}: expected cancellation, got {other:?}"),
            }
            let redo = CycleTimeAnalysis::run_in(&sg, None, &mut arena).expect("live");
            assert_analyses_identical(&fresh, &redo, &format!("{name} after cancel at {budget}"));
            assert_eq!(record_bits(&redo), record_bits(&fresh), "{name}");
        }
    }
}

/// The cell budget is counted before the arena allocates, so it must
/// cover what the arena then holds: on a fresh arena, on every backend,
/// the window never exceeds the window term of `analysis_cells` (the
/// total less the strip and the winner re-run).
#[test]
fn budget_window_term_covers_the_arena() {
    use tsg::core::analysis::cycle_time::analysis_cells;
    for backend in available_backends() {
        for (name, sg) in window_corpus() {
            let (n, b) = (sg.event_count(), sg.border_events().len());
            let mut arena = AnalysisArena::with_kernel(backend);
            CycleTimeAnalysis::run_in(&sg, None, &mut arena).expect("live");
            let rows = b + 1;
            let window_term = analysis_cells(n, b, b as u32).unwrap() - (b + n) * rows;
            assert!(
                arena.capacity().0 <= window_term,
                "{name} [{backend}]: {} wide cells, budget window {window_term}",
                arena.capacity().0
            );
        }
    }
}

/// A scenario sweep is one analysis per scenario, so it keeps one
/// analysis' window: after eight samples on a fresh arena, the arena
/// holds exactly what one nominal `run_in` leaves behind.
#[test]
fn scenario_sweep_keeps_one_analysis_window() {
    let sg = ring(12, 3, 1.5);
    let set = ScenarioSet::samples(8, 7, 10.0).expect("s >= 1");
    let mut swept = AnalysisArena::new();
    CycleTimeAnalysis::run_scenarios_in(&sg, &set, &mut swept, None).expect("live");
    let mut nominal = AnalysisArena::new();
    CycleTimeAnalysis::run_in(&sg, None, &mut nominal).expect("live");
    assert_eq!(swept.capacity(), nominal.capacity());
}
