//! Incremental analysis sessions: delta-driven re-analysis.
//!
//! The paper's headline workflow is bottleneck hunting — edit a gate
//! delay, re-measure the cycle time, repeat. Re-running the full
//! O(b²·m) algorithm per edit throws away almost all of the previous
//! work: a delay edit leaves the graph's *structure* (topology, marking,
//! border set) untouched, so of the `b` border-initiated simulations
//! only the rows an edit can actually influence need recomputing. An
//! [`AnalysisSession`] owns the graph plus all warm simulation state —
//! the shared [`CyclicStructure`], the cached [`BorderRecord`]s, and one
//! warm lane-major [`WideArena`] holding all `b` border matrices — and
//! answers [`edit_delays`](AnalysisSession::edit_delays) queries by
//! re-simulating only that dirty region.
//!
//! # The dirty-region criterion
//!
//! The simulation of border event `g` fills a `(b+1) × n` matrix of
//! longest-path lengths `t_{g0}(e_p)` over the unfolding restricted to
//! `b` periods; its record collects the diagonal `t_{g0}(g_i)`. Editing
//! the delay of arc `a = u → v` can only change a cell `(e, p)` if some
//! `g_0 → e_p` path passes through `a` — and any such path spends at
//! least
//!
//! ```text
//! r0(g, a)  =  ε(g → u) + marked(a)
//! ```
//!
//! periods before crossing `a`, where `ε(x → y)` is the minimum number
//! of marked arcs on any path from `x` to `y` in the cyclic structure
//! (a 0-1 BFS, O(m) per edited arc). Every row below `r0` is therefore
//! bit-exact for the edited graph. The session keeps all `b` matrices
//! warm in one lane-major [`WideArena`] and *resumes* the whole batch at
//! `min(r0)` over the dirty lanes — one shared lockstep pass recomputes
//! rows at or beyond that minimum from the cached row below, with the
//! identical recurrence. Lanes whose own `r0` lies deeper have their
//! intermediate rows recomputed to bit-identical values (the recurrence
//! is a pure function of the rows below and the dirtiness criterion
//! guarantees the edit cannot reach them there), so the per-lane `r0`
//! contract of the delta query is preserved while each recomputed row
//! streams the in-arc table once for all lanes. When no lane's `r0`
//! falls within the horizon the batch is not touched at all.
//!
//! The final winner-selection and critical-cycle backtracking re-run as
//! usual (one parent-tracked simulation), so the produced
//! [`CycleTimeAnalysis`] is **bit-identical** to a from-scratch run on
//! the edited graph — asserted across generator families and random
//! edit scripts in `tests/incremental.rs`. The price is memory: a
//! session holds `b` matrices of `(b+1) × n` floats, O(b²·n) cells,
//! instead of one.
//!
//! # Structural edits and the border-set remap contract
//!
//! [`edit_structure`](AnalysisSession::edit_structure) extends the
//! delta contract to *structural* mutations — add/remove arc and event
//! ([`GraphEdit`]). A batch is applied through [`SignalGraph`]'s
//! mutation API (tombstoning ids, so every cached `ArcId`/`EventId`
//! stays valid), re-validated as a whole, and rolled back untouched if
//! any rule breaks. For a committed batch the session rebuilds the
//! [`CyclicStructure`] in place on its warm scratch and then remaps the
//! lane axis of the wide arena by one rule:
//!
//! * **Border set unchanged and no new events** — every surviving
//!   border keeps its warm lane. The dirty row of each lane is the
//!   minimum over (a) pre-apply bounds `ε_old(g → src) + marked`
//!   computed on the *old* graph for removed and re-delayed arcs (any
//!   influenced cell owes its change to an old-graph path through the
//!   arc), and (b) post-apply bounds computed on the *new* graph for
//!   added arcs (any newly-created path crosses the new arc). All lanes
//!   resume in lockstep from the global minimum, exactly like a delay
//!   batch; rows below it are provably bit-identical.
//! * **Border set changed (or the event axis grew)** — the lane ↔
//!   border mapping is stale: dead lanes are retired, new borders get
//!   lanes, and one full warm pass reseeds the whole arena
//!   (allocation-reusing, same buffers). The delta then reports
//!   `rows == rows_total`.
//!
//! Either way the refreshed analysis is bit-identical to a from-scratch
//! run on the mutated graph. A cancelled structural resume (or reseed)
//! behaves like a cancelled delay resume: the graph mutation is
//! committed, the matrix remembers its first stale row, and the next
//! uncancelled call — even an empty batch — heals it.
//!
//! A batch of either kind whose re-analysis fails — its winning cycle
//! length, or a scenario's delays, overflow `f64` — is refused like an
//! invalid one: the pre-batch graph is restored and every lane is
//! reseeded from it, bit-identical to the state before the batch.
//!
use std::collections::VecDeque;
use std::fmt;

use tsg_sim::{CancelKind, CancelToken};

use crate::analysis::cycle_time::{
    finish_scenarios, halt_to_error, lane_records, AnalysisError, BorderRecord, CycleTimeAnalysis,
};
use crate::analysis::initiated::SimArena;
use crate::analysis::scenario::{ScenarioAnalysis, ScenarioSet};
use crate::analysis::structure::CyclicStructure;
use crate::analysis::wide::{AnalysisArena, Cancelled, Halt, KernelBackend, Rows, WideArena};
use crate::analysis::CycleTime;
use crate::arc::ArcId;
use crate::event::EventId;
use crate::graph::SignalGraph;
use crate::time::Delay;

/// Sentinel for "not reachable" in the period-distance buffers.
const UNREACHED: u32 = u32::MAX;

/// Sentinel for "arc not in the cyclic structure" in the arc→entry map.
const NO_ENTRY: u32 = u32::MAX;

/// One delay edit: assign `delay` to `arc`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelayEdit {
    /// The arc whose delay changes.
    pub arc: ArcId,
    /// The new delay (must be finite and non-negative).
    pub delay: f64,
}

/// One edit of an [`AnalysisSession::edit_structure`] batch: a delay
/// assignment or a structural mutation of the graph itself.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphEdit {
    /// Assign `delay` to `arc` — the [`DelayEdit`] fast path; an
    /// all-delay batch delegates to
    /// [`edit_delays`](AnalysisSession::edit_delays) unchanged.
    Delay {
        /// The arc whose delay changes.
        arc: ArcId,
        /// The new delay (must be finite and non-negative).
        delay: f64,
    },
    /// Add an arc `src → dst`, optionally carrying an initial token
    /// (see [`SignalGraph::add_arc`]).
    AddArc {
        /// Source event.
        src: EventId,
        /// Destination event.
        dst: EventId,
        /// The arc's delay.
        delay: f64,
        /// Whether the arc carries an initial token.
        marked: bool,
    },
    /// Remove (tombstone) an arc; its id slot stays valid.
    RemoveArc {
        /// The arc to remove.
        arc: ArcId,
    },
    /// Add a repetitive event with the given label; its id is the
    /// graph's `event_count()` at the point the edit applies.
    AddEvent {
        /// The new event's label (parsed leniently, like the builder).
        label: String,
    },
    /// Remove an event; it must have no remaining live arcs.
    RemoveEvent {
        /// The event to remove.
        event: EventId,
    },
}

/// What one delta query changed, and how much work it saved.
#[derive(Clone, Copy, Debug)]
pub struct CycleTimeDelta {
    /// Cycle time before the edit batch.
    pub before: CycleTime,
    /// Cycle time after the edit batch.
    pub after: CycleTime,
    /// Border simulations that had to resume (their dirty region starts
    /// within the simulated horizon).
    pub dirty: usize,
    /// Total border simulations a from-scratch run would perform.
    pub borders: usize,
    /// Matrix rows inside the per-border dirty regions — the rows whose
    /// values the edit batch could influence, summed over the dirty
    /// lanes. (The wide kernel recomputes whole lane-major rows from the
    /// earliest dirty row in one shared pass; rows below each lane's own
    /// `r0` come back bit-identical, so this counts the query's logical
    /// dirtiness, the same metric the scalar engine reported.)
    pub rows: usize,
    /// Rows a from-scratch run would compute: `borders × (b + 1)`.
    pub rows_total: usize,
}

/// Error of [`AnalysisSession::edit_delays`] and
/// [`AnalysisSession::edit_structure`]; the session state is unchanged
/// when one is returned, except after [`EditError::Cancelled`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum EditError {
    /// The arc id is not an arc of the session's graph.
    UnknownArc(ArcId),
    /// The new delay is negative, infinite or NaN.
    InvalidDelay {
        /// The arc the edit addressed.
        arc: ArcId,
        /// The offending delay.
        delay: f64,
    },
    /// A label-addressed edit named an event the graph does not have.
    NoSuchEvent(String),
    /// A label-addressed edit named an event pair with no connecting arc.
    NoArcBetween(String, String),
    /// A structural edit broke a per-operation or batch-level graph
    /// rule; the whole batch is rolled back and the session unchanged.
    Invalid(crate::validate::ValidationError),
    /// The batch leaves a graph with no border events (no cyclic
    /// behavior to analyse); rolled back, session unchanged.
    NoCyclicBehavior,
    /// The batch's re-analysis was cancelled mid-flight. Unlike the
    /// other errors, the edits *are* applied to the graph; the cached
    /// analysis is stale until the next uncancelled
    /// [`edit_delays`](AnalysisSession::edit_delays) call (even with an
    /// empty batch) heals the matrix bit-identically.
    Cancelled {
        /// Why the run stopped.
        kind: CancelKind,
        /// Matrix rows that were complete when the run stopped.
        rows_done: usize,
        /// Rows a full resume pass computes.
        rows_total: usize,
    },
    /// The edited graph cannot be analysed: its winning cycle length
    /// overflows, or an enabled scenario scales a delay (or a cycle)
    /// past `f64::MAX`. The batch is refused and the session unchanged.
    Analysis(AnalysisError),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownArc(a) => write!(f, "unknown arc {a}"),
            EditError::InvalidDelay { arc, delay } => {
                write!(
                    f,
                    "invalid delay {delay} for {arc}: must be finite and >= 0"
                )
            }
            EditError::NoSuchEvent(l) => write!(f, "no event labelled {l:?}"),
            EditError::NoArcBetween(s, d) => write!(f, "no arc from {s:?} to {d:?}"),
            EditError::Invalid(v) => write!(f, "invalid structural edit: {v}"),
            EditError::NoCyclicBehavior => {
                write!(f, "edit batch leaves no cyclic behavior to analyse")
            }
            EditError::Cancelled {
                kind,
                rows_done,
                rows_total,
            } => {
                write!(
                    f,
                    "{kind} after {rows_done} of {rows_total} simulation row(s)"
                )
            }
            EditError::Analysis(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for EditError {}

impl From<crate::validate::ValidationError> for EditError {
    fn from(v: crate::validate::ValidationError) -> Self {
        EditError::Invalid(v)
    }
}

impl From<Cancelled> for EditError {
    fn from(c: Cancelled) -> Self {
        EditError::Cancelled {
            kind: c.kind,
            rows_done: c.rows_done,
            rows_total: c.rows_total,
        }
    }
}

/// An open incremental-analysis session; see the [module docs](self).
///
/// # Examples
///
/// ```
/// use tsg_core::SignalGraph;
/// use tsg_core::analysis::session::{AnalysisSession, DelayEdit};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SignalGraph::builder();
/// let xp = b.event("x+");
/// let xm = b.event("x-");
/// let up = b.arc(xp, xm, 3.0);
/// b.marked_arc(xm, xp, 2.0);
/// let sg = b.build()?;
///
/// let mut session = AnalysisSession::open(sg)?;
/// assert_eq!(session.analysis().cycle_time().as_f64(), 5.0);
/// let delta = session.edit_delays(&[DelayEdit { arc: up, delay: 7.0 }], None)?;
/// assert_eq!(delta.after.as_f64(), 9.0);
/// assert_eq!(session.analysis().cycle_time().as_f64(), 9.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct AnalysisSession {
    sg: SignalGraph,
    structure: CyclicStructure,
    /// `ArcId` → slot in `structure.entries` (`NO_ENTRY` when the arc is
    /// outside the cyclic structure and no record can depend on it).
    entry_of_arc: Vec<u32>,
    border: Vec<EventId>,
    /// Periods each border simulation runs (`border.len()`).
    b: u32,
    /// The cached per-border distance tables, master copies.
    records: Vec<BorderRecord>,
    /// All `b` warm border matrices in one lane-major wide arena — the
    /// state the dirty-region restarts resume into (O(b²·n) cells).
    wide: WideArena,
    /// The arena `finish` re-runs the winner in (with parent tracking).
    finish_arena: SimArena,
    analysis: CycleTimeAnalysis,
    edits: u64,
    /// First matrix row a cancelled resume left stale (`None` when the
    /// session is healed). The next resume starts at or below this row
    /// and refreshes every record, restoring bit-identity to scratch.
    dirty_from: Option<usize>,
    /// Scratch: per-border restart row of the current edit batch
    /// (`UNREACHED` = untouched).
    restart: Vec<u32>,
    /// Scratch: `ε(e → u)` of the backward 0-1 BFS.
    dist_back: Vec<u32>,
    /// Scratch: the BFS deque.
    deque: VecDeque<EventId>,
    /// Warm corner/sample-lane state, when
    /// [`enable_scenarios`](Self::enable_scenarios) turned it on.
    scenarios: Option<ScenarioState>,
}

/// The session's warm scenario-lane state: one `b × s` wide arena whose
/// lanes mirror the nominal matrices under each scenario's scaled
/// delays (`nominal × factor`, the products
/// [`ScenarioSet::reweighted`] stores), kept in lockstep with the
/// nominal arena by the same dirty-row resumes. The two staleness flags
/// let a cancelled pass heal later: `stale_weights` marks the set / δ
/// table out of sync with the session graph (structural batch
/// committed but not yet resynced), `needs_reseed` marks the whole lane
/// matrix stale (border set or event axis changed).
#[derive(Clone, Debug)]
struct ScenarioState {
    set: ScenarioSet,
    /// All `b × s` scenario matrices, lane `j·b + k`.
    wide: WideArena,
    /// Arena the per-scenario winner re-runs use.
    finish: SimArena,
    /// Scratch structure rebuilt per reweighted graph for the re-runs.
    structure: CyclicStructure,
    analysis: ScenarioAnalysis,
    /// First scenario-matrix row a cancelled pass left stale.
    dirty_from: Option<usize>,
    stale_weights: bool,
    needs_reseed: bool,
}

impl AnalysisSession {
    /// Opens a session: one full analysis, with every intermediate the
    /// delta queries need kept warm.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoCyclicBehavior`] when `sg` has no
    /// repetitive events.
    pub fn open(sg: SignalGraph) -> Result<Self, AnalysisError> {
        Self::open_with_cancel(sg, KernelBackend::Auto, None)
    }

    /// [`open`](Self::open) on an explicitly chosen [`KernelBackend`],
    /// under a cancellation token. The session's warm wide arena — and
    /// hence every dirty-region resume — runs on `kernel` for the
    /// session's whole lifetime; `kernel` is resolved leniently (see
    /// [`WideArena::with_kernel`]), so validate with
    /// [`KernelBackend::resolve`] first where an unavailable request
    /// must be a structured error. The opening analysis is the one
    /// analysis core of [`CycleTimeAnalysis::run_in`], keeping every
    /// matrix row; it polls `cancel` once per row and no session is
    /// created when it fires.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoCyclicBehavior`] when `sg` has no
    /// repetitive events, or [`AnalysisError::Cancelled`] when `cancel`
    /// fires mid-analysis.
    pub fn open_with_cancel(
        sg: SignalGraph,
        kernel: KernelBackend,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, AnalysisError> {
        let mut arena = AnalysisArena::with_kernel(kernel);
        let analysis = CycleTimeAnalysis::run_rows(&sg, None, &mut arena, Rows::All, cancel)?;
        let AnalysisArena {
            mut wides,
            finish,
            structure,
        } = arena;
        let border = analysis.border_events().to_vec();
        let mut session = AnalysisSession {
            entry_of_arc: Vec::new(),
            restart: vec![UNREACHED; border.len()],
            b: border.len() as u32,
            records: analysis.records().to_vec(),
            border,
            wide: wides.swap_remove(0),
            finish_arena: finish,
            structure,
            analysis,
            edits: 0,
            dirty_from: None,
            dist_back: vec![UNREACHED; sg.event_count()],
            deque: VecDeque::new(),
            scenarios: None,
            sg,
        };
        session.map_entries();
        Ok(session)
    }

    /// The session's graph, with all applied edits.
    pub fn graph(&self) -> &SignalGraph {
        &self.sg
    }

    /// The current analysis — always bit-identical to
    /// [`CycleTimeAnalysis::run`] on [`graph`](Self::graph).
    pub fn analysis(&self) -> &CycleTimeAnalysis {
        &self.analysis
    }

    /// Number of edit batches applied so far.
    pub fn edits_applied(&self) -> u64 {
        self.edits
    }

    /// Whether a cancelled resume left the cached analysis (nominal or
    /// scenario) stale; the next uncancelled
    /// [`edit_delays`](Self::edit_delays) call (even with an empty
    /// batch) heals it.
    pub fn is_stale(&self) -> bool {
        self.dirty_from.is_some()
            || self
                .scenarios
                .as_ref()
                .is_some_and(|s| s.dirty_from.is_some() || s.stale_weights || s.needs_reseed)
    }

    /// The resolved kernel backend the session's warm wide arena (and
    /// every dirty-region resume) runs on.
    pub fn kernel(&self) -> KernelBackend {
        self.wide.kernel()
    }

    /// Resolves a label-addressed edit (`src -> dst`) to the first arc
    /// between the named events.
    ///
    /// # Errors
    ///
    /// Returns [`EditError::NoSuchEvent`] / [`EditError::NoArcBetween`]
    /// with the offending labels.
    pub fn resolve_arc(&self, src: &str, dst: &str) -> Result<ArcId, EditError> {
        let s = self
            .sg
            .event_by_label(src)
            .ok_or_else(|| EditError::NoSuchEvent(src.to_owned()))?;
        let d = self
            .sg
            .event_by_label(dst)
            .ok_or_else(|| EditError::NoSuchEvent(dst.to_owned()))?;
        self.sg
            .arc_between(s, d)
            .ok_or_else(|| EditError::NoArcBetween(src.to_owned(), dst.to_owned()))
    }

    /// Applies a batch of delay edits and re-analyses only the dirty
    /// region: each border simulation resumes at the first row the batch
    /// can influence (the module-level `r0` criterion), reusing every
    /// cached row below it; simulations whose `r0` lies beyond the
    /// horizon are not touched at all. The resume polls `cancel` once
    /// per recomputed matrix row.
    ///
    /// The updated [`analysis`](Self::analysis) is bit-identical to a
    /// from-scratch [`CycleTimeAnalysis::run`] on the edited graph; the
    /// returned [`CycleTimeDelta`] reports how many simulations resumed
    /// and how many matrix rows were actually recomputed.
    ///
    /// On cancellation the edits **are** applied to the graph but the
    /// cached [`analysis`](Self::analysis) is stale: the session
    /// remembers which rows were left unhealed and the next uncancelled
    /// call — any edit batch, even an empty one — recomputes them
    /// together with its own dirty region, restoring the
    /// bit-identical-to-scratch invariant. Rows already recomputed
    /// before the abort are final (the recurrence is a pure function of
    /// the rows below), so a healing pass resumes where the cancelled
    /// one stopped rather than starting over.
    ///
    /// # Errors
    ///
    /// Returns [`EditError`] — and leaves the session untouched — when
    /// any edit names an unknown arc or an invalid delay, when an
    /// enabled scenario scales an edited delay past `f64::MAX`, or when
    /// the edited graph's winning cycle length overflows
    /// ([`EditError::Analysis`]; the batch is rolled back). Returns
    /// [`EditError::Cancelled`] when `cancel` fires mid-resume (edits
    /// applied, analysis stale until healed).
    pub fn edit_delays(
        &mut self,
        edits: &[DelayEdit],
        cancel: Option<&CancelToken>,
    ) -> Result<CycleTimeDelta, EditError> {
        // Validate the whole batch before mutating anything.
        for e in edits {
            if !self.sg.is_live_arc(e.arc) {
                return Err(EditError::UnknownArc(e.arc));
            }
            if Delay::new(e.delay).is_err() {
                return Err(EditError::InvalidDelay {
                    arc: e.arc,
                    delay: e.delay,
                });
            }
            // The scaled edits below must stay finite too (a stale
            // scenario state resyncs, and reports, in `refresh_scenarios`).
            let warm = self
                .scenarios
                .as_ref()
                .filter(|s| !s.stale_weights && !s.needs_reseed);
            if let Some(set) = warm.map(|s| &s.set) {
                let overflows = |j| !(e.delay * set.factor(j, e.arc)).is_finite();
                if let Some(j) = (0..set.len()).find(|&j| overflows(j)) {
                    return Err(EditError::Analysis(set.overflow_error(&self.sg, j, e.arc)));
                }
            }
        }

        let before = self.analysis.cycle_time();
        // The pre-batch delays, to roll a refused batch back.
        let undo: Vec<DelayEdit> = edits
            .iter()
            .map(|e| DelayEdit {
                arc: e.arc,
                delay: self.sg.arc(e.arc).delay().get(),
            })
            .collect();
        self.restart.fill(UNREACHED);
        for e in edits {
            if self.sg.arc(e.arc).delay().get().to_bits() == e.delay.to_bits() {
                continue; // no-op edit: influences nothing
            }
            self.sg
                .set_delay(e.arc, e.delay)
                .expect("delay validated above");
            let slot = self.entry_of_arc[e.arc.index()];
            if slot != NO_ENTRY {
                self.structure.entries[slot as usize].delay = e.delay;
                self.lower_restart_rows(e.arc);
            }
            // Arcs outside the cyclic structure (prefix/disengageable)
            // never feed a border simulation: delay applied, zero dirty.

            // Keep the scenario lanes' δ table in lockstep: it folds the
            // scaled edit in place, so the scenario matrices resume from
            // the same min dirty row as the nominal one. (A stale
            // scenario state resyncs wholesale in `refresh_scenarios`.)
            if let Some(scen) = self.scenarios.as_mut() {
                if !scen.stale_weights && !scen.needs_reseed && slot != NO_ENTRY {
                    for j in 0..scen.set.len() {
                        let scaled = e.delay * scen.set.factor(j, e.arc);
                        scen.wide.set_scenario_delay(slot as usize, j, scaled);
                    }
                }
            }
        }

        let dirty = self.resume_dirty_rows(cancel)?;
        self.conclude(before, dirty, cancel, |sg| {
            for u in undo.iter().rev() {
                sg.set_delay(u.arc, u.delay)
                    .expect("pre-batch delays are valid");
            }
        })
    }

    /// Applies a batch of structural and delay edits ([`GraphEdit`]) and
    /// re-analyses incrementally, per the module-level border-set remap
    /// contract: when the batch leaves the border set (and the event
    /// axis) unchanged, every warm lane resumes from the min dirty row
    /// like a delay batch; otherwise the lane mapping is rebuilt and one
    /// full warm pass reseeds the arena. Either way the refreshed
    /// [`analysis`](Self::analysis) is bit-identical to a from-scratch
    /// [`CycleTimeAnalysis::run`] on the mutated graph.
    ///
    /// An all-[`Delay`](GraphEdit::Delay) batch takes the
    /// [`edit_delays`](Self::edit_delays) fast path unchanged.
    ///
    /// `cancel` is polled once per recomputed matrix row. Like a
    /// cancelled delay batch, a cancelled structural batch **is**
    /// committed to the graph — including a border-set change, whose
    /// new lane mapping is installed before the reseed starts — and the
    /// stale matrix heals on the next uncancelled call.
    ///
    /// # Errors
    ///
    /// Returns [`EditError`] — rolling the graph back so the session is
    /// untouched — when any edit breaks a per-operation rule
    /// ([`EditError::Invalid`], [`EditError::UnknownArc`],
    /// [`EditError::InvalidDelay`]), when the mutated graph fails
    /// whole-graph validation, when it has no border events left
    /// ([`EditError::NoCyclicBehavior`]), or when its re-analysis fails
    /// ([`EditError::Analysis`]: an overflowing cycle length, or an
    /// enabled scenario scaling a delay past `f64::MAX`). Returns
    /// [`EditError::Cancelled`] when `cancel` fires (batch applied,
    /// analysis stale until healed).
    pub fn edit_structure(
        &mut self,
        edits: &[GraphEdit],
        cancel: Option<&CancelToken>,
    ) -> Result<CycleTimeDelta, EditError> {
        if edits.iter().all(|e| matches!(e, GraphEdit::Delay { .. })) {
            let delays: Vec<DelayEdit> = edits
                .iter()
                .map(|e| match *e {
                    GraphEdit::Delay { arc, delay } => DelayEdit { arc, delay },
                    _ => unreachable!("all-delay batch"),
                })
                .collect();
            return self.edit_delays(&delays, cancel);
        }

        let before = self.analysis.cycle_time();
        let old_event_count = self.sg.event_count();
        self.restart.fill(UNREACHED);

        // Pre-apply pass on the OLD graph: a cell influenced by a
        // removal or re-delay owes its change to an old-graph path
        // through the arc, so the old-graph token distance bounds it.
        for e in edits {
            let arc = match *e {
                GraphEdit::Delay { arc, .. } | GraphEdit::RemoveArc { arc } => arc,
                _ => continue,
            };
            if self.sg.is_live_arc(arc) && self.entry_of_arc[arc.index()] != NO_ENTRY {
                self.lower_restart_rows(arc);
            }
        }

        // Apply the batch on a transactional copy of the graph; any
        // rejected edit (or failed whole-graph validation) drops the
        // copy and leaves the session untouched.
        let backup = self.sg.clone();
        let (added, new_border) = match apply_graph_edits(&mut self.sg, edits) {
            Ok(applied) => applied,
            Err(e) => {
                self.sg = backup;
                return Err(e);
            }
        };

        // Committed. Rebuild the flattened structure in place on the
        // warm scratch, then refresh the arc→entry map for it.
        self.structure.rebuild(&self.sg);
        self.map_entries();

        // The batch re-flattened the in-arc table and may have changed
        // the arc set, so the scenario set and δ table are stale until
        // `refresh_scenarios` resyncs them. Flagged before the
        // cancellable resume so an abort heals later.
        if let Some(scen) = self.scenarios.as_mut() {
            scen.stale_weights = true;
        }

        let dirty = if new_border == self.border && self.sg.event_count() == old_event_count {
            // Surviving borders keep their warm lanes. Post-apply pass
            // on the NEW graph: any newly-created path crosses an added
            // arc, so the new-graph token distances bound the additions.
            for &a in &added {
                if self.entry_of_arc[a.index()] != NO_ENTRY {
                    self.lower_restart_rows(a);
                }
            }
            self.resume_dirty_rows(cancel)?
        } else {
            // Border set changed or the event axis grew: retire dead
            // lanes, seed lanes for the new borders, reseed in full.
            self.reseed(new_border, cancel)?
        };
        self.conclude(before, dirty, cancel, |sg| *sg = backup)
    }

    /// The shared tail of an edit batch whose rows are recomputed:
    /// refreshes the analysis and the scenario lanes, and counts the
    /// batch. A batch whose re-analysis fails — anything but a cancel
    /// — is refused: `restore` puts the pre-batch graph back and the
    /// session rolls back to it.
    fn conclude(
        &mut self,
        before: CycleTime,
        (dirty, rows): (usize, usize),
        cancel: Option<&CancelToken>,
        restore: impl FnOnce(&mut SignalGraph),
    ) -> Result<CycleTimeDelta, EditError> {
        if let Err(e) = self.refresh(cancel) {
            if !matches!(e, EditError::Cancelled { .. }) {
                restore(&mut self.sg);
                self.roll_back();
            }
            return Err(e);
        }
        self.edits += 1;
        Ok(CycleTimeDelta {
            before,
            after: self.analysis.cycle_time(),
            dirty,
            borders: self.border.len(),
            rows,
            rows_total: self.border.len() * (self.b as usize + 1),
        })
    }

    /// Refreshes the `ArcId` → in-arc slot map for the current
    /// structure.
    fn map_entries(&mut self) {
        self.entry_of_arc.clear();
        self.entry_of_arc.resize(self.sg.arc_count(), NO_ENTRY);
        for (slot, entry) in self.structure.entries.iter().enumerate() {
            self.entry_of_arc[entry.arc.index()] = slot as u32;
        }
    }

    /// Installs `border` as the lane axis — dead lanes retired, new
    /// borders given lanes — and reseeds every lane in one full warm
    /// pass. The lane metadata (and the scenario lanes' reseed flag) is
    /// installed BEFORE the cancellable run, so a cancelled reseed heals
    /// through the standard stale path. Returns `(dirty_lanes,
    /// dirty_rows)`: every lane, every row.
    fn reseed(
        &mut self,
        border: Vec<EventId>,
        cancel: Option<&CancelToken>,
    ) -> Result<(usize, usize), EditError> {
        self.border = border;
        self.b = self.border.len() as u32;
        self.restart.clear();
        self.restart.resize(self.border.len(), UNREACHED);
        self.records.truncate(self.border.len());
        for (k, &g) in self.border.iter().enumerate() {
            match self.records.get_mut(k) {
                Some(r) => r.event = g,
                None => self.records.push(BorderRecord {
                    event: g,
                    distances: Vec::new(),
                }),
            }
        }
        if let Some(scen) = self.scenarios.as_mut() {
            scen.needs_reseed = true;
        }
        let sweep = self.wide.run_with(
            &self.sg,
            &self.structure,
            &self.border,
            self.b,
            Rows::All,
            cancel,
        );
        note_pass(sweep, &mut self.dirty_from)?;
        for k in 0..self.border.len() {
            self.wide
                .distance_series_into(k, &mut self.records[k].distances);
        }
        let p_total = self.b as usize + 1;
        Ok((self.border.len(), self.border.len() * p_total))
    }

    /// Re-derives every warm state from the session graph, as
    /// [`open`](Self::open) would — how a batch refused after it was
    /// applied is undone, once the caller restored the pre-batch graph.
    /// The restored state is bit-identical to the pre-batch one. Only a
    /// pre-batch state that was itself stale (a cancelled batch never
    /// healed) can fail to re-analyse; it then stays stale.
    fn roll_back(&mut self) {
        self.structure.rebuild(&self.sg);
        self.map_entries();
        if let Some(scen) = self.scenarios.as_mut() {
            scen.stale_weights = true;
        }
        let border = self.sg.border_events();
        let restored = self.reseed(border, None).and_then(|_| self.refresh(None));
        if restored.is_err() {
            self.dirty_from = Some(0);
        }
    }

    /// Resumes every lane whose dirty row (this batch's `restart`,
    /// folded with a cancelled earlier pass's stale watermark) falls
    /// within the horizon, in one lockstep pass from the global minimum,
    /// then refreshes the dirty lanes' records. Returns
    /// `(dirty_lanes, dirty_rows)`.
    fn resume_dirty_rows(
        &mut self,
        cancel: Option<&CancelToken>,
    ) -> Result<(usize, usize), EditError> {
        let p_total = self.b as usize + 1;
        // Rows a cancelled earlier pass left stale dirty *every* lane
        // from that row on — fold them into this batch's per-lane r0.
        let stale = self.dirty_from.unwrap_or(p_total);
        let (mut dirty_count, mut rows) = (0usize, 0usize);
        let mut min_r0 = p_total;
        for k in 0..self.border.len() {
            let r0 = (self.restart[k] as usize).min(stale);
            if r0 >= p_total {
                continue; // influence starts beyond the horizon: clean
            }
            min_r0 = min_r0.min(r0);
            dirty_count += 1;
            rows += p_total - r0;
        }
        if dirty_count > 0 {
            // The scenario lanes share the dirty bound (the `r0`
            // criterion is a property of the structure, not the
            // delays): record it up front so a cancelled nominal
            // resume still heals the scenario matrices later.
            if let Some(scen) = self.scenarios.as_mut() {
                scen.dirty_from = Some(scen.dirty_from.map_or(min_r0, |d| d.min(min_r0)));
            }
            // One lockstep pass resumes every lane from the earliest
            // dirty row; clean lanes' recomputed rows are bit-identical
            // to their cached values (module docs), so only the dirty
            // lanes' records can have changed.
            if let Err(c) = self.wide.rerun_rows_from(&self.structure, min_r0, cancel) {
                // Rows below `rows_done` were already recomputed for the
                // edited structure and are final; everything from there
                // on stays stale until a later pass heals it.
                self.dirty_from = Some(c.rows_done);
                return Err(c.into());
            }
            self.dirty_from = None;
            for k in 0..self.border.len() {
                if (self.restart[k] as usize).min(stale) < p_total {
                    // Refill the record in place: the per-lane buffer
                    // outlives the edit loop, so steady-state edits stay
                    // allocation-free.
                    self.wide
                        .distance_series_into(k, &mut self.records[k].distances);
                }
            }
        }
        Ok((dirty_count, rows))
    }

    /// Re-runs winner selection and critical-cycle backtracking from the
    /// cached records, then brings the scenario lanes up to date.
    fn refresh(&mut self, cancel: Option<&CancelToken>) -> Result<(), EditError> {
        self.analysis = CycleTimeAnalysis::finish(
            &self.sg,
            &self.structure,
            self.border.clone(),
            self.records.clone(),
            self.b,
            &mut self.finish_arena,
        )
        .map_err(EditError::Analysis)?;
        self.refresh_scenarios(cancel)
    }

    /// Turns on corner/sample-lane analysis: one `b × s` wide pass over
    /// the session's graph computes every (border, scenario) matrix, and
    /// from then on every edit batch keeps the scenario lanes warm —
    /// delay edits fold the scaled delays into the δ table and resume
    /// all scenario lanes from the same min dirty row as the nominal
    /// matrix; structural edits resync the δ table (reseeding only when
    /// the border set or event axis changed). The produced
    /// [`ScenarioAnalysis`] is bit-identical to
    /// [`CycleTimeAnalysis::run_scenarios_in`] on [`graph`](Self::graph)
    /// with the same set: both finish through one per-scenario step.
    /// `cancel` is polled once per scenario-matrix row.
    ///
    /// Calling it again replaces the scenario set; `set` is re-derived
    /// over the session graph's arc-slot count, so a set built for a
    /// different graph generation is fine.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Cancelled`] when `cancel` fires
    /// mid-sweep, [`AnalysisError::ScenarioDelay`] when a scenario
    /// scales a delay past the largest finite `f64`, or
    /// [`AnalysisError::NonFiniteCycleLength`] when a scenario's cycle
    /// length overflows; no scenario state is installed then.
    pub fn enable_scenarios(
        &mut self,
        set: &ScenarioSet,
        cancel: Option<&CancelToken>,
    ) -> Result<&ScenarioAnalysis, AnalysisError> {
        let set = set.resized(self.sg.arc_count());
        let mut wide = WideArena::with_kernel(self.wide.kernel());
        let sg = &self.sg;
        wide.run_scenarios_with(
            sg,
            &self.structure,
            &self.border,
            set.len(),
            |arc, j| sg.arc(arc).delay().get() * set.factor(j, arc),
            self.b,
            Rows::All,
            cancel,
        )
        .map_err(halt_to_error)?;
        let mut structure = CyclicStructure::default();
        let mut finish = SimArena::new();
        let analysis = finish_scenarios(
            sg,
            &set,
            &self.border,
            self.b,
            scenario_records(&wide, &self.border, set.len()),
            &mut structure,
            &mut finish,
        )?;
        let scen = self.scenarios.insert(ScenarioState {
            set,
            wide,
            finish,
            structure,
            analysis,
            dirty_from: None,
            stale_weights: false,
            needs_reseed: false,
        });
        Ok(&scen.analysis)
    }

    /// Drops the warm scenario state; edits go back to nominal-only.
    pub fn disable_scenarios(&mut self) {
        self.scenarios = None;
    }

    /// The current scenario analysis, when scenarios are enabled —
    /// always bit-identical to
    /// [`CycleTimeAnalysis::run_scenarios_in`] on
    /// [`graph`](Self::graph) with the current set.
    pub fn scenario_analysis(&self) -> Option<&ScenarioAnalysis> {
        self.scenarios.as_ref().map(|s| &s.analysis)
    }

    /// The enabled scenario set (re-derived over the current arc-slot
    /// count), if any.
    pub fn scenario_set(&self) -> Option<&ScenarioSet> {
        self.scenarios.as_ref().map(|s| &s.set)
    }

    /// Number of enabled scenario lanes per border (0 when disabled).
    pub fn scenario_count(&self) -> usize {
        self.scenarios.as_ref().map_or(0, |s| s.set.len())
    }

    /// Brings the scenario state back in sync with the session graph
    /// after an edit batch (or heals a cancelled earlier pass): resyncs
    /// a stale set and δ table, reseeds or resumes the lane matrices
    /// from the recorded dirty row, and re-runs every scenario's winner
    /// selection. No-op when scenarios are disabled. A failed finish
    /// leaves the lanes marked stale from row 0.
    fn refresh_scenarios(&mut self, cancel: Option<&CancelToken>) -> Result<(), EditError> {
        let p_total = self.b as usize + 1;
        let Some(scen) = self.scenarios.as_mut() else {
            return Ok(());
        };
        let sg = &self.sg;
        if scen.stale_weights {
            scen.set = scen.set.resized(sg.arc_count());
            if !scen.needs_reseed {
                // Slots remapped but the lane axis survived: re-derive
                // the δ table in place, the matrices resume below.
                let set = &scen.set;
                scen.wide
                    .rebuild_scenario_deltas(&self.structure, |arc, j| {
                        sg.arc(arc).delay().get() * set.factor(j, arc)
                    });
            }
            scen.stale_weights = false;
        }
        if scen.needs_reseed {
            scen.needs_reseed = false;
            // Shape and δ table are installed before the rows compute,
            // so a cancelled reseed heals through the standard resume.
            let set = &scen.set;
            let sweep = scen.wide.run_scenarios_with(
                sg,
                &self.structure,
                &self.border,
                set.len(),
                |arc, j| sg.arc(arc).delay().get() * set.factor(j, arc),
                self.b,
                Rows::All,
                cancel,
            );
            note_pass(sweep, &mut scen.dirty_from)?;
        } else if let Some(r0) = scen.dirty_from {
            if r0 < p_total {
                if let Err(c) = scen.wide.rerun_rows_from(&self.structure, r0, cancel) {
                    scen.dirty_from = Some(c.rows_done);
                    return Err(c.into());
                }
            }
            scen.dirty_from = None;
        }
        // Winner selection re-runs every batch, mirroring the nominal
        // finish.
        let records = scenario_records(&scen.wide, &self.border, scen.set.len());
        match finish_scenarios(
            sg,
            &scen.set,
            &self.border,
            self.b,
            records,
            &mut scen.structure,
            &mut scen.finish,
        ) {
            Ok(analysis) => scen.analysis = analysis,
            Err(e) => {
                scen.dirty_from = Some(0);
                return Err(EditError::Analysis(e));
            }
        }
        Ok(())
    }

    /// Captures the full warm state — graph, structure, records, wide
    /// arena — for a later [`restore`](Self::restore). Speculative
    /// explorers snapshot once, try an edit batch, and roll back the
    /// losers; a rollback restores warm-lane state too, so the next
    /// speculation resumes incrementally instead of reopening.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            state: Box::new(self.clone()),
        }
    }

    /// Restores the session to `snapshot`, consuming it (no clone).
    pub fn restore(&mut self, snapshot: SessionSnapshot) {
        *self = *snapshot.state;
    }

    /// Lowers each border's restart row to `ε(g → src(a)) + marked(a)`,
    /// the first row of `g`'s simulation any path through `a` can touch.
    fn lower_restart_rows(&mut self, a: ArcId) {
        let arc = self.sg.arc(a);
        let marked = arc.is_marked() as u32;
        token_distances_to(&self.sg, arc.src(), &mut self.dist_back, &mut self.deque);
        for (k, &g) in self.border.iter().enumerate() {
            let to_u = self.dist_back[g.index()];
            if to_u != UNREACHED {
                self.restart[k] = self.restart[k].min(to_u.saturating_add(marked));
            }
        }
    }
}

/// A point-in-time copy of an [`AnalysisSession`]'s full warm state;
/// created by [`AnalysisSession::snapshot`], applied by
/// [`restore`](AnalysisSession::restore) (clone it to restore twice). The backbone of speculative
/// design exploration: try a structural edit, keep it if the objective
/// improves, roll back if not — without ever reopening the session.
#[derive(Clone, Debug)]
pub struct SessionSnapshot {
    state: Box<AnalysisSession>,
}

/// Records in `dirty_from` where a full lane-matrix pass left the
/// matrix stale — nowhere when it completed, from `rows_done` when it
/// was cancelled, from row 0 after any other halt (`NotRepetitive` and
/// `Degenerate` cannot fire: border events are repetitive and callers
/// verify the border set non-empty) — and returns the halt as an error.
fn note_pass(sweep: Result<(), Halt>, dirty_from: &mut Option<usize>) -> Result<(), EditError> {
    *dirty_from = match &sweep {
        Ok(()) => None,
        Err(Halt::Cancelled(c)) => Some(c.rows_done),
        Err(_) => Some(0),
    };
    sweep.map_err(|halt| match halt {
        Halt::Cancelled(c) => c.into(),
        halt => EditError::Analysis(halt_to_error(halt)),
    })
}

/// Applies a structural batch to `sg` in order and re-validates the
/// whole graph; returns the arcs the batch added and the new border
/// set. On an error `sg` is left partly edited: the caller restores its
/// backup.
fn apply_graph_edits(
    sg: &mut SignalGraph,
    edits: &[GraphEdit],
) -> Result<(Vec<ArcId>, Vec<EventId>), EditError> {
    let mut added = Vec::new();
    for e in edits {
        match *e {
            GraphEdit::Delay { arc, delay } => {
                if !sg.is_live_arc(arc) {
                    return Err(EditError::UnknownArc(arc));
                }
                sg.set_delay(arc, delay)
                    .map_err(|_| EditError::InvalidDelay { arc, delay })?;
            }
            GraphEdit::AddArc {
                src,
                dst,
                delay,
                marked,
            } => added.push(sg.add_arc(src, dst, delay, marked)?),
            GraphEdit::RemoveArc { arc } => sg.remove_arc(arc)?,
            GraphEdit::AddEvent { ref label } => _ = sg.add_event(label)?,
            GraphEdit::RemoveEvent { event } => sg.remove_event(event)?,
        }
    }
    sg.validate()?;
    let border = sg.border_events();
    if border.is_empty() {
        return Err(EditError::NoCyclicBehavior);
    }
    Ok((added, border))
}

/// Each scenario's border records, read from its `b` lanes (lane
/// `j·b + k`) of a scenario-lane arena.
fn scenario_records<'a>(
    wide: &'a WideArena,
    border: &'a [EventId],
    scenarios: usize,
) -> impl Iterator<Item = Vec<BorderRecord>> + 'a {
    (0..scenarios).map(move |j| lane_records(wide, border, j * border.len()))
}

/// 0-1 BFS over the cyclic structure's arc set, backwards: `dist[e]`
/// becomes the minimum number of marked arcs on any path from `e` to
/// `target` (`UNREACHED` when no path exists). Marked arcs weigh 1
/// (they cross a period border), unmarked arcs 0.
fn token_distances_to(
    sg: &SignalGraph,
    target: EventId,
    dist: &mut Vec<u32>,
    deque: &mut VecDeque<EventId>,
) {
    dist.clear();
    dist.resize(sg.event_count(), UNREACHED);
    dist[target.index()] = 0;
    deque.clear();
    deque.push_back(target);
    while let Some(e) = deque.pop_front() {
        let d = dist[e.index()];
        for a in sg.in_arcs(e) {
            let arc = sg.arc(a);
            if arc.is_disengageable()
                || !sg.is_repetitive(arc.src())
                || !sg.is_repetitive(arc.dst())
            {
                continue; // same arc set the simulations run on
            }
            let prev = arc.src();
            let w = arc.is_marked() as u32;
            if d + w < dist[prev.index()] {
                dist[prev.index()] = d + w;
                if w == 0 {
                    deque.push_front(prev);
                } else {
                    deque.push_back(prev);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure2() -> SignalGraph {
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

    fn assert_matches_scratch(session: &AnalysisSession, ctx: &str) {
        let scratch = CycleTimeAnalysis::run(session.graph()).unwrap();
        let a = session.analysis();
        assert_eq!(
            a.cycle_time().as_f64().to_bits(),
            scratch.cycle_time().as_f64().to_bits(),
            "{ctx}: cycle time"
        );
        assert_eq!(
            a.cycle_time().periods(),
            scratch.cycle_time().periods(),
            "{ctx}"
        );
        assert_eq!(a.critical_cycle(), scratch.critical_cycle(), "{ctx}");
        assert_eq!(a.critical_borders(), scratch.critical_borders(), "{ctx}");
        assert_eq!(a.border_events(), scratch.border_events(), "{ctx}");
        for (ra, rb) in a.records().iter().zip(scratch.records()) {
            assert_eq!(ra.event, rb.event, "{ctx}");
            assert_eq!(ra.distances, rb.distances, "{ctx}");
        }
    }

    #[test]
    fn open_matches_from_scratch_run() {
        let session = AnalysisSession::open(figure2()).unwrap();
        assert_eq!(session.analysis().cycle_time().as_f64(), 10.0);
        assert_matches_scratch(&session, "open");
    }

    #[test]
    fn edits_track_the_from_scratch_analysis_bit_identically() {
        let sg = figure2();
        let mut session = AnalysisSession::open(sg).unwrap();
        let edit = |s: &AnalysisSession, src: &str, dst: &str| s.resolve_arc(src, dst).unwrap();
        // Stretch the a-side, shrink it back, touch the b-side, then a
        // marked arc — mixed single edits, each verified against scratch.
        let script = [
            ("a+", "c+", 8.0),
            ("a+", "c+", 3.0),
            ("b+", "c+", 9.5),
            ("c-", "a+", 0.0),
            ("c-", "a+", 2.0),
        ];
        for (i, (src, dst, delay)) in script.into_iter().enumerate() {
            let arc = edit(&session, src, dst);
            let delta = session
                .edit_delays(&[DelayEdit { arc, delay }], None)
                .unwrap();
            assert_eq!(delta.borders, 2);
            assert_matches_scratch(&session, &format!("edit {i}: {src}->{dst}={delay}"));
        }
        assert_eq!(session.edits_applied(), 5);
    }

    #[test]
    fn batched_edits_apply_atomically() {
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let a1 = session.resolve_arc("a+", "c+").unwrap();
        let a2 = session.resolve_arc("b-", "c-").unwrap();
        let delta = session
            .edit_delays(
                &[
                    DelayEdit {
                        arc: a1,
                        delay: 6.0,
                    },
                    DelayEdit {
                        arc: a2,
                        delay: 4.5,
                    },
                ],
                None,
            )
            .unwrap();
        assert_eq!(delta.before.as_f64(), 10.0);
        assert_matches_scratch(&session, "batch");
        assert_eq!(session.edits_applied(), 1);
    }

    #[test]
    fn prefix_arc_edits_are_clean() {
        // The e- → f- arc feeds no border simulation: the delta reports
        // zero dirty borders and the analysis is unchanged (and still
        // agrees with scratch, which ignores prefix delays too).
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let e = session.graph().event_by_label("e-").unwrap();
        let f = session.graph().event_by_label("f-").unwrap();
        let arc = session.graph().arc_between(e, f).unwrap();
        let delta = session
            .edit_delays(&[DelayEdit { arc, delay: 99.0 }], None)
            .unwrap();
        assert_eq!(delta.dirty, 0);
        assert_eq!(delta.after.as_f64(), 10.0);
        assert_eq!(session.graph().arc(arc).delay().get(), 99.0);
        assert_matches_scratch(&session, "prefix edit");
    }

    #[test]
    fn noop_edit_is_clean() {
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let arc = session.resolve_arc("a+", "c+").unwrap();
        let delta = session
            .edit_delays(&[DelayEdit { arc, delay: 3.0 }], None)
            .unwrap();
        assert_eq!(delta.dirty, 0);
        assert_eq!(delta.after.as_f64(), 10.0);
    }

    #[test]
    fn dirty_region_restart_reuses_rows_by_token_distance() {
        // A long ring with tokens spread out plus a local side loop: an
        // edit near n0 can only influence a distant border's simulation
        // after the tokens between them have been spent, so those
        // simulations resume deep into their matrices instead of
        // re-running from row 0.
        let mut b = SignalGraph::builder();
        let n: Vec<_> = (0..12).map(|i| b.event(&format!("n{i}"))).collect();
        // Three tokens spread around the ring → a 3-event border set,
        // with several periods of distance between the token arcs.
        for i in 0..12 {
            let (src, dst) = (n[i], n[(i + 1) % 12]);
            if i == 3 || i == 7 || i == 11 {
                b.marked_arc(src, dst, 1.0);
            } else {
                b.arc(src, dst, 1.0);
            }
        }
        let side = b.event("s");
        b.arc(n[0], side, 1.0);
        b.marked_arc(side, n[0], 1.0);
        let sg = b.build().unwrap();
        let mut session = AnalysisSession::open(sg).unwrap();
        let borders = session.analysis().border_events().len();
        assert_eq!(borders, 3, "n0, n4, n8");
        let s = session.graph().event_by_label("s").unwrap();
        let n0 = session.graph().event_by_label("n0").unwrap();
        let arc = session.graph().arc_between(n0, s).unwrap();
        let delta = session
            .edit_delays(&[DelayEdit { arc, delay: 5.0 }], None)
            .unwrap();
        // r0(n0) = 0, r0(n8) = 1, r0(n4) = 2 → 4 + 3 + 2 = 9 of 12 rows.
        assert_eq!((delta.rows, delta.rows_total), (9, 12));
        assert!(
            delta.rows < delta.rows_total,
            "token distance must cut recomputed rows: {} of {}",
            delta.rows,
            delta.rows_total
        );
        assert_matches_scratch(&session, "side loop edit");
    }

    #[test]
    fn invalid_edits_leave_the_session_untouched() {
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let arc = session.resolve_arc("a+", "c+").unwrap();
        let bad_arc = ArcId(10_000);
        assert_eq!(
            session
                .edit_delays(
                    &[
                        DelayEdit { arc, delay: 9.0 },
                        DelayEdit {
                            arc: bad_arc,
                            delay: 1.0
                        },
                    ],
                    None
                )
                .unwrap_err(),
            EditError::UnknownArc(bad_arc)
        );
        assert!(matches!(
            session
                .edit_delays(
                    &[DelayEdit {
                        arc,
                        delay: f64::NAN
                    }],
                    None
                )
                .unwrap_err(),
            EditError::InvalidDelay { .. }
        ));
        assert!(matches!(
            session
                .edit_delays(&[DelayEdit { arc, delay: -1.0 }], None)
                .unwrap_err(),
            EditError::InvalidDelay { .. }
        ));
        // The rejected batch must not have applied its valid prefix.
        assert_eq!(session.graph().arc(arc).delay().get(), 3.0);
        assert_eq!(session.analysis().cycle_time().as_f64(), 10.0);
        assert_eq!(session.edits_applied(), 0);
    }

    #[test]
    fn resolve_arc_reports_label_errors() {
        let session = AnalysisSession::open(figure2()).unwrap();
        assert_eq!(
            session.resolve_arc("zz", "a+").unwrap_err(),
            EditError::NoSuchEvent("zz".to_owned())
        );
        assert_eq!(
            session.resolve_arc("a+", "b+").unwrap_err(),
            EditError::NoArcBetween("a+".to_owned(), "b+".to_owned())
        );
    }

    #[test]
    fn cancelled_edit_heals_bit_identically_on_the_next_call() {
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let arc = session.resolve_arc("a+", "c+").unwrap();
        for budget in 0..3u64 {
            let token = CancelToken::cancel_after_checks(budget);
            let delay = 8.0 + budget as f64;
            let err = session
                .edit_delays(&[DelayEdit { arc, delay }], Some(&token))
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    EditError::Cancelled {
                        kind: CancelKind::Explicit,
                        ..
                    }
                ),
                "{err}"
            );
            assert!(session.is_stale());
            // The edit is applied even though the analysis is stale.
            assert_eq!(session.graph().arc(arc).delay().get(), delay);
            // A later uncancelled call — here an empty batch — heals.
            session.edit_delays(&[], None).unwrap();
            assert!(!session.is_stale());
            assert_matches_scratch(&session, &format!("healed after budget {budget}"));
        }
    }

    #[test]
    fn cancelled_open_reports_progress() {
        let token = CancelToken::cancel_after_checks(1);
        let err = AnalysisSession::open_with_cancel(figure2(), KernelBackend::Auto, Some(&token))
            .unwrap_err();
        assert_eq!(
            err,
            AnalysisError::Cancelled {
                kind: CancelKind::Explicit,
                rows_done: 1,
                rows_total: 3
            }
        );
    }

    /// Split the `src -> dst` arc into a pipeline stage through a fresh
    /// event: the inserted `label -> dst` arc is marked, so the batch
    /// adds a token, changes the border set, and grows the event axis —
    /// the full reseed path.
    fn split_batch(session: &AnalysisSession, src: &str, dst: &str, label: &str) -> Vec<GraphEdit> {
        let arc = session.resolve_arc(src, dst).unwrap();
        let a = session.graph().arc(arc);
        let (s, d, delay) = (a.src(), a.dst(), a.delay().get());
        let mid = EventId(session.graph().event_count() as u32);
        vec![
            GraphEdit::RemoveArc { arc },
            GraphEdit::AddEvent {
                label: label.to_owned(),
            },
            GraphEdit::AddArc {
                src: s,
                dst: mid,
                delay: delay / 2.0,
                marked: false,
            },
            GraphEdit::AddArc {
                src: mid,
                dst: d,
                delay: delay / 2.0,
                marked: true,
            },
        ]
    }

    #[test]
    fn structural_add_arc_resumes_warm_lanes() {
        // An unmarked cyclic arc that leaves the border set and event
        // axis unchanged: surviving borders keep their warm lanes and
        // resume from the post-apply token-distance bound.
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let ap = session.graph().event_by_label("a+").unwrap();
        let bm = session.graph().event_by_label("b-").unwrap();
        let delta = session
            .edit_structure(
                &[GraphEdit::AddArc {
                    src: ap,
                    dst: bm,
                    delay: 4.0,
                    marked: false,
                }],
                None,
            )
            .unwrap();
        // Border [a+, b+] with b = 2: r0(a+) = ε(a+→a+) = 0,
        // r0(b+) = ε(b+→a+) = 1 → (3 - 0) + (3 - 1) = 5 of 6 rows.
        assert_eq!((delta.dirty, delta.borders), (2, 2));
        assert_eq!((delta.rows, delta.rows_total), (5, 6));
        assert_matches_scratch(&session, "add unmarked arc");
    }

    #[test]
    fn structural_remove_arc_resumes_warm_lanes() {
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let ap = session.graph().event_by_label("a+").unwrap();
        let bm = session.graph().event_by_label("b-").unwrap();
        session
            .edit_structure(
                &[GraphEdit::AddArc {
                    src: ap,
                    dst: bm,
                    delay: 9.0,
                    marked: false,
                }],
                None,
            )
            .unwrap();
        let arc = session.graph().arc_between(ap, bm).unwrap();
        // Removal bounds come from the pre-apply pass on the OLD graph.
        let delta = session
            .edit_structure(&[GraphEdit::RemoveArc { arc }], None)
            .unwrap();
        assert_eq!((delta.rows, delta.rows_total), (5, 6));
        assert!(!session.graph().is_live_arc(arc));
        assert_matches_scratch(&session, "remove arc");
    }

    #[test]
    fn pipeline_split_reseeds_the_border_lanes() {
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let batch = split_batch(&session, "a+", "c+", "s+");
        let delta = session.edit_structure(&batch, None).unwrap();
        // The marked s+ -> c+ arc makes c+ a border event: [a+, b+]
        // becomes [a+, b+, c+], every lane reseeds.
        assert_eq!(session.analysis().border_events().len(), 3);
        assert_eq!((delta.dirty, delta.borders), (3, 3));
        assert_eq!(delta.rows, delta.rows_total);
        assert_eq!(session.graph().event_count(), 9);
        assert_matches_scratch(&session, "pipeline split");
        // The session stays incrementally editable on the new shape.
        let arc = session.resolve_arc("s+", "c+").unwrap();
        session
            .edit_delays(&[DelayEdit { arc, delay: 4.0 }], None)
            .unwrap();
        assert_matches_scratch(&session, "delay edit after split");
    }

    #[test]
    fn mixed_delay_and_structural_edits_in_one_batch() {
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let d_arc = session.resolve_arc("b+", "c+").unwrap();
        let mut batch = split_batch(&session, "a+", "c+", "s+");
        batch.push(GraphEdit::Delay {
            arc: d_arc,
            delay: 7.5,
        });
        session.edit_structure(&batch, None).unwrap();
        assert_eq!(session.graph().arc(d_arc).delay().get(), 7.5);
        assert_matches_scratch(&session, "mixed batch");
    }

    #[test]
    fn all_delay_graph_edits_take_the_fast_path() {
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let arc = session.resolve_arc("a+", "c+").unwrap();
        let delta = session
            .edit_structure(&[GraphEdit::Delay { arc, delay: 8.0 }], None)
            .unwrap();
        assert!(delta.rows <= delta.rows_total);
        assert_matches_scratch(&session, "delay via edit_structure");
    }

    #[test]
    fn invalid_structural_batch_rolls_back_untouched() {
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let ap = session.graph().event_by_label("a+").unwrap();
        let bm = session.graph().event_by_label("b-").unwrap();
        let arcs_before = session.graph().arc_count();
        // Valid prefix, then an unknown arc: whole batch rolled back.
        let err = session
            .edit_structure(
                &[
                    GraphEdit::AddArc {
                        src: ap,
                        dst: bm,
                        delay: 1.0,
                        marked: false,
                    },
                    GraphEdit::RemoveArc { arc: ArcId(10_000) },
                ],
                None,
            )
            .unwrap_err();
        assert!(matches!(err, EditError::Invalid(_)), "{err}");
        assert_eq!(session.graph().arc_count(), arcs_before);
        assert_eq!(session.edits_applied(), 0);
        assert_matches_scratch(&session, "after rollback");

        // A batch that passes per-op checks but fails whole-graph
        // validation (a dangling event breaks strong connectivity).
        let err = session
            .edit_structure(
                &[GraphEdit::AddEvent {
                    label: "orphan".to_owned(),
                }],
                None,
            )
            .unwrap_err();
        assert!(matches!(err, EditError::Invalid(_)), "{err}");
        assert_eq!(session.graph().event_count(), 8);
        assert_matches_scratch(&session, "after validation rollback");
    }

    #[test]
    fn emptying_the_border_is_rejected() {
        let mut b = SignalGraph::builder();
        let x = b.event("x+");
        let y = b.event("x-");
        b.arc(x, y, 1.0);
        let marked = b.marked_arc(y, x, 1.0);
        let sg = b.build().unwrap();
        let mut session = AnalysisSession::open(sg).unwrap();
        let err = session
            .edit_structure(&[GraphEdit::RemoveArc { arc: marked }], None)
            .unwrap_err();
        // The batch leaves {x+, x-} with no token anywhere — no border
        // event, nothing to analyse — so it must roll back. (It would
        // also fail liveness validation; the border check is the
        // structured error when validation alone cannot catch it.)
        assert!(
            matches!(err, EditError::Invalid(_) | EditError::NoCyclicBehavior),
            "{err}"
        );
        assert!(session.graph().is_live_arc(marked));
        assert_matches_scratch(&session, "after border-emptying rollback");
    }

    #[test]
    fn cancelled_structural_edit_heals_bit_identically() {
        for budget in 0..3u64 {
            let mut session = AnalysisSession::open(figure2()).unwrap();
            let batch = split_batch(&session, "a+", "c+", "s+");
            let token = CancelToken::cancel_after_checks(budget);
            let err = session.edit_structure(&batch, Some(&token)).unwrap_err();
            assert!(
                matches!(
                    err,
                    EditError::Cancelled {
                        kind: CancelKind::Explicit,
                        ..
                    }
                ),
                "{err}"
            );
            assert!(session.is_stale());
            // The structural batch is committed even though the
            // analysis is stale...
            assert_eq!(session.graph().event_count(), 9);
            // ...and any later uncancelled call heals bit-identically.
            session.edit_delays(&[], None).unwrap();
            assert!(!session.is_stale());
            assert_matches_scratch(&session, &format!("healed split, budget {budget}"));
        }
    }

    #[test]
    fn snapshot_rollback_restores_warm_state() {
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let tau0 = session.analysis().cycle_time().as_f64();
        let snap = session.snapshot();

        let batch = split_batch(&session, "a+", "c+", "s+");
        session.edit_structure(&batch, None).unwrap();
        assert_eq!(session.graph().event_count(), 9);

        session.restore(snap.clone());
        assert_eq!(session.graph().event_count(), 8);
        assert_eq!(session.analysis().cycle_time().as_f64(), tau0);
        assert_eq!(session.edits_applied(), 0);
        assert_matches_scratch(&session, "after rollback");

        // The rolled-back session stays warm and editable.
        let arc = session.resolve_arc("a+", "c+").unwrap();
        session
            .edit_delays(&[DelayEdit { arc, delay: 6.0 }], None)
            .unwrap();
        assert_matches_scratch(&session, "edit after rollback");

        // `restore` consumes the snapshot without cloning.
        session.restore(snap);
        assert_eq!(session.analysis().cycle_time().as_f64(), tau0);
        assert_matches_scratch(&session, "after restore");
    }

    fn assert_scenarios_match_scratch(session: &AnalysisSession, ctx: &str) {
        let set = session.scenario_set().expect("scenarios enabled");
        let scratch = CycleTimeAnalysis::run_scenarios_in(
            session.graph(),
            set,
            None,
            &mut AnalysisArena::new(),
            None,
        )
        .unwrap();
        let live = session.scenario_analysis().unwrap();
        assert_eq!(live.len(), scratch.len(), "{ctx}: scenario count");
        for j in 0..live.len() {
            assert_eq!(live.label(j), scratch.label(j), "{ctx}: label {j}");
            let (a, b) = (live.analysis(j), scratch.analysis(j));
            assert_eq!(
                a.cycle_time().as_f64().to_bits(),
                b.cycle_time().as_f64().to_bits(),
                "{ctx}: scenario {j} cycle time"
            );
            assert_eq!(
                a.critical_cycle(),
                b.critical_cycle(),
                "{ctx}: scenario {j}"
            );
            assert_eq!(
                a.critical_borders(),
                b.critical_borders(),
                "{ctx}: scenario {j}"
            );
        }
    }

    #[test]
    fn scenario_lanes_stay_warm_across_edit_kinds() {
        use crate::analysis::scenario::Corner;

        let mut session = AnalysisSession::open(figure2()).unwrap();
        let set = ScenarioSet::corners(
            10.0,
            &[Corner::Min, Corner::Typ, Corner::Max],
            session.graph().arc_count(),
        )
        .unwrap();
        session.enable_scenarios(&set, None).unwrap();
        assert_eq!(session.scenario_count(), 3);
        assert_scenarios_match_scratch(&session, "after enable");

        // Delay edits fold the scaled δs in place and resume the
        // scenario lanes from the nominal min dirty row.
        let arc = session.resolve_arc("a+", "c+").unwrap();
        session
            .edit_delays(&[DelayEdit { arc, delay: 9.0 }], None)
            .unwrap();
        assert_matches_scratch(&session, "delay edit, nominal");
        assert_scenarios_match_scratch(&session, "delay edit");

        // Warm structural path: border set and event axis survive.
        let ap = session.graph().event_by_label("a+").unwrap();
        let bm = session.graph().event_by_label("b-").unwrap();
        session
            .edit_structure(
                &[GraphEdit::AddArc {
                    src: ap,
                    dst: bm,
                    delay: 4.0,
                    marked: false,
                }],
                None,
            )
            .unwrap();
        assert_matches_scratch(&session, "structural add, nominal");
        assert_scenarios_match_scratch(&session, "structural add");

        // Reseed path: the batch changes the border set, so the set is
        // re-derived over the grown arc axis and all lanes reseed.
        let batch = split_batch(&session, "b+", "c+", "s+");
        session.edit_structure(&batch, None).unwrap();
        assert_eq!(
            session.scenario_set().unwrap().arc_slots(),
            session.graph().arc_count()
        );
        assert_matches_scratch(&session, "split, nominal");
        assert_scenarios_match_scratch(&session, "split reseed");

        session.disable_scenarios();
        assert_eq!(session.scenario_count(), 0);
        assert!(session.scenario_analysis().is_none());
    }

    #[test]
    fn overflowing_scenario_delays_are_edit_errors() {
        use crate::analysis::scenario::Corner;

        let mut session = AnalysisSession::open(figure2()).unwrap();
        let set = ScenarioSet::corners(
            10.0,
            &[Corner::Min, Corner::Typ, Corner::Max],
            session.graph().arc_count(),
        )
        .unwrap();
        session.enable_scenarios(&set, None).unwrap();

        // 1.7e308 is a valid delay, but not under the max corner's ×1.1:
        // the batch is refused and nothing changes.
        let arc = session.resolve_arc("a+", "c+").unwrap();
        let err = session
            .edit_delays(
                &[DelayEdit {
                    arc,
                    delay: 1.7e308,
                }],
                None,
            )
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "scenario max scales the delay of a+ -> c+ past the largest finite delay"
        );
        assert_eq!(session.graph().arc(arc).delay().get(), 3.0);
        assert_matches_scratch(&session, "refused delay edit, nominal");
        assert_scenarios_match_scratch(&session, "refused delay edit");

        // A structural batch whose scaled delay overflows is refused and
        // rolled back like any other rejected batch.
        let ap = session.graph().event_by_label("a+").unwrap();
        let bm = session.graph().event_by_label("b-").unwrap();
        let err = session
            .edit_structure(
                &[GraphEdit::AddArc {
                    src: ap,
                    dst: bm,
                    delay: 1.7e308,
                    marked: false,
                }],
                None,
            )
            .unwrap_err();
        assert_eq!(
            err,
            EditError::Analysis(AnalysisError::ScenarioDelay {
                scenario: "max".to_owned(),
                src: "a+".to_owned(),
                dst: "b-".to_owned(),
            })
        );
        assert!(session.resolve_arc("a+", "b-").is_err());
        assert_eq!(session.edits_applied(), 0);
        assert!(!session.is_stale());
        assert_matches_scratch(&session, "refused structural batch, nominal");
        assert_scenarios_match_scratch(&session, "refused structural batch");

        // Enabling scenarios over an out-of-range graph installs nothing.
        session.disable_scenarios();
        session
            .edit_delays(
                &[DelayEdit {
                    arc,
                    delay: 1.7e308,
                }],
                None,
            )
            .unwrap();
        let err = session.enable_scenarios(&set, None).unwrap_err();
        assert!(matches!(err, AnalysisError::ScenarioDelay { .. }), "{err}");
        assert_eq!(session.scenario_count(), 0);
    }

    #[test]
    fn sampled_scenarios_follow_session_edits() {
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let set = ScenarioSet::samples(5, 42, 20.0, session.graph().arc_count()).unwrap();
        session.enable_scenarios(&set, None).unwrap();
        assert_scenarios_match_scratch(&session, "sampled enable");

        let arc = session.resolve_arc("c-", "b+").unwrap();
        session
            .edit_delays(&[DelayEdit { arc, delay: 7.5 }], None)
            .unwrap();
        assert_scenarios_match_scratch(&session, "sampled delay edit");
    }

    #[test]
    fn cancelled_scenario_refresh_heals_bit_identically() {
        use crate::analysis::scenario::Corner;

        let mut session = AnalysisSession::open(figure2()).unwrap();
        let set = ScenarioSet::corners(
            15.0,
            &[Corner::Min, Corner::Typ, Corner::Max],
            session.graph().arc_count(),
        )
        .unwrap();
        session.enable_scenarios(&set, None).unwrap();
        let arc = session.resolve_arc("a+", "c+").unwrap();

        // Sweep the cancel budget across both the nominal resume and
        // the scenario refresh; every abort must heal bit-identically
        // on the next uncancelled (empty) batch.
        for budget in 0..8u64 {
            let token = CancelToken::cancel_after_checks(budget);
            let delay = 8.0 + budget as f64;
            match session.edit_delays(&[DelayEdit { arc, delay }], Some(&token)) {
                Ok(_) => {}
                Err(EditError::Cancelled { .. }) => {
                    assert!(session.is_stale());
                    session.edit_delays(&[], None).unwrap();
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(!session.is_stale());
            assert_eq!(session.graph().arc(arc).delay().get(), delay);
            assert_matches_scratch(&session, &format!("budget {budget}, nominal"));
            assert_scenarios_match_scratch(&session, &format!("budget {budget}"));
        }

        // A cancelled structural reseed heals the scenario axis too.
        let batch = split_batch(&session, "a+", "c+", "t+");
        let token = CancelToken::cancel_after_checks(2);
        let err = session.edit_structure(&batch, Some(&token)).unwrap_err();
        assert!(matches!(err, EditError::Cancelled { .. }), "{err}");
        assert!(session.is_stale());
        session.edit_delays(&[], None).unwrap();
        assert!(!session.is_stale());
        assert_matches_scratch(&session, "healed split, nominal");
        assert_scenarios_match_scratch(&session, "healed split");
    }

    #[test]
    fn snapshot_rollback_restores_scenario_state() {
        use crate::analysis::scenario::Corner;

        let mut session = AnalysisSession::open(figure2()).unwrap();
        let set = ScenarioSet::corners(
            10.0,
            &[Corner::Min, Corner::Max],
            session.graph().arc_count(),
        )
        .unwrap();
        session.enable_scenarios(&set, None).unwrap();
        let taus0 = session.scenario_analysis().unwrap().taus();
        let snap = session.snapshot();

        let arc = session.resolve_arc("a+", "c+").unwrap();
        session
            .edit_delays(&[DelayEdit { arc, delay: 11.0 }], None)
            .unwrap();
        assert_ne!(session.scenario_analysis().unwrap().taus(), taus0);

        session.restore(snap.clone());
        assert_eq!(session.scenario_analysis().unwrap().taus(), taus0);
        assert_scenarios_match_scratch(&session, "after rollback");

        // The rolled-back scenario lanes stay warm and editable.
        session
            .edit_delays(&[DelayEdit { arc, delay: 6.0 }], None)
            .unwrap();
        assert_scenarios_match_scratch(&session, "edit after rollback");
    }

    #[test]
    fn acyclic_graph_cannot_open_a_session() {
        let mut b = SignalGraph::builder();
        let s = b.initial_event("s");
        let t = b.finite_event("t");
        b.arc(s, t, 1.0);
        let sg = b.build().unwrap();
        assert_eq!(
            AnalysisSession::open(sg).unwrap_err(),
            AnalysisError::NoCyclicBehavior
        );
    }

    /// `x+ -> x-` and the marked `x- -> x+`, with the given delays.
    fn toggle(up: f64, down: f64) -> SignalGraph {
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.arc(xp, xm, up);
        b.marked_arc(xm, xp, down);
        b.build().unwrap()
    }

    fn assert_untouched(session: &AnalysisSession, edits: u64, ctx: &str) {
        assert_eq!(session.edits_applied(), edits, "{ctx}: edit count");
        assert!(!session.is_stale(), "{ctx}: stale");
        assert_matches_scratch(session, ctx);
    }

    #[test]
    fn overflowing_cycle_length_refuses_the_batch_untouched() {
        let mut session = AnalysisSession::open(toggle(3.0, 2.0)).unwrap();
        let up = session.resolve_arc("x+", "x-").unwrap();
        let down = session.resolve_arc("x-", "x+").unwrap();
        session
            .edit_delays(
                &[DelayEdit {
                    arc: up,
                    delay: 1e308,
                }],
                None,
            )
            .unwrap();
        // Each delay is valid; their sum is not a finite cycle length.
        let err = session
            .edit_delays(
                &[DelayEdit {
                    arc: down,
                    delay: 1e308,
                }],
                None,
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                EditError::Analysis(AnalysisError::NonFiniteCycleLength { .. })
            ),
            "{err:?}"
        );
        assert_eq!(session.graph().arc(down).delay().get(), 2.0);
        assert_untouched(&session, 1, "refused delay batch");

        // The same overflow through a structural batch: replace the
        // marked arc by an equally marked one carrying 1e308.
        let (xp, xm) = (
            session.graph().arc(down).dst(),
            session.graph().arc(down).src(),
        );
        let err = session
            .edit_structure(
                &[
                    GraphEdit::RemoveArc { arc: down },
                    GraphEdit::AddArc {
                        src: xm,
                        dst: xp,
                        delay: 1e308,
                        marked: true,
                    },
                ],
                None,
            )
            .unwrap_err();
        assert!(matches!(err, EditError::Analysis(_)), "{err:?}");
        assert!(session.graph().is_live_arc(down));
        assert_eq!(session.graph().arc_count(), 2);
        assert_untouched(&session, 1, "refused structural batch");

        // A batch that also changes the border set (a new marked arc
        // into a new event) reseeds every lane before its refusal; the
        // rollback reseeds them back.
        let y = EventId(session.graph().event_count() as u32);
        let err = session
            .edit_structure(
                &[
                    GraphEdit::AddEvent {
                        label: "y+".to_owned(),
                    },
                    GraphEdit::AddArc {
                        src: xm,
                        dst: y,
                        delay: 1e308,
                        marked: true,
                    },
                    GraphEdit::AddArc {
                        src: y,
                        dst: xp,
                        delay: 1e308,
                        marked: false,
                    },
                ],
                None,
            )
            .unwrap_err();
        assert!(matches!(err, EditError::Analysis(_)), "{err:?}");
        assert_eq!(session.graph().event_count(), 2);
        assert_eq!(session.analysis().border_events().len(), 1);
        assert_untouched(&session, 1, "refused border-changing batch");

        // The session keeps working after the refusals.
        session
            .edit_delays(
                &[DelayEdit {
                    arc: up,
                    delay: 4.0,
                }],
                None,
            )
            .unwrap();
        assert_untouched(&session, 2, "after the refusals");
    }

    #[test]
    fn overflowing_scenario_cycle_is_an_error_not_a_panic() {
        use crate::analysis::scenario::Corner;
        let corners = |sg: &SignalGraph| {
            ScenarioSet::corners(10.0, &[Corner::Typ, Corner::Max], sg.arc_count()).unwrap()
        };

        // Each scaled delay is finite; the max corner's cycle is not.
        let mut session = AnalysisSession::open(toggle(9e307, 8e307)).unwrap();
        let set = corners(session.graph());
        let err = session.enable_scenarios(&set, None).unwrap_err();
        assert!(
            matches!(err, AnalysisError::NonFiniteCycleLength { .. }),
            "{err:?}"
        );
        assert_eq!(session.scenario_count(), 0);

        // With the lanes warm, an edit that overflows only the max
        // corner is refused and rolled back, scenario state included.
        let mut session = AnalysisSession::open(toggle(1.0, 1.0)).unwrap();
        session.enable_scenarios(&set, None).unwrap();
        let up = session.resolve_arc("x+", "x-").unwrap();
        let down = session.resolve_arc("x-", "x+").unwrap();
        session
            .edit_delays(
                &[DelayEdit {
                    arc: up,
                    delay: 9e307,
                }],
                None,
            )
            .unwrap();
        let err = session
            .edit_delays(
                &[DelayEdit {
                    arc: down,
                    delay: 8e307,
                }],
                None,
            )
            .unwrap_err();
        assert!(matches!(err, EditError::Analysis(_)), "{err:?}");
        assert_eq!(session.graph().arc(down).delay().get(), 1.0);
        assert_untouched(&session, 1, "refused scenario overflow");
        assert_scenarios_match_scratch(&session, "refused scenario overflow");
    }
}
