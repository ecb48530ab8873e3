//! Analysis sessions: edit a graph, re-measure its cycle time, repeat.
//!
//! The paper's headline workflow is bottleneck hunting — edit a gate
//! delay, re-measure the cycle time, repeat. An [`AnalysisSession`]
//! owns the graph, its last [`CycleTimeAnalysis`] (plus a
//! [`ScenarioAnalysis`] when scenarios are on) and the
//! [`AnalysisArena`] it was opened on. Every edit batch is validated,
//! applied to the graph, and answered by re-running the one analysis
//! core, [`CycleTimeAnalysis::run_in_with_cancel`] (and
//! [`CycleTimeAnalysis::run_scenarios_in`], one such analysis per
//! scenario, when scenarios are on), in that arena's two-row lane
//! window. So the session holds O(b·n) lane cells, not a matrix per
//! border, and its analysis is the one-shot result on the edited graph
//! by construction.
//!
//! Nothing resumes from earlier rows: on a strongly connected graph one
//! delay edit reaches every border simulation within a period or two,
//! so a resume from the first row an edit can touch recomputes nearly
//! every row anyway (97% on the served `explore-edits` workload) while
//! it must keep all `b` matrices, O(b²·n) cells.
//!
//! # Edit batches
//!
//! [`edit_delays`](AnalysisSession::edit_delays) assigns arc delays;
//! [`edit_structure`](AnalysisSession::edit_structure) also adds and
//! removes arcs and events ([`GraphEdit`]) through [`SignalGraph`]'s
//! mutation API, which tombstones ids so every `ArcId`/`EventId` a
//! caller holds stays valid. A batch is one transaction:
//!
//! * an invalid batch — an unknown arc, a bad delay, a broken graph
//!   rule, no border event left — restores the graph and returns an
//!   error; the old analysis was never overwritten;
//! * a batch whose re-analysis fails ([`EditError::Analysis`]: a
//!   winning cycle length or a scenario delay overflowing `f64`) is
//!   refused the same way;
//! * a batch whose re-analysis is cancelled stays applied:
//!   [`is_stale`](AnalysisSession::is_stale) reports that the analysis
//!   lags the graph, and the next uncancelled call — even an empty
//!   batch — re-runs and heals it.
//!
//! [`snapshot`](AnalysisSession::snapshot) and
//! [`restore`](AnalysisSession::restore) copy a graph and its analyses,
//! so a speculative explorer can try a batch and take it back.
use std::fmt;

use tsg_sim::{CancelKind, CancelToken};

use crate::analysis::cycle_time::{AnalysisError, CycleTimeAnalysis};
use crate::analysis::scenario::{self, ScenarioAnalysis, ScenarioSet};
use crate::analysis::wide::AnalysisArena;
use crate::analysis::CycleTime;
use crate::arc::ArcId;
use crate::event::EventId;
use crate::graph::SignalGraph;
use crate::time::Delay;

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
    /// Assign `delay` to `arc`; an all-delay batch runs as
    /// [`edit_delays`](AnalysisSession::edit_delays).
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

/// What one edit batch changed, and the simulation work its
/// re-analysis ran.
///
/// Every batch re-runs the whole analysis, so `dirty == borders` and
/// `rows == rows_total`; the four counts stay so that callers that
/// trace the work per edit keep reading it.
#[derive(Clone, Copy, Debug)]
pub struct CycleTimeDelta {
    /// Cycle time before the edit batch.
    pub before: CycleTime,
    /// Cycle time after the edit batch.
    pub after: CycleTime,
    /// Border simulations the re-analysis ran.
    pub dirty: usize,
    /// Border simulations of the edited graph.
    pub borders: usize,
    /// Lane rows the re-analysis computed, summed over its border
    /// simulations.
    pub rows: usize,
    /// Rows of a full analysis: `borders × (b + 1)`.
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
    /// empty batch) re-runs it.
    Cancelled {
        /// Why the run stopped.
        kind: CancelKind,
        /// Lane rows that were complete when the run stopped.
        rows_done: usize,
        /// Rows the run computes.
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

impl From<AnalysisError> for EditError {
    fn from(e: AnalysisError) -> Self {
        match e {
            AnalysisError::NoCyclicBehavior => EditError::NoCyclicBehavior,
            AnalysisError::Cancelled {
                kind,
                rows_done,
                rows_total,
            } => EditError::Cancelled {
                kind,
                rows_done,
                rows_total,
            },
            e => EditError::Analysis(e),
        }
    }
}

/// An open analysis session; see the [module docs](self).
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
    analysis: CycleTimeAnalysis,
    scenarios: Option<Scenarios>,
    edits: u64,
    /// Whether a cancelled batch left the analyses behind the graph.
    stale: bool,
    /// The arena every re-analysis runs in.
    arena: AnalysisArena,
}

/// The scenario set, as given, and its last sweep, when
/// [`AnalysisSession::enable_scenarios`] turned scenarios on.
#[derive(Clone, Debug)]
struct Scenarios {
    set: ScenarioSet,
    analysis: ScenarioAnalysis,
}

impl AnalysisSession {
    /// Opens a session: one full analysis of `sg`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoCyclicBehavior`] when `sg` has no
    /// repetitive events.
    pub fn open(sg: SignalGraph) -> Result<Self, AnalysisError> {
        Self::open_in(sg, AnalysisArena::new(), None)
    }

    /// [`open`](Self::open) on `arena`, under a cancellation token. The
    /// session keeps the arena, so the opening analysis and every
    /// re-analysis run on its kernel backend. The
    /// opening analysis polls `cancel` once per lane row; no session is
    /// created when it fires.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoCyclicBehavior`] when `sg` has no
    /// repetitive events, or [`AnalysisError::Cancelled`] when `cancel`
    /// fires mid-analysis.
    pub fn open_in(
        sg: SignalGraph,
        mut arena: AnalysisArena,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, AnalysisError> {
        let analysis = CycleTimeAnalysis::run_in_with_cancel(&sg, None, &mut arena, cancel)?;
        Ok(AnalysisSession {
            sg,
            analysis,
            scenarios: None,
            edits: 0,
            stale: false,
            arena,
        })
    }

    /// The session's graph, with all applied edits.
    pub fn graph(&self) -> &SignalGraph {
        &self.sg
    }

    /// The current analysis — bit-identical to
    /// [`CycleTimeAnalysis::run`] on [`graph`](Self::graph) unless the
    /// session [`is_stale`](Self::is_stale).
    pub fn analysis(&self) -> &CycleTimeAnalysis {
        &self.analysis
    }

    /// Capacity of the session arena's buffers, as
    /// [`AnalysisArena::capacity`]: the two-row lane window of the
    /// largest graph analysed so far, not a matrix per border.
    pub fn arena_capacity(&self) -> (usize, usize, usize) {
        self.arena.capacity()
    }

    /// Number of edit batches applied so far.
    pub fn edits_applied(&self) -> u64 {
        self.edits
    }

    /// Whether a cancelled batch left the cached analysis (nominal or
    /// scenario) behind the graph; the next uncancelled
    /// [`edit_delays`](Self::edit_delays) call (even with an empty
    /// batch) heals it.
    pub fn is_stale(&self) -> bool {
        self.stale
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

    /// Applies a batch of delay edits and re-runs the analysis (and the
    /// scenario sweep, when enabled) on the edited graph, polling
    /// `cancel` once per lane row. The updated
    /// [`analysis`](Self::analysis) is bit-identical to a from-scratch
    /// [`CycleTimeAnalysis::run`] on the edited graph.
    ///
    /// On cancellation the edits **are** applied to the graph but the
    /// cached [`analysis`](Self::analysis) is stale until the next
    /// uncancelled call — any edit batch, even an empty one.
    ///
    /// # Errors
    ///
    /// Returns [`EditError`] — and leaves the session untouched — when
    /// any edit names an unknown arc or an invalid delay, when an
    /// enabled scenario scales an edited delay past `f64::MAX`, or when
    /// the edited graph's winning cycle length overflows
    /// ([`EditError::Analysis`]; the batch is rolled back). Returns
    /// [`EditError::Cancelled`] when `cancel` fires mid-run (edits
    /// applied, analysis stale until healed).
    pub fn edit_delays(
        &mut self,
        edits: &[DelayEdit],
        cancel: Option<&CancelToken>,
    ) -> Result<CycleTimeDelta, EditError> {
        // Validate the whole batch before mutating anything: the first
        // bad edit in batch order wins, an overflow at the first
        // scenario that has it.
        let set = self.scenarios.as_ref().map(|s| &s.set);
        let overflow = set.and_then(|set| first_overflow(&self.sg, set, edits));
        for (k, e) in edits.iter().enumerate() {
            if !self.sg.is_live_arc(e.arc) {
                return Err(EditError::UnknownArc(e.arc));
            }
            if Delay::new(e.delay).is_err() {
                return Err(EditError::InvalidDelay {
                    arc: e.arc,
                    delay: e.delay,
                });
            }
            if let (Some(set), Some((first, j))) = (set, overflow) {
                if first == k {
                    return Err(EditError::Analysis(set.overflow_error(&self.sg, j, e.arc)));
                }
            }
        }

        // The pre-batch delays, to roll a refused batch back.
        let undo: Vec<DelayEdit> = edits
            .iter()
            .map(|e| DelayEdit {
                arc: e.arc,
                delay: self.sg.arc(e.arc).delay().get(),
            })
            .collect();
        for e in edits {
            self.sg
                .set_delay(e.arc, e.delay)
                .expect("delay validated above");
        }
        self.reanalyze(cancel, |sg| {
            for u in undo.iter().rev() {
                sg.set_delay(u.arc, u.delay)
                    .expect("pre-batch delays are valid");
            }
        })
    }

    /// Applies a batch of structural and delay edits ([`GraphEdit`]) in
    /// order, re-validates the whole graph, and re-runs the analysis
    /// (and the scenario sweep, when enabled) on it, polling `cancel`
    /// once per lane row. The refreshed [`analysis`](Self::analysis) is
    /// bit-identical to a from-scratch [`CycleTimeAnalysis::run`] on the
    /// mutated graph. An all-[`Delay`](GraphEdit::Delay) batch runs as
    /// [`edit_delays`](Self::edit_delays).
    ///
    /// Like a cancelled delay batch, a cancelled structural batch **is**
    /// committed to the graph, and the stale analysis heals on the next
    /// uncancelled call.
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
        let backup = self.sg.clone();
        if let Err(e) = apply_graph_edits(&mut self.sg, edits) {
            self.sg = backup;
            return Err(e);
        }
        self.reanalyze(cancel, |sg| *sg = backup)
    }

    /// Re-runs the analyses on the edited graph and counts the batch. A
    /// batch whose re-analysis fails — anything but a cancel — is
    /// refused: `restore` puts the pre-batch graph back, and the old
    /// analyses, never overwritten, stay.
    fn reanalyze(
        &mut self,
        cancel: Option<&CancelToken>,
        restore: impl FnOnce(&mut SignalGraph),
    ) -> Result<CycleTimeDelta, EditError> {
        let before = self.analysis.cycle_time();
        if let Err(e) = self.run(cancel) {
            if matches!(e, AnalysisError::Cancelled { .. }) {
                self.stale = true;
            } else {
                restore(&mut self.sg);
            }
            return Err(e.into());
        }
        self.edits += 1;
        let borders = self.analysis.border_events().len();
        let rows_total = borders * (borders + 1);
        Ok(CycleTimeDelta {
            before,
            after: self.analysis.cycle_time(),
            dirty: borders,
            borders,
            rows: rows_total,
            rows_total,
        })
    }

    /// Analyses the session graph — nominal, then every enabled
    /// scenario — and installs the results only when both succeed.
    fn run(&mut self, cancel: Option<&CancelToken>) -> Result<(), AnalysisError> {
        let analysis =
            CycleTimeAnalysis::run_in_with_cancel(&self.sg, None, &mut self.arena, cancel)?;
        if let Some(scen) = &mut self.scenarios {
            scen.analysis =
                CycleTimeAnalysis::run_scenarios_in(&self.sg, &scen.set, &mut self.arena, cancel)?;
        }
        self.analysis = analysis;
        self.stale = false;
        Ok(())
    }

    /// Turns on corner/sample analysis: one
    /// [`CycleTimeAnalysis::run_scenarios_in`] sweep over the session's
    /// graph, repeated after every edit batch, so the
    /// [`scenario_analysis`](Self::scenario_analysis) stays
    /// bit-identical to a from-scratch sweep with the same set. `cancel`
    /// is polled once per lane row.
    ///
    /// Calling it again replaces the scenario set. A set is only its
    /// specification, so every sweep derives its factors over the
    /// session graph's arc slots as they are then.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Cancelled`] when `cancel` fires
    /// mid-sweep, [`AnalysisError::SweepTooLarge`] when the sweep's
    /// results are over the cell budget,
    /// [`AnalysisError::ScenarioDelay`] when a scenario
    /// scales a delay past the largest finite `f64`, or
    /// [`AnalysisError::NonFiniteCycleLength`] when a scenario's cycle
    /// length overflows; no scenario state is installed then.
    pub fn enable_scenarios(
        &mut self,
        set: &ScenarioSet,
        cancel: Option<&CancelToken>,
    ) -> Result<&ScenarioAnalysis, AnalysisError> {
        let analysis = CycleTimeAnalysis::run_scenarios_in(&self.sg, set, &mut self.arena, cancel)?;
        let set = set.clone();
        Ok(&self.scenarios.insert(Scenarios { set, analysis }).analysis)
    }

    /// The current scenario analysis, when scenarios are enabled —
    /// bit-identical to [`CycleTimeAnalysis::run_scenarios_in`] on
    /// [`graph`](Self::graph) with the current set unless the session
    /// [`is_stale`](Self::is_stale).
    pub fn scenario_analysis(&self) -> Option<&ScenarioAnalysis> {
        self.scenarios.as_ref().map(|s| &s.analysis)
    }

    /// The enabled scenario set, as given to
    /// [`enable_scenarios`](Self::enable_scenarios), if any.
    pub fn scenario_set(&self) -> Option<&ScenarioSet> {
        self.scenarios.as_ref().map(|s| &s.set)
    }

    /// Captures the graph and its analyses for a later
    /// [`restore`](Self::restore). Speculative explorers snapshot once,
    /// try an edit batch, and roll back the losers.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            sg: self.sg.clone(),
            analysis: self.analysis.clone(),
            scenarios: self.scenarios.clone(),
            edits: self.edits,
            stale: self.stale,
        }
    }

    /// Restores the session to `snapshot`, consuming it (no clone). The
    /// session keeps its arena.
    pub fn restore(&mut self, snapshot: SessionSnapshot) {
        self.sg = snapshot.sg;
        self.analysis = snapshot.analysis;
        self.scenarios = snapshot.scenarios;
        self.edits = snapshot.edits;
        self.stale = snapshot.stale;
    }
}

/// A point-in-time copy of an [`AnalysisSession`]'s graph and analyses;
/// created by [`AnalysisSession::snapshot`], applied by
/// [`restore`](AnalysisSession::restore) (clone it to restore twice).
/// The backbone of speculative design exploration: try a structural
/// edit, keep it if the objective improves, roll back if not — without
/// ever reopening the session.
#[derive(Clone, Debug)]
pub struct SessionSnapshot {
    sg: SignalGraph,
    analysis: CycleTimeAnalysis,
    scenarios: Option<Scenarios>,
    edits: u64,
    stale: bool,
}

/// The first valid edit of `edits`, in batch order, whose new delay
/// some scenario of `set` scales past the largest finite delay, with
/// the first such scenario: `(edit index, scenario)`. Each scenario's
/// factor row is derived once.
fn first_overflow(
    sg: &SignalGraph,
    set: &ScenarioSet,
    edits: &[DelayEdit],
) -> Option<(usize, usize)> {
    let mut row = Vec::new();
    let overflows = |row: &[f64], e: &DelayEdit| {
        sg.is_live_arc(e.arc)
            && Delay::new(e.delay).is_ok()
            && !scenario::delay(row, e.arc, e.delay).is_finite()
    };
    (0..set.len())
        .filter_map(|j| {
            set.fill_row(j, sg.arc_count(), &mut row);
            Some((edits.iter().position(|e| overflows(&row, e))?, j))
        })
        .min()
}

/// Applies a structural batch to `sg` in order and re-validates the
/// whole graph. On an error `sg` is left partly edited: the caller
/// restores its backup.
fn apply_graph_edits(sg: &mut SignalGraph, edits: &[GraphEdit]) -> Result<(), EditError> {
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
            } => _ = sg.add_arc(src, dst, delay, marked)?,
            GraphEdit::RemoveArc { arc } => sg.remove_arc(arc)?,
            GraphEdit::AddEvent { ref label } => _ = sg.add_event(label)?,
            GraphEdit::RemoveEvent { event } => sg.remove_event(event)?,
        }
    }
    Ok(sg.validate()?)
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

    /// Every batch re-runs the whole analysis: all borders, all rows.
    fn assert_full_rerun(delta: &CycleTimeDelta) {
        assert_eq!(delta.dirty, delta.borders);
        assert_eq!(delta.rows, delta.rows_total);
        assert_eq!(delta.rows_total, delta.borders * (delta.borders + 1));
    }

    #[test]
    fn prefix_arc_edits_are_clean() {
        // The e- → f- arc feeds no border simulation: the analysis is
        // unchanged (and still agrees with scratch, which ignores prefix
        // delays too).
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let e = session.graph().event_by_label("e-").unwrap();
        let f = session.graph().event_by_label("f-").unwrap();
        let arc = session.graph().arc_between(e, f).unwrap();
        let delta = session
            .edit_delays(&[DelayEdit { arc, delay: 99.0 }], None)
            .unwrap();
        assert_full_rerun(&delta);
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
        assert_full_rerun(&delta);
        assert_eq!(delta.after.as_f64(), 10.0);
    }

    #[test]
    fn dirty_region_restart_reuses_rows_by_token_distance() {
        // A long ring with tokens spread out plus a local side loop: an
        // edit near n0 reaches a distant border's simulation only after
        // the tokens between them have been spent. The session re-runs
        // every row anyway and must still match scratch.
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
        assert_eq!((delta.rows, delta.rows_total), (12, 12));
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
        let err =
            AnalysisSession::open_in(figure2(), AnalysisArena::new(), Some(&token)).unwrap_err();
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
    /// adds a token, changes the border set, and grows the event axis.
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
        // axis unchanged. Sessions keep no lane matrix between calls, so
        // the edit reruns every row and must match a from-scratch run.
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
        assert_eq!((delta.dirty, delta.borders), (2, 2));
        assert_full_rerun(&delta);
        assert_matches_scratch(&session, "add unmarked arc");
    }

    #[test]
    fn structural_remove_arc_resumes_warm_lanes() {
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let ap = session.graph().event_by_label("a+").unwrap();
        let bm = session.graph().event_by_label("b-").unwrap();
        let delta = session
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
        assert_full_rerun(&delta);
        assert_matches_scratch(&session, "add unmarked arc");
        let arc = session.graph().arc_between(ap, bm).unwrap();
        let delta = session
            .edit_structure(&[GraphEdit::RemoveArc { arc }], None)
            .unwrap();
        assert_full_rerun(&delta);
        assert!(!session.graph().is_live_arc(arc));
        assert_matches_scratch(&session, "remove arc");
    }

    #[test]
    fn pipeline_split_reseeds_the_border_lanes() {
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let batch = split_batch(&session, "a+", "c+", "s+");
        let delta = session.edit_structure(&batch, None).unwrap();
        // The marked s+ -> c+ arc makes c+ a border event: [a+, b+]
        // becomes [a+, b+, c+].
        assert_eq!(session.analysis().border_events().len(), 3);
        assert_eq!((delta.dirty, delta.borders), (3, 3));
        assert_full_rerun(&delta);
        assert_eq!(session.graph().event_count(), 9);
        assert_matches_scratch(&session, "pipeline split");
        // The session stays editable on the new shape.
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

        // The rolled-back session stays editable.
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
        let set = ScenarioSet::corners(10.0, &[Corner::Min, Corner::Typ, Corner::Max]).unwrap();
        session.enable_scenarios(&set, None).unwrap();
        assert_eq!(session.scenario_set().map(ScenarioSet::len), Some(3));
        assert_scenarios_match_scratch(&session, "after enable");

        // A delay edit re-runs the scenario sweep with the scaled δs.
        let arc = session.resolve_arc("a+", "c+").unwrap();
        session
            .edit_delays(&[DelayEdit { arc, delay: 9.0 }], None)
            .unwrap();
        assert_matches_scratch(&session, "delay edit, nominal");
        assert_scenarios_match_scratch(&session, "delay edit");

        // A structural batch that keeps the border set and event axis.
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

        // A batch that changes the border set and grows the arc axis:
        // the set, built before the new arcs, is kept as given and its
        // sweep matches the scalar engine on each grown, reweighted
        // graph.
        let batch = split_batch(&session, "b+", "c+", "s+");
        session.edit_structure(&batch, None).unwrap();
        assert_eq!(session.scenario_set(), Some(&set));
        let sa = session.scenario_analysis().unwrap();
        for j in 0..set.len() {
            let reweighted = set.reweighted(session.graph(), j).unwrap();
            let want = CycleTimeAnalysis::run_scalar(&reweighted).unwrap();
            assert_eq!(
                sa.analysis(j).cycle_time().as_f64().to_bits(),
                want.cycle_time().as_f64().to_bits(),
                "split: scenario {j} cycle time"
            );
            assert_eq!(
                sa.analysis(j).critical_cycle(),
                want.critical_cycle(),
                "split: scenario {j}"
            );
        }
        assert_matches_scratch(&session, "split, nominal");
        assert_scenarios_match_scratch(&session, "split reseed");
    }

    #[test]
    fn overflowing_scenario_delays_are_edit_errors() {
        use crate::analysis::scenario::Corner;

        let mut session = AnalysisSession::open(figure2()).unwrap();
        let set = ScenarioSet::corners(10.0, &[Corner::Min, Corner::Typ, Corner::Max]).unwrap();
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
        let mut session = AnalysisSession::open(figure2()).unwrap();
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
        assert!(session.scenario_analysis().is_none());
    }

    /// A refused delay batch names the first bad edit in batch order;
    /// an edit that overflows names the first scenario that overflows
    /// it. The oracle checks edit by edit, scenario by scenario.
    #[test]
    fn delay_batch_errors_follow_batch_order() {
        use rand::rngs::SmallRng;
        use rand::{RngCore, SeedableRng};

        let mut session = AnalysisSession::open(figure2()).unwrap();
        let set = ScenarioSet::samples(6, 3, 10.0).unwrap();
        session.enable_scenarios(&set, None).unwrap();
        let sg = session.graph().clone();
        let rows: Vec<Vec<f64>> = (0..set.len())
            .map(|j| {
                let mut row = Vec::new();
                set.fill_row(j, sg.arc_count(), &mut row);
                row
            })
            .collect();
        let oracle = |batch: &[DelayEdit]| {
            for e in batch {
                if !sg.is_live_arc(e.arc) {
                    return Some(EditError::UnknownArc(e.arc));
                }
                if Delay::new(e.delay).is_err() {
                    let (arc, delay) = (e.arc, e.delay);
                    return Some(EditError::InvalidDelay { arc, delay });
                }
                let overflows = |j: &usize| !(e.delay * rows[*j][e.arc.index()]).is_finite();
                if let Some(j) = (0..set.len()).find(overflows) {
                    return Some(EditError::Analysis(set.overflow_error(&sg, j, e.arc)));
                }
            }
            None
        };
        let arcs: Vec<ArcId> = sg.arc_ids().filter(|&a| sg.is_live_arc(a)).collect();
        // Under ±10% each large delay overflows under a different subset
        // of the scenarios.
        let delays = [1.0, 1.65e308, 1.7e308, 1.75e308, -1.0, f64::INFINITY];
        let snap = session.snapshot();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut refused = 0;
        for case in 0..300 {
            let len = 1 + rng.next_u64() % 4;
            let batch: Vec<DelayEdit> = (0..len)
                .map(|_| DelayEdit {
                    arc: *arcs
                        .get(rng.next_u64() as usize % (arcs.len() + 1))
                        .unwrap_or(&ArcId(999)),
                    delay: delays[rng.next_u64() as usize % delays.len()],
                })
                .collect();
            let got = session.edit_delays(&batch, None);
            match oracle(&batch) {
                Some(want) => {
                    assert_eq!(got.unwrap_err(), want, "case {case}: {batch:?}");
                    refused += 1;
                }
                None => assert!(
                    !matches!(
                        got,
                        Err(EditError::Analysis(AnalysisError::ScenarioDelay { .. }))
                    ),
                    "case {case}: {got:?}"
                ),
            }
            session.restore(snap.clone());
        }
        assert!(refused > 100, "{refused}");
    }

    #[test]
    fn sampled_scenarios_follow_session_edits() {
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let set = ScenarioSet::samples(5, 42, 20.0).unwrap();
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
        let set = ScenarioSet::corners(15.0, &[Corner::Min, Corner::Typ, Corner::Max]).unwrap();
        session.enable_scenarios(&set, None).unwrap();
        let arc = session.resolve_arc("a+", "c+").unwrap();

        // Sweep the cancel budget across both the nominal run and the
        // scenario sweep; every abort must heal bit-identically
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

        // A cancelled structural batch heals the scenario axis too.
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
        let set = ScenarioSet::corners(10.0, &[Corner::Min, Corner::Max]).unwrap();
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

        // The rolled-back scenario lanes stay editable.
        session
            .edit_delays(&[DelayEdit { arc, delay: 6.0 }], None)
            .unwrap();
        assert_scenarios_match_scratch(&session, "edit after rollback");
    }

    #[test]
    fn session_arena_holds_a_one_shot_window() {
        // The session re-runs the one-shot core in its arena: after the
        // open and after each batch the arena holds exactly what a
        // one-shot `run_in` of the same graphs holds — a two-row lane
        // window, not the (b + 1)-row matrix of every border.
        let mut session = AnalysisSession::open(figure2()).unwrap();
        let mut oneshot = AnalysisArena::new();
        let mut assert_window = |session: &AnalysisSession, ctx: &str| {
            CycleTimeAnalysis::run_in(session.graph(), None, &mut oneshot).unwrap();
            assert_eq!(session.arena_capacity(), oneshot.capacity(), "{ctx}");
        };
        assert_window(&session, "open");
        let arc = session.resolve_arc("a+", "c+").unwrap();
        session
            .edit_delays(&[DelayEdit { arc, delay: 6.0 }], None)
            .unwrap();
        assert_window(&session, "delay batch");
        let batch = split_batch(&session, "a+", "c+", "s+");
        session.edit_structure(&batch, None).unwrap();
        assert_window(&session, "structural batch");
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
        // into a new event) is refused the same way.
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
        let set = ScenarioSet::corners(10.0, &[Corner::Typ, Corner::Max]).unwrap();

        // Each scaled delay is finite; the max corner's cycle is not.
        let mut session = AnalysisSession::open(toggle(9e307, 8e307)).unwrap();
        let err = session.enable_scenarios(&set, None).unwrap_err();
        assert!(
            matches!(err, AnalysisError::NonFiniteCycleLength { .. }),
            "{err:?}"
        );
        assert!(session.scenario_analysis().is_none());

        // With scenarios on, an edit that overflows only the max corner
        // is refused and rolled back, scenario state included.
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
