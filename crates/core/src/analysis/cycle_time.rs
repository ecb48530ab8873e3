//! The O(b²m) cycle-time algorithm (Sections VI–VII of the paper).
//!
//! The algorithm:
//!
//! 1. identify the `b` border events (a cut set, so one of them lies on a
//!    critical cycle);
//! 2. for each border event `g`, run a `g₀`-initiated timing simulation
//!    over `b` periods (Proposition 7 bounds the occurrence period of any
//!    simple cycle by the size of a minimum cut set ≤ `b`);
//! 3. collect the average occurrence distances `δ_{g0}(g_i) = t_{g0}(g_i)/i`
//!    after each full period;
//! 4. the maximum of the collected `b²` values is the cycle time
//!    (Propositions 7 and 8);
//! 5. backtrack the winning simulation to recover a critical cycle
//!    (Proposition 1), decomposing the closed walk into simple cycles
//!    (Proposition 5).
//!
//! Step 2 — the hot phase — runs on the lane-batched
//! [`wide`](crate::analysis::wide) kernel: all `b` simulations advance
//! in lockstep over **one** pass of the shared flattened in-arc table,
//! so the table streams through cache once per row instead of once per
//! simulation, and the per-arc `max(best, src + δ)` widens to `b`
//! contiguous SIMD-friendly lanes. The kernel keeps two rows and each
//! lane's origin cell per row — all step 3 reads.
//! The scalar engine survives as [`CycleTimeAnalysis::run_scalar`] — the
//! reference oracle every wide result is property-tested (and
//! bench-asserted) bit-identical against — and as the parent-tracked
//! re-run of the single winning border in step 5.

use std::fmt;

use tsg_sim::{CancelKind, CancelToken};

use crate::analysis::initiated::SimArena;
use crate::analysis::scenario::{self, ScenarioAnalysis, ScenarioSet};
use crate::analysis::sim::MAX_CELLS;
use crate::analysis::structure::EvalStructure;
use crate::analysis::wide::{AnalysisArena, Cancelled, WideArena};
use crate::analysis::CycleTime;
use crate::arc::ArcId;
use crate::event::EventId;
use crate::graph::SignalGraph;

/// Error returned by [`CycleTimeAnalysis::run`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// The graph has no repetitive events, hence no cycles and no cycle
    /// time (a purely acyclic PERT computation).
    NoCyclicBehavior,
    /// The analysis observed its [`CancelToken`] mid-flight — the
    /// request's deadline passed or it was cancelled explicitly — and
    /// stopped cooperatively after `rows_done` of `rows_total` lockstep
    /// simulation rows (counted over every scenario of a sweep; a slack
    /// analysis past its nested analysis counts Bellman–Ford sources).
    Cancelled {
        /// Whether a deadline or an explicit cancel stopped the run.
        kind: CancelKind,
        /// Fully computed lane rows at the moment of the abort.
        rows_done: usize,
        /// Rows a complete run (or sweep) would have computed.
        rows_total: usize,
    },
    /// The winning cycle's total delay is not a finite `f64`: its arc
    /// delays are so large that their sum overflows.
    NonFiniteCycleLength {
        /// Label of the border event whose record won.
        event: String,
        /// Periods the overflowing cycle spans.
        periods: u32,
    },
    /// No border event recurs within the simulated periods, so no
    /// average occurrence distance is defined: a caller-supplied
    /// `periods` is below the occurrence period of every cycle through
    /// a border event.
    TooFewPeriods {
        /// The periods each border simulation ran.
        periods: u32,
    },
    /// A delay scenario scales an arc's delay past the largest finite
    /// `f64` (a nominal delay near `f64::MAX` under a factor above 1).
    ScenarioDelay {
        /// Label of the scenario (`max`, `s3`, …).
        scenario: String,
        /// Label of the arc's source event.
        src: String,
        /// Label of the arc's target event.
        dst: String,
    },
    /// The analysis would keep more than [`MAX_CELLS`] time cells (see
    /// [`analysis_cells`]); it is refused before anything is allocated.
    TooLarge {
        /// Events of the analysed graph.
        events: usize,
        /// Border lanes (one per border event).
        lanes: usize,
        /// Periods each border simulation runs.
        periods: u32,
        /// The time cells the analysis needs; `usize::MAX` when the
        /// count overflows.
        cells: usize,
    },
    /// A scenario sweep's results and factor row would hold more than
    /// [`MAX_CELLS`] cells (a critical cycle, records and border lists
    /// per scenario, one factor per arc slot); it is refused before its
    /// first scenario runs.
    SweepTooLarge {
        /// Scenarios of the sweep.
        scenarios: usize,
        /// The cells the sweep keeps; `usize::MAX` when the count
        /// overflows.
        cells: usize,
    },
    /// The slack analysis' `events × events` longest-path table would
    /// hold more than [`MAX_CELLS`] cells; it is refused before anything
    /// is allocated.
    SlackTooLarge {
        /// Repetitive events of the analysed graph.
        events: usize,
        /// The table's cells; `usize::MAX` when the count overflows.
        cells: usize,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::NoCyclicBehavior => {
                write!(f, "graph has no repetitive events: cycle time is undefined")
            }
            AnalysisError::Cancelled {
                kind,
                rows_done,
                rows_total,
            } => {
                write!(
                    f,
                    "{kind} after {rows_done} of {rows_total} simulation row(s)"
                )
            }
            AnalysisError::NonFiniteCycleLength { event, periods } => {
                write!(
                    f,
                    "the critical cycle through {event} over {periods} period(s) \
                     has a non-finite total delay (delays too large)"
                )
            }
            AnalysisError::TooFewPeriods { periods } => {
                write!(
                    f,
                    "no border event recurs within {periods} period(s): \
                     simulate more periods"
                )
            }
            AnalysisError::ScenarioDelay { scenario, src, dst } => {
                write!(
                    f,
                    "scenario {scenario} scales the delay of {src} -> {dst} \
                     past the largest finite delay"
                )
            }
            AnalysisError::TooLarge {
                events,
                lanes,
                periods,
                cells,
            } => {
                write!(
                    f,
                    "{events} event(s) with {lanes} border lane(s) over {periods} period(s) \
                     need {cells} time cells, more than {MAX_CELLS}"
                )
            }
            AnalysisError::SweepTooLarge { scenarios, cells } => write!(
                f,
                "a sweep of {scenarios} scenario(s) keeps {cells} result cells, \
                 more than {MAX_CELLS}"
            ),
            AnalysisError::SlackTooLarge { events, cells } => {
                write!(
                    f,
                    "slack over {events} repetitive event(s) needs a {cells}-cell \
                     distance table, more than {MAX_CELLS}"
                )
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// The per-border-event record of collected average occurrence distances.
#[derive(Clone, Debug)]
pub struct BorderRecord {
    /// The initiating border event.
    pub event: EventId,
    /// `(i, t_{g0}(g_i), δ_{g0}(g_i))` for each defined `0 < i <= b`.
    pub distances: Vec<(u32, f64, f64)>,
}

impl BorderRecord {
    /// The best `(t, i)` pair of this record by the ratio `t/i`, preferring
    /// fewer periods on ties (the witness of a shorter simple cycle).
    fn best(&self) -> Option<(f64, u32)> {
        self.distances
            .iter()
            .copied()
            .map(|(i, t, _)| (t, i))
            .max_by(|a, b| ratio_cmp(*a, *b).then_with(|| b.1.cmp(&a.1)))
    }
}

fn ratio_cmp(a: (f64, u32), b: (f64, u32)) -> std::cmp::Ordering {
    // a.0/a.1 vs b.0/b.1 by cross multiplication (denominators positive).
    (a.0 * b.1 as f64).total_cmp(&(b.0 * a.1 as f64))
}

impl From<Cancelled> for AnalysisError {
    fn from(c: Cancelled) -> Self {
        AnalysisError::Cancelled {
            kind: c.kind,
            rows_done: c.rows_done,
            rows_total: c.rows_total,
        }
    }
}

/// The time cells one analysis keeps, in checked arithmetic: a two-row
/// window of `events × w` cells per row, where the lane stride
/// `w = lanes.next_multiple_of(4)` pads the `lanes` border lanes to
/// whole 4-lane blocks, plus an origin strip of `lanes × (periods + 1)`
/// cells, and `events × (periods + 1)` more for the winner's
/// parent-tracked re-run. `None` when the count overflows.
pub fn analysis_cells(events: usize, lanes: usize, periods: u32) -> Option<usize> {
    let rows = (periods as usize).checked_add(1)?;
    let window = events
        .checked_mul(2)?
        .checked_mul(lanes.checked_next_multiple_of(4)?)?;
    let strip = lanes.checked_mul(rows)?;
    window
        .checked_add(strip)?
        .checked_add(events.checked_mul(rows)?)
}

/// `Ok` when `cells` fits in [`MAX_CELLS`], else `refuse(cells)`, with
/// an overflowed count (`None`) as `usize::MAX`.
pub(crate) fn within_budget(
    cells: Option<usize>,
    refuse: impl FnOnce(usize) -> AnalysisError,
) -> Result<(), AnalysisError> {
    match cells {
        Some(cells) if cells <= MAX_CELLS => Ok(()),
        cells => Err(refuse(cells.unwrap_or(usize::MAX))),
    }
}

/// [`AnalysisError::TooLarge`] unless [`analysis_cells`] fits in
/// [`MAX_CELLS`].
fn check_budget(sg: &SignalGraph, lanes: usize, periods: u32) -> Result<(), AnalysisError> {
    let events = sg.event_count();
    within_budget(analysis_cells(events, lanes, periods), |cells| {
        AnalysisError::TooLarge {
            events,
            lanes,
            periods,
            cells,
        }
    })
}

/// The records of `wide`'s lanes, lane `k` initiated from `origins[k]`.
fn lane_records(wide: &WideArena, origins: &[EventId]) -> Vec<BorderRecord> {
    origins
        .iter()
        .enumerate()
        .map(|(k, &g)| BorderRecord {
            event: g,
            distances: wide.distance_series(k),
        })
        .collect()
}

/// Result of the paper's cycle-time algorithm.
///
/// # Examples
///
/// ```
/// use tsg_core::SignalGraph;
/// use tsg_core::analysis::CycleTimeAnalysis;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SignalGraph::builder();
/// let xp = b.event("x+");
/// let xm = b.event("x-");
/// b.arc(xp, xm, 3.0);
/// b.marked_arc(xm, xp, 2.0);
/// let sg = b.build()?;
///
/// let analysis = CycleTimeAnalysis::run(&sg)?;
/// assert_eq!(analysis.cycle_time().as_f64(), 5.0);
/// assert_eq!(analysis.critical_cycle().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CycleTimeAnalysis {
    cycle_time: CycleTime,
    critical_cycle: Vec<ArcId>,
    critical_borders: Vec<EventId>,
    border: Vec<EventId>,
    records: Vec<BorderRecord>,
}

impl CycleTimeAnalysis {
    /// Runs the algorithm on a validated graph.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoCyclicBehavior`] when `sg` has no
    /// repetitive events.
    pub fn run(sg: &SignalGraph) -> Result<Self, AnalysisError> {
        Self::run_in(sg, None, &mut AnalysisArena::new())
    }

    /// Runs the algorithm with the `b` lockstep simulations — a two-row
    /// lane-major window plus each lane's origin cell per row, all the
    /// records read — and the scalar arena of the parent-tracked winner
    /// re-run living in `arena`. The full matrix is never materialised.
    ///
    /// `periods` overrides the default `b` periods per border event.
    /// Correctness requires it to be at least the maximum occurrence
    /// period `ε_max` of a simple cycle. `b` is always sufficient; a
    /// tight value can be computed with the exact ε_max oracle,
    /// `tsg_oracles::border::exact_max_occurrence_period` in the dev-only
    /// `tsg-oracles` crate — the oscillator of Section VIII.C needs a
    /// single period, as the paper remarks. (The paper's Proposition 6
    /// bounds `ε_max` by the minimum cut set size, which is not sound in
    /// general; see `tsg_oracles::border::max_occurrence_period_bound`.)
    ///
    /// The arena fixes the kernel backend; all `b` lanes advance in one
    /// lockstep pass on the calling thread. Repeated analyses over one
    /// arena — a design-space inner loop, a worker thread of a
    /// many-graph sweep, a serve workspace, an
    /// [`AnalysisSession`](crate::analysis::AnalysisSession) — stop
    /// churning the allocator: after the first analysis of the largest
    /// shape, the window and strips are never reallocated again.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoCyclicBehavior`] when `sg` has no
    /// repetitive events, [`AnalysisError::TooLarge`] when the windows,
    /// strips and winner re-run would keep more than
    /// [`MAX_CELLS`] time cells ([`analysis_cells`], checked before
    /// anything is allocated), and [`AnalysisError::TooFewPeriods`]
    /// when no border event recurs within a caller-supplied `periods`.
    pub fn run_in(
        sg: &SignalGraph,
        periods: Option<u32>,
        arena: &mut AnalysisArena,
    ) -> Result<Self, AnalysisError> {
        Self::run_in_with_cancel(sg, periods, arena, None)
    }

    /// [`run_in`](Self::run_in) with cooperative cancellation: `cancel`
    /// is polled once per lockstep row, so a deadline or an explicit
    /// cancel aborts a long analysis within one row of work and returns
    /// [`AnalysisError::Cancelled`] with the rows done. The arena stays
    /// valid for reuse — the next run overwrites the partially written
    /// window and strip from row 0.
    ///
    /// (The O(b·m) parent-tracked winner re-run in the finish step is
    /// not polled: it is one simulation against the main phase's `b`.)
    ///
    /// # Errors
    ///
    /// As [`run_in`](Self::run_in), plus [`AnalysisError::Cancelled`]
    /// when `cancel` fires first.
    pub fn run_in_with_cancel(
        sg: &SignalGraph,
        periods: Option<u32>,
        arena: &mut AnalysisArena,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, AnalysisError> {
        let mut analyses = Self::run_assignments(sg, periods, None, arena, cancel)?;
        Ok(analyses.pop().expect("one delay assignment"))
    }

    /// One analysis of `sg` per delay assignment — each scenario of
    /// `set` in order, or `sg`'s own delays when `set` is `None` — on one
    /// structure: the border set, the cell budgets and the structure are
    /// computed once, and each scenario only fills one reused factor row
    /// over the arc slots and writes the scaled delays into the
    /// structure, on which the lockstep passes and the finish then run.
    /// A cancelled run counts its rows over every assignment.
    fn run_assignments(
        sg: &SignalGraph,
        periods: Option<u32>,
        set: Option<&ScenarioSet>,
        arena: &mut AnalysisArena,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<Self>, AnalysisError> {
        let border = sg.border_events();
        if border.is_empty() {
            return Err(AnalysisError::NoCyclicBehavior);
        }
        let b = periods.unwrap_or(border.len() as u32).max(1);
        check_budget(sg, border.len(), b)?;
        if let Some(set) = set {
            // Each scenario keeps a critical cycle of at most n arcs, b
            // records of at most `b` (i, t, δ) triples and two border
            // lists; the sweep adds one factor row over the arc slots.
            let scenarios = set.len();
            let cells = (b as usize).checked_mul(3).and_then(|triples| {
                let per = triples.checked_add(2)?.checked_mul(border.len())?;
                let per = per.checked_add(sg.event_count())?;
                per.checked_mul(scenarios)?.checked_add(sg.arc_count())
            });
            within_budget(cells, |cells| AnalysisError::SweepTooLarge {
                scenarios,
                cells,
            })?;
        }
        let AnalysisArena {
            wide,
            finish,
            structure,
        } = arena;
        structure.rebuild(sg);
        let s = set.map_or(1, ScenarioSet::len);
        let mut analyses = Vec::with_capacity(s);
        // Scenario `j`'s factor row; the nominal run never fills it.
        let mut row = Vec::new();
        for j in 0..s {
            if let Some(set) = set {
                set.fill_row(j, sg.arc_count(), &mut row);
                set.check(sg, j, &row)?;
                for entry in &mut structure.entries {
                    entry.delay = scenario::delay(&row, entry.arc, sg.arc(entry.arc).delay().get());
                }
            }
            let delay = |a: ArcId| {
                let nominal = sg.arc(a).delay().get();
                set.map_or(nominal, |_| scenario::delay(&row, a, nominal))
            };
            wide.run_with(sg, structure, &border, b, cancel)
                .map_err(|c| Cancelled {
                    rows_done: j * c.rows_total + c.rows_done,
                    rows_total: s * c.rows_total,
                    ..c
                })?;
            let records = lane_records(wide, &border);
            let analysis = Self::finish(sg, structure, border.clone(), records, b, finish, delay)?;
            analyses.push(analysis);
        }
        Ok(analyses)
    }

    /// The scalar reference engine: the pre-wide one-simulation-at-a-time
    /// loop, kept as the oracle the lane-batched kernel is verified
    /// against (`tests/wide.rs`, the `bench` binary's `wide-vs-scalar`
    /// scenario) and as the baseline those speedups are measured from.
    /// Bit-identical to [`CycleTimeAnalysis::run`] by construction.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoCyclicBehavior`] when `sg` has no
    /// repetitive events.
    pub fn run_scalar(sg: &SignalGraph) -> Result<Self, AnalysisError> {
        Self::run_scalar_in(sg, None, &mut SimArena::new())
    }

    /// Arena-reusing form of [`CycleTimeAnalysis::run_scalar`].
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoCyclicBehavior`] when `sg` has no
    /// repetitive events.
    pub fn run_scalar_in(
        sg: &SignalGraph,
        periods: Option<u32>,
        arena: &mut SimArena,
    ) -> Result<Self, AnalysisError> {
        let border = sg.border_events();
        if border.is_empty() {
            return Err(AnalysisError::NoCyclicBehavior);
        }
        let b = periods.unwrap_or(border.len() as u32).max(1);
        // One scalar simulation at a time: a one-lane window bounds its
        // `events × (b + 1)` matrix.
        check_budget(sg, 1, b)?;

        let structure = EvalStructure::new(sg);
        let mut records = Vec::with_capacity(border.len());
        for &g in &border {
            arena
                .run_with(sg, &structure, g, b, false)
                .expect("border events are repetitive by construction");
            records.push(BorderRecord {
                event: g,
                distances: arena.distance_series(),
            });
        }

        Self::finish(sg, &structure, border, records, b, arena, |a| {
            sg.arc(a).delay().get()
        })
    }

    /// Runs the algorithm under every delay scenario of `set`, in order,
    /// on one structure: the border set, the cell budgets and the
    /// structure are computed once, and each scenario `j` derives its
    /// factor row over `sg`'s arc slots and writes its `nominal × factor`
    /// delays into the structure before its analysis.
    /// So [`ScenarioAnalysis::analysis`]`(j)` is the analysis of
    /// [`ScenarioSet::reweighted`]`(sg, j)`, bit for bit, and no graph
    /// is copied. A cancelled sweep counts
    /// its progress over every scenario: scenario `j` stopped after `r`
    /// of its `b + 1` rows reads `j · (b + 1) + r` of `s · (b + 1)`.
    ///
    /// # Errors
    ///
    /// As [`run_in_with_cancel`](Self::run_in_with_cancel), plus
    /// [`AnalysisError::SweepTooLarge`] when the sweep's results would
    /// keep more than [`MAX_CELLS`] cells (checked before the first
    /// scenario runs), and [`AnalysisError::ScenarioDelay`] naming the
    /// first live arc, in `ArcId` order, whose scaled delay overflows.
    /// The first scenario, in order, that fails stops the sweep.
    pub fn run_scenarios_in(
        sg: &SignalGraph,
        set: &ScenarioSet,
        arena: &mut AnalysisArena,
        cancel: Option<&CancelToken>,
    ) -> Result<ScenarioAnalysis, AnalysisError> {
        let analyses = Self::run_assignments(sg, None, Some(set), arena, cancel)?;
        let labels = (0..set.len()).map(|j| set.label(j).to_string()).collect();
        Ok(ScenarioAnalysis::new(labels, analyses))
    }

    /// Steps 4–5 of the algorithm, shared by every entry point: pick the
    /// winning record of the `periods`-period simulations, re-run it
    /// with parent tracking in `arena`, and backtrack the critical
    /// cycle, comparing cycle lengths under `delay`, which must give the
    /// per-arc delays `structure` holds.
    ///
    /// Fails with [`AnalysisError::TooFewPeriods`] when no record holds
    /// a defined distance: no border event recurs within `periods`
    /// periods (only a caller-supplied `periods` below `b` can do that).
    pub(crate) fn finish(
        sg: &SignalGraph,
        structure: &EvalStructure,
        border: Vec<EventId>,
        records: Vec<BorderRecord>,
        periods: u32,
        arena: &mut SimArena,
        delay: impl Fn(ArcId) -> f64,
    ) -> Result<Self, AnalysisError> {
        // Step 4: the largest average occurrence distance is the cycle time.
        let (mut best, mut best_idx): (Option<(f64, u32)>, usize) = (None, 0);
        for (k, rec) in records.iter().enumerate() {
            if let Some(cand) = rec.best() {
                if best.is_none() || ratio_cmp(cand, best.unwrap()).is_gt() {
                    best = Some(cand);
                    best_idx = k;
                }
            }
        }
        let Some((length, periods_spanned)) = best else {
            return Err(AnalysisError::TooFewPeriods { periods });
        };
        if !length.is_finite() {
            return Err(AnalysisError::NonFiniteCycleLength {
                event: sg.label(border[best_idx]).to_string(),
                periods: periods_spanned,
            });
        }
        let cycle_time = CycleTime::new(length, periods_spanned);

        // Step 5: re-run the winning simulation with parent tracking and
        // backtrack a critical cycle from it.
        arena
            .run_with(sg, structure, border[best_idx], periods_spanned, true)
            .expect("winner is a border event");
        let walk = arena
            .backtrack_in(sg, border[best_idx], periods_spanned)
            .expect("winning instance is reachable");
        let critical_cycle = best_simple_cycle(sg, border[best_idx], &walk, delay);

        // Proposition 8: border events strictly below τ are off all
        // critical cycles; those attaining τ are on one.
        let critical_borders = records
            .iter()
            .filter_map(|rec| {
                rec.best().and_then(|cand| {
                    ratio_cmp(cand, (length, periods_spanned))
                        .is_eq()
                        .then_some(rec.event)
                })
            })
            .collect();

        Ok(CycleTimeAnalysis {
            cycle_time,
            critical_cycle,
            critical_borders,
            border,
            records,
        })
    }

    /// The cycle time `τ` of the graph.
    pub fn cycle_time(&self) -> CycleTime {
        self.cycle_time
    }

    /// A critical cycle: a simple cycle whose effective length `C/ε`
    /// equals the cycle time.
    pub fn critical_cycle(&self) -> &[ArcId] {
        &self.critical_cycle
    }

    /// The border events that lie on a critical cycle (attain `τ`).
    pub fn critical_borders(&self) -> &[EventId] {
        &self.critical_borders
    }

    /// The border events the simulations were initiated from.
    pub fn border_events(&self) -> &[EventId] {
        &self.border
    }

    /// The collected per-border average-occurrence-distance tables.
    pub fn records(&self) -> &[BorderRecord] {
        &self.records
    }
}

/// The effective length `C/ε` of a cycle, as a [`CycleTime`].
///
/// # Panics
///
/// Panics if the cycle has no marked arc (impossible in a validated live
/// graph).
pub fn cycle_ratio(sg: &SignalGraph, cycle: &[ArcId]) -> CycleTime {
    CycleTime::new(sg.path_length(cycle), sg.occurrence_period(cycle))
}

/// Decomposes the closed walk `start -walk-> start` into simple cycles and
/// returns the one with the largest effective length under `delay`
/// (Proposition 5 guarantees it attains the walk's ratio).
fn best_simple_cycle(
    sg: &SignalGraph,
    start: EventId,
    walk: &[ArcId],
    delay: impl Fn(ArcId) -> f64,
) -> Vec<ArcId> {
    /// Sentinel for "event not on the current open walk" in the flat
    /// position map (a critical walk visits events once per period, so a
    /// dense `Vec` beats a `HashMap` on the kilo-arc walks big rings
    /// produce).
    const OFF_WALK: u32 = u32::MAX;
    let mut cycles: Vec<Vec<ArcId>> = Vec::new();
    let mut pos: Vec<u32> = vec![OFF_WALK; sg.event_count()];
    pos[start.index()] = 0;
    let mut arcs: Vec<ArcId> = Vec::new();
    for &a in walk {
        arcs.push(a);
        let v = sg.arc(a).dst();
        let k = pos[v.index()];
        if k != OFF_WALK {
            // arcs[k..] close a cycle at v
            let cycle: Vec<ArcId> = arcs.split_off(k as usize);
            for c in &cycle {
                let node = sg.arc(*c).dst();
                if node != v {
                    pos[node.index()] = OFF_WALK;
                }
            }
            cycles.push(cycle);
        } else {
            pos[v.index()] = arcs.len() as u32;
        }
    }
    debug_assert!(arcs.is_empty(), "walk must decompose exactly into cycles");
    let ratio = |c: &[ArcId]| {
        let length = c.iter().map(|&a| delay(a)).sum::<f64>();
        (length, sg.occurrence_period(c))
    };
    let best = cycles
        .into_iter()
        .max_by(|x, y| ratio_cmp(ratio(x), ratio(y)))
        .expect("closed walk contains at least one cycle");
    canonical_rotation(sg, best)
}

/// Rotates a cycle so it starts at its smallest (event id, arc id) pair —
/// gives deterministic output independent of which border event won.
fn canonical_rotation(sg: &SignalGraph, cycle: Vec<ArcId>) -> Vec<ArcId> {
    let k = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, &a)| (sg.arc(a).src(), a))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut out = Vec::with_capacity(cycle.len());
    out.extend_from_slice(&cycle[k..]);
    out.extend_from_slice(&cycle[..k]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignalGraph;

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

    #[test]
    fn oscillator_cycle_time_is_10() {
        // Section VIII.C: τ = max{10, 10, 8, 9} = 10.
        let sg = figure2();
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        assert_eq!(a.cycle_time().as_f64(), 10.0);
        assert_eq!(a.cycle_time().periods(), 1);
    }

    #[test]
    fn oscillator_collected_distances() {
        // a+: 10/1, 20/2; b+: 8/1, 18/2.
        let sg = figure2();
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        let rec = |l: &str| {
            a.records()
                .iter()
                .find(|r| sg.label(r.event).to_string() == l)
                .unwrap()
        };
        assert_eq!(rec("a+").distances, vec![(1, 10.0, 10.0), (2, 20.0, 10.0)]);
        assert_eq!(rec("b+").distances, vec![(1, 8.0, 8.0), (2, 18.0, 9.0)]);
    }

    #[test]
    fn oscillator_critical_cycle() {
        // Example 5/6: C1 = a+ -> c+ -> a- -> c- is the length-10 critical
        // cycle (the paper's VIII.C misprints C2 here; `repro --experiment
        // tab8c` prints a note citing this test).
        let sg = figure2();
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        assert_eq!(
            sg.display_path(a.critical_cycle()),
            "a+ -3-> c+ -2-> a- -3-> c- -2*-> a+"
        );
        assert_eq!(cycle_ratio(&sg, a.critical_cycle()).as_f64(), 10.0);
    }

    #[test]
    fn oscillator_critical_borders() {
        // a+ attains τ; b+ stays strictly below (Proposition 8).
        let sg = figure2();
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        let labels: Vec<String> = a
            .critical_borders()
            .iter()
            .map(|&e| sg.label(e).to_string())
            .collect();
        assert_eq!(labels, vec!["a+"]);
    }

    #[test]
    fn one_period_suffices_with_minimum_cut_knowledge() {
        // Section VIII.C: "As a minimum cut set consists of one element
        // (e.g. {c+}), one period is needed only."
        let sg = figure2();
        let a = CycleTimeAnalysis::run_in(&sg, Some(1), &mut AnalysisArena::new()).unwrap();
        assert_eq!(a.cycle_time().as_f64(), 10.0);
    }

    #[test]
    fn pure_prefix_graph_has_no_cycle_time() {
        let mut b = SignalGraph::builder();
        let s = b.initial_event("s");
        let t = b.finite_event("t");
        b.arc(s, t, 1.0);
        let sg = b.build().unwrap();
        assert_eq!(
            CycleTimeAnalysis::run(&sg).unwrap_err(),
            AnalysisError::NoCyclicBehavior
        );
    }

    #[test]
    fn self_loop_cycle_time() {
        let mut b = SignalGraph::builder();
        let x = b.event("x");
        b.marked_arc(x, x, 7.5);
        let sg = b.build().unwrap();
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        assert_eq!(a.cycle_time().as_f64(), 7.5);
        assert_eq!(a.critical_cycle().len(), 1);
    }

    #[test]
    fn two_loop_max_is_selected() {
        // x's loop is slower than y's: τ must be x's 9, not y's 4.
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        let y = b.event("y");
        b.arc(xp, xm, 4.0);
        b.marked_arc(xm, xp, 5.0);
        b.arc(xp, y, 1.0);
        b.marked_arc(y, xp, 3.0);
        let sg = b.build().unwrap();
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        assert_eq!(a.cycle_time().as_f64(), 9.0);
        let cyc = sg.display_path(a.critical_cycle());
        assert!(
            cyc.contains("x-"),
            "critical cycle should be the x loop: {cyc}"
        );
    }

    #[test]
    fn multi_period_cycle_detected() {
        // A 4-event ring with two tokens: each "cycle" spans 2 periods.
        // τ = total length / tokens = 8/2 = 4.
        let mut b = SignalGraph::builder();
        let n: Vec<_> = (0..4).map(|i| b.event(&format!("n{i}"))).collect();
        b.marked_arc(n[0], n[1], 2.0);
        b.arc(n[1], n[2], 2.0);
        b.marked_arc(n[2], n[3], 2.0);
        b.arc(n[3], n[0], 2.0);
        let sg = b.build().unwrap();
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        assert_eq!(a.cycle_time().as_f64(), 4.0);
        assert_eq!(a.cycle_time().periods(), 2);
        assert_eq!(a.critical_cycle().len(), 4);
    }

    #[test]
    fn zero_delay_graph_has_zero_cycle_time() {
        let mut b = SignalGraph::builder();
        let x = b.event("x");
        let y = b.event("y");
        b.arc(x, y, 0.0);
        b.marked_arc(y, x, 0.0);
        let sg = b.build().unwrap();
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        assert_eq!(a.cycle_time().as_f64(), 0.0);
    }

    #[test]
    fn walk_decomposition_picks_heaviest_cycle() {
        // Craft a walk that passes through a light cycle before the heavy
        // one: ensured indirectly by a graph where the longest 2-period
        // walk from the border event wraps through two different loops.
        let mut b = SignalGraph::builder();
        let p = b.event("p");
        let q = b.event("q");
        let r = b.event("r");
        b.arc(p, q, 1.0);
        b.marked_arc(q, p, 1.0); // loop A: length 2
        b.arc(p, r, 5.0);
        b.marked_arc(r, p, 5.0); // loop B: length 10
        let sg = b.build().unwrap();
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        assert_eq!(a.cycle_time().as_f64(), 10.0);
        let cyc = sg.display_path(a.critical_cycle());
        assert!(cyc.contains('r'), "{cyc}");
    }

    #[test]
    fn exact_ratio_for_integral_delays() {
        let sg = figure2();
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        assert_eq!(a.cycle_time().exact().unwrap().to_string(), "10");
    }

    fn assert_same_analysis(a: &CycleTimeAnalysis, b: &CycleTimeAnalysis, ctx: &str) {
        assert_eq!(
            a.cycle_time().as_f64().to_bits(),
            b.cycle_time().as_f64().to_bits(),
            "{ctx}: cycle time"
        );
        assert_eq!(a.cycle_time().periods(), b.cycle_time().periods(), "{ctx}");
        assert_eq!(a.critical_cycle(), b.critical_cycle(), "{ctx}");
        assert_eq!(a.critical_borders(), b.critical_borders(), "{ctx}");
        assert_eq!(a.border_events(), b.border_events(), "{ctx}");
        for (ra, rb) in a.records().iter().zip(b.records()) {
            assert_eq!(ra.event, rb.event, "{ctx}");
            assert_eq!(ra.distances, rb.distances, "{ctx}");
        }
    }

    #[test]
    fn run_in_reuses_arena_across_analyses() {
        use crate::analysis::wide::AnalysisArena;
        let sg = figure2();
        let mut arena = AnalysisArena::new();
        let first = CycleTimeAnalysis::run_in(&sg, None, &mut arena).unwrap();
        // A second analysis over the warmed arena must match exactly.
        let second = CycleTimeAnalysis::run_in(&sg, None, &mut arena).unwrap();
        assert_same_analysis(&first, &second, "arena reuse");
        assert_eq!(first.cycle_time().as_f64(), 10.0);
    }

    #[test]
    fn wide_run_is_bit_identical_to_the_scalar_reference() {
        // The acceptance bar of the lane-batched kernel, on the paper's
        // own oscillator: same bits out of `run` (wide) and `run_scalar`.
        let sg = figure2();
        let wide = CycleTimeAnalysis::run(&sg).unwrap();
        let scalar = CycleTimeAnalysis::run_scalar(&sg).unwrap();
        assert_same_analysis(&scalar, &wide, "wide vs scalar");
        for periods in [1u32, 2, 5] {
            let wide =
                CycleTimeAnalysis::run_in(&sg, Some(periods), &mut AnalysisArena::new()).unwrap();
            let scalar = CycleTimeAnalysis::run_scalar_in(
                &sg,
                Some(periods),
                &mut crate::analysis::initiated::SimArena::new(),
            )
            .unwrap();
            assert_same_analysis(&scalar, &wide, &format!("periods={periods}"));
        }
    }

    #[test]
    fn too_few_periods_is_an_error_not_a_panic() {
        // Both arcs of a two-event ring are marked, so an event recurs
        // only after two periods: one simulated period defines no
        // distance at all.
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.marked_arc(xp, xm, 3.0);
        b.marked_arc(xm, xp, 2.0);
        let sg = b.build().unwrap();
        let want = AnalysisError::TooFewPeriods { periods: 1 };
        assert_eq!(
            CycleTimeAnalysis::run_in(&sg, Some(1), &mut AnalysisArena::new()).unwrap_err(),
            want
        );
        assert_eq!(
            CycleTimeAnalysis::run_scalar_in(&sg, Some(1), &mut SimArena::new()).unwrap_err(),
            want
        );
        assert!(want.to_string().contains("1 period(s)"), "{want}");
        // Two periods reach the ring's 2-token cycle: τ = 5/2.
        let a = CycleTimeAnalysis::run_in(&sg, Some(2), &mut AnalysisArena::new()).unwrap();
        assert_eq!(a.cycle_time().as_f64(), 2.5);
    }

    #[test]
    fn cancelled_sweep_reports_progress_over_every_scenario() {
        // Figure 2 has b = 2 border events, so each scenario's analysis
        // polls its token once per row over 3 rows. A budget of 4 runs
        // scenario 0 whole and row 0 of scenario 1, then trips.
        use crate::analysis::scenario::Corner;
        let sg = figure2();
        let corners = [Corner::Min, Corner::Typ, Corner::Max];
        let set = ScenarioSet::corners(10.0, &corners).unwrap();
        let mut arena = AnalysisArena::new();
        let token = CancelToken::cancel_after_checks(4);
        let err =
            CycleTimeAnalysis::run_scenarios_in(&sg, &set, &mut arena, Some(&token)).unwrap_err();
        assert_eq!(
            err,
            AnalysisError::Cancelled {
                kind: CancelKind::Explicit,
                rows_done: 3 + 1,
                rows_total: 3 * 3,
            }
        );
        // No scenario delay leaks out of the shared structure: a nominal
        // run after the cancelled sweep matches a fresh arena's bits.
        let nominal = CycleTimeAnalysis::run(&sg).unwrap();
        let after = CycleTimeAnalysis::run_in(&sg, None, &mut arena).unwrap();
        assert_same_analysis(&after, &nominal, "run_in after a cancelled sweep");
        // The arena's next sweep heals to a fresh arena's bits.
        let redo = CycleTimeAnalysis::run_scenarios_in(&sg, &set, &mut arena, None).unwrap();
        let fresh = CycleTimeAnalysis::run_scenarios_in(&sg, &set, &mut AnalysisArena::new(), None)
            .unwrap();
        for j in 0..set.len() {
            assert_same_analysis(redo.analysis(j), fresh.analysis(j), set.label(j));
        }
        let after = CycleTimeAnalysis::run_in(&sg, None, &mut arena).unwrap();
        assert_same_analysis(&after, &nominal, "run_in after a finished sweep");

        // Scenario order decides: a token cancelled before the sweep
        // stops scenario `min` before the `max` corner's overflow is seen.
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.arc(xp, xm, 1.7e308);
        b.marked_arc(xm, xp, 1.0);
        let near_max = b.build().unwrap();
        let set = ScenarioSet::corners(10.0, &corners).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = CycleTimeAnalysis::run_scenarios_in(&near_max, &set, &mut arena, Some(&token))
            .unwrap_err();
        assert!(
            matches!(
                err,
                AnalysisError::Cancelled {
                    rows_done: 0,
                    rows_total: 6,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn overflowing_cycle_length_is_an_error_not_a_panic() {
        // Two 1e308 delays sum past f64::MAX: the cycle length is inf.
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.arc(xp, xm, 1e308);
        b.marked_arc(xm, xp, 1e308);
        let sg = b.build().unwrap();
        let err = CycleTimeAnalysis::run(&sg).unwrap_err();
        assert!(
            matches!(&err, AnalysisError::NonFiniteCycleLength { periods: 1, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("non-finite total delay"), "{err}");
    }
}
