//! Kernel-backed discrete-event timing simulation of a Timed Signal Graph.
//!
//! [`TimingSimulation`](super::sim::TimingSimulation) evaluates the
//! unfolding *period-synchronously*: one topological sweep per period.
//! This module computes the identical occurrence times `t(e_i)` by
//! running the graph as a true discrete-event system on the shared
//! [`tsg_sim::EventQueue`] kernel: every arc sends a timed token, an
//! event fires the instant its last token arrives, and each firing
//! schedules the tokens of its successors.
//!
//! Having both evaluation strategies on one model is not redundancy —
//! they cross-validate each other in the workspace tests, the
//! event-driven form extends to workloads the synchronous sweep cannot
//! express (early termination, tracing, interleaving with other event
//! sources), and it feeds the long-run estimator in `tsg-baselines`
//! through the same kernel as the gate-level netlist simulator.

use tsg_sim::{CancelKind, CancelToken, EventQueue, QueueCheckpoint, ScheduleError, TraceRecorder};

use crate::event::{EventId, Polarity};
use crate::graph::SignalGraph;

/// Pops between cancellation polls of the event-driven drain loop: one
/// arrival is far cheaper than a matrix row, so the check is amortised
/// over a batch instead of paid per event.
const CANCEL_POLL_EVERY: u64 = 256;

/// The drain loop of [`EventSimulation::run_in_with_cancel`] observed
/// its token mid-run. The scratch stays reusable — a later uncancelled
/// run primes it from scratch as usual.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimCancelled {
    /// Why the run stopped.
    pub kind: CancelKind,
    /// Token arrivals processed before the abort.
    pub events_done: u64,
    /// Arrivals still pending in the queue at the abort.
    pub pending: usize,
}

impl std::fmt::Display for SimCancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} after {} event arrival(s) ({} pending)",
            self.kind, self.events_done, self.pending
        )
    }
}

impl std::error::Error for SimCancelled {}

/// Why an [`EventSimulation`] run stopped short of its horizon.
#[derive(Clone, Debug, PartialEq)]
pub enum EventSimError {
    /// The cancel token fired mid-drain.
    Cancelled(SimCancelled),
    /// A firing scheduled a successor token at a time the kernel queue
    /// refuses — in practice delays so large that `t + δ` overflows to
    /// infinity.
    Unschedulable {
        /// Label of the event whose firing scheduled the token.
        event: String,
        /// Instance (period) of that firing.
        instance: u32,
        /// The queue's refusal.
        error: ScheduleError,
    },
}

impl std::fmt::Display for EventSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventSimError::Cancelled(c) => c.fmt(f),
            EventSimError::Unschedulable {
                event,
                instance,
                error,
            } => write!(f, "firing {event}_{instance}: {error}"),
        }
    }
}

impl std::error::Error for EventSimError {}

/// A pending token arrival for instantiation `instance` of `target`.
#[derive(Clone, Copy, Debug)]
struct Token {
    target: EventId,
    instance: u32,
}

/// Reusable scratch state of [`EventSimulation::run_in`]: the pending
/// token queue and the flat expected-token matrix.
///
/// A long-running worker (the `tsg serve` pool) holds one scratch and
/// replays every `sim` request through it; after the first request of
/// the largest shape, [`EventSimulation::run_in`] performs no queue or
/// matrix allocation — `clear` keeps the queue's capacity and
/// `resize`/`fill` touch existing cells only.
#[derive(Clone, Debug, Default)]
pub struct EventSimScratch {
    queue: EventQueue<Token>,
    /// Flat `periods × n` count of still-expected tokens per slot.
    remaining: Vec<u32>,
}

impl EventSimScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pending-event capacity of the warm queue (for the warm-pool
    /// zero-allocation assertions).
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Allocated cells of the expected-token matrix.
    pub fn matrix_capacity(&self) -> usize {
        self.remaining.capacity()
    }
}

/// Occurrence times of a Timed Signal Graph computed event-drivenly on
/// the `tsg-sim` kernel.
///
/// Produces exactly the times of
/// [`TimingSimulation`](super::sim::TimingSimulation) — Section IV.A's
/// `t(f) = max { t(e) + δ | e →δ f }` — but by event propagation instead
/// of a period-synchronous sweep.
///
/// # Examples
///
/// ```
/// use tsg_core::SignalGraph;
/// use tsg_core::analysis::event_sim::EventSimulation;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SignalGraph::builder();
/// let xp = b.event("x+");
/// let xm = b.event("x-");
/// b.arc(xp, xm, 3.0);
/// b.marked_arc(xm, xp, 2.0);
/// let sg = b.build()?;
///
/// let sim = EventSimulation::run(&sg, 3)?;
/// assert_eq!(sim.time(xp, 0), Some(0.0));
/// assert_eq!(sim.time(xm, 0), Some(3.0));
/// assert_eq!(sim.time(xp, 1), Some(5.0));
/// assert_eq!(sim.time(xm, 2), Some(13.0));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct EventSimulation {
    /// `times[p][e]` is `t(e_p)`; `NAN` marks never-fired slots (prefix
    /// events only occupy instance 0).
    times: Vec<Vec<f64>>,
    periods: u32,
}

impl EventSimulation {
    /// Runs the event-driven timing simulation over `periods` periods.
    ///
    /// # Errors
    ///
    /// Returns [`EventSimError::Unschedulable`] when an occurrence time
    /// overflows (delays near `f64::MAX`).
    ///
    /// # Panics
    ///
    /// Panics if `periods == 0`.
    pub fn run(sg: &SignalGraph, periods: u32) -> Result<Self, EventSimError> {
        Self::run_in(sg, periods, &mut EventSimScratch::new())
    }

    /// Allocation-reusing core: runs the simulation over `scratch`'s
    /// warm queue and token matrix.
    ///
    /// Bit-identical to [`EventSimulation::run`] — `clear` resets the
    /// queue's clock and sequence counter, so a reused queue replays
    /// exactly like a fresh one.
    ///
    /// # Errors
    ///
    /// As [`EventSimulation::run`].
    ///
    /// # Panics
    ///
    /// Panics if `periods == 0`.
    pub fn run_in(
        sg: &SignalGraph,
        periods: u32,
        scratch: &mut EventSimScratch,
    ) -> Result<Self, EventSimError> {
        Self::run_in_with_cancel(sg, periods, scratch, None)
    }

    /// [`run_in`](Self::run_in) under a cancellation token: the drain
    /// loop polls `cancel` every few hundred arrivals and aborts with a
    /// structured [`SimCancelled`] carrying its progress. The scratch
    /// remains reusable for later runs.
    ///
    /// # Errors
    ///
    /// Returns [`EventSimError::Cancelled`] when `cancel` fires
    /// mid-drain, and [`EventSimError::Unschedulable`] as
    /// [`EventSimulation::run`] does.
    ///
    /// # Panics
    ///
    /// Panics if `periods == 0`.
    pub fn run_in_with_cancel(
        sg: &SignalGraph,
        periods: u32,
        scratch: &mut EventSimScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, EventSimError> {
        let mut times = prime(sg, periods, scratch)?;
        let EventSimScratch { queue, remaining } = scratch;
        drain(sg, queue, remaining, &mut times, None, cancel)?;
        Ok(EventSimulation { times, periods })
    }

    /// Runs the simulation until every event at or before `pause_at` has
    /// been processed, then checkpoints: the kernel queue snapshot plus
    /// the partial matrices, as a [`PausedEventSim`].
    ///
    /// [`PausedEventSim::resume`] completes the run — bit-identical to
    /// an uninterrupted [`EventSimulation::run_in`], even when the
    /// resuming scratch is not the pausing one.
    ///
    /// # Errors
    ///
    /// As [`EventSimulation::run`].
    ///
    /// # Panics
    ///
    /// Panics if `periods == 0`.
    pub fn run_until(
        sg: &SignalGraph,
        periods: u32,
        scratch: &mut EventSimScratch,
        pause_at: f64,
    ) -> Result<PausedEventSim, EventSimError> {
        let mut times = prime(sg, periods, scratch)?;
        let EventSimScratch { queue, remaining } = scratch;
        drain(sg, queue, remaining, &mut times, Some(pause_at), None)?;
        Ok(PausedEventSim {
            queue: queue.checkpoint(),
            remaining: remaining.clone(),
            times,
            periods,
        })
    }

    /// Number of simulated periods.
    pub fn periods(&self) -> u32 {
        self.periods
    }

    /// Occurrence time `t(e_i)`, or `None` outside the simulated horizon
    /// (prefix events only have instance 0).
    pub fn time(&self, e: EventId, instance: u32) -> Option<f64> {
        self.times
            .get(instance as usize)
            .map(|row| row[e.index()])
            .filter(|t| t.is_finite())
    }

    /// Average occurrence distance `δ(e_i) = t(e_i) / (i + 1)`.
    pub fn average_distance(&self, e: EventId, instance: u32) -> Option<f64> {
        self.time(e, instance).map(|t| t / (instance + 1) as f64)
    }

    /// All `(event, instance, time)` triples in chronological order
    /// (ties by event id, then instance).
    pub fn chronological(&self, sg: &SignalGraph) -> Vec<(EventId, u32, f64)> {
        let mut out = Vec::new();
        for e in sg.events() {
            for p in 0..self.periods {
                if let Some(t) = self.time(e, p) {
                    out.push((e, p, t));
                }
            }
        }
        out.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        out
    }

    /// Replays the simulation into a [`TraceRecorder`] for VCD dumping.
    ///
    /// Events labelled with signal polarities (`a+` / `a-`) drive a wire
    /// named after the signal; bare labels drive a wire per event that
    /// toggles on each occurrence.
    pub fn record_trace(&self, sg: &SignalGraph, recorder: &mut TraceRecorder) {
        let mut wires = std::collections::HashMap::new();
        let ids: Vec<_> = sg
            .events()
            .map(|e| {
                let name = sg.label(e).signal().to_string();
                *wires
                    .entry(name.clone())
                    .or_insert_with(|| recorder.declare(name))
            })
            .collect();
        let mut levels: Vec<bool> = sg.events().map(|_| false).collect();
        for (e, _, t) in self.chronological(sg) {
            let value = match sg.label(e).polarity() {
                Some(Polarity::Rise) => true,
                Some(Polarity::Fall) => false,
                None => {
                    levels[e.index()] = !levels[e.index()];
                    levels[e.index()]
                }
            };
            recorder.record(t, ids[e.index()], value);
        }
    }
}

/// Sets up a run: sizes the expected-token matrix, primes the queue and
/// fires the sources. Returns the (NaN-initialised) time matrix.
///
/// Expected token count for each (event, instance) slot, in the
/// scratch's flat `p_max × n` matrix. An arc contributes to an instance
/// exactly when the synchronous semantics consults it there:
///   prefix → prefix        : instance 0 of the target,
///   prefix → repetitive    : instance 0 (disengageable arcs),
///   repetitive, unmarked   : every instance p (from src at p),
///   repetitive, marked     : instances 1.. (from src at p−1);
///                            the initial token enables p = 0 free.
fn prime(
    sg: &SignalGraph,
    periods: u32,
    scratch: &mut EventSimScratch,
) -> Result<Vec<Vec<f64>>, EventSimError> {
    assert!(periods >= 1, "simulation needs at least one period");
    let n = sg.event_count();
    let p_max = periods as usize;
    let EventSimScratch { queue, remaining } = scratch;

    remaining.resize(p_max * n, 0);
    remaining.fill(0);
    for a in sg.arc_ids() {
        let arc = sg.arc(a);
        let (src_rep, dst_rep) = (sg.is_repetitive(arc.src()), sg.is_repetitive(arc.dst()));
        let dst = arc.dst().index();
        match (src_rep, dst_rep) {
            (false, _) => remaining[dst] += 1,
            (true, true) if arc.is_marked() => {
                for p in 1..p_max {
                    remaining[p * n + dst] += 1;
                }
            }
            (true, true) => {
                for p in 0..p_max {
                    remaining[p * n + dst] += 1;
                }
            }
            (true, false) => {
                unreachable!("validated graphs have no repetitive → prefix arcs")
            }
        }
    }

    let mut times = vec![vec![f64::NAN; n]; p_max];
    queue.clear();
    // Every arc sends at most one token per period.
    queue.reserve(sg.arc_count());

    // Sources: events whose slot expects no token. For repetitive
    // events that is instance 0 with only marked in-arcs (the initial
    // tokens enable them at t = 0); for prefix events, the initial
    // events of the DAG.
    for e in sg.events() {
        let instances = if sg.is_repetitive(e) { p_max } else { 1 };
        for p in 0..instances {
            if remaining[p * n + e.index()] == 0 {
                fire(sg, queue, &mut times, e, p, 0.0)?;
            }
        }
    }
    Ok(times)
}

/// Records a firing and schedules the tokens of its successors.
fn fire(
    sg: &SignalGraph,
    queue: &mut EventQueue<Token>,
    times: &mut [Vec<f64>],
    e: EventId,
    p: usize,
    t: f64,
) -> Result<(), EventSimError> {
    let p_max = times.len();
    times[p][e.index()] = t;
    for a in sg.out_arcs(e) {
        let arc = sg.arc(a);
        let dst = arc.dst();
        let dst_rep = sg.is_repetitive(dst);
        let target_instance = if !sg.is_repetitive(e) || !dst_rep {
            0
        } else if arc.is_marked() {
            p + 1
        } else {
            p
        };
        if target_instance >= p_max {
            continue; // beyond the simulated horizon
        }
        let token = Token {
            target: dst,
            instance: target_instance as u32,
        };
        queue
            .try_schedule(t + arc.delay().get(), token)
            .map_err(|error| EventSimError::Unschedulable {
                event: sg.label(e).to_string(),
                instance: p as u32,
                error,
            })?;
    }
    Ok(())
}

/// Consumes one popped token arrival: counts it off its slot and fires
/// the event when it was the last one expected.
#[inline]
fn arrive(
    sg: &SignalGraph,
    queue: &mut EventQueue<Token>,
    remaining: &mut [u32],
    times: &mut [Vec<f64>],
    ev: tsg_sim::Event<Token>,
) -> Result<(), EventSimError> {
    let Token { target, instance } = ev.payload;
    let slot = instance as usize * sg.event_count() + target.index();
    debug_assert!(remaining[slot] > 0, "token for an already-fired slot");
    remaining[slot] -= 1;
    if remaining[slot] == 0 {
        // The queue pops in time order, so this last arrival IS
        // the max over all in-arc contributions — except at
        // instance 0, where the synchronous base case clamps
        // times to at least 0 (all delays are non-negative, so
        // the clamp only matters for empty maxima, handled in
        // `prime`).
        fire(sg, queue, times, target, instance as usize, ev.time)?;
    }
    Ok(())
}

/// Pops (and propagates) queued tokens — all of them, or only those at
/// or before `pause_at`.
fn drain(
    sg: &SignalGraph,
    queue: &mut EventQueue<Token>,
    remaining: &mut [u32],
    times: &mut [Vec<f64>],
    pause_at: Option<f64>,
    cancel: Option<&CancelToken>,
) -> Result<(), EventSimError> {
    let stop = pause_at.unwrap_or(f64::INFINITY);
    let mut processed = 0u64;
    while queue.peek_time().is_some_and(|t| t <= stop) {
        if processed.is_multiple_of(CANCEL_POLL_EVERY) {
            if let Some(kind) = cancel.and_then(CancelToken::check) {
                return Err(EventSimError::Cancelled(SimCancelled {
                    kind,
                    events_done: processed,
                    pending: queue.len(),
                }));
            }
        }
        let ev = queue.pop().expect("peeked");
        arrive(sg, queue, remaining, times, ev)?;
        processed += 1;
    }
    Ok(())
}

/// A paused event-driven simulation: the kernel's [`QueueCheckpoint`]
/// plus the partial token and time matrices, produced by
/// [`EventSimulation::run_until`].
///
/// The checkpoint is independent of the scratch it was taken from, so a
/// pause resumes on any scratch, any number of times — the restart
/// machinery a dirty-region re-simulation builds on.
#[derive(Clone, Debug)]
pub struct PausedEventSim {
    queue: QueueCheckpoint<Token>,
    remaining: Vec<u32>,
    times: Vec<Vec<f64>>,
    periods: u32,
}

impl PausedEventSim {
    /// The simulation time the pause was taken at (time of the last
    /// processed event).
    pub fn time(&self) -> f64 {
        self.queue.time()
    }

    /// Number of token arrivals still pending in the checkpoint.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Completes the simulation from the checkpoint on `scratch`.
    ///
    /// The result is bit-identical to an uninterrupted
    /// [`EventSimulation::run_in`] over the same graph and period count.
    /// Resuming does not consume the pause: the same checkpoint can be
    /// replayed any number of times.
    ///
    /// # Errors
    ///
    /// As [`EventSimulation::run`].
    pub fn resume(
        &self,
        sg: &SignalGraph,
        scratch: &mut EventSimScratch,
    ) -> Result<EventSimulation, EventSimError> {
        let EventSimScratch { queue, remaining } = scratch;
        queue.restore(&self.queue);
        remaining.clear();
        remaining.extend_from_slice(&self.remaining);
        let mut times = self.times.clone();
        drain(sg, queue, remaining, &mut times, None, None)?;
        Ok(EventSimulation {
            times,
            periods: self.periods,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::sim::TimingSimulation;
    use crate::SignalGraph;

    /// The paper's Figure 2c graph (same fixture as the synchronous sim).
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
    fn example3_occurrence_times() {
        let sg = figure2();
        let sim = EventSimulation::run(&sg, 2).unwrap();
        let t = |label: &str, i: u32| sim.time(sg.event_by_label(label).unwrap(), i).unwrap();
        assert_eq!(t("e-", 0), 0.0);
        assert_eq!(t("f-", 0), 3.0);
        assert_eq!(t("a+", 0), 2.0);
        assert_eq!(t("b+", 0), 4.0);
        assert_eq!(t("c+", 0), 6.0);
        assert_eq!(t("a-", 0), 8.0);
        assert_eq!(t("b-", 0), 7.0);
        assert_eq!(t("c-", 0), 11.0);
        assert_eq!(t("a+", 1), 13.0);
        assert_eq!(t("b+", 1), 12.0);
        assert_eq!(t("c+", 1), 16.0);
    }

    #[test]
    fn agrees_with_synchronous_simulation() {
        let sg = figure2();
        let periods = 6;
        let sync = TimingSimulation::run(&sg, periods);
        let event = EventSimulation::run(&sg, periods).unwrap();
        for e in sg.events() {
            for p in 0..periods {
                assert_eq!(sync.time(e, p), event.time(e, p), "{}_{p}", sg.label(e));
            }
        }
    }

    #[test]
    fn prefix_events_have_single_instance() {
        let sg = figure2();
        let sim = EventSimulation::run(&sg, 2).unwrap();
        let e = sg.event_by_label("e-").unwrap();
        assert_eq!(sim.time(e, 0), Some(0.0));
        assert_eq!(sim.time(e, 1), None);
    }

    #[test]
    fn chronological_matches_synchronous() {
        let sg = figure2();
        let sync = TimingSimulation::run(&sg, 2).chronological(&sg);
        let event = EventSimulation::run(&sg, 2).unwrap().chronological(&sg);
        assert_eq!(sync, event);
    }

    #[test]
    fn trace_produces_signal_wires() {
        let sg = figure2();
        let sim = EventSimulation::run(&sg, 2).unwrap();
        let mut rec = TraceRecorder::new("tsg");
        sim.record_trace(&sg, &mut rec);
        // Five signals: a, b, c, e, f — one wire each, not one per event.
        assert_eq!(rec.signal_count(), 5);
        let vcd = rec.to_vcd_string();
        assert!(vcd.contains("$var wire 1"));
        assert!(!rec.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one period")]
    fn zero_periods_panics() {
        let sg = figure2();
        let _ = EventSimulation::run(&sg, 0);
    }

    #[test]
    fn run_in_reuses_scratch_and_matches_cold_runs() {
        let sg = figure2();
        let mut scratch = EventSimScratch::new();
        let cold = EventSimulation::run(&sg, 4).unwrap();
        let first = EventSimulation::run_in(&sg, 4, &mut scratch).unwrap();
        let caps = (scratch.queue_capacity(), scratch.matrix_capacity());
        let second = EventSimulation::run_in(&sg, 4, &mut scratch).unwrap();
        assert_eq!(
            caps,
            (scratch.queue_capacity(), scratch.matrix_capacity()),
            "warm re-run must not regrow the scratch"
        );
        for e in sg.events() {
            for p in 0..4 {
                assert_eq!(cold.time(e, p), first.time(e, p), "{}_{p}", sg.label(e));
                assert_eq!(cold.time(e, p), second.time(e, p), "{}_{p}", sg.label(e));
            }
        }
    }

    #[test]
    fn scratch_shrinks_to_smaller_graphs_without_ghosts() {
        // A big run followed by a small one over the same scratch: no
        // stale tokens or counts may leak into the smaller shape.
        let sg = figure2();
        let mut scratch = EventSimScratch::new();
        let _ = EventSimulation::run_in(&sg, 8, &mut scratch).unwrap();
        let warm = EventSimulation::run_in(&sg, 2, &mut scratch).unwrap();
        let cold = EventSimulation::run(&sg, 2).unwrap();
        for e in sg.events() {
            for p in 0..2 {
                assert_eq!(cold.time(e, p), warm.time(e, p), "{}_{p}", sg.label(e));
            }
        }
    }

    #[test]
    fn pause_and_resume_is_bit_identical_to_a_straight_run() {
        let sg = figure2();
        let straight = EventSimulation::run(&sg, 4).unwrap();
        for pause_at in [0.0, 1.0, 5.5, 10.0, 25.0, 1000.0] {
            let mut scratch = EventSimScratch::new();
            let paused = EventSimulation::run_until(&sg, 4, &mut scratch, pause_at).unwrap();
            let resumed = paused.resume(&sg, &mut scratch).unwrap();
            for e in sg.events() {
                for p in 0..4 {
                    assert_eq!(
                        straight.time(e, p).map(f64::to_bits),
                        resumed.time(e, p).map(f64::to_bits),
                        "pause_at={pause_at} {}_{p}",
                        sg.label(e)
                    );
                }
            }
        }
    }

    #[test]
    fn pause_resumes_on_a_separate_scratch() {
        // A checkpoint is independent of the scratch it came from: pause
        // on one, resume on another (and on the pausing one), same bits
        // out. The same pause also replays more than once.
        let sg = figure2();
        let straight = EventSimulation::run(&sg, 3).unwrap();
        let mut pausing = EventSimScratch::new();
        let mut other = EventSimScratch::new();
        let paused = EventSimulation::run_until(&sg, 3, &mut pausing, 7.0).unwrap();
        assert!(paused.time() <= 7.0);
        assert!(paused.pending() > 0);
        for scratch in [&mut other, &mut pausing] {
            for _ in 0..2 {
                let resumed = paused.resume(&sg, scratch).unwrap();
                for e in sg.events() {
                    for p in 0..3 {
                        assert_eq!(straight.time(e, p), resumed.time(e, p));
                    }
                }
            }
        }
    }

    #[test]
    fn pause_beyond_the_horizon_is_already_complete() {
        let sg = figure2();
        let mut scratch = EventSimScratch::new();
        let paused = EventSimulation::run_until(&sg, 2, &mut scratch, f64::MAX).unwrap();
        assert_eq!(paused.pending(), 0);
        let resumed = paused.resume(&sg, &mut scratch).unwrap();
        let straight = EventSimulation::run(&sg, 2).unwrap();
        for e in sg.events() {
            assert_eq!(straight.time(e, 1), resumed.time(e, 1));
        }
    }

    #[test]
    fn cancelled_drain_reports_progress_and_a_rerun_succeeds() {
        let sg = figure2();
        let mut scratch = EventSimScratch::new();
        let token = CancelToken::cancel_after_checks(0);
        let err =
            EventSimulation::run_in_with_cancel(&sg, 4, &mut scratch, Some(&token)).unwrap_err();
        let EventSimError::Cancelled(err) = err else {
            panic!("expected a cancellation, got {err}");
        };
        assert_eq!(err.kind, CancelKind::Explicit);
        assert_eq!(err.events_done, 0);
        assert!(err.pending > 0, "sources had scheduled tokens");
        // The scratch stays reusable: an uncancelled rerun matches cold.
        let warm = EventSimulation::run_in(&sg, 4, &mut scratch).unwrap();
        let cold = EventSimulation::run(&sg, 4).unwrap();
        for e in sg.events() {
            for p in 0..4 {
                assert_eq!(
                    cold.time(e, p).map(f64::to_bits),
                    warm.time(e, p).map(f64::to_bits),
                    "{}_{p}",
                    sg.label(e)
                );
            }
        }
    }

    #[test]
    fn overflowing_delays_report_the_firing_instead_of_panicking() {
        // x+ → x- → x+ at 1e308 each: the first firing of x- lands at
        // 1e308, and its token back to x+ would arrive at infinity.
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.arc(xp, xm, 1e308);
        b.marked_arc(xm, xp, 1e308);
        let sg = b.build().unwrap();
        let mut scratch = EventSimScratch::new();
        let err = EventSimulation::run_in(&sg, 3, &mut scratch).unwrap_err();
        assert_eq!(
            err,
            EventSimError::Unschedulable {
                event: "x-".to_owned(),
                instance: 0,
                error: ScheduleError::NonFiniteTime {
                    time: f64::INFINITY
                },
            }
        );
        assert_eq!(
            err.to_string(),
            "firing x-_0: cannot schedule event at non-finite time inf"
        );
        // The scratch stays reusable after the failed run.
        let ok = EventSimulation::run_in(&figure2(), 2, &mut scratch).unwrap();
        assert_eq!(ok.periods(), 2);
    }
}
