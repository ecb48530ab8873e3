//! Event-driven timing simulation of a netlist (transport-delay model).
//!
//! Every input pin of every gate has a transport delay: a change of the
//! input signal at time `t` becomes visible to the gate at `t + δ(pin)`.
//! A gate's output flips the instant its function, evaluated on the
//! *delayed* pin views, disagrees with the current output. This is exactly
//! the MAX-execution semantics of Timed Signal Graphs (Section III.C), so
//! the simulator serves as an independent oracle for the analytical cycle
//! time: after the transient, the observed occurrence distances of every
//! repeating signal must equal τ.
//!
//! The pending-event machinery — deterministic `(time, seq)` ordering,
//! NaN and negative-delay rejection — lives in the shared
//! [`tsg_sim::EventQueue`] kernel; this module only contributes the gate
//! semantics. Enable [`EventDrivenSim::enable_trace`] to capture every
//! signal change in a [`TraceRecorder`] and dump a VCD waveform.

use std::fmt;

use tsg_sim::{EventQueue, ScheduleError, TraceId, TraceRecorder};

use crate::netlist::{Netlist, SignalId};

/// One recorded signal change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Transition {
    /// Simulation time of the change.
    pub time: f64,
    /// The signal that changed.
    pub signal: SignalId,
    /// The value after the change.
    pub value: bool,
}

/// Error conditions of [`EventDrivenSim::run`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The transition budget was exhausted before the horizon — typically a
    /// zero-delay oscillation.
    EventBudgetExhausted {
        /// Number of transitions processed before giving up.
        processed: usize,
    },
    /// A signal change scheduled a pin arrival at a time the kernel queue
    /// refuses — in practice pin delays so large that `t + δ` overflows
    /// to infinity.
    Unschedulable {
        /// Name of the signal whose change scheduled the arrival.
        signal: String,
        /// Time of that change.
        time: f64,
        /// The queue's refusal.
        error: ScheduleError,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EventBudgetExhausted { processed } => {
                write!(f, "event budget exhausted after {processed} transitions")
            }
            SimError::Unschedulable {
                signal,
                time,
                error,
            } => write!(f, "signal {signal} changing at time {time:e}: {error}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Pin-arrival payload carried by the kernel event queue.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    gate: usize,
    pin: usize,
    value: bool,
}

/// Opaque, reusable queue storage for [`EventDrivenSim`].
///
/// A simulator borrows its netlist, so a long-running service cannot
/// keep one `EventDrivenSim` warm across requests for different
/// netlists — but it *can* keep the queue: `SimQueue` outlives any one
/// simulator, carrying its allocation from netlist to netlist. Build
/// simulators with [`EventDrivenSim::with_reused_queue`] and reclaim the
/// storage with [`EventDrivenSim::into_queue`].
#[derive(Clone, Debug, Default)]
pub struct SimQueue {
    inner: EventQueue<Arrival>,
}

impl SimQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pending-event capacity (for the warm-pool zero-allocation
    /// assertions).
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }
}

/// The event-driven simulator.
///
/// # Examples
///
/// ```
/// use tsg_circuit::{EventDrivenSim, GateKind, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A three-inverter ring oscillator with unit delays: period 6.
/// let mut b = Netlist::builder();
/// b.gate("a", GateKind::Inverter, &[("c", 1.0)], false)?;
/// b.gate("b", GateKind::Inverter, &[("a", 1.0)], true)?;
/// b.gate("c", GateKind::Inverter, &[("b", 1.0)], false)?;
/// let nl = b.build()?;
///
/// let mut sim = EventDrivenSim::new(&nl);
/// let trace = sim.run(100.0, 10_000)?;
/// let a = nl.signal("a").unwrap();
/// let period = EventDrivenSim::steady_period(&trace, a, true).unwrap();
/// assert_eq!(period, 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EventDrivenSim<'n> {
    netlist: &'n Netlist,
    state: Vec<bool>,
    views: Vec<Vec<bool>>,
    queue: EventQueue<Arrival>,
    trace: Option<(TraceRecorder, Vec<TraceId>)>,
}

impl<'n> EventDrivenSim<'n> {
    /// Prepares a simulation from the netlist's initial state.
    ///
    /// The queue is pre-sized to the netlist's total fanout — a sizing
    /// heuristic for the typical pending load (a fast signal feeding a
    /// slow pin can keep several arrivals in flight per pin, growing it
    /// further) — and [`EventDrivenSim::run`] reuses whatever allocation
    /// the first run settles on across restarts.
    pub fn new(netlist: &'n Netlist) -> Self {
        Self::with_reused_queue(netlist, SimQueue::new())
    }

    /// Prepares a simulation on a recycled [`SimQueue`].
    ///
    /// The queue is cleared (capacity-preserving) and re-sized to this
    /// netlist's fanout, so a service replaying many netlists through
    /// one queue allocates only when a request outgrows every previous
    /// one. Results are bit-identical to a fresh queue: `clear` resets
    /// the clock and sequence counter.
    pub fn with_reused_queue(netlist: &'n Netlist, queue: SimQueue) -> Self {
        let state = netlist.initial_state().to_vec();
        let views: Vec<Vec<bool>> = netlist
            .gates()
            .iter()
            .map(|g| g.inputs.iter().map(|s| state[s.index()]).collect())
            .collect();
        let mut queue = queue.inner;
        queue.clear();
        queue.reserve(views.iter().map(Vec::len).sum());
        EventDrivenSim {
            netlist,
            state,
            views,
            queue,
            trace: None,
        }
    }

    /// Releases the simulator's queue storage for reuse with another
    /// netlist.
    pub fn into_queue(self) -> SimQueue {
        SimQueue { inner: self.queue }
    }

    /// Attaches a [`TraceRecorder`] capturing every signal change.
    ///
    /// All netlist signals are declared up front; [`EventDrivenSim::run`]
    /// records their initial values at `t = 0` when it starts, so the
    /// resulting VCD shows the full state. Retrieve the recorder with
    /// [`EventDrivenSim::take_trace`] afterwards.
    pub fn enable_trace(&mut self) {
        let mut recorder = TraceRecorder::new("netlist");
        let ids: Vec<TraceId> = self
            .netlist
            .signals()
            .map(|s| recorder.declare(self.netlist.name(s)))
            .collect();
        self.trace = Some((recorder, ids));
    }

    /// The attached trace recorder, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_ref().map(|(rec, _)| rec)
    }

    /// Detaches and returns the trace recorder.
    pub fn take_trace(&mut self) -> Option<TraceRecorder> {
        self.trace.take().map(|(rec, _)| rec)
    }

    /// Changes `signal` to `value` at `time`: records the transition and
    /// schedules pin arrivals at every fanout gate.
    fn flip(
        &mut self,
        trace: &mut Vec<Transition>,
        time: f64,
        signal: SignalId,
        value: bool,
    ) -> Result<(), SimError> {
        self.state[signal.index()] = value;
        trace.push(Transition {
            time,
            signal,
            value,
        });
        if let Some((recorder, ids)) = &mut self.trace {
            recorder.record(time, ids[signal.index()], value);
        }
        for &(g, pin) in self.netlist.fanout(signal) {
            let delay = self.netlist.gates()[g].pin_delays[pin];
            // The kernel rejects non-finite and negative effective delays
            // at enqueue time; netlist validation rules out NaN and
            // negative pin delays, but `time + delay` can still overflow.
            self.queue
                .try_schedule(
                    time + delay,
                    Arrival {
                        gate: g,
                        pin,
                        value,
                    },
                )
                .map_err(|error| SimError::Unschedulable {
                    signal: self.netlist.name(signal).to_owned(),
                    time,
                    error,
                })?;
        }
        Ok(())
    }

    /// Re-evaluates gate `g` on its delayed views; flips its output at
    /// `time` if excited.
    fn settle(&mut self, trace: &mut Vec<Transition>, time: f64, g: usize) -> Result<(), SimError> {
        let gate = &self.netlist.gates()[g];
        let out = gate.output;
        let next = gate.kind.eval(&self.views[g], self.state[out.index()]);
        if next != self.state[out.index()] {
            self.flip(trace, time, out, next)?;
        }
        Ok(())
    }

    /// Runs until `horizon` (inclusive) or `max_transitions`, returning the
    /// chronological trace of signal changes.
    ///
    /// Every call restarts the simulation from the netlist's initial
    /// state at `t = 0`; running twice deterministically replays the
    /// identical transition stream. (An attached trace recorder keeps
    /// accumulating — detach it with [`EventDrivenSim::take_trace`]
    /// between runs for one waveform per run.)
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExhausted`] when `max_transitions`
    /// signal changes occur before the horizon — the signature of a
    /// zero-delay loop — and [`SimError::Unschedulable`] when a pin
    /// arrival time overflows (pin delays near `f64::MAX`).
    pub fn run(
        &mut self,
        horizon: f64,
        max_transitions: usize,
    ) -> Result<Vec<Transition>, SimError> {
        self.state.copy_from_slice(self.netlist.initial_state());
        for (g, view) in self.views.iter_mut().enumerate() {
            for (pin, s) in self.netlist.gates()[g].inputs.iter().enumerate() {
                view[pin] = self.state[s.index()];
            }
        }
        self.queue.clear();
        if let Some((recorder, ids)) = &mut self.trace {
            // Snapshot the (just reset) initial state so the waveform's
            // $dumpvars always matches the replayed edges.
            for s in self.netlist.signals() {
                recorder.record(0.0, ids[s.index()], self.state[s.index()]);
            }
        }

        let mut trace = Vec::new();

        // Environment one-shot flips at t = 0.
        for &s in self.netlist.env_flips() {
            let v = !self.state[s.index()];
            self.flip(&mut trace, 0.0, s, v)?;
        }
        // Gates excited in the initial state fire at t = 0.
        for g in 0..self.netlist.gate_count() {
            self.settle(&mut trace, 0.0, g)?;
        }

        while let Some(ev) = self.queue.pop() {
            if ev.time > horizon {
                break;
            }
            if trace.len() >= max_transitions {
                return Err(SimError::EventBudgetExhausted {
                    processed: trace.len(),
                });
            }
            let Arrival { gate, pin, value } = ev.payload;
            self.views[gate][pin] = value;
            self.settle(&mut trace, ev.time, gate)?;
        }
        Ok(trace)
    }

    /// The occurrence distance between the last two transitions of `signal`
    /// to `value` in `trace` — the steady-state period when the transient
    /// has died out.
    pub fn steady_period(trace: &[Transition], signal: SignalId, value: bool) -> Option<f64> {
        let times: Vec<f64> = trace
            .iter()
            .filter(|t| t.signal == signal && t.value == value)
            .map(|t| t.time)
            .collect();
        (times.len() >= 2).then(|| times[times.len() - 1] - times[times.len() - 2])
    }

    /// Average occurrence distance of `signal` rising over the second half
    /// of the trace — the empirical cycle-time estimate.
    pub fn average_period(trace: &[Transition], signal: SignalId, value: bool) -> Option<f64> {
        let times: Vec<f64> = trace
            .iter()
            .filter(|t| t.signal == signal && t.value == value)
            .map(|t| t.time)
            .collect();
        if times.len() < 3 {
            return None;
        }
        let mid = times.len() / 2;
        Some((times[times.len() - 1] - times[mid]) / (times.len() - 1 - mid) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::netlist::Netlist;

    fn inverter_ring(n: usize) -> Netlist {
        assert!(n % 2 == 1);
        let mut b = Netlist::builder();
        for i in 0..n {
            let input = format!("g{}", (i + n - 1) % n);
            // alternate initial values so exactly one gate is excited
            let init = i % 2 == 1;
            b.gate(
                &format!("g{i}"),
                GateKind::Inverter,
                &[(input.as_str(), 1.0)],
                init,
            )
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn ring_oscillator_period() {
        // n-inverter ring with unit delays oscillates with period 2n.
        for n in [3usize, 5, 7] {
            let nl = inverter_ring(n);
            let mut sim = EventDrivenSim::new(&nl);
            let trace = sim.run(20.0 * n as f64, 100_000).unwrap();
            let s = nl.signal("g0").unwrap();
            assert_eq!(
                EventDrivenSim::steady_period(&trace, s, true),
                Some(2.0 * n as f64),
                "n={n}"
            );
        }
    }

    #[test]
    fn figure1_oscillator_trace_matches_example3() {
        let nl = crate::library::c_element_oscillator();
        let mut sim = EventDrivenSim::new(&nl);
        let trace = sim.run(17.0, 10_000).unwrap();
        let find = |name: &str, nth: usize| {
            let s = nl.signal(name).unwrap();
            trace
                .iter()
                .filter(|t| t.signal == s)
                .nth(nth)
                .map(|t| (t.time, t.value))
        };
        // Example 3's occurrence times.
        assert_eq!(find("e", 0), Some((0.0, false)));
        assert_eq!(find("f", 0), Some((3.0, false)));
        assert_eq!(find("a", 0), Some((2.0, true)));
        assert_eq!(find("b", 0), Some((4.0, true)));
        assert_eq!(find("c", 0), Some((6.0, true)));
        assert_eq!(find("a", 1), Some((8.0, false)));
        assert_eq!(find("b", 1), Some((7.0, false)));
        assert_eq!(find("c", 1), Some((11.0, false)));
        assert_eq!(find("a", 2), Some((13.0, true)));
        assert_eq!(find("b", 2), Some((12.0, true)));
        assert_eq!(find("c", 2), Some((16.0, true)));
    }

    #[test]
    fn figure1_steady_state_period_is_10() {
        let nl = crate::library::c_element_oscillator();
        let mut sim = EventDrivenSim::new(&nl);
        let trace = sim.run(400.0, 100_000).unwrap();
        for name in ["a", "b", "c"] {
            let s = nl.signal(name).unwrap();
            assert_eq!(
                EventDrivenSim::steady_period(&trace, s, true),
                Some(10.0),
                "{name}"
            );
        }
    }

    #[test]
    fn zero_delay_loop_hits_budget() {
        let mut b = Netlist::builder();
        b.gate("a", GateKind::Inverter, &[("a", 0.0)], false)
            .unwrap();
        let nl = b.build().unwrap();
        let mut sim = EventDrivenSim::new(&nl);
        assert!(matches!(
            sim.run(1.0, 100),
            Err(SimError::EventBudgetExhausted { .. })
        ));
    }

    #[test]
    fn overflowing_pin_delays_are_an_error() {
        let mut b = Netlist::builder();
        b.gate("a", GateKind::Inverter, &[("b", 1e308)], true)
            .unwrap();
        b.gate("b", GateKind::Inverter, &[("a", 1e308)], true)
            .unwrap();
        let nl = b.build().unwrap();
        let mut sim = EventDrivenSim::new(&nl);
        let err = sim.run(1.7e308, 100).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Unschedulable {
                    error: ScheduleError::NonFiniteTime { .. },
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "signal b changing at time 1e308: cannot schedule event at non-finite time inf"
        );
        // The simulator stays usable after the refusal.
        assert!(sim.run(1.0, 100).is_ok());
    }

    #[test]
    fn stable_circuit_produces_no_events() {
        let mut b = Netlist::builder();
        b.input("x", true);
        b.gate("y", GateKind::Buffer, &[("x", 1.0)], true).unwrap();
        let nl = b.build().unwrap();
        let mut sim = EventDrivenSim::new(&nl);
        let trace = sim.run(100.0, 100).unwrap();
        assert!(trace.is_empty());
    }

    #[test]
    fn trace_recorder_captures_vcd() {
        let nl = crate::library::c_element_oscillator();
        let mut sim = EventDrivenSim::new(&nl);
        sim.enable_trace();
        let transitions = sim.run(17.0, 10_000).unwrap();
        let recorder = sim.take_trace().unwrap();
        // One recorded change per transition plus the initial snapshot.
        assert_eq!(
            recorder.changes().len(),
            transitions.len() + nl.signal_count()
        );
        let vcd = recorder.to_vcd_string();
        assert!(vcd.contains("$scope module netlist $end"));
        for s in nl.signals() {
            assert!(vcd.contains(&format!(" {} $end", nl.name(s))), "{vcd}");
        }
        // Example 3: a rises at t=2 → timestamp #2000 at 1ps resolution.
        assert!(vcd.contains("#2000"), "{vcd}");
    }

    #[test]
    fn run_is_restartable_and_deterministic() {
        let nl = crate::library::c_element_oscillator();
        let mut sim = EventDrivenSim::new(&nl);
        let first = sim.run(50.0, 100_000).unwrap();
        let second = sim.run(50.0, 100_000).unwrap();
        assert!(!first.is_empty());
        assert_eq!(first, second);
    }

    #[test]
    fn restart_reuses_queue_allocation() {
        let nl = crate::library::muller_ring(9, 1.0);
        let mut sim = EventDrivenSim::new(&nl);
        let cap_before = sim.queue.capacity();
        assert!(cap_before > 0, "queue is pre-sized to the fanout");
        let _ = sim.run(200.0, 1_000_000).unwrap();
        let _ = sim.run(200.0, 1_000_000).unwrap();
        // The heap may have grown past the pre-size during the first run,
        // but the second run must not have had to regrow it.
        let cap_mid = sim.queue.capacity();
        let _ = sim.run(200.0, 1_000_000).unwrap();
        assert_eq!(sim.queue.capacity(), cap_mid);
    }

    #[test]
    fn reused_queue_replays_identically_across_netlists() {
        // One SimQueue cycled through different netlists gives the same
        // traces as fresh simulators, and once warmed by the largest
        // netlist it never regrows.
        let big = crate::library::muller_ring(9, 1.0);
        let small = crate::library::c_element_oscillator();
        let mut queue = SimQueue::new();
        for _ in 0..2 {
            for nl in [&big, &small] {
                let mut warm = EventDrivenSim::with_reused_queue(nl, queue);
                let got = warm.run(150.0, 1_000_000).unwrap();
                queue = warm.into_queue();
                let fresh = EventDrivenSim::new(nl).run(150.0, 1_000_000).unwrap();
                assert_eq!(got, fresh);
            }
        }
        let cap = queue.capacity();
        let mut warm = EventDrivenSim::with_reused_queue(&big, queue);
        let _ = warm.run(150.0, 1_000_000).unwrap();
        assert_eq!(warm.into_queue().capacity(), cap, "warm replay regrew");
    }

    #[test]
    fn trace_is_off_by_default_and_detachable() {
        let nl = crate::library::c_element_oscillator();
        let mut sim = EventDrivenSim::new(&nl);
        assert!(sim.trace().is_none());
        sim.enable_trace();
        assert!(sim.trace().is_some());
        let _ = sim.take_trace();
        assert!(sim.trace().is_none());
    }
}
