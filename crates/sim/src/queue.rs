//! The monotone pending-event queue of the netlist simulator.
//!
//! Two invariants are enforced at *enqueue* time so they can never
//! surface as mysterious mis-ordering at pop time:
//!
//! 1. **Totally ordered times** — scheduled times must be finite; NaN is
//!    rejected (a NaN comparison under raw `f64` ordering silently
//!    corrupts a priority queue).
//! 2. **Monotonicity** — an event may not be scheduled before the
//!    current simulation time (the time of the last popped event). This
//!    is exactly the "no negative delays" rule: causes precede effects.
//!
//! Ties are broken by an enqueue sequence number, making pop order fully
//! deterministic across runs, platforms and thread counts.
//!
//! Storage is a `std::collections::BinaryHeap`: `O(log n)` push and pop
//! for any time distribution. The netlist simulator keeps at most a few
//! thousand events pending, where a heap beats bucketed (calendar)
//! storage; `benches/kernel.rs` tracks its push/pop and hold throughput.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// A scheduled event popped from an [`EventQueue`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event<T> {
    /// Simulation time of the event.
    pub time: f64,
    /// Enqueue sequence number (the deterministic tie-breaker).
    pub seq: u64,
    /// Caller-defined payload.
    pub payload: T,
}

/// Why [`EventQueue::try_schedule`] refused an event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScheduleError {
    /// The time was NaN or infinite.
    NonFiniteTime {
        /// The offending time.
        time: f64,
    },
    /// The time lies before the current simulation time — a negative
    /// effective delay.
    TimeRegression {
        /// The offending time.
        time: f64,
        /// The queue's current time.
        now: f64,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NonFiniteTime { time } => {
                write!(f, "cannot schedule event at non-finite time {time}")
            }
            ScheduleError::TimeRegression { time, now } => {
                write!(
                    f,
                    "cannot schedule event at {time} before current time {now}"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Heap entry: min-ordered by `(time, seq)` under a reversed comparison.
#[derive(Clone, Debug)]
struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the max-heap `BinaryHeap` pops the earliest entry.
        // `total_cmp` keeps the order total even though entry times are
        // already validated finite.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority queue of timed events.
///
/// # Examples
///
/// ```
/// use tsg_sim::{EventQueue, ScheduleError};
///
/// let mut q = EventQueue::new();
/// q.schedule(1.5, 'x');
/// assert!(matches!(
///     q.try_schedule(f64::NAN, 'n'),
///     Err(ScheduleError::NonFiniteTime { .. })
/// ));
/// let ev = q.pop().unwrap();
/// assert_eq!((ev.time, ev.payload), (1.5, 'x'));
/// // Popping advanced the clock: the past is closed.
/// assert!(q.try_schedule(1.0, 'y').is_err());
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
    now: f64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue at time `0.0`.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `capacity` pending events — sized
    /// once, a restartable simulator never regrows it.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
            now: 0.0,
        }
    }

    /// The current simulation time: the time of the last popped event
    /// (`0.0` before the first pop).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at absolute `time`.
    ///
    /// # Errors
    ///
    /// Rejects NaN/infinite times and times before [`EventQueue::now`]
    /// (equivalently: negative delays).
    pub fn try_schedule(&mut self, time: f64, payload: T) -> Result<(), ScheduleError> {
        if !time.is_finite() {
            return Err(ScheduleError::NonFiniteTime { time });
        }
        if time < self.now {
            return Err(ScheduleError::TimeRegression {
                time,
                now: self.now,
            });
        }
        self.seq += 1;
        self.heap.push(Entry {
            time,
            seq: self.seq,
            payload,
        });
        Ok(())
    }

    /// Schedules `payload` at absolute `time`.
    ///
    /// # Panics
    ///
    /// Panics on NaN/infinite times or times before [`EventQueue::now`] —
    /// see [`EventQueue::try_schedule`] for the fallible variant.
    pub fn schedule(&mut self, time: f64, payload: T) {
        if let Err(e) = self.try_schedule(time, payload) {
            panic!("EventQueue::schedule: {e}");
        }
    }

    /// Schedules `payload` after a non-negative `delay` from the current
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is NaN or negative.
    pub fn schedule_after(&mut self, delay: f64, payload: T) {
        assert!(
            delay >= 0.0,
            "EventQueue::schedule_after: delay must be non-negative and not NaN, got {delay}"
        );
        self.schedule(self.now + delay, payload);
    }

    /// Pops the earliest pending event and advances the clock to it.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let Entry { time, seq, payload } = self.heap.pop()?;
        self.now = time;
        Some(Event { time, seq, payload })
    }

    /// Drops all pending events and resets the clock to `0.0`, keeping
    /// the heap's allocation — restarting a simulator over the same
    /// queue costs no reallocation.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
        self.now = 0.0;
    }

    /// Pre-allocates room for `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Pending events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 3);
        q.schedule(1.0, 1);
        q.schedule(2.0, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn ties_break_by_sequence() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn rejects_nan_and_infinite() {
        let mut q = EventQueue::new();
        assert!(matches!(
            q.try_schedule(f64::NAN, ()),
            Err(ScheduleError::NonFiniteTime { .. })
        ));
        assert!(matches!(
            q.try_schedule(f64::INFINITY, ()),
            Err(ScheduleError::NonFiniteTime { .. })
        ));
        assert!(q.is_empty());
    }

    #[test]
    fn rejects_time_regression() {
        let mut q = EventQueue::new();
        q.schedule(2.0, ());
        q.pop();
        assert_eq!(q.now(), 2.0);
        assert_eq!(
            q.try_schedule(1.0, ()),
            Err(ScheduleError::TimeRegression {
                time: 1.0,
                now: 2.0
            })
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn schedule_panics_on_nan() {
        EventQueue::new().schedule(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn schedule_after_panics_on_negative_delay() {
        EventQueue::new().schedule_after(-1.0, ());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn schedule_after_panics_on_nan_delay() {
        EventQueue::new().schedule_after(f64::NAN, ());
    }

    #[test]
    fn schedule_after_accumulates_from_now() {
        let mut q = EventQueue::new();
        q.schedule_after(1.5, 'a');
        q.pop();
        q.schedule_after(0.5, 'b');
        let ev = q.pop().unwrap();
        assert_eq!((ev.time, ev.payload), (2.0, 'b'));
    }

    #[test]
    fn clear_resets_clock() {
        let mut q = EventQueue::new();
        q.schedule(9.0, ());
        q.pop();
        q.clear();
        assert_eq!(q.now(), 0.0);
        assert!(q.try_schedule(0.5, ()).is_ok());
    }

    #[test]
    fn clear_keeps_capacity_for_restarts() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(512);
        let cap = q.capacity();
        assert!(cap >= 512);
        for i in 0..400 {
            q.schedule(i as f64, i);
        }
        q.clear();
        assert_eq!(q.capacity(), cap, "clear must not shed the allocation");
        assert!(q.is_empty());
        q.reserve(1024);
        assert!(q.capacity() >= 1024);
    }
}
