//! # tsg-sim — the shared event-simulation kernel
//!
//! The simulators in the workspace build on the three primitives in
//! this crate:
//!
//! * [`EventQueue`] — a monotone pending-event queue with deterministic
//!   `(time, seq)` tie-breaking and a NaN-rejecting total order. Times
//!   never go backwards and never go undefined, by construction: invalid
//!   schedules are rejected at enqueue time, not discovered at pop time.
//!   Storage is a binary heap. The gate-level transport-delay netlist
//!   simulator in `tsg-circuit` is the only simulator left that runs on
//!   it: Timed Signal Graphs are simulated period-synchronously by
//!   `tsg-core`'s one row recurrence (`TimingSimulation` for `t(·)`,
//!   `SimArena` for `t_g(·)`), which needs no queue.
//! * [`TraceRecorder`] — captures timed signal transitions during (or
//!   after) a simulation and dumps them as a VCD waveform any standard
//!   viewer (GTKWave, Surfer) can open.
//! * [`CancelToken`] — the cooperative cancellation signal (explicit
//!   cancel, group flag, deadline) that long-running loops poll.
//!
//! The kernel is deliberately free of Signal-Graph or netlist semantics:
//! payloads are caller-defined and signals are plain names.
//!
//! # Example
//!
//! ```
//! use tsg_sim::EventQueue;
//!
//! let mut q = EventQueue::new();
//! q.schedule(2.0, "b");
//! q.schedule(1.0, "a");
//! q.schedule(2.0, "c"); // same time: FIFO by sequence number
//! let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
//! assert_eq!(order, ["a", "b", "c"]);
//! ```

pub mod cancel;
pub mod queue;
pub mod trace;

pub use cancel::{CancelKind, CancelToken};
pub use queue::{Event, EventQueue, ScheduleError};
pub use trace::{TraceId, TraceRecorder};
