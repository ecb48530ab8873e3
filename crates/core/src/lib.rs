//! # tsg-core — Timed Signal Graphs and the DAC'94 cycle-time algorithm
//!
//! This crate implements the model and the primary contribution of
//! Nielsen & Kishinevsky, *"Performance Analysis Based on Timing
//! Simulation"*, DAC 1994:
//!
//! * the **Signal Graph** model (Section III): events, arcs with initial
//!   marking and disengageability, delays — see [`SignalGraph`];
//! * the **token game** execution semantics — see [`marking`];
//! * the **unfolding** into an acyclic occurrence net with periods,
//!   precedence (`⇒`) and concurrency (`‖`) relations — see [`unfold`];
//! * **timing simulation** `t(·)` and **event-initiated timing simulation**
//!   `t_g(·)` (Section IV) — see [`analysis::sim`] and
//!   [`analysis::initiated`];
//! * the **O(b²m) cycle-time algorithm** with critical-cycle backtracking
//!   (Sections VI–VII) — see [`analysis::CycleTimeAnalysis`];
//! * border/cut sets (Section VI.A) — see [`analysis::border`];
//! * ASCII timing diagrams (Figure 1c/1d) — see [`analysis::diagram`];
//! * Graphviz export — see [`dot`].
//!
//! # Example
//!
//! Compute the cycle time of a two-stage self-timed loop:
//!
//! ```
//! use tsg_core::SignalGraph;
//! use tsg_core::analysis::CycleTimeAnalysis;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SignalGraph::builder();
//! let rp = b.event("r+");
//! let rm = b.event("r-");
//! b.arc(rp, rm, 3.0);
//! b.marked_arc(rm, rp, 2.0);
//! let sg = b.build()?;
//!
//! let analysis = CycleTimeAnalysis::run(&sg)?;
//! assert_eq!(analysis.cycle_time().as_f64(), 5.0);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod arc;
pub mod builder;
pub mod decimal;
pub mod dot;
pub mod event;
pub mod graph;
mod label;
pub mod marking;
pub mod spec;
pub mod time;
pub mod unfold;
pub mod validate;

pub use arc::{Arc, ArcId};
pub use builder::SignalGraphBuilder;
pub use event::{EventId, EventKind, EventLabel, Label, Polarity};
pub use graph::{SignalGraph, TimedSignalGraph};
pub use time::{Delay, Ratio};
pub use validate::ValidationError;
