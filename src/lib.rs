//! # tsg — Performance Analysis Based on Timing Simulation
//!
//! A Rust reproduction of Nielsen & Kishinevsky, *"Performance Analysis Based
//! on Timing Simulation"*, 31st ACM/IEEE Design Automation Conference (DAC),
//! 1994, pp. 70–76.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`core`] — the Timed Signal Graph model and the paper's O(b²m)
//!   timing-simulation cycle-time algorithm (Sections III–VII),
//! * [`baselines`] — the related-work comparators: simple-cycle enumeration,
//!   Karp, Howard, Lawler binary search, long-run simulation estimation,
//! * [`circuit`] — gate-level asynchronous circuits and an event-driven
//!   timing simulator (Section VIII),
//! * [`extract`] — Signal Graph extraction from speed-independent circuits
//!   (the TRASPEC step of Section VIII.B),
//! * [`serve`] — the long-running `tsg serve` analysis service: a
//!   newline-delimited JSON protocol answered in order by a persistent
//!   warm worker pool (one arena + pre-sized queues per worker),
//! * [`stg`] — `.g` Signal Transition Graph file I/O,
//! * [`gen`] — workload generators (Muller rings, pipelines, stacks, seeded
//!   random live graphs),
//! * [`graph`] — the underlying directed-graph algorithm substrate,
//! * [`sim`] — the shared event-simulation kernel: the monotone
//!   binary-heap event queue, VCD trace recording, and parallel batch
//!   execution that every simulator in the workspace runs on.
//!
//! # Quickstart
//!
//! Compute the cycle time of the paper's C-element oscillator (Figure 1):
//!
//! ```
//! use tsg::core::analysis::CycleTimeAnalysis;
//! use tsg::circuit::library;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tsg = library::c_element_oscillator_tsg();
//! let analysis = CycleTimeAnalysis::run(&tsg)?;
//! assert_eq!(analysis.cycle_time().as_f64(), 10.0);
//! # Ok(())
//! # }
//! ```

pub use tsg_baselines as baselines;
pub use tsg_circuit as circuit;
pub use tsg_core as core;
pub use tsg_extract as extract;
pub use tsg_gen as gen;
pub use tsg_graph as graph;
pub use tsg_serve as serve;
pub use tsg_sim as sim;
pub use tsg_stg as stg;
