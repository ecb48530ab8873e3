//! # tsg-baselines — the related-work cycle-time algorithms
//!
//! The paper positions its O(b²m) timing-simulation algorithm against a
//! family of classical formulations of the same problem (Section I). This
//! crate implements those comparators so the benchmarks can reproduce the
//! "who wins" analysis and the tests can cross-validate every result:
//!
//! * [`enumerate`] — exhaustive simple-cycle enumeration, the
//!   "straightforward approach" of Section II (exact, exponential; also
//!   regenerates Example 5/6);
//! * [`karp`] — Karp's maximum mean cycle on the border-reduced graph
//!   (refs \[1, 11\]);
//! * [`howard`] — Howard's policy iteration for the maximum cycle ratio
//!   (the practical workhorse of the min/max-ratio family, refs \[8, 13\]);
//! * [`lawler`] — Lawler's binary search with a Bellman–Ford positive-cycle
//!   oracle (equivalent in power to Burns' linear program \[2\]);
//! * [`longrun`] — the naive long-run simulation estimate that Figure 4
//!   warns about (asymptotically correct, never exact for off-critical
//!   initiations), one slope read off the workspace's one timing
//!   simulation.
//!
//! All functions agree with
//! [`tsg_core::analysis::CycleTimeAnalysis`] on every valid graph; the
//! property tests in the workspace assert exactly that.

pub mod enumerate;
pub mod howard;
pub mod karp;
pub mod lawler;
pub mod longrun;

pub use enumerate::{enumerate_cycle_time, CycleInventory};
pub use howard::{howard_cycle_time, howard_cycle_time_with_cancel};
pub use karp::{karp_cycle_time, karp_cycle_time_with_cancel};
pub use lawler::lawler_cycle_time;
pub use longrun::longrun_estimate;
