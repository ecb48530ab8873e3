//! # tsg-oracles — independent reference semantics for the tests
//!
//! The production crates compute cycle times period-synchronously and
//! never materialise the paper's untimed semantics. The workspace's
//! tests check them against straightforward, separately written
//! implementations of that semantics, kept here so that no production
//! crate links them:
//!
//! * [`marking`] — the token game of Section III.A (enabling, firing,
//!   one-shot disengageable arcs and prefix events);
//! * [`unfold`] — the explicit unfolding of Section III.B into an
//!   acyclic occurrence graph, with precedence (`⇒`), concurrency (`‖`)
//!   and the signal-consistency check of Section VIII.A;
//! * [`border`] — cut sets and the occurrence-period bounds of
//!   Section VI.A, including the erratum to Proposition 6;
//! * [`stg_reference`] — the `.g` reader as it was before its
//!   single-scan rewrite, which `tsg_stg::parse_stg` must agree with.
//!
//! Only the root `tsg` package depends on this crate, and only as a
//! dev-dependency.

pub mod border;
pub mod marking;
mod reach;
pub mod stg_reference;
pub mod unfold;
