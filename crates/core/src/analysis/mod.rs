//! Timing analysis of Timed Signal Graphs (Sections IV–VII of the paper).
//!
//! * [`sim::TimingSimulation`] — the timing simulation `t(·)` over the
//!   unfolding (Section IV.A), one period row at a time; `tsg sim` on
//!   `.g` files, the timing diagrams and the long-run estimator all run
//!   on it,
//! * [`initiated::SimArena`] — the event-initiated simulation `t_g(·)`
//!   (Section IV.B) in reusable buffers that hold the last run; the
//!   Figure 1d diagram, the δ-series and the winner's parent-tracked
//!   backtrack run on it,
//! * [`wide`] — all `b` event-initiated simulations of one analysis in
//!   SIMD-friendly lockstep lanes over a single structure pass, in a
//!   two-row window held by a [`wide::AnalysisArena`] (bit-identical to
//!   the scalar kernel),
//! * [`CycleTimeAnalysis`] — the O(b²m) cycle-time algorithm with
//!   critical-cycle backtracking (Sections VI–VII), running on the wide
//!   kernel,
//! * [`session::AnalysisSession`] — edit-and-re-measure sessions:
//!   delay and structural edit batches, each answered by one
//!   re-analysis in the session's arena,
//! * [`border`] — border and cut sets (Section VI.A),
//! * [`asymptotic`] — δ-series for Figure 4,
//! * [`diagram`] — ASCII timing diagrams (Figure 1c/1d).

pub mod asymptotic;
pub mod border;
pub mod cycle_time;
pub mod diagram;
pub mod initiated;
pub mod scenario;
pub mod session;
pub mod sim;
pub mod slack;
pub(crate) mod structure;
pub mod wide;

pub use cycle_time::{AnalysisError, BorderRecord, CycleTimeAnalysis};
pub use scenario::{Corner, ScenarioAnalysis, ScenarioSet, ScenarioSpecError, UnknownCorner};
pub use session::{AnalysisSession, CycleTimeDelta, DelayEdit, EditError};
pub use wide::KernelBackend;

use crate::time::Ratio;
use std::fmt;

/// A cycle time `τ = length / periods`: the total delay of a critical path
/// over the number of unfolding periods it spans.
///
/// Keeping numerator and denominator separate lets maxima be selected by
/// cross-multiplication, which is exact whenever delays are integral
/// (divisions like 20/3 never enter the comparison).
///
/// # Examples
///
/// ```
/// use tsg_core::analysis::CycleTime;
///
/// let tau = CycleTime::new(20.0, 3);
/// assert!((tau.as_f64() - 6.6667).abs() < 1e-3);
/// assert_eq!(tau.exact().unwrap().to_string(), "20/3");
/// assert!(tau > CycleTime::new(13.0, 2));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CycleTime {
    length: f64,
    periods: u32,
}

impl CycleTime {
    /// Creates a cycle time from a total path `length` over `periods`
    /// periods.
    ///
    /// # Panics
    ///
    /// Panics if `periods == 0` or `length` is not finite.
    pub fn new(length: f64, periods: u32) -> Self {
        assert!(periods > 0, "cycle time needs at least one period");
        assert!(length.is_finite(), "cycle length must be finite");
        CycleTime { length, periods }
    }

    /// Total delay along the witnessing path/cycle.
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Number of unfolding periods (tokens) the witness spans.
    pub fn periods(&self) -> u32 {
        self.periods
    }

    /// The cycle time as a float: `length / periods`.
    pub fn as_f64(&self) -> f64 {
        self.length / self.periods as f64
    }

    /// The exact rational value, when the length is integral.
    pub fn exact(&self) -> Option<Ratio> {
        if self.length.fract() == 0.0 && self.length.abs() < 2f64.powi(53) {
            Some(Ratio::new(self.length as i64, self.periods as i64))
        } else {
            None
        }
    }
}

impl PartialEq for CycleTime {
    fn eq(&self, other: &Self) -> bool {
        // Cross-multiplied equality: exact for representable products.
        self.length * other.periods as f64 == other.length * self.periods as f64
    }
}

impl PartialOrd for CycleTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        (self.length * other.periods as f64).partial_cmp(&(other.length * self.periods as f64))
    }
}

impl fmt::Display for CycleTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.exact() {
            Some(r) if r.as_integer().is_none() => {
                write!(f, "{} (= {:.4})", r, self.as_f64())
            }
            _ => write!(f, "{}", self.as_f64()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_multiplied_comparison() {
        assert!(CycleTime::new(20.0, 3) > CycleTime::new(13.0, 2));
        assert_eq!(CycleTime::new(10.0, 1), CycleTime::new(20.0, 2));
        assert!(CycleTime::new(9.0, 1) < CycleTime::new(19.0, 2));
    }

    #[test]
    fn exact_ratio() {
        assert_eq!(CycleTime::new(20.0, 3).exact(), Some(Ratio::new(20, 3)));
        assert_eq!(CycleTime::new(2.5, 1).exact(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(CycleTime::new(10.0, 1).to_string(), "10");
        assert!(CycleTime::new(20.0, 3).to_string().starts_with("20/3"));
    }

    #[test]
    #[should_panic(expected = "at least one period")]
    fn zero_periods_panics() {
        let _ = CycleTime::new(1.0, 0);
    }
}
