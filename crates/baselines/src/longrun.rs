//! The naive long-run estimate of the cycle time.
//!
//! Runs the plain timing simulation for many periods and estimates `τ` from
//! the late-time slope of an event's occurrence times. This is the approach
//! Section II and Figure 4 caution against: it converges asymptotically but
//! gives no exactness guarantee at any finite horizon — which is precisely
//! what the benchmarks demonstrate by comparing it with the exact
//! algorithms.
//!
//! The simulation itself is the period-synchronous
//! [`TimingSimulation`], the one `t(·)` recurrence behind `tsg sim` and
//! the timing diagrams. Delay uncertainty is the exact scenario sweep's
//! business (`ScenarioSet::samples` gives every sampled assignment its
//! exact `τ`).

use tsg_core::analysis::sim::TimingSimulation;
use tsg_core::SignalGraph;

/// Estimates the cycle time from a `periods`-long timing simulation as the
/// average occurrence distance of a border event over the second half of
/// the horizon.
///
/// Returns `None` for graphs without repetitive events, for
/// `periods < 2`, and when an occurrence time overflows `f64`.
///
/// # Examples
///
/// ```
/// let sg = tsg_gen::ring(6, 2, 5.0);
/// let est = tsg_baselines::longrun_estimate(&sg, 64).unwrap();
/// assert!((est - 15.0).abs() < 1e-9);
/// ```
pub fn longrun_estimate(sg: &SignalGraph, periods: u32) -> Option<f64> {
    if periods < 2 {
        return None;
    }
    let probe = *sg.border_events().first()?;
    let sim = TimingSimulation::run(sg, periods, None).ok()?;
    let mid = periods / 2;
    let t_mid = sim.time(probe, mid)?;
    let t_end = sim.time(probe, periods - 1)?;
    Some((t_end - t_mid) / (periods - 1 - mid) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_core::analysis::CycleTimeAnalysis;

    #[test]
    fn converges_on_rings() {
        let sg = tsg_gen::ring(9, 3, 2.0);
        let want = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
        let est = longrun_estimate(&sg, 128).unwrap();
        assert!((est - want).abs() < 1e-9);
    }

    #[test]
    fn short_horizons_can_be_wrong() {
        // The estimator needs the transient to die out; at 2 periods it can
        // differ from τ (that is the point of the paper's event-initiated
        // construction). We only assert it is not *guaranteed* exact:
        // for the stack it still approximates τ within 50%.
        let sg = tsg_gen::stack66();
        let want = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
        let est = longrun_estimate(&sg, 4).unwrap();
        assert!(est > 0.0);
        assert!((est - want).abs() / want < 0.5);
    }

    #[test]
    fn long_horizon_matches_on_stack() {
        let sg = tsg_gen::stack66();
        let want = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
        let est = longrun_estimate(&sg, 256).unwrap();
        assert!((est - want).abs() < 1e-6, "{est} != {want}");
    }

    #[test]
    fn degenerate_inputs() {
        let sg = tsg_gen::ring(4, 1, 1.0);
        assert!(longrun_estimate(&sg, 1).is_none());
    }
}
