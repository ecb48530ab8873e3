//! Asymptotic behaviour of average occurrence distances (Figure 4).
//!
//! For an event `e` on a critical cycle, the sequence `δ_{e0}(e_i)` attains
//! the cycle time τ at some `i ≤ b` and keeps returning to it; for an event
//! off every critical cycle the sequence stays strictly below τ while still
//! converging to it (Proposition 8). This module produces those series.

use crate::analysis::initiated::{NotRepetitive, SimArena};
use crate::event::EventId;
use crate::graph::SignalGraph;

/// One point of a δ-series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeltaPoint {
    /// The occurrence index `i`.
    pub index: u32,
    /// `t_{e0}(e_i)`.
    pub time: f64,
    /// `δ_{e0}(e_i) = t_{e0}(e_i) / i`.
    pub delta: f64,
}

/// Computes the series `δ_{e0}(e_i)` for `0 < i <= periods`.
///
/// Undefined entries (instances not reachable from `e₀`) are skipped.
///
/// # Errors
///
/// Returns an error when `event` is not repetitive.
///
/// # Examples
///
/// ```
/// use tsg_core::SignalGraph;
/// use tsg_core::analysis::asymptotic::delta_series;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SignalGraph::builder();
/// let xp = b.event("x+");
/// let xm = b.event("x-");
/// b.arc(xp, xm, 3.0);
/// b.marked_arc(xm, xp, 2.0);
/// let sg = b.build()?;
/// let series = delta_series(&sg, xp, 4)?;
/// assert!(series.iter().all(|p| p.delta == 5.0));
/// # Ok(())
/// # }
/// ```
pub fn delta_series(
    sg: &SignalGraph,
    event: EventId,
    periods: u32,
) -> Result<Vec<DeltaPoint>, NotRepetitive> {
    let mut sim = SimArena::new();
    sim.run(sg, event, periods, false)?;
    Ok(sim
        .distance_series()
        .into_iter()
        .map(|(index, time, delta)| DeltaPoint { index, time, delta })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignalGraph;

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
    fn on_cycle_event_attains_tau() {
        let sg = figure2();
        let ap = sg.event_by_label("a+").unwrap();
        let series = delta_series(&sg, ap, 10).unwrap();
        assert!(series.iter().any(|p| p.delta == 10.0));
    }

    #[test]
    fn off_cycle_event_stays_below_tau() {
        let sg = figure2();
        let bp = sg.event_by_label("b+").unwrap();
        let series = delta_series(&sg, bp, 10).unwrap();
        assert!(series.iter().all(|p| p.delta < 10.0));
    }

    #[test]
    fn off_cycle_series_is_monotone_toward_tau_here() {
        // Not true in general (the paper notes oscillation), but for this
        // graph the b+ series increases toward 10.
        let sg = figure2();
        let bp = sg.event_by_label("b+").unwrap();
        let series = delta_series(&sg, bp, 30).unwrap();
        for w in series.windows(2) {
            assert!(w[1].delta >= w[0].delta);
        }
        assert!(series.last().unwrap().delta > 9.9);
    }
}
