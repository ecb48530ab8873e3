//! Per-arc slack and criticality analysis.
//!
//! Once the cycle time `τ` is known, weight every arc with
//! `w(e) = δ(e) − τ·M(e)`. By optimality of `τ`, every cycle has
//! `w(C) = len(C) − τ·ε(C) <= 0`, with equality exactly on critical
//! cycles. The **slack** of an arc `a` is
//!
//! ```text
//! slack(a) = − max { w(C) | cycles C through a }
//! ```
//!
//! — the largest amount the arc's delay can grow before it joins a
//! critical cycle and starts degrading the cycle time. Arcs with zero
//! slack are *critical*: any increase of their delay increases τ (these
//! are the bottlenecks a designer must attack first, the workflow the
//! paper's introduction motivates).
//!
//! The maximum-weight cycle through `a = (u, v)` equals
//! `w(a) + maxdist(v, u)` where `maxdist` is the longest `w`-weighted path;
//! since no positive cycle exists, longest paths are well defined and one
//! Bellman–Ford pass per node suffices (O(n·m) per source, O(n²m) total —
//! fine for reporting; the hot path of the crate stays O(b²m)).

use crate::analysis::cycle_time::{AnalysisError, CycleTimeAnalysis};
use crate::arc::ArcId;
use crate::graph::SignalGraph;

/// Result of [`SlackAnalysis::run`].
#[derive(Clone, Debug)]
pub struct SlackAnalysis {
    slack: Vec<Option<f64>>,
    tau: f64,
}

impl SlackAnalysis {
    /// Computes per-arc slacks for a validated graph.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoCyclicBehavior`] for graphs without
    /// repetitive events.
    pub fn run(sg: &SignalGraph) -> Result<Self, AnalysisError> {
        let tau = CycleTimeAnalysis::run(sg)?.cycle_time().as_f64();
        let view = sg.repetitive_view();
        let n = view.graph.node_count();
        let m = view.arcs.len();
        let w: Vec<f64> = view
            .arcs
            .iter()
            .map(|&a| {
                let arc = sg.arc(a);
                arc.delay().get() - tau * f64::from(u8::from(arc.is_marked()))
            })
            .collect();

        // maxdist[s][t]: longest w-weighted path s -> t (NEG_INFINITY if
        // unreachable, 0 for s == t through the empty path).
        let mut maxdist = vec![vec![f64::NEG_INFINITY; n]; n];
        for s in 0..n {
            let dist = &mut maxdist[s];
            dist[s] = 0.0;
            // Bellman-Ford: n rounds of full relaxation.
            for _ in 0..n {
                let mut changed = false;
                #[allow(clippy::needless_range_loop)] // e indexes graph edges and weights
                for e in 0..m {
                    let edge = tsg_graph::EdgeId(e as u32);
                    let (u, v) = view.graph.endpoints(edge);
                    let cand = dist[u.index()] + w[e];
                    // tolerance guards against zero-cycles cycling forever
                    if cand > dist[v.index()] + 1e-12 {
                        dist[v.index()] = cand;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        let mut slack = vec![None; sg.arc_count()];
        for (e, &orig) in view.arcs.iter().enumerate() {
            let edge = tsg_graph::EdgeId(e as u32);
            let (u, v) = view.graph.endpoints(edge);
            let back = maxdist[v.index()][u.index()];
            if back > f64::NEG_INFINITY {
                let best_cycle = w[e] + back;
                slack[orig.index()] = Some((-best_cycle).max(0.0));
            }
        }
        Ok(SlackAnalysis { slack, tau })
    }

    /// The cycle time the slacks are relative to.
    pub fn cycle_time(&self) -> f64 {
        self.tau
    }

    /// Slack of `arc`: `None` for prefix/disengageable arcs (they lie on
    /// no cycle), `Some(0.0)` for critical arcs.
    pub fn slack(&self, arc: ArcId) -> Option<f64> {
        self.slack.get(arc.index()).copied().flatten()
    }

    /// `true` when the arc lies on a critical cycle (zero slack, up to
    /// `tol`).
    pub fn is_critical(&self, arc: ArcId, tol: f64) -> bool {
        matches!(self.slack(arc), Some(s) if s <= tol)
    }

    /// All critical arcs (slack `<= tol`), in id order.
    pub fn critical_arcs(&self, tol: f64) -> Vec<ArcId> {
        self.slack
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Some(s) if *s <= tol => Some(ArcId(i as u32)),
                _ => None,
            })
            .collect()
    }
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

    fn arc_between(sg: &SignalGraph, src: &str, dst: &str) -> ArcId {
        let s = sg.event_by_label(src).unwrap();
        let d = sg.event_by_label(dst).unwrap();
        sg.arc_ids()
            .find(|&a| sg.arc(a).src() == s && sg.arc(a).dst() == d)
            .unwrap()
    }

    #[test]
    fn critical_cycle_arcs_have_zero_slack() {
        let sg = figure2();
        let sa = SlackAnalysis::run(&sg).unwrap();
        assert_eq!(sa.cycle_time(), 10.0);
        for (s, d) in [("a+", "c+"), ("c+", "a-"), ("a-", "c-"), ("c-", "a+")] {
            let a = arc_between(&sg, s, d);
            assert_eq!(sa.slack(a), Some(0.0), "{s}->{d}");
            assert!(sa.is_critical(a, 1e-9));
        }
    }

    #[test]
    fn off_cycle_arcs_have_positive_slack() {
        // The b-side cycle C4 has length 6 against τ=10: its private arcs
        // carry slack. b+->c+ lies on C2 (length 8) => slack 2.
        let sg = figure2();
        let sa = SlackAnalysis::run(&sg).unwrap();
        let b_cp = arc_between(&sg, "b+", "c+");
        assert_eq!(sa.slack(b_cp), Some(2.0));
        let cp_bm = arc_between(&sg, "c+", "b-");
        assert_eq!(sa.slack(cp_bm), Some(2.0));
        // c-->b+ lies on C3 (length 8) and C4 (6): best cycle is 8 => 2.
        let cm_bp = arc_between(&sg, "c-", "b+");
        assert_eq!(sa.slack(cm_bp), Some(2.0));
    }

    #[test]
    fn prefix_arcs_have_no_slack_value() {
        let sg = figure2();
        let sa = SlackAnalysis::run(&sg).unwrap();
        let e_f = arc_between(&sg, "e-", "f-");
        assert_eq!(sa.slack(e_f), None);
        let e_ap = arc_between(&sg, "e-", "a+");
        assert_eq!(sa.slack(e_ap), None);
    }

    #[test]
    fn critical_arcs_list() {
        let sg = figure2();
        let sa = SlackAnalysis::run(&sg).unwrap();
        let critical = sa.critical_arcs(1e-9);
        assert_eq!(critical.len(), 4);
    }

    #[test]
    fn slack_predicts_perturbation_effect() {
        // Increasing an arc's delay by its slack keeps τ; any more raises it.
        let sg = figure2();
        let sa = SlackAnalysis::run(&sg).unwrap();
        let probe = arc_between(&sg, "b+", "c+");
        let slack = sa.slack(probe).unwrap();

        let rebuild = |extra: f64| {
            let mut b = SignalGraph::builder();
            let ids: Vec<_> = sg
                .events()
                .map(|e| b.event_with(sg.label(e), sg.kind(e)))
                .collect();
            for a in sg.arc_ids() {
                let arc = sg.arc(a);
                let d = arc.delay().get() + if a == probe { extra } else { 0.0 };
                let (s, t) = (ids[arc.src().index()], ids[arc.dst().index()]);
                if arc.is_marked() {
                    b.marked_arc(s, t, d);
                } else if arc.is_disengageable() {
                    b.disengageable_arc(s, t, d);
                } else {
                    b.arc(s, t, d);
                }
            }
            CycleTimeAnalysis::run(&b.build().unwrap())
                .unwrap()
                .cycle_time()
                .as_f64()
        };
        assert_eq!(rebuild(slack), 10.0);
        assert!(rebuild(slack + 0.5) > 10.0);
    }
}
