//! Karp's maximum mean cycle on the border-reduced graph.
//!
//! Every cycle of a live Signal Graph alternates between token-free
//! stretches and marked arcs, and the head of each marked arc is a border
//! event. Contracting each token-free stretch to a single edge turns the
//! maximum cycle *ratio* problem into a maximum cycle *mean* problem on the
//! border events:
//!
//! * node set — the border events (`b` of them),
//! * edge `g → h` — the longest unmarked path from `g` to the tail of a
//!   marked arc into `h`, plus that arc's delay,
//!
//! after which Karp's classic O(b·E) characterisation
//! `τ = max_v min_k (D_b(v) − D_k(v)) / (b − k)` applies.
//!
//! Building the reduced graph costs one unmarked-DAG longest-path pass per
//! border event — the same O(b·m) flavour of work the paper's simulations
//! do, which is exactly why this is the natural classical comparator.

use tsg_core::analysis::{AnalysisError, CycleTime};
use tsg_core::{ArcId, EventId, SignalGraph};
use tsg_graph::topo;
use tsg_sim::CancelToken;

/// Computes the cycle time of `sg` via the border reduction and Karp's
/// maximum mean cycle.
///
/// Returns `None` for graphs without repetitive events.
///
/// # Examples
///
/// ```
/// let sg = tsg_gen::ring(6, 2, 5.0);
/// let tau = tsg_baselines::karp_cycle_time(&sg).unwrap();
/// assert!((tau.as_f64() - 15.0).abs() < 1e-9);
/// ```
pub fn karp_cycle_time(sg: &SignalGraph) -> Option<CycleTime> {
    karp_cycle_time_with_cancel(sg, None).expect("no cancel token, no cancellation")
}

/// [`karp_cycle_time`] under a cooperative cancel token, polled once per
/// border pass (each O(m)) and once per row of Karp's table (each
/// O(b²)).
///
/// Karp needs no cell budget of its own: its weight matrix and table
/// hold 2b² + b cells, below the `analysis_cells(n, b, b)` ≥ 4b² + 2b
/// that the nominal analysis is refused at (`AnalysisError::TooLarge`)
/// before any report runs the baselines, for any n ≥ b.
///
/// # Errors
///
/// Returns [`AnalysisError::Cancelled`] when `cancel` fires, counting
/// the `b` border passes and then the `b` table rows as its rows.
pub fn karp_cycle_time_with_cancel(
    sg: &SignalGraph,
    cancel: Option<&CancelToken>,
) -> Result<Option<CycleTime>, AnalysisError> {
    let border = sg.border_events();
    if border.is_empty() {
        return Ok(None);
    }
    let b = border.len();
    let poll = |rows_done: usize| match cancel.and_then(CancelToken::check) {
        Some(kind) => Err(AnalysisError::Cancelled {
            kind,
            rows_done,
            rows_total: 2 * b,
        }),
        None => Ok(()),
    };
    let mut border_index = vec![usize::MAX; sg.event_count()];
    for (i, &e) in border.iter().enumerate() {
        border_index[e.index()] = i;
    }

    // Topological order of the unmarked repetitive subgraph.
    let order: Vec<EventId> = topo::topological_order_masked(sg.digraph(), |e| {
        let arc = sg.arc(ArcId(e.0));
        sg.is_repetitive(arc.src()) && sg.is_repetitive(arc.dst()) && !arc.is_marked()
    })
    .expect("validated unmarked subgraph is acyclic")
    .into_iter()
    .map(|n| EventId(n.0))
    .filter(|&e| sg.is_repetitive(e))
    .collect();

    // Reduced edge weights: w[g][h] = max over (unmarked path g..u, marked
    // arc u -> h) of length + delay.
    let mut weight = vec![vec![f64::NEG_INFINITY; b]; b];
    let mut dist = vec![f64::NEG_INFINITY; sg.event_count()];
    for (gi, &g) in border.iter().enumerate() {
        poll(gi)?;
        dist.iter_mut().for_each(|d| *d = f64::NEG_INFINITY);
        dist[g.index()] = 0.0;
        for &v in &order {
            // relax unmarked in-arcs (topological order makes one pass enough)
            for a in sg.in_arcs(v) {
                let arc = sg.arc(a);
                if arc.is_marked() || arc.is_disengageable() || !sg.is_repetitive(arc.src()) {
                    continue;
                }
                let s = dist[arc.src().index()];
                if s > f64::NEG_INFINITY {
                    dist[v.index()] = dist[v.index()].max(s + arc.delay().get());
                }
            }
        }
        for a in sg.arc_ids() {
            let arc = sg.arc(a);
            if !arc.is_marked() {
                continue;
            }
            let s = dist[arc.src().index()];
            if s == f64::NEG_INFINITY {
                continue;
            }
            let hi = border_index[arc.dst().index()];
            debug_assert_ne!(hi, usize::MAX, "marked arcs point at border events");
            weight[gi][hi] = weight[gi][hi].max(s + arc.delay().get());
        }
    }

    // Karp on the reduced graph: D[k][v] = max weight of a k-edge walk from
    // an artificial source that reaches every node with D[0] = 0.
    //
    // With D[0][v] = 0 for all v (super-source trick) the recurrence yields
    // max mean over all cycles reachable from anywhere — the whole reduced
    // graph here, which is strongly connected.
    let rows = b + 1;
    let mut d = vec![vec![f64::NEG_INFINITY; b]; rows];
    d[0].iter_mut().for_each(|x| *x = 0.0);
    for k in 1..rows {
        poll(b + k - 1)?;
        for h in 0..b {
            for g in 0..b {
                let w = weight[g][h];
                if w == f64::NEG_INFINITY || d[k - 1][g] == f64::NEG_INFINITY {
                    continue;
                }
                d[k][h] = d[k][h].max(d[k - 1][g] + w);
            }
        }
    }

    let mut best: Option<f64> = None;
    #[allow(clippy::needless_range_loop)] // v indexes two rows of `d`
    for v in 0..b {
        if d[b][v] == f64::NEG_INFINITY {
            continue;
        }
        let mut worst = f64::INFINITY;
        for k in 0..b {
            if d[k][v] == f64::NEG_INFINITY {
                continue;
            }
            worst = worst.min((d[b][v] - d[k][v]) / (b - k) as f64);
        }
        if worst < f64::INFINITY {
            best = Some(best.map_or(worst, |x: f64| x.max(worst)));
        }
    }

    // Karp yields the value; express it over one period (the reduced mean
    // is already per-token).
    Ok(best.map(|tau| CycleTime::new(tau, 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_core::analysis::CycleTimeAnalysis;
    use tsg_core::SignalGraph;

    #[test]
    fn agrees_on_rings() {
        for (n, k, d) in [(4, 1, 2.0), (9, 3, 1.5), (12, 5, 3.0)] {
            let sg = tsg_gen::ring(n, k, d);
            let want = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
            let got = karp_cycle_time(&sg).unwrap().as_f64();
            assert!((got - want).abs() < 1e-9, "ring({n},{k}): {got} != {want}");
        }
    }

    #[test]
    fn agrees_on_random_graphs() {
        use tsg_gen::{random_live_tsg, RandomTsgConfig};
        for seed in 0..40 {
            let sg = random_live_tsg(seed, RandomTsgConfig::default());
            let want = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
            let got = karp_cycle_time(&sg).unwrap().as_f64();
            assert!(
                (got - want).abs() < 1e-6 * (1.0 + want),
                "seed {seed}: {got} != {want}"
            );
        }
    }

    #[test]
    fn agrees_on_stack66() {
        let sg = tsg_gen::stack66();
        let want = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
        let got = karp_cycle_time(&sg).unwrap().as_f64();
        assert!((got - want).abs() < 1e-9);
    }

    #[test]
    fn fired_token_cancels_before_the_first_pass() {
        let sg = tsg_gen::ring(9, 3, 1.5);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            karp_cycle_time_with_cancel(&sg, Some(&token)),
            Err(AnalysisError::Cancelled {
                kind: tsg_sim::CancelKind::Explicit,
                rows_done: 0,
                rows_total: 2 * 3,
            })
        );
        // A token that fires mid-run stops in the table rows.
        let late = CancelToken::cancel_after_checks(3 + 1);
        assert_eq!(
            karp_cycle_time_with_cancel(&sg, Some(&late)),
            Err(AnalysisError::Cancelled {
                kind: tsg_sim::CancelKind::Explicit,
                rows_done: 3 + 1,
                rows_total: 2 * 3,
            })
        );
        let idle = CancelToken::new();
        assert_eq!(
            karp_cycle_time_with_cancel(&sg, Some(&idle)),
            Ok(karp_cycle_time(&sg))
        );
    }

    #[test]
    fn none_for_acyclic() {
        let mut b = SignalGraph::builder();
        let s = b.initial_event("s");
        let t = b.finite_event("t");
        b.arc(s, t, 1.0);
        let sg = b.build().unwrap();
        assert!(karp_cycle_time(&sg).is_none());
    }
}
