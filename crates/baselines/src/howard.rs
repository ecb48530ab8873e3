//! Howard's policy iteration for the maximum cycle ratio.
//!
//! Finds `τ = max { Σδ(C) / Σtokens(C) }` over all cycles `C`. Policy
//! iteration maintains one chosen out-arc per node; each round evaluates
//! the ratio of the cycles of the policy graph, computes node potentials,
//! and switches any arc that improves (ratio first, potential second).
//! Converges in finitely many policies; in practice a handful of rounds.
//!
//! This is the algorithmic family of the minimum cost-to-time ratio
//! literature the paper cites (Lawler \[11\], Hartmann–Orlin \[8\]).

use tsg_core::analysis::{AnalysisError, CycleTime};
use tsg_core::{ArcId, SignalGraph};
use tsg_graph::NodeId;
use tsg_sim::CancelToken;

/// Computes the cycle time of `sg` by Howard's policy iteration.
///
/// Returns `None` for graphs without repetitive events.
///
/// # Examples
///
/// ```
/// let sg = tsg_gen::ring(6, 2, 5.0);
/// let tau = tsg_baselines::howard_cycle_time(&sg).unwrap();
/// assert!((tau.as_f64() - 15.0).abs() < 1e-9);
/// ```
pub fn howard_cycle_time(sg: &SignalGraph) -> Option<CycleTime> {
    howard_cycle_time_with_cancel(sg, None).expect("no cancel token, no cancellation")
}

/// [`howard_cycle_time`] under a cooperative cancel token, polled once
/// per policy round (each O(m); at most n² + 16 rounds).
///
/// # Errors
///
/// Returns [`AnalysisError::Cancelled`] when `cancel` fires, counting
/// policy rounds as its rows.
pub fn howard_cycle_time_with_cancel(
    sg: &SignalGraph,
    cancel: Option<&CancelToken>,
) -> Result<Option<CycleTime>, AnalysisError> {
    let view = sg.repetitive_view();
    let n = view.graph.node_count();
    if n == 0 {
        return Ok(None);
    }
    let delay: Vec<f64> = view.arcs.iter().map(|&a| sg.arc(a).delay().get()).collect();
    let tokens: Vec<f64> = view
        .arcs
        .iter()
        .map(|&a| if sg.arc(a).is_marked() { 1.0 } else { 0.0 })
        .collect();

    // Policy: chosen out-edge (local edge index) per node.
    let mut policy: Vec<usize> = (0..n)
        .map(|v| view.graph.out_edges(NodeId(v as u32))[0].index())
        .collect();

    let mut ratio = vec![0.0f64; n];
    let mut value = vec![0.0f64; n];
    const EPS: f64 = 1e-12;

    let rounds = n * n + 16;
    for round in 0..rounds {
        if let Some(kind) = cancel.and_then(CancelToken::check) {
            return Err(AnalysisError::Cancelled {
                kind,
                rows_done: round,
                rows_total: rounds,
            });
        }
        evaluate_policy(
            &view.graph,
            &policy,
            &delay,
            &tokens,
            &mut ratio,
            &mut value,
        );
        let mut improved = false;
        for e in 0..view.arcs.len() {
            let u = view.graph.src(tsg_graph::EdgeId(e as u32)).index();
            let v = view.graph.dst(tsg_graph::EdgeId(e as u32)).index();
            if ratio[v] > ratio[u] + EPS {
                policy[u] = e;
                improved = true;
            } else if (ratio[v] - ratio[u]).abs() <= EPS {
                let cand = delay[e] - ratio[u] * tokens[e] + value[v];
                if cand > value[u] + EPS * (1.0 + value[u].abs()) {
                    policy[u] = e;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    // The answer is the best policy-cycle; recover it for an exact
    // (length, tokens) pair.
    let cycle = best_policy_cycle(&view.graph, &policy, &delay, &tokens);
    let arcs: Vec<ArcId> = cycle.iter().map(|&e| view.arcs[e]).collect();
    let len = sg.path_length(&arcs);
    let eps = sg.occurrence_period(&arcs);
    Ok(Some(CycleTime::new(len, eps.max(1))))
}

/// Evaluates the current policy: per node, the ratio of the policy cycle it
/// drains into and a consistent potential.
fn evaluate_policy(
    g: &tsg_graph::DiGraph,
    policy: &[usize],
    delay: &[f64],
    tokens: &[f64],
    ratio: &mut [f64],
    value: &mut [f64],
) {
    let n = g.node_count();
    let succ = |v: usize| g.dst(tsg_graph::EdgeId(policy[v] as u32)).index();
    let mut state = vec![0u8; n]; // 0 unvisited, 1 on path, 2 done

    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        // Walk the functional graph until a visited node.
        let mut path = Vec::new();
        let mut v = start;
        while state[v] == 0 {
            state[v] = 1;
            path.push(v);
            v = succ(v);
        }
        if state[v] == 1 {
            // Found a new cycle beginning at `v`.
            let pos = path.iter().position(|&x| x == v).expect("v is on path");
            let cycle = &path[pos..];
            let (mut d, mut w) = (0.0, 0.0);
            for &u in cycle {
                d += delay[policy[u]];
                w += tokens[policy[u]];
            }
            debug_assert!(w > 0.0, "live graphs have tokens on every cycle");
            let r = d / w;
            // Anchor the cycle: potentials propagate backwards from v.
            ratio[v] = r;
            value[v] = 0.0;
            // Walk the cycle backwards by walking it forwards n-1 times.
            let mut u = succ(v);
            let mut acc_nodes = vec![v];
            while u != v {
                acc_nodes.push(u);
                u = succ(u);
            }
            // value[u] = delay - r*tokens + value[succ(u)], solved in
            // reverse cycle order.
            for &u in acc_nodes.iter().skip(1).rev() {
                let s = succ(u);
                ratio[u] = r;
                value[u] = delay[policy[u]] - r * tokens[policy[u]] + value[s];
            }
            for &u in cycle {
                state[u] = 2;
            }
        }
        // Tree part of the path: propagate from its attachment point.
        for &u in path.iter().rev() {
            if state[u] == 2 {
                continue;
            }
            let s = succ(u);
            ratio[u] = ratio[s];
            value[u] = delay[policy[u]] - ratio[s] * tokens[policy[u]] + value[s];
            state[u] = 2;
        }
    }
}

/// Extracts the best-ratio cycle of the final policy graph, as local edges.
fn best_policy_cycle(
    g: &tsg_graph::DiGraph,
    policy: &[usize],
    delay: &[f64],
    tokens: &[f64],
) -> Vec<usize> {
    let n = g.node_count();
    let succ = |v: usize| g.dst(tsg_graph::EdgeId(policy[v] as u32)).index();
    let mut seen = vec![false; n];
    let mut best: Option<(f64, f64, Vec<usize>)> = None;
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut v = start;
        let mut order = Vec::new();
        while !seen[v] {
            seen[v] = true;
            order.push(v);
            v = succ(v);
        }
        if let Some(pos) = order.iter().position(|&x| x == v) {
            let cycle_nodes = &order[pos..];
            let edges: Vec<usize> = cycle_nodes.iter().map(|&u| policy[u]).collect();
            let d: f64 = edges.iter().map(|&e| delay[e]).sum();
            let w: f64 = edges.iter().map(|&e| tokens[e]).sum();
            let better = match &best {
                None => true,
                Some((bd, bw, _)) => d * bw > bd * w,
            };
            if better {
                best = Some((d, w, edges));
            }
        }
    }
    best.expect("functional graph always contains a cycle").2
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_core::analysis::CycleTimeAnalysis;

    #[test]
    fn agrees_on_rings() {
        for (n, k, d) in [(4, 1, 2.0), (9, 3, 1.5), (12, 5, 3.0)] {
            let sg = tsg_gen::ring(n, k, d);
            let want = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
            let got = howard_cycle_time(&sg).unwrap().as_f64();
            assert!((got - want).abs() < 1e-9, "ring({n},{k}): {got} != {want}");
        }
    }

    #[test]
    fn agrees_on_figure2_shape() {
        let mut b = SignalGraph::builder();
        let ap = b.event("a+");
        let bp = b.event("b+");
        let cp = b.event("c+");
        let am = b.event("a-");
        let bm = b.event("b-");
        let cm = b.event("c-");
        b.arc(ap, cp, 3.0);
        b.arc(bp, cp, 2.0);
        b.arc(cp, am, 2.0);
        b.arc(cp, bm, 1.0);
        b.arc(am, cm, 3.0);
        b.arc(bm, cm, 2.0);
        b.marked_arc(cm, ap, 2.0);
        b.marked_arc(cm, bp, 1.0);
        let sg = b.build().unwrap();
        assert_eq!(howard_cycle_time(&sg).unwrap().as_f64(), 10.0);
    }

    #[test]
    fn agrees_on_random_graphs() {
        use tsg_gen::{random_live_tsg, RandomTsgConfig};
        for seed in 0..40 {
            let sg = random_live_tsg(seed, RandomTsgConfig::default());
            let want = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
            let got = howard_cycle_time(&sg).unwrap().as_f64();
            assert!(
                (got - want).abs() < 1e-6 * (1.0 + want),
                "seed {seed}: {got} != {want}"
            );
        }
    }

    #[test]
    fn none_for_acyclic() {
        let mut b = SignalGraph::builder();
        let s = b.initial_event("s");
        let t = b.finite_event("t");
        b.arc(s, t, 1.0);
        let sg = b.build().unwrap();
        assert!(howard_cycle_time(&sg).is_none());
    }

    #[test]
    fn fired_token_cancels_before_the_first_round() {
        let sg = tsg_gen::ring(9, 3, 1.5);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            howard_cycle_time_with_cancel(&sg, Some(&token)),
            Err(AnalysisError::Cancelled {
                kind: tsg_sim::CancelKind::Explicit,
                rows_done: 0,
                rows_total: 9 * 9 + 16,
            })
        );
        let idle = CancelToken::new();
        assert_eq!(
            howard_cycle_time_with_cancel(&sg, Some(&idle)),
            Ok(howard_cycle_time(&sg))
        );
    }

    #[test]
    fn exact_pair_on_multi_period() {
        let mut b = SignalGraph::builder();
        let n: Vec<_> = (0..4).map(|i| b.event(&format!("n{i}"))).collect();
        b.marked_arc(n[0], n[1], 2.0);
        b.arc(n[1], n[2], 2.0);
        b.marked_arc(n[2], n[3], 2.0);
        b.arc(n[3], n[0], 2.0);
        let sg = b.build().unwrap();
        let tau = howard_cycle_time(&sg).unwrap();
        assert_eq!(tau.as_f64(), 4.0);
        assert_eq!(tau.periods(), 2);
    }

    use tsg_core::SignalGraph;
}
