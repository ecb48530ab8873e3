//! Bellman–Ford positive-cycle detection over real edge weights.
//!
//! This is the feasibility oracle of Lawler's binary search for the maximum
//! cycle ratio: a candidate ratio `λ` is too small exactly when the graph
//! with weights `delay(e) − λ·tokens(e)` contains a strictly positive cycle.

use crate::{DiGraph, EdgeId, NodeId};

/// Searches for a strictly positive-weight directed cycle.
///
/// Runs longest-path Bellman–Ford from an implicit super-source that reaches
/// every node with distance 0. If any node can still be improved after
/// `n` rounds, a positive cycle exists and one such cycle is extracted from
/// the parent pointers and returned as its list of edges (in traversal
/// order). Returns `None` when every cycle has weight `<= epsilon`.
///
/// `epsilon` guards against floating-point jitter: improvements smaller than
/// `epsilon` are ignored. Pass `0.0` for exact integer-valued weights.
///
/// # Examples
///
/// ```
/// use tsg_graph::DiGraph;
/// use tsg_graph::bellman::positive_cycle;
///
/// let mut g = DiGraph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// g.add_edge(a, b);
/// g.add_edge(b, a);
/// // weights +1, -2: total cycle weight -1 => no positive cycle
/// assert!(positive_cycle(&g, |e| if e.0 == 0 { 1.0 } else { -2.0 }, 0.0).is_none());
/// // weights +1, -0.5: total +0.5 => positive cycle found
/// assert!(positive_cycle(&g, |e| if e.0 == 0 { 1.0 } else { -0.5 }, 0.0).is_some());
/// ```
pub fn positive_cycle(
    g: &DiGraph,
    mut weight: impl FnMut(EdgeId) -> f64,
    epsilon: f64,
) -> Option<Vec<EdgeId>> {
    let n = g.node_count();
    if n == 0 {
        return None;
    }
    let w: Vec<f64> = g.edge_ids().map(&mut weight).collect();
    let mut dist = vec![0.0f64; n];
    let mut parent: Vec<Option<EdgeId>> = vec![None; n];

    let mut updated_node: Option<NodeId> = None;
    for round in 0..n {
        let mut any = false;
        for e in g.edge_ids() {
            let (u, v) = g.endpoints(e);
            let cand = dist[u.index()] + w[e.index()];
            if cand > dist[v.index()] + epsilon {
                dist[v.index()] = cand;
                parent[v.index()] = Some(e);
                any = true;
                if round == n - 1 {
                    updated_node = Some(v);
                }
            }
        }
        if !any {
            return None;
        }
    }

    let start = updated_node?;
    // Walk back n steps to guarantee we are standing inside a cycle.
    let mut v = start;
    for _ in 0..n {
        let e = parent[v.index()].expect("node updated in last round must have a parent");
        v = g.src(e);
    }
    // Collect the cycle by walking parents until v repeats.
    let anchor = v;
    let mut rev = Vec::new();
    loop {
        let e = parent[v.index()].expect("cycle nodes have parents");
        rev.push(e);
        v = g.src(e);
        if v == anchor {
            break;
        }
    }
    rev.reverse();
    Some(rev)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_with_weights(ws: &[f64]) -> (DiGraph, Vec<f64>) {
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..ws.len()).map(|_| g.add_node()).collect();
        for i in 0..ws.len() {
            g.add_edge(n[i], n[(i + 1) % ws.len()]);
        }
        (g, ws.to_vec())
    }

    #[test]
    fn zero_cycle_is_not_positive() {
        let (g, w) = ring_with_weights(&[1.0, -1.0]);
        assert!(positive_cycle(&g, |e| w[e.index()], 0.0).is_none());
    }

    #[test]
    fn finds_positive_ring() {
        let (g, w) = ring_with_weights(&[1.0, 1.0, -1.0]);
        let c = positive_cycle(&g, |e| w[e.index()], 0.0).unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.iter().map(|e| w[e.index()]).sum::<f64>() > 0.0);
    }

    #[test]
    fn picks_the_positive_one_of_two_cycles() {
        // Two disjoint 2-cycles; only the second is positive.
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let d = g.add_node();
        g.add_edge(a, b); // 0: -1
        g.add_edge(b, a); // 1: -1
        g.add_edge(c, d); // 2: +2
        g.add_edge(d, c); // 3: -1
        let w = [-1.0, -1.0, 2.0, -1.0];
        let cyc = positive_cycle(&g, |e| w[e.index()], 0.0).unwrap();
        assert!(cyc.iter().map(|e| w[e.index()]).sum::<f64>() > 0.0);
        let nodes: Vec<_> = cyc.iter().map(|&e| g.src(e)).collect();
        assert!(nodes.contains(&c) && nodes.contains(&d));
    }

    #[test]
    fn positive_self_loop() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        g.add_edge(a, a);
        let c = positive_cycle(&g, |_| 0.25, 0.0).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn acyclic_graph_never_positive() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        assert!(positive_cycle(&g, |_| 100.0, 0.0).is_none());
    }

    #[test]
    fn epsilon_suppresses_jitter() {
        let (g, w) = ring_with_weights(&[1e-12, -1e-13]);
        // Tiny positive total, below the tolerance.
        assert!(positive_cycle(&g, |e| w[e.index()], 1e-9).is_none());
    }

    #[test]
    fn extracted_cycle_is_well_formed() {
        let (g, w) = ring_with_weights(&[2.0, -0.5, 0.25, 0.1]);
        let c = positive_cycle(&g, |e| w[e.index()], 0.0).unwrap();
        assert!(crate::cycles::is_simple_cycle(&g, &c));
    }
}
