//! Topological ordering with cycle detection (Kahn's algorithm).

use crate::{DiGraph, EdgeId, NodeId};

/// Error returned when a graph (or masked subgraph) contains a cycle and
/// therefore has no topological order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleDetected {
    /// Nodes that could not be ordered; every cycle of the (sub)graph lies
    /// within this set.
    pub remaining: Vec<NodeId>,
}

impl std::fmt::Display for CycleDetected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graph contains a cycle through {} unordered node(s)",
            self.remaining.len()
        )
    }
}

impl std::error::Error for CycleDetected {}

/// Computes a topological order of all nodes of `g`.
///
/// # Errors
///
/// Returns [`CycleDetected`] when `g` has a directed cycle; the error carries
/// the set of nodes involved in (or downstream of) cycles.
///
/// # Examples
///
/// ```
/// use tsg_graph::DiGraph;
/// use tsg_graph::topo::topological_order;
///
/// let mut g = DiGraph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// g.add_edge(a, b);
/// assert_eq!(topological_order(&g).unwrap(), vec![a, b]);
/// ```
pub fn topological_order(g: &DiGraph) -> Result<Vec<NodeId>, CycleDetected> {
    topological_order_masked(g, |_| true)
}

/// Computes a topological order of `g` considering only edges for which
/// `edge_enabled` returns `true`.
///
/// This is the form used by the timing simulation: the unmarked-arc subgraph
/// of a live Signal Graph must be acyclic, and its topological order defines
/// the within-period evaluation order.
///
/// Only edges still attached to the adjacency lists count: an edge
/// detached by [`DiGraph::remove_edge`] is never offered to
/// `edge_enabled`, so callers need not mask tombstones out.
///
/// # Errors
///
/// Returns [`CycleDetected`] when the masked subgraph has a directed cycle.
pub fn topological_order_masked(
    g: &DiGraph,
    mut edge_enabled: impl FnMut(EdgeId) -> bool,
) -> Result<Vec<NodeId>, CycleDetected> {
    let n = g.node_count();
    let mut indeg = vec![0usize; n];
    let mut enabled = vec![false; g.edge_count()];
    for v in g.nodes() {
        for &e in g.out_edges(v) {
            if edge_enabled(e) {
                enabled[e.index()] = true;
                indeg[g.dst(e).index()] += 1;
            }
        }
    }
    let mut queue = Vec::with_capacity(n);
    queue.extend(g.nodes().filter(|v| indeg[v.index()] == 0));
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for &e in g.out_edges(v) {
            if !enabled[e.index()] {
                continue;
            }
            let w = g.dst(e);
            indeg[w.index()] -= 1;
            if indeg[w.index()] == 0 {
                queue.push(w);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        let mut seen = vec![false; n];
        for &v in &order {
            seen[v.index()] = true;
        }
        Err(CycleDetected {
            remaining: g.nodes().filter(|v| !seen[v.index()]).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_a_dag() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(a, c);
        let order = topological_order(&g).unwrap();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(b) < pos(c));
    }

    #[test]
    fn detects_cycle() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, a);
        let err = topological_order(&g).unwrap_err();
        assert_eq!(err.remaining.len(), 2);
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn masked_order_ignores_disabled_edges() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let fwd = g.add_edge(a, b);
        let back = g.add_edge(b, a);
        // Full graph is cyclic...
        assert!(topological_order(&g).is_err());
        // ...but masking out the back edge makes it a DAG.
        let order = topological_order_masked(&g, |e| e != back).unwrap();
        assert_eq!(order.len(), 2);
        let _ = fwd;
    }

    #[test]
    fn masked_order_skips_removed_edges() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let back = g.add_edge(b, a);
        g.add_edge(a, b);
        g.remove_edge(back);
        // An enabled-everything mask must not count the detached edge.
        assert_eq!(topological_order(&g).unwrap(), vec![a, b]);
    }

    #[test]
    fn empty_graph_orders_trivially() {
        let g = DiGraph::new();
        assert!(topological_order(&g).unwrap().is_empty());
    }

    #[test]
    fn isolated_nodes_all_appear() {
        let mut g = DiGraph::new();
        g.add_nodes(4);
        assert_eq!(topological_order(&g).unwrap().len(), 4);
    }
}
