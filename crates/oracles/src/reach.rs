//! Reachability queries on the unfolding: descendant and ancestor sets
//! by depth-first search.

use tsg_graph::{DiGraph, NodeId};

/// Returns the set of nodes reachable from `source` (including `source`
/// itself) as a boolean membership vector indexed by node id.
pub fn descendants(g: &DiGraph, source: NodeId) -> Vec<bool> {
    let mut seen = vec![false; g.node_count()];
    let mut stack = vec![source];
    seen[source.index()] = true;
    while let Some(v) = stack.pop() {
        for &e in g.out_edges(v) {
            let w = g.dst(e);
            if !seen[w.index()] {
                seen[w.index()] = true;
                stack.push(w);
            }
        }
    }
    seen
}

/// Returns the set of nodes that can reach `target` (including `target`
/// itself) as a boolean membership vector indexed by node id.
pub fn ancestors(g: &DiGraph, target: NodeId) -> Vec<bool> {
    let mut seen = vec![false; g.node_count()];
    let mut stack = vec![target];
    seen[target.index()] = true;
    while let Some(v) = stack.pop() {
        for &e in g.in_edges(v) {
            let w = g.src(e);
            if !seen[w.index()] {
                seen[w.index()] = true;
                stack.push(w);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descendants_skip_unconnected_nodes() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b);
        let reach = descendants(&g, a);
        assert!(reach[a.index()] && reach[b.index()] && !reach[c.index()]);
    }

    #[test]
    fn descendants_follow_direction() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, c);
        let r = descendants(&g, b);
        assert!(!r[a.index()]);
        assert!(r[b.index()]);
        assert!(r[c.index()]);
    }

    #[test]
    fn ancestors_mirror_descendants() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, c);
        let r = ancestors(&g, b);
        assert!(r[a.index()]);
        assert!(r[b.index()]);
        assert!(!r[c.index()]);
    }

    #[test]
    fn cycle_reaches_everything() {
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..3).map(|_| g.add_node()).collect();
        for i in 0..3 {
            g.add_edge(n[i], n[(i + 1) % 3]);
        }
        assert!(descendants(&g, n[0]).iter().all(|&x| x));
        assert!(ancestors(&g, n[0]).iter().all(|&x| x));
    }
}
