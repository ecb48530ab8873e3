//! A compact directed multigraph with stable integer identifiers.

use std::fmt;

/// Identifier of a node in a [`DiGraph`].
///
/// Node ids are dense indices: the `i`-th added node has id `i`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u32);

/// Identifier of an edge in a [`DiGraph`].
///
/// Edge ids are dense indices: the `i`-th added edge has id `i`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed multigraph stored as edge lists plus per-node adjacency.
///
/// Parallel edges and self-loops are permitted (Timed Signal Graphs use
/// self-loops for single-signal oscillators and parallel arcs for
/// distinct-delay constraints between the same pair of events).
///
/// # Examples
///
/// ```
/// use tsg_graph::DiGraph;
///
/// let mut g = DiGraph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let e = g.add_edge(a, b);
/// assert_eq!(g.src(e), a);
/// assert_eq!(g.dst(e), b);
/// assert_eq!(g.out_edges(a), &[e]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiGraph {
    edges: Vec<(NodeId, NodeId)>,
    out: Vec<Vec<EdgeId>>,
    inn: Vec<Vec<EdgeId>>,
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with capacity reserved for `nodes` nodes and
    /// `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            edges: Vec::with_capacity(edges),
            out: Vec::with_capacity(nodes),
            inn: Vec::with_capacity(nodes),
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.out.len() as u32);
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        id
    }

    /// Adds `n` nodes and returns the id of the first one.
    pub fn add_nodes(&mut self, n: usize) -> NodeId {
        let first = NodeId(self.out.len() as u32);
        for _ in 0..n {
            self.add_node();
        }
        first
    }

    /// Adds a directed edge `src -> dst` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a node of this graph.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> EdgeId {
        assert!(src.index() < self.out.len(), "src node out of bounds");
        assert!(dst.index() < self.out.len(), "dst node out of bounds");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push((src, dst));
        self.out[src.index()].push(id);
        self.inn[dst.index()].push(id);
        id
    }

    /// Detaches edge `e` from its endpoints' adjacency lists.
    ///
    /// The edge's endpoint record stays in place —
    /// [`edge_count`](Self::edge_count) is unchanged,
    /// [`src`](Self::src)/[`dst`](Self::dst) keep answering, and no
    /// other edge's id shifts — but
    /// [`out_edges`](Self::out_edges)/[`in_edges`](Self::in_edges) no
    /// longer report `e`. This tombstoning is what keeps dense edge ids
    /// stable across removals; callers that iterate `edge_ids` must
    /// track liveness themselves. Removing an already-detached edge is
    /// a no-op. `O(degree)`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an edge of this graph.
    pub fn remove_edge(&mut self, e: EdgeId) {
        assert!(e.index() < self.edges.len(), "edge out of bounds");
        let (s, d) = self.edges[e.index()];
        self.out[s.index()].retain(|&x| x != e);
        self.inn[d.index()].retain(|&x| x != e);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Source node of `e`.
    #[inline]
    pub fn src(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].0
    }

    /// Destination node of `e`.
    #[inline]
    pub fn dst(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].1
    }

    /// Endpoint pair `(src, dst)` of `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e.index()]
    }

    /// Edges leaving `n`, in insertion order.
    #[inline]
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.out[n.index()]
    }

    /// Edges entering `n`, in insertion order.
    #[inline]
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.inn[n.index()]
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out[n.index()].len()
    }

    /// In-degree of `n`.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.inn[n.index()].len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.out.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Returns `true` when every node can reach every other node.
    ///
    /// The empty graph is considered strongly connected; a single node with
    /// no edges is as well.
    pub fn is_strongly_connected(&self) -> bool {
        self.node_count() <= 1 || crate::scc::tarjan_scc(self).len() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = DiGraph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn adjacency_bookkeeping() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let e1 = g.add_edge(a, b);
        let e2 = g.add_edge(a, c);
        let e3 = g.add_edge(b, c);
        assert_eq!(g.out_edges(a), &[e1, e2]);
        assert_eq!(g.in_edges(c), &[e2, e3]);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.endpoints(e3), (b, c));
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let e1 = g.add_edge(a, b);
        let e2 = g.add_edge(a, b);
        let e3 = g.add_edge(a, a);
        assert_ne!(e1, e2);
        assert_eq!(g.out_degree(a), 3);
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(g.src(e3), g.dst(e3));
    }

    #[test]
    fn add_nodes_bulk() {
        let mut g = DiGraph::new();
        let first = g.add_nodes(5);
        assert_eq!(first, NodeId(0));
        assert_eq!(g.node_count(), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_edge_invalid_node_panics() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        g.add_edge(a, NodeId(7));
    }

    #[test]
    fn remove_edge_detaches_but_keeps_ids_stable() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let e1 = g.add_edge(a, b);
        let e2 = g.add_edge(a, b);
        let e3 = g.add_edge(b, a);
        g.remove_edge(e1);
        assert_eq!(g.edge_count(), 3, "tombstoned edge keeps its slot");
        assert_eq!(g.out_edges(a), &[e2]);
        assert_eq!(g.in_edges(b), &[e2]);
        assert_eq!(g.endpoints(e1), (a, b), "endpoint record survives");
        assert_eq!(g.out_edges(b), &[e3]);
        // Removing again is a no-op.
        g.remove_edge(e1);
        assert_eq!(g.out_edges(a), &[e2]);
        // A later edge still gets the next dense id.
        let e4 = g.add_edge(a, a);
        assert_eq!(e4, EdgeId(3));
    }

    #[test]
    fn remove_self_loop() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let e = g.add_edge(a, a);
        g.remove_edge(e);
        assert!(g.out_edges(a).is_empty());
        assert!(g.in_edges(a).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn remove_edge_invalid_id_panics() {
        let mut g = DiGraph::new();
        g.add_node();
        g.remove_edge(EdgeId(0));
    }

    #[test]
    fn strongly_connected_cycle() {
        let mut g = DiGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node()).collect();
        for i in 0..4 {
            g.add_edge(n[i], n[(i + 1) % 4]);
        }
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn not_strongly_connected_path() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        assert!(!g.is_strongly_connected());
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(EdgeId(0).to_string(), "e0");
    }
}
