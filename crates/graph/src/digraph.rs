//! A compact directed multigraph with stable integer identifiers.

use std::fmt;
use std::sync::OnceLock;

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

/// A directed multigraph stored as an edge list plus compressed sparse
/// row (CSR) adjacency: the out-edges of every node sit in one array,
/// node `n`'s slice starting at an offset, and the in-edges likewise.
///
/// Parallel edges and self-loops are permitted (Timed Signal Graphs use
/// self-loops for single-signal oscillators and parallel arcs for
/// distinct-delay constraints between the same pair of events).
///
/// Bulk construction goes through [`from_edges`](Self::from_edges), one
/// counting pass in `O(n + m)`. The incremental
/// [`add_node`](Self::add_node), [`add_edge`](Self::add_edge) and
/// [`remove_edge`](Self::remove_edge) are `O(1)` amortised: an edge
/// edit only appends to or marks the edge list and drops the
/// adjacency, which the next adjacency query rebuilds in one
/// `O(n + m)` pass. A batch of `k` edge edits followed by queries
/// therefore costs `O(n + m + k)`. Each node's edges are always listed
/// in ascending id order, which is insertion order. Cloning and
/// dropping a graph is a handful of flat copies and frees.
///
/// # Examples
///
/// ```
/// use tsg_graph::{DiGraph, NodeId};
///
/// let g = DiGraph::from_edges(2, vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))]);
/// let e = g.out_edges(NodeId(0))[0];
/// assert_eq!(g.endpoints(e), (NodeId(0), NodeId(1)));
///
/// let mut g = DiGraph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let e = g.add_edge(a, b);
/// assert_eq!(g.src(e), a);
/// assert_eq!(g.dst(e), b);
/// assert_eq!(g.out_edges(a), &[e]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    edges: Vec<(NodeId, NodeId)>,
    /// `removed[e]` once edge `e` is detached; edges at or past its
    /// end are attached.
    removed: Vec<bool>,
    /// Attached edge ends at each node, a self-loop counting twice; one
    /// entry per node.
    degree: Vec<u32>,
    /// Adjacency of the attached edges, rebuilt on the first query
    /// after an edge edit.
    adjacency: OnceLock<Adjacency>,
}

/// The two CSR sides of a [`DiGraph`].
#[derive(Clone, Debug)]
struct Adjacency {
    /// Out-edges of node `v` are `out[out_start[v]..out_start[v + 1]]`.
    out_start: Vec<u32>,
    out: Vec<EdgeId>,
    /// In-edges of node `v` are `inn[in_start[v]..in_start[v + 1]]`.
    in_start: Vec<u32>,
    inn: Vec<EdgeId>,
}

impl Adjacency {
    /// The adjacency of the attached `edges` on `nodes` nodes.
    fn build(nodes: usize, edges: &[(NodeId, NodeId)], removed: &[bool]) -> Self {
        let attached = |i: usize| !removed.get(i).copied().unwrap_or(false);
        let (out_start, out) = group(nodes, edges, attached, |(s, _)| s);
        let (in_start, inn) = group(nodes, edges, attached, |(_, d)| d);
        Self {
            out_start,
            out,
            in_start,
            inn,
        }
    }
}

/// One CSR side: the offsets of `nodes` nodes and the `attached` edges
/// grouped by `key(endpoints)` in ascending edge id.
fn group(
    nodes: usize,
    edges: &[(NodeId, NodeId)],
    attached: impl Fn(usize) -> bool,
    key: impl Fn((NodeId, NodeId)) -> NodeId,
) -> (Vec<u32>, Vec<EdgeId>) {
    let mut start = vec![0u32; nodes + 1];
    for (i, &pair) in edges.iter().enumerate() {
        if attached(i) {
            start[key(pair).index() + 1] += 1;
        }
    }
    for v in 0..nodes {
        start[v + 1] += start[v];
    }
    let mut list = vec![EdgeId(0); start[nodes] as usize];
    // `start[v]` serves as node v's fill cursor and ends at the start
    // of node v + 1; one shift restores the offsets.
    for (i, &pair) in edges.iter().enumerate() {
        if attached(i) {
            let slot = &mut start[key(pair).index()];
            list[*slot as usize] = EdgeId(i as u32);
            *slot += 1;
        }
    }
    start.copy_within(0..nodes, 1);
    start[0] = 0;
    (start, list)
}

impl PartialEq for DiGraph {
    /// Graphs are equal when they have the same nodes, the same edge
    /// list and the same edges detached.
    fn eq(&self, other: &Self) -> bool {
        self.node_count() == other.node_count()
            && self.edges == other.edges
            && self
                .edge_ids()
                .all(|e| self.is_attached(e) == other.is_attached(e))
    }
}

impl Eq for DiGraph {}

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
            degree: Vec::with_capacity(nodes),
            ..Self::default()
        }
    }

    /// The graph on nodes `0..nodes` whose edge `i` is `edges[i]`, built
    /// in one counting pass — `O(nodes + edges)`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not below `nodes`, or if there are more
    /// than `u32::MAX` edges.
    pub fn from_edges(nodes: usize, edges: Vec<(NodeId, NodeId)>) -> Self {
        assert!(u32::try_from(edges.len()).is_ok(), "too many edges");
        assert!(
            edges
                .iter()
                .all(|&(s, d)| s.index() < nodes && d.index() < nodes),
            "edge endpoint out of bounds"
        );
        let adjacency = Adjacency::build(nodes, &edges, &[]);
        let degree = (0..nodes)
            .map(|v| {
                adjacency.out_start[v + 1] - adjacency.out_start[v] + adjacency.in_start[v + 1]
                    - adjacency.in_start[v]
            })
            .collect();
        Self {
            edges,
            removed: Vec::new(),
            degree,
            adjacency: OnceLock::from(adjacency),
        }
    }

    /// Adds a node and returns its id. `O(1)` amortised.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.node_count() as u32);
        self.degree.push(0);
        if let Some(adj) = self.adjacency.get_mut() {
            adj.out_start.push(adj.out.len() as u32);
            adj.in_start.push(adj.inn.len() as u32);
        }
        id
    }

    /// Adds `n` nodes and returns the id of the first one.
    pub fn add_nodes(&mut self, n: usize) -> NodeId {
        let first = NodeId(self.node_count() as u32);
        for _ in 0..n {
            self.add_node();
        }
        first
    }

    /// Adds a directed edge `src -> dst` and returns its id. `O(1)`
    /// amortised; the next adjacency query rebuilds the adjacency, with
    /// the edge last in `src`'s out-slice and `dst`'s in-slice.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a node of this graph.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> EdgeId {
        assert!(src.index() < self.node_count(), "src node out of bounds");
        assert!(dst.index() < self.node_count(), "dst node out of bounds");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push((src, dst));
        self.degree[src.index()] += 1;
        self.degree[dst.index()] += 1;
        self.adjacency.take();
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
    /// a no-op. `O(1)` amortised, like [`add_edge`](Self::add_edge).
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an edge of this graph.
    pub fn remove_edge(&mut self, e: EdgeId) {
        assert!(e.index() < self.edges.len(), "edge out of bounds");
        if !self.is_attached(e) {
            return;
        }
        self.removed.resize(self.edges.len(), false);
        self.removed[e.index()] = true;
        let (s, d) = self.edges[e.index()];
        self.degree[s.index()] -= 1;
        self.degree[d.index()] -= 1;
        self.adjacency.take();
    }

    /// `true` unless [`remove_edge`](Self::remove_edge) detached `e`.
    fn is_attached(&self, e: EdgeId) -> bool {
        !self.removed.get(e.index()).copied().unwrap_or(false)
    }

    /// The adjacency, rebuilt first if an edge edit dropped it.
    fn adjacency(&self) -> &Adjacency {
        self.adjacency
            .get_or_init(|| Adjacency::build(self.node_count(), &self.edges, &self.removed))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.degree.len()
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
        let adj = self.adjacency();
        &adj.out[adj.out_start[n.index()] as usize..adj.out_start[n.index() + 1] as usize]
    }

    /// Edges entering `n`, in insertion order.
    #[inline]
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        let adj = self.adjacency();
        &adj.inn[adj.in_start[n.index()] as usize..adj.in_start[n.index() + 1] as usize]
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_edges(n).len()
    }

    /// In-degree of `n`.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.in_edges(n).len()
    }

    /// In-degree plus out-degree of `n` (a self-loop counts twice),
    /// known without rebuilding the adjacency.
    pub fn degree(&self, n: NodeId) -> usize {
        self.degree[n.index()] as usize
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
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
    fn from_edges_equals_incremental_construction() {
        let pairs = [(0, 1), (2, 0), (0, 1), (1, 1), (3, 2), (0, 3), (2, 0)];
        let mut inc = DiGraph::new();
        inc.add_nodes(5);
        for &(s, d) in &pairs {
            inc.add_edge(NodeId(s), NodeId(d));
        }
        let edges = pairs.iter().map(|&(s, d)| (NodeId(s), NodeId(d))).collect();
        let bulk = DiGraph::from_edges(5, edges);
        assert_eq!(bulk, inc);
        assert_eq!(
            bulk.out_edges(NodeId(0)),
            &[EdgeId(0), EdgeId(2), EdgeId(5)]
        );
        assert_eq!(bulk.in_edges(NodeId(0)), &[EdgeId(1), EdgeId(6)]);
        assert!(bulk.out_edges(NodeId(4)).is_empty());
        // Removing and re-adding keeps every slice in ascending id order.
        let mut g = bulk.clone();
        g.remove_edge(EdgeId(2));
        let e = g.add_edge(NodeId(0), NodeId(4));
        assert_eq!(g.out_edges(NodeId(0)), &[EdgeId(0), EdgeId(5), e]);
        assert_eq!(g.in_edges(NodeId(1)), &[EdgeId(0), EdgeId(3)]);
        assert_eq!(g.in_edges(NodeId(4)), &[e]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_edges_rejects_a_dangling_endpoint() {
        DiGraph::from_edges(1, vec![(NodeId(0), NodeId(1))]);
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
        assert_eq!((g.degree(a), g.degree(b)), (2, 2));
        // A later edge still gets the next dense id.
        let e4 = g.add_edge(a, a);
        assert_eq!(e4, EdgeId(3));
        assert_eq!(g.degree(a), 4, "a self-loop counts twice");
        assert_eq!(g.out_edges(a), &[e2, e4]);
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
