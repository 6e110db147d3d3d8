//! The labelled multi-digraph underlying all serialization graphs.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// Dense index of a node inside a [`DiGraph`].
///
/// Indices are assigned in insertion order and are stable for the
/// lifetime of the graph (nodes are never removed; serialization graphs
/// only ever grow while a history is being analyzed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub(crate) u32);

impl NodeIdx {
    /// Position of the node in insertion order: `0..node_count()`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A borrowed view of one edge: `from --label--> to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef<'g, N, E> {
    /// Node the edge leaves.
    pub from: &'g N,
    /// Node the edge enters.
    pub to: &'g N,
    /// Edge label (e.g. a dependency kind).
    pub label: &'g E,
}

#[derive(Debug, Clone)]
pub(crate) struct RawEdge<E> {
    pub(crate) to: NodeIdx,
    pub(crate) label: E,
}

/// A directed multigraph with labelled edges over node keys of type `N`.
///
/// Parallel edges with distinct labels are preserved: a pair of
/// transactions may be related by a write-dependency *and* an
/// anti-dependency at once, and cycle classification must see both.
///
/// ```
/// use adya_graph::DiGraph;
///
/// let mut g: DiGraph<&str, &str> = DiGraph::new();
/// g.add_edge("T1", "T2", "ww");
/// g.add_edge("T2", "T1", "rw");
/// let cycle = g.find_cycle(|_| true, |_| true).expect("cyclic");
/// assert_eq!(cycle.len(), 2);
/// ```
#[derive(Clone)]
pub struct DiGraph<N, E> {
    nodes: Vec<N>,
    index: HashMap<N, NodeIdx>,
    /// Outgoing adjacency per node, parallel to `nodes`.
    pub(crate) out: Vec<Vec<RawEdge<E>>>,
    edge_count: usize,
}

impl<N, E> Default for DiGraph<N, E>
where
    N: Eq + Hash + Clone,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E>
where
    N: Eq + Hash + Clone,
{
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            index: HashMap::new(),
            out: Vec::new(),
            edge_count: 0,
        }
    }

    /// Creates an empty graph with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            index: HashMap::with_capacity(nodes),
            out: Vec::with_capacity(nodes),
            edge_count: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (parallel edges counted individually).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Inserts `node` if absent and returns its index.
    pub fn add_node(&mut self, node: N) -> NodeIdx {
        if let Some(&ix) = self.index.get(&node) {
            return ix;
        }
        let ix = NodeIdx(u32::try_from(self.nodes.len()).expect("graph too large"));
        self.index.insert(node.clone(), ix);
        self.nodes.push(node);
        self.out.push(Vec::new());
        ix
    }

    /// Adds an edge `from --label--> to`, inserting endpoints as needed.
    ///
    /// Duplicate `(from, to, label)` triples are collapsed when `E: Eq`
    /// via [`DiGraph::add_edge_dedup`]; this method always appends.
    pub fn add_edge(&mut self, from: N, to: N, label: E) {
        let f = self.add_node(from);
        let t = self.add_node(to);
        self.out[f.index()].push(RawEdge { to: t, label });
        self.edge_count += 1;
    }

    /// Node key at `ix`.
    pub fn node(&self, ix: NodeIdx) -> &N {
        &self.nodes[ix.index()]
    }

    /// Every node index, in insertion order.
    pub fn node_indices(&self) -> impl Iterator<Item = NodeIdx> {
        (0..self.nodes.len() as u32).map(NodeIdx)
    }

    /// The outgoing edges of the node at `ix` as `(target, label)`, in
    /// insertion order.
    pub fn successors(&self, ix: NodeIdx) -> impl Iterator<Item = (NodeIdx, &E)> {
        self.out[ix.index()].iter().map(|e| (e.to, &e.label))
    }

    /// Iterates over all node keys in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.nodes.iter()
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef<'_, N, E>> {
        self.out.iter().enumerate().flat_map(move |(f, adj)| {
            adj.iter().map(move |e| EdgeRef {
                from: &self.nodes[f],
                to: &self.nodes[e.to.index()],
                label: &e.label,
            })
        })
    }

    /// Iterates over the outgoing edges of `node` (empty if absent).
    pub fn edges_from<'g>(&'g self, node: &N) -> impl Iterator<Item = EdgeRef<'g, N, E>> {
        let (from, adj): (Option<&'g N>, &'g [RawEdge<E>]) = match self.index.get(node) {
            Some(&ix) => (Some(&self.nodes[ix.index()]), &self.out[ix.index()]),
            None => (None, &[]),
        };
        adj.iter().map(move |e| EdgeRef {
            from: from.expect("non-empty adjacency implies node present"),
            to: &self.nodes[e.to.index()],
            label: &e.label,
        })
    }

    /// True if some edge `from -> to` exists whose label satisfies `pred`.
    pub fn has_edge_where(&self, from: &N, to: &N, mut pred: impl FnMut(&E) -> bool) -> bool {
        let (Some(&f), Some(&t)) = (self.index.get(from), self.index.get(to)) else {
            return false;
        };
        self.out[f.index()]
            .iter()
            .any(|e| e.to == t && pred(&e.label))
    }
}

impl<N, E> DiGraph<N, E>
where
    N: Eq + Hash + Clone,
    E: Eq,
{
    /// Adds an edge unless an identical `(from, to, label)` edge exists.
    ///
    /// Serialization graphs call this to keep witness cycles free of
    /// redundant duplicates (e.g. two reads of the same version create
    /// only one read-dependency edge).
    pub fn add_edge_dedup(&mut self, from: N, to: N, label: E) {
        let f = self.add_node(from);
        let t = self.add_node(to);
        if self.out[f.index()]
            .iter()
            .any(|e| e.to == t && e.label == label)
        {
            return;
        }
        self.out[f.index()].push(RawEdge { to: t, label });
        self.edge_count += 1;
    }
}

impl<N, E> fmt::Debug for DiGraph<N, E>
where
    N: Eq + Hash + Clone + fmt::Debug,
    E: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("DiGraph");
        s.field("nodes", &self.nodes);
        let edges: Vec<String> = self
            .edges()
            .map(|e| format!("{:?} -[{:?}]-> {:?}", e.from, e.label, e.to))
            .collect();
        s.field("edges", &edges);
        s.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_node_is_idempotent() {
        let mut g: DiGraph<&str, ()> = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("a");
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn add_edge_creates_endpoints() {
        let mut g: DiGraph<&str, u8> = DiGraph::new();
        g.add_edge("a", "b", 1);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn parallel_edges_are_kept() {
        let mut g: DiGraph<&str, u8> = DiGraph::new();
        g.add_edge("a", "b", 1);
        g.add_edge("a", "b", 2);
        g.add_edge("a", "b", 1);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn dedup_collapses_identical_edges() {
        let mut g: DiGraph<&str, u8> = DiGraph::new();
        g.add_edge_dedup("a", "b", 1);
        g.add_edge_dedup("a", "b", 1);
        g.add_edge_dedup("a", "b", 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn edges_from_missing_node_is_empty() {
        let g: DiGraph<&str, u8> = DiGraph::new();
        assert_eq!(g.edges_from(&"nope").count(), 0);
    }

    #[test]
    fn has_edge_where_matches_label() {
        let mut g: DiGraph<&str, u8> = DiGraph::new();
        g.add_edge("a", "b", 3);
        assert!(g.has_edge_where(&"a", &"b", |&l| l == 3));
        assert!(!g.has_edge_where(&"a", &"b", |&l| l == 4));
        assert!(!g.has_edge_where(&"b", &"a", |_| true));
    }

    #[test]
    fn edge_iteration_reports_all() {
        let mut g: DiGraph<&str, u8> = DiGraph::new();
        g.add_edge("a", "b", 1);
        g.add_edge("b", "c", 2);
        g.add_edge("c", "a", 3);
        let labels: Vec<u8> = g.edges().map(|e| *e.label).collect();
        assert_eq!(labels.len(), 3);
        assert!(labels.contains(&1) && labels.contains(&2) && labels.contains(&3));
    }
}
