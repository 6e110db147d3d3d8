//! Constrained cycle search with concrete witnesses.
//!
//! The phenomena of the paper are all of the form "the serialization
//! graph contains a directed cycle whose edges are drawn from set A and
//! at least one of which is drawn from set R" (G0: A = {ww}, R = any;
//! G1c: A = {ww, wr}; G2: A = all, R = {rw}) — or, for the extension
//! phenomena G-single / G-SIb of Adya's thesis, "a cycle with *exactly
//! one* edge from set S". Both shapes are one component labelling plus
//! [`DiGraph::first_closing`] over [`BackPaths`], and both return the
//! witnessing cycle rather than a boolean.

use std::collections::VecDeque;
use std::fmt;
use std::hash::Hash;

use crate::digraph::{DiGraph, NodeIdx};

/// One edge of a witness cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleEdge<N, E> {
    /// Source node.
    pub from: N,
    /// Target node.
    pub to: N,
    /// Edge label.
    pub label: E,
}

/// A directed cycle: a non-empty edge sequence where each edge's `to`
/// equals the next edge's `from`, and the last edge returns to the
/// first edge's `from`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cycle<N, E> {
    edges: Vec<CycleEdge<N, E>>,
}

impl<N: PartialEq, E> Cycle<N, E> {
    /// The cycle through `edges` in traversal order, for a search that
    /// runs outside this crate.
    ///
    /// # Panics
    /// If `edges` is empty or not closed.
    pub fn from_edges(edges: Vec<CycleEdge<N, E>>) -> Self {
        let last = edges.last().expect("a cycle has an edge");
        assert!(
            last.to == edges[0].from && edges.windows(2).all(|p| p[0].to == p[1].from),
            "cycle edges must chain and close"
        );
        Cycle { edges }
    }
}

impl<N, E> Cycle<N, E> {
    /// Number of edges (equal to the number of distinct nodes for a
    /// simple cycle; a self-loop has length 1).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Cycles are never empty, so this is always `false`; provided for
    /// clippy-idiomatic pairing with [`Cycle::len`].
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edges in traversal order.
    pub fn edges(&self) -> &[CycleEdge<N, E>] {
        &self.edges
    }

    /// The nodes in traversal order (each exactly once).
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.edges.iter().map(|e| &e.from)
    }

    /// Count of edges whose label satisfies `pred`.
    pub fn count_labels(&self, mut pred: impl FnMut(&E) -> bool) -> usize {
        self.edges.iter().filter(|e| pred(&e.label)).count()
    }
}

impl<N: fmt::Display, E: fmt::Display> fmt::Display for Cycle<N, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{} -[{}]->", e.from, e.label)?;
        }
        if let Some(first) = self.edges.first() {
            write!(f, " {}", first.from)?;
        }
        Ok(())
    }
}

impl<N, E> DiGraph<N, E>
where
    N: Eq + Hash + Clone,
    E: Clone,
{
    /// Finds a cycle all of whose edges satisfy `allowed` and at least
    /// one of whose edges also satisfies `required`.
    ///
    /// Returns `None` if no such cycle exists. The returned cycle is a
    /// shortest cycle through the first qualifying edge that closes
    /// (BFS back-path), which keeps witnesses readable.
    pub fn find_cycle(
        &self,
        allowed: impl Fn(&E) -> bool,
        required: impl Fn(&E) -> bool,
    ) -> Option<Cycle<N, E>> {
        let (components, _) = self.components(&allowed);
        let mut paths = BackPaths::new(self, &components);
        let first = |l: &E| allowed(l) && required(l);
        self.first_closing(&components, first, |from, to| {
            paths.find(to, from, &allowed, |_, _| {})
        })
    }

    /// Finds a cycle with *exactly one* edge satisfying `special`; every
    /// other edge must satisfy `path_ok` (and not `special`).
    ///
    /// This is the shape of G-single (PL-2+) and G-SIb (Snapshot
    /// Isolation): a cycle with exactly one anti-dependency edge whose
    /// remaining edges are dependency (and start-dependency) edges.
    pub fn find_cycle_exactly_one(
        &self,
        special: impl Fn(&E) -> bool,
        path_ok: impl Fn(&E) -> bool,
    ) -> Option<Cycle<N, E>> {
        let (components, _) = self.components(|l| special(l) || path_ok(l));
        let mut paths = BackPaths::new(self, &components);
        let back = |l: &E| path_ok(l) && !special(l);
        self.first_closing(&components, &special, |from, to| {
            paths.find(to, from, back, |_, _| {})
        })
    }

    /// The first edge satisfying `first`, in node-then-adjacency order,
    /// whose endpoints share one of `components` and that
    /// `back_path(from, to)` — a path `to ⇝ from` — closes into a cycle.
    /// An edge between two components lies on no cycle over the
    /// labelled edges, so it is skipped without a search.
    pub fn first_closing(
        &self,
        components: &[u32],
        first: impl Fn(&E) -> bool,
        mut back_path: impl FnMut(NodeIdx, NodeIdx) -> Option<Vec<CycleEdge<N, E>>>,
    ) -> Option<Cycle<N, E>> {
        self.node_indices().find_map(|from| {
            self.successors(from)
                .filter(|&(to, label)| {
                    first(label) && components[from.index()] == components[to.index()]
                })
                .find_map(|(to, label)| {
                    let mut edges = vec![self.cycle_edge(from, to, label.clone())];
                    edges.extend(back_path(from, to)?);
                    Some(Cycle { edges })
                })
        })
    }

    fn cycle_edge(&self, from: NodeIdx, to: NodeIdx, label: E) -> CycleEdge<N, E> {
        CycleEdge {
            from: self.node(from).clone(),
            to: self.node(to).clone(),
            label,
        }
    }
}

/// Shortest back-paths inside one component, by breadth-first search
/// with parents in adjacency order. A path between two nodes of a
/// component never leaves it, and a node outside cannot discover one
/// inside, so keeping the search in the component changes no parent and
/// no queue order of the nodes that matter: the path is the one a
/// whole-graph search finds. The parent table is allocated once and
/// reset where a search wrote, so a search costs its component's edges.
pub struct BackPaths<'g, N, E> {
    g: &'g DiGraph<N, E>,
    components: &'g [u32],
    parent: Vec<Option<(NodeIdx, E)>>,
    reached: Vec<NodeIdx>,
    queue: VecDeque<NodeIdx>,
    implied: Vec<(NodeIdx, E)>,
    examined: u64,
}

impl<'g, N, E> BackPaths<'g, N, E>
where
    N: Eq + Hash + Clone,
    E: Clone,
{
    /// Searches of `g` bounded by `components`, a labelling over a
    /// superset of the edges any search follows.
    pub fn new(g: &'g DiGraph<N, E>, components: &'g [u32]) -> Self {
        BackPaths {
            g,
            components,
            parent: Vec::new(),
            reached: Vec::new(),
            queue: VecDeque::new(),
            implied: Vec::new(),
            examined: 0,
        }
    }

    /// The shortest path `src ⇝ dst` over the stored edges `back`
    /// admits, each popped node's stored edges followed by the
    /// `implied(v, out)` successors it appends to `out` with their
    /// labels. Empty when `src == dst`.
    pub fn find(
        &mut self,
        src: NodeIdx,
        dst: NodeIdx,
        back: impl Fn(&E) -> bool,
        mut implied: impl FnMut(NodeIdx, &mut Vec<(NodeIdx, E)>),
    ) -> Option<Vec<CycleEdge<N, E>>> {
        if src == dst {
            return Some(Vec::new());
        }
        if self.parent.is_empty() {
            self.parent = vec![None; self.g.node_count()];
        }
        let inside = self.components[src.index()];
        self.queue.push_back(src);
        'bfs: while let Some(v) = self.queue.pop_front() {
            self.implied.clear();
            implied(v, &mut self.implied);
            let stored = self.g.successors(v).filter(|&(_, label)| back(label));
            let implied = self.implied.iter().map(|(w, label)| (*w, label));
            for (w, label) in stored.chain(implied) {
                self.examined += 1;
                if w != src
                    && self.components[w.index()] == inside
                    && self.parent[w.index()].is_none()
                {
                    self.parent[w.index()] = Some((v, label.clone()));
                    self.reached.push(w);
                    if w == dst {
                        break 'bfs;
                    }
                    self.queue.push_back(w);
                }
            }
        }
        self.queue.clear();
        let path = self.parent[dst.index()].is_some().then(|| {
            let mut path = Vec::new();
            let mut cur = dst;
            while let Some((prev, label)) = &self.parent[cur.index()] {
                path.push(self.g.cycle_edge(*prev, cur, label.clone()));
                cur = *prev;
            }
            path.reverse();
            path
        });
        for w in self.reached.drain(..) {
            self.parent[w.index()] = None;
        }
        path
    }

    /// The edges every search so far examined.
    pub fn examined(&self) -> u64 {
        self.examined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_closed<N: Eq + Clone + std::fmt::Debug, E>(c: &Cycle<N, E>) {
        let es = c.edges();
        assert!(!es.is_empty());
        for i in 0..es.len() {
            let next = (i + 1) % es.len();
            assert_eq!(es[i].to, es[next].from, "cycle must be closed");
        }
    }

    #[test]
    fn finds_simple_cycle() {
        let mut g: DiGraph<&str, &str> = DiGraph::new();
        g.add_edge("a", "b", "ww");
        g.add_edge("b", "a", "ww");
        let c = g.find_cycle(|_| true, |_| true).expect("cycle");
        assert_closed(&c);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn no_cycle_in_dag() {
        let mut g: DiGraph<&str, &str> = DiGraph::new();
        g.add_edge("a", "b", "ww");
        g.add_edge("b", "c", "wr");
        assert!(g.find_cycle(|_| true, |_| true).is_none());
    }

    #[test]
    fn required_label_must_be_present() {
        let mut g: DiGraph<&str, &str> = DiGraph::new();
        g.add_edge("a", "b", "ww");
        g.add_edge("b", "a", "ww");
        assert!(g.find_cycle(|_| true, |&l| l == "rw").is_none());
        g.add_edge("b", "a", "rw");
        let c = g.find_cycle(|_| true, |&l| l == "rw").expect("rw cycle");
        assert_closed(&c);
    }

    #[test]
    fn allowed_restricts_cycle_edges() {
        // Cycle only via an rw edge; searching with allowed = ww only
        // must fail.
        let mut g: DiGraph<&str, &str> = DiGraph::new();
        g.add_edge("a", "b", "ww");
        g.add_edge("b", "a", "rw");
        assert!(g.find_cycle(|&l| l == "ww", |_| true).is_none());
        assert!(g.find_cycle(|_| true, |_| true).is_some());
    }

    #[test]
    fn self_loop_is_a_cycle_of_length_one() {
        let mut g: DiGraph<&str, &str> = DiGraph::new();
        g.add_edge("a", "a", "ww");
        let c = g.find_cycle(|_| true, |_| true).expect("self-loop");
        assert_eq!(c.len(), 1);
        assert_closed(&c);
    }

    #[test]
    fn exactly_one_special_edge() {
        // a -ww-> b -rw-> c -ww-> a : cycle has exactly one rw.
        let mut g: DiGraph<&str, &str> = DiGraph::new();
        g.add_edge("a", "b", "ww");
        g.add_edge("b", "c", "rw");
        g.add_edge("c", "a", "ww");
        let c = g
            .find_cycle_exactly_one(|&l| l == "rw", |_| true)
            .expect("single-rw cycle");
        assert_closed(&c);
        assert_eq!(c.count_labels(|&l| l == "rw"), 1);
    }

    #[test]
    fn exactly_one_rejects_two_special_cycles() {
        // Only cycle requires two rw edges: a -rw-> b -rw-> a.
        let mut g: DiGraph<&str, &str> = DiGraph::new();
        g.add_edge("a", "b", "rw");
        g.add_edge("b", "a", "rw");
        assert!(g.find_cycle_exactly_one(|&l| l == "rw", |_| true).is_none());
        // But the general search (>=1 rw) finds it.
        assert!(g.find_cycle(|_| true, |&l| l == "rw").is_some());
    }

    #[test]
    fn witness_is_shortest_through_required_edge() {
        // Two ways back from b to a: direct ww, or via c and d. BFS must
        // pick the direct one, giving a 2-cycle.
        let mut g: DiGraph<&str, &str> = DiGraph::new();
        g.add_edge("a", "b", "rw");
        g.add_edge("b", "a", "ww");
        g.add_edge("b", "c", "ww");
        g.add_edge("c", "d", "ww");
        g.add_edge("d", "a", "ww");
        let c = g.find_cycle(|_| true, |&l| l == "rw").expect("cycle");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn display_formats_cycle() {
        let mut g: DiGraph<&str, &str> = DiGraph::new();
        g.add_edge("T1", "T2", "ww");
        g.add_edge("T2", "T1", "rw");
        let c = g.find_cycle(|_| true, |_| true).expect("cycle");
        let s = c.to_string();
        assert!(s.contains("T1") && s.contains("T2"));
        assert!(s.contains("-[ww]->") || s.contains("-[rw]->"));
    }
}
