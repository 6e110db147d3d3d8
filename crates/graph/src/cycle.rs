//! Constrained cycle search with concrete witnesses.
//!
//! The phenomena of the paper are all of the form "the serialization
//! graph contains a directed cycle whose edges are drawn from set A and
//! at least one of which is drawn from set R" (G0: A = {ww}, R = any;
//! G1c: A = {ww, wr}; G2: A = all, R = {rw}) — or, for the extension
//! phenomena G-single / G-SIb of Adya's thesis, "a cycle with *exactly
//! one* edge from set S". Both shapes are provided here, and both return
//! the witnessing cycle rather than a boolean.

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

    /// True if any edge label satisfies `pred`.
    pub fn any_label(&self, pred: impl FnMut(&E) -> bool) -> bool {
        self.count_labels(pred) > 0
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
    /// shortest cycle through one qualifying edge (BFS back-path), which
    /// keeps witnesses readable.
    pub fn find_cycle(
        &self,
        mut allowed: impl FnMut(&E) -> bool,
        mut required: impl FnMut(&E) -> bool,
    ) -> Option<Cycle<N, E>> {
        // Component id per node over the allowed subgraph.
        let comps = self.sccs_filtered(&mut allowed);
        let mut comp_of = vec![usize::MAX; self.node_count()];
        for (ci, comp) in comps.iter().enumerate() {
            for &n in comp {
                comp_of[n.index()] = ci;
            }
        }
        // A qualifying cycle exists iff some allowed+required edge has
        // both endpoints in one SCC of the allowed subgraph (self-loops
        // included: from == to trivially shares a component).
        for (f, adj) in self.out.iter().enumerate() {
            for e in adj {
                if !allowed(&e.label) || !required(&e.label) {
                    continue;
                }
                if comp_of[f] == comp_of[e.to.index()] {
                    let from = NodeIdx(f as u32);
                    return Some(self.close_cycle(from, e.to, e.label.clone(), &mut allowed));
                }
            }
        }
        None
    }

    /// Finds a cycle with *exactly one* edge satisfying `special`; every
    /// other edge must satisfy `path_ok` (and not `special`).
    ///
    /// This is the shape of G-single (PL-2+) and G-SIb (Snapshot
    /// Isolation): a cycle with exactly one anti-dependency edge whose
    /// remaining edges are dependency (and start-dependency) edges.
    pub fn find_cycle_exactly_one(
        &self,
        mut special: impl FnMut(&E) -> bool,
        mut path_ok: impl FnMut(&E) -> bool,
    ) -> Option<Cycle<N, E>> {
        for (f, adj) in self.out.iter().enumerate() {
            for e in adj {
                if !special(&e.label) {
                    continue;
                }
                let from = NodeIdx(f as u32);
                // Path from e.to back to `from` using only non-special
                // path edges closes a cycle with exactly one special
                // edge. (A special self-loop qualifies via the empty
                // path.)
                let mut ok = |l: &E| path_ok(l) && !special(l);
                if let Some(path) = self.bfs_path(e.to, from, &mut ok) {
                    let mut edges = Vec::with_capacity(path.len() + 1);
                    edges.push(CycleEdge {
                        from: self.node(from).clone(),
                        to: self.node(e.to).clone(),
                        label: e.label.clone(),
                    });
                    edges.extend(path);
                    return Some(Cycle { edges });
                }
            }
        }
        None
    }

    /// Closes a cycle around the known in-component edge
    /// `from --label--> to` by finding the shortest allowed path
    /// `to ⇝ from`.
    fn close_cycle(
        &self,
        from: NodeIdx,
        to: NodeIdx,
        label: E,
        allowed: &mut impl FnMut(&E) -> bool,
    ) -> Cycle<N, E> {
        let path = if from == to {
            Vec::new()
        } else {
            self.bfs_path(to, from, allowed)
                .expect("endpoints share an SCC, a path must exist")
        };
        let mut edges = Vec::with_capacity(path.len() + 1);
        edges.push(CycleEdge {
            from: self.node(from).clone(),
            to: self.node(to).clone(),
            label,
        });
        edges.extend(path);
        Cycle { edges }
    }

    /// Shortest path `src ⇝ dst` over edges satisfying `edge_ok`, as
    /// cycle edges. `Some(vec![])` when `src == dst`.
    fn bfs_path(
        &self,
        src: NodeIdx,
        dst: NodeIdx,
        edge_ok: &mut impl FnMut(&E) -> bool,
    ) -> Option<Vec<CycleEdge<N, E>>> {
        if src == dst {
            return Some(Vec::new());
        }
        // parent[n] = (prev node, edge index in prev's adjacency)
        let mut parent: Vec<Option<(NodeIdx, usize)>> = vec![None; self.node_count()];
        let mut queue = VecDeque::new();
        queue.push_back(src);
        let mut found = false;
        'bfs: while let Some(v) = queue.pop_front() {
            for (ei, e) in self.out[v.index()].iter().enumerate() {
                if !edge_ok(&e.label) {
                    continue;
                }
                let w = e.to;
                if w != src && parent[w.index()].is_none() {
                    parent[w.index()] = Some((v, ei));
                    if w == dst {
                        found = true;
                        break 'bfs;
                    }
                    queue.push_back(w);
                }
            }
        }
        if !found {
            return None;
        }
        // Reconstruct dst ← … ← src.
        let mut rev = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (prev, ei) = parent[cur.index()].expect("on reconstructed path");
            let e = &self.out[prev.index()][ei];
            rev.push(CycleEdge {
                from: self.node(prev).clone(),
                to: self.node(cur).clone(),
                label: e.label.clone(),
            });
            cur = prev;
        }
        rev.reverse();
        Some(rev)
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
        assert!(c.any_label(|&l| l == "rw"));
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
