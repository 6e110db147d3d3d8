//! Strongly connected components: one iterative Tarjan, and what is
//! read off its labelling.
//!
//! Phenomenon detection reduces to components over a subgraph of
//! permitted edge kinds: an edge lies on a cycle of the permitted kinds
//! only if its endpoints share a component over them. Tarjan is
//! implemented iteratively so deep histories (hundreds of thousands of
//! transactions) cannot overflow the stack.

use std::hash::Hash;

use crate::digraph::{DiGraph, NodeIdx};

/// Labels the strongly connected components of the graph on nodes
/// `0..n` whose successors `successors(v, out)` appends to `out`: one
/// id per node, equal for two nodes exactly when each reaches the
/// other, and the number of successors examined (each edge once).
///
/// Successors are entered in the order they are appended, and ids are
/// assigned in finish order, which is reverse topological: an edge
/// between two components runs from the higher id to the lower.
pub fn label_components(
    n: usize,
    mut successors: impl FnMut(u32, &mut Vec<u32>),
) -> (Vec<u32>, u64) {
    const UNSEEN: u32 = u32::MAX;
    let mut component = vec![UNSEEN; n];
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0; n];
    // Tarjan's stack; a node on it has an index and no component yet.
    let mut stack = Vec::new();
    // The depth-first path: each node with where its unexamined
    // successors begin in `pending` (last to be examined first).
    let mut path: Vec<(u32, usize)> = Vec::new();
    let mut pending = Vec::new();
    let (mut next_index, mut next_component, mut examined) = (0, 0, 0);
    for root in 0..n as u32 {
        if index[root as usize] != UNSEEN {
            continue;
        }
        let mut enter = Some(root);
        loop {
            if let Some(v) = enter.take() {
                index[v as usize] = next_index;
                low[v as usize] = next_index;
                next_index += 1;
                stack.push(v);
                let from = pending.len();
                successors(v, &mut pending);
                examined += pending.len() - from;
                pending[from..].reverse();
                path.push((v, from));
            }
            let Some(&(v, from)) = path.last() else {
                break;
            };
            if pending.len() > from {
                let w = pending.pop().expect("pending is longer than from") as usize;
                if index[w] == UNSEEN {
                    enter = Some(w as u32);
                } else if component[w] == UNSEEN {
                    low[v as usize] = low[v as usize].min(index[w]);
                }
                continue;
            }
            path.pop();
            if low[v as usize] == index[v as usize] {
                loop {
                    let w = stack.pop().expect("v is on the stack");
                    component[w as usize] = next_component;
                    if w == v {
                        break;
                    }
                }
                next_component += 1;
            }
            if let Some(&(parent, _)) = path.last() {
                low[parent as usize] = low[parent as usize].min(low[v as usize]);
            }
        }
    }
    (component, examined as u64)
}

/// The nodes by descending component id — a topological order when
/// every component of the labelled graph is one node without a
/// self-loop — or `None` when some component has two nodes. (A
/// self-loop is the caller's to rule out.)
pub fn topo_order_of(components: &[u32]) -> Option<Vec<NodeIdx>> {
    let n = components.len();
    if components.iter().max().map_or(0, |&c| c as usize + 1) != n {
        return None;
    }
    let mut order = vec![NodeIdx(0); n];
    for (v, &c) in components.iter().enumerate() {
        order[n - 1 - c as usize] = NodeIdx(v as u32);
    }
    Some(order)
}

impl<N, E> DiGraph<N, E>
where
    N: Eq + Hash + Clone,
{
    /// [`label_components`] over the edges whose label satisfies
    /// `edge_ok`, successors in adjacency order.
    pub fn components(&self, mut edge_ok: impl FnMut(&E) -> bool) -> (Vec<u32>, u64) {
        label_components(self.node_count(), |v, out| {
            let adj = self.out[v as usize].iter();
            out.extend(adj.filter(|e| edge_ok(&e.label)).map(|e| e.to.0));
        })
    }

    /// True if the whole graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topo_order().is_some()
    }

    /// A topological order of the nodes, or `None` if the graph is
    /// cyclic. Useful for deriving an equivalent serial order from an
    /// acyclic DSG.
    pub fn topo_order(&self) -> Option<Vec<NodeIdx>> {
        let self_loop = self
            .node_indices()
            .any(|v| self.successors(v).any(|(w, _)| w == v));
        if self_loop {
            return None;
        }
        topo_order_of(&self.components(|_| true).0)
    }
}

#[cfg(test)]
mod tests {
    use super::label_components;
    use crate::DiGraph;

    /// Each component as its sorted node names, all sorted.
    fn named(g: &DiGraph<&str, u8>, components: &[u32]) -> Vec<Vec<String>> {
        let count = components.iter().max().map_or(0, |&c| c as usize + 1);
        let mut out = vec![Vec::new(); count];
        for ix in g.node_indices() {
            out[components[ix.index()] as usize].push(g.node(ix).to_string());
        }
        for c in &mut out {
            c.sort();
        }
        out.sort();
        out
    }

    #[test]
    fn single_node_no_selfloop_is_acyclic() {
        let mut g: DiGraph<&str, u8> = DiGraph::new();
        g.add_node("a");
        assert!(g.is_acyclic());
    }

    #[test]
    fn self_loop_is_cyclic() {
        let mut g: DiGraph<&str, u8> = DiGraph::new();
        g.add_edge("a", "a", 0);
        assert!(!g.is_acyclic());
    }

    #[test]
    fn two_cycle_detected() {
        let mut g: DiGraph<&str, u8> = DiGraph::new();
        g.add_edge("a", "b", 0);
        g.add_edge("b", "a", 0);
        assert!(!g.is_acyclic());
        assert_eq!(named(&g, &g.components(|_| true).0), [["a", "b"]]);
    }

    #[test]
    fn dag_components_are_singletons() {
        let mut g: DiGraph<&str, u8> = DiGraph::new();
        g.add_edge("a", "b", 0);
        g.add_edge("b", "c", 0);
        g.add_edge("a", "c", 0);
        assert!(g.is_acyclic());
        let (components, examined) = g.components(|_| true);
        assert_eq!(named(&g, &components).len(), 3);
        assert_eq!(examined, 3);
    }

    #[test]
    fn filter_hides_cycle_edges() {
        let mut g: DiGraph<&str, u8> = DiGraph::new();
        g.add_edge("a", "b", 1);
        g.add_edge("b", "a", 2);
        assert!(!g.is_acyclic());
        // Ignoring label-2 edges breaks the cycle.
        let (components, examined) = g.components(|&l| l == 1);
        assert_eq!(named(&g, &components), [["a"], ["b"]]);
        assert_eq!(examined, 1);
    }

    #[test]
    fn nested_sccs() {
        let mut g: DiGraph<&str, u8> = DiGraph::new();
        // Component {a,b,c}, component {d,e}, bridge c->d.
        g.add_edge("a", "b", 0);
        g.add_edge("b", "c", 0);
        g.add_edge("c", "a", 0);
        g.add_edge("c", "d", 0);
        g.add_edge("d", "e", 0);
        g.add_edge("e", "d", 0);
        let (components, _) = g.components(|_| true);
        assert_eq!(
            named(&g, &components),
            [vec!["a", "b", "c"], vec!["d", "e"]]
        );
        // Finish order: {d,e} closes first, so the bridge descends.
        assert!(components[0] > components[3]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let mut g: DiGraph<&str, u8> = DiGraph::new();
        g.add_edge("a", "b", 0);
        g.add_edge("b", "c", 0);
        g.add_edge("a", "c", 0);
        let order = g.topo_order().expect("acyclic");
        let pos = |name: &str| {
            order
                .iter()
                .position(|&ix| *g.node(ix) == name)
                .expect("present")
        };
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("c"));
    }

    #[test]
    fn topo_order_none_when_cyclic() {
        let mut g: DiGraph<&str, u8> = DiGraph::new();
        g.add_edge("a", "b", 0);
        g.add_edge("b", "a", 0);
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // A 200k-node path plus a closing edge: recursion would blow the
        // stack, the iterative implementation must not.
        let mut g: DiGraph<u32, ()> = DiGraph::with_capacity(200_000);
        for i in 0..200_000u32 {
            g.add_edge(i, i + 1, ());
        }
        g.add_edge(200_000, 0, ());
        assert!(!g.is_acyclic());
        let (components, _) = g.components(|_| true);
        assert!(components.iter().all(|&c| c == components[0]));
    }

    #[test]
    fn a_million_roots_cost_a_million_steps() {
        // Every node is a root of its own depth-first search: work per
        // root, not per node, would be 10¹² steps here.
        const N: usize = 1_000_000;
        let (components, examined) = label_components(N, |_, _| {});
        assert_eq!((components.len(), examined), (N, 0));
        let mut g: DiGraph<u32, ()> = DiGraph::with_capacity(N);
        for i in 0..N as u32 {
            g.add_node(i);
        }
        assert!(g.find_cycle(|_| true, |_| true).is_none());
        assert!(g.find_cycle_exactly_one(|_| true, |_| true).is_none());
        assert!(g.is_acyclic());
        let order = g.topo_order().expect("acyclic");
        assert_eq!(order.len(), N);
    }
}
