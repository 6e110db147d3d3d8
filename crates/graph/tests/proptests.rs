//! Property tests: the component labelling and constrained cycle
//! search validated against a naive O(V·E) reachability oracle on
//! random graphs, the searches' witnesses against a naive restatement
//! of the witness rule, plus the incremental DAG's parts validator
//! never refusing a state the DAG reached.

use std::collections::VecDeque;

use adya_graph::{DiGraph, IncrementalDag};
use proptest::prelude::*;

/// A random edge list over `n` nodes with boolean labels.
fn graph_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize, bool)>)> {
    (1usize..12).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, any::<bool>()), 0..30);
        (Just(n), edges)
    })
}

/// A random edge list over `n` nodes with labels `0..3`, self-loops
/// and parallel edges included.
fn labelled_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize, u8)>)> {
    (1usize..12).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, 0u8..3), 0..30);
        (Just(n), edges)
    })
}

fn build<L: Copy>(n: usize, edges: &[(usize, usize, L)]) -> DiGraph<usize, L> {
    let mut g = DiGraph::new();
    for i in 0..n {
        g.add_node(i);
    }
    for &(a, b, l) in edges {
        g.add_edge(a, b, l);
    }
    g
}

/// A set of labels, as the searches' edge predicates pick them.
type Pick = fn(u8) -> bool;

/// The witness rule, spelled out naively: the first edge `first`
/// admits, in node-then-adjacency order, that a fresh whole-graph BFS
/// back over `back` edges closes (a self-loop with the empty path), the
/// BFS assigning parents in adjacency order. Printed as `Cycle` prints.
fn reference(
    n: usize,
    edges: &[(usize, usize, u8)],
    first: impl Fn(u8) -> bool,
    back: impl Fn(u8) -> bool,
) -> Option<String> {
    let adjacency = |v: usize| edges.iter().filter(move |e| e.0 == v);
    for from in 0..n {
        for &(_, to, label) in adjacency(from).filter(|e| first(e.2)) {
            let mut parent: Vec<Option<(usize, u8)>> = vec![None; n];
            let mut queue = VecDeque::from([to]);
            while let Some(v) = queue.pop_front() {
                for &(_, w, l) in adjacency(v).filter(|e| back(e.2)) {
                    if w != to && parent[w].is_none() {
                        parent[w] = Some((v, l));
                        queue.push_back(w);
                    }
                }
            }
            if from != to && parent[from].is_none() {
                continue;
            }
            let mut back_path = Vec::new();
            let mut cur = from;
            while cur != to {
                let (prev, l) = parent[cur].expect("on the path");
                back_path.push(format!("{prev} -[{l}]->"));
                cur = prev;
            }
            back_path.push(format!("{from} -[{label}]->"));
            back_path.reverse();
            return Some(format!("{} {from}", back_path.join(" ")));
        }
    }
    None
}

/// Naive reachability over a filtered edge set.
fn reach(n: usize, edges: &[(usize, usize, bool)], ok: impl Fn(bool) -> bool) -> Vec<Vec<bool>> {
    let mut r = vec![vec![false; n]; n];
    for &(a, b, l) in edges {
        if ok(l) {
            r[a][b] = true;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if r[i][k] && r[k][j] {
                    r[i][j] = true;
                }
            }
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Two nodes share a component of the labelling over the admitted
    /// edges iff each reaches the other over them, and every admitted
    /// edge between two components descends in id.
    #[test]
    fn sccs_match_mutual_reachability((n, edges) in graph_strategy(), all in any::<bool>()) {
        let g = build(n, &edges);
        let r = reach(n, &edges, |l| all || l);
        let (component, examined) = g.components(|&l| all || l);
        let admitted = edges.iter().filter(|e| all || e.2);
        prop_assert_eq!(examined, admitted.clone().count() as u64);
        for i in 0..n {
            for j in 0..n {
                let same = component[i] == component[j];
                let mutual = i == j || (r[i][j] && r[j][i]);
                prop_assert_eq!(same, mutual, "nodes {} and {}", i, j);
            }
        }
        for &(a, b, _) in admitted {
            prop_assert!(component[a] >= component[b], "{} -> {}", a, b);
        }
    }

    /// `find_cycle` reports the reference's witness, byte for byte.
    #[test]
    fn find_cycle_witness_is_the_references((n, edges) in labelled_strategy(), shape in 0..3) {
        let g = build(n, &edges);
        let (allowed, required): (Pick, Pick) = match shape {
            0 => (|l| l != 0, |_| true),
            1 => (|l| l != 0, |l| l == 2),
            _ => (|_| true, |l| l == 1),
        };
        let found = g.find_cycle(|&l| allowed(l), |&l| required(l));
        let expected = reference(n, &edges, |l| allowed(l) && required(l), allowed);
        prop_assert_eq!(found.map(|c| c.to_string()), expected);
    }

    /// `find_cycle_exactly_one` reports the reference's witness, byte
    /// for byte.
    #[test]
    fn exactly_one_witness_is_the_references((n, edges) in labelled_strategy(), shape in 0..3) {
        let g = build(n, &edges);
        let (special, path_ok): (Pick, Pick) = match shape {
            0 => (|l| l == 2, |l| l == 1),
            1 => (|l| l == 2, |_| true),
            _ => (|l| l == 0, |l| l != 1),
        };
        let found = g.find_cycle_exactly_one(|&l| special(l), |&l| path_ok(l));
        let expected = reference(n, &edges, special, |l| path_ok(l) && !special(l));
        prop_assert_eq!(found.map(|c| c.to_string()), expected);
    }

    /// find_cycle agrees with the oracle: a cycle over allowed edges
    /// containing a required edge exists iff some required edge (u,v)
    /// has v ⇝ u over allowed edges (or u == v).
    #[test]
    fn find_cycle_matches_oracle((n, edges) in graph_strategy()) {
        let g = build(n, &edges);
        let r = reach(n, &edges, |l| l);
        let oracle = edges
            .iter()
            .any(|&(a, b, l)| l && (a == b || r[b][a]));
        let found = g.find_cycle(|&l| l, |&l| l);
        prop_assert_eq!(found.is_some(), oracle);
        if let Some(c) = found {
            // Witness is closed and uses only allowed edges.
            let es = c.edges();
            for (i, e) in es.iter().enumerate() {
                prop_assert!(e.label);
                prop_assert_eq!(&e.to, &es[(i + 1) % es.len()].from);
            }
        }
    }

    /// find_cycle_exactly_one: exists iff some special edge (u,v) has
    /// v ⇝ u over non-special path edges (or u == v).
    #[test]
    fn exactly_one_matches_oracle((n, edges) in graph_strategy()) {
        let g = build(n, &edges);
        // special = true-labelled, path = false-labelled.
        let r = reach(n, &edges, |l| !l);
        let oracle = edges
            .iter()
            .any(|&(a, b, l)| l && (a == b || r[b][a]));
        let found = g.find_cycle_exactly_one(|&l| l, |_| true);
        prop_assert_eq!(found.is_some(), oracle);
        if let Some(c) = found {
            prop_assert_eq!(c.count_labels(|&l| l), 1, "exactly one special edge");
        }
    }

    /// `DagParts::validate` refuses parts no graph can be in; it must
    /// never refuse one a graph *is* in. Any mix of inserts and
    /// removals leaves parts that validate.
    #[test]
    fn every_reachable_state_validates(
        (n, edges) in graph_strategy(),
        removals in proptest::collection::vec((0usize..30, 0usize..12), 0..10),
    ) {
        let mut g: IncrementalDag<usize, bool> = IncrementalDag::new();
        for (i, &(a, b, l)) in edges.iter().enumerate() {
            g.add_edge(a % n, b % n, l);
            for &(_, k) in removals.iter().filter(|&&(at, _)| at == i) {
                g.remove_node(k % n);
            }
            prop_assert_eq!(g.to_parts().validate(), Ok(()));
        }
    }

    /// topo_order is a valid topological order exactly when acyclic.
    #[test]
    fn topo_order_valid((n, edges) in graph_strategy()) {
        let g = build(n, &edges);
        match g.topo_order() {
            None => prop_assert!(!g.is_acyclic()),
            Some(order) => {
                prop_assert!(g.is_acyclic());
                let pos: std::collections::HashMap<usize, usize> = order
                    .iter()
                    .enumerate()
                    .map(|(i, &ix)| (*g.node(ix), i))
                    .collect();
                // Acyclic graphs have no self-loops; every edge points
                // forward in the order.
                for &(a, b, _) in &edges {
                    prop_assert!(a != b);
                    prop_assert!(pos[&a] < pos[&b]);
                }
            }
        }
    }
}
