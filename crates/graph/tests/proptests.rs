//! Property tests: Tarjan SCC and constrained cycle search validated
//! against a naive O(V·E) reachability oracle on random graphs, plus
//! batched-vs-per-edge equivalence for the incremental DAG and its
//! parts validator never refusing a state the DAG reached.

use adya_graph::{DiGraph, IncrementalDag};
use proptest::prelude::*;

/// A random edge list over `n` nodes with boolean labels.
fn graph_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize, bool)>)> {
    (1usize..12).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, any::<bool>()), 0..30);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(usize, usize, bool)]) -> DiGraph<usize, bool> {
    let mut g = DiGraph::new();
    for i in 0..n {
        g.add_node(i);
    }
    for &(a, b, l) in edges {
        g.add_edge(a, b, l);
    }
    g
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

    /// Two nodes share a Tarjan SCC iff they reach each other.
    #[test]
    fn sccs_match_mutual_reachability((n, edges) in graph_strategy()) {
        let g = build(n, &edges);
        let r = reach(n, &edges, |_| true);
        let comps = g.sccs();
        let mut comp_of = vec![usize::MAX; n];
        for (ci, comp) in comps.iter().enumerate() {
            for &ix in comp {
                comp_of[*g.node(ix)] = ci;
            }
        }
        for i in 0..n {
            for j in 0..n {
                let same = comp_of[i] == comp_of[j];
                let mutual = i == j || (r[i][j] && r[j][i]);
                prop_assert_eq!(same, mutual, "nodes {} and {}", i, j);
            }
        }
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
    /// contracting removals leaves parts that validate.
    #[test]
    fn every_reachable_state_validates(
        (n, edges) in graph_strategy(),
        removals in proptest::collection::vec((0usize..30, 0usize..12), 0..10),
    ) {
        let mut g: IncrementalDag<usize, bool> = IncrementalDag::new();
        for (i, &(a, b, l)) in edges.iter().enumerate() {
            g.add_edge(a % n, b % n, l);
            for &(_, k) in removals.iter().filter(|&&(at, _)| at == i) {
                g.remove_node_contract_report(k % n, |x, y| x | y, |_, _, _| {});
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
