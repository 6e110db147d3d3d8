//! The Direct Serialization Graph (Definition 7) with its one
//! strongly-connected-component labelling, inside which G2, G2-item,
//! G-single and G-monotonic search, and the searches' work counter.

use adya_graph::{topo_order_of, BackPaths, Cycle, DiGraph};
use adya_history::{History, TxnId};

use crate::conflicts::{direct_conflicts, Conflict, DepKind};

/// The Direct Serialization Graph of a history: one node per committed
/// transaction, edges for the direct conflicts of Figure 2.
///
/// A `Dsg` keeps both the deduplicated graph (for cycle analysis) and
/// the full conflict list with provenance (for explanations). The
/// paper's figures omit `Tinit`, and so does this graph — `Tinit`
/// could only ever have outgoing edges, so it can never participate in
/// a cycle and its omission is sound.
#[derive(Debug, Clone)]
pub struct Dsg {
    graph: DiGraph<TxnId, DepKind>,
    conflicts: Vec<Conflict>,
    /// The strongly connected component of each node, by node index:
    /// an edge lies on a cycle only if its endpoints share one.
    components: Vec<u32>,
}

impl Dsg {
    /// Builds the DSG of `h`.
    pub fn build(h: &History) -> Dsg {
        let conflicts = direct_conflicts(h);
        let mut graph = DiGraph::with_capacity(h.committed_txns().count());
        for t in h.committed_txns() {
            graph.add_node(t);
        }
        for c in &conflicts {
            graph.add_edge_dedup(c.from, c.to, c.kind);
        }
        let (components, examined) = graph.components(|_| true);
        search_visits().add(examined);
        Dsg {
            graph,
            conflicts,
            components,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph<TxnId, DepKind> {
        &self.graph
    }

    /// The component id of each node, by node index.
    pub(crate) fn components(&self) -> &[u32] {
        &self.components
    }

    /// The number of nodes in each component, by component id.
    pub(crate) fn component_sizes(&self) -> Vec<u32> {
        let count = self.components.iter().max().map_or(0, |&c| c as usize + 1);
        let mut sizes = vec![0; count];
        for &c in &self.components {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// Every direct conflict with provenance (may contain several
    /// conflicts per graph edge — one per object/predicate involved).
    pub fn conflicts(&self) -> &[Conflict] {
        &self.conflicts
    }

    /// True if some `from → to` edge of the given kind exists.
    pub fn has_edge(&self, from: TxnId, to: TxnId, kind: DepKind) -> bool {
        self.graph.has_edge_where(&from, &to, |&k| k == kind)
    }

    /// The conflicts that induced the `from → to` edge of the given
    /// kind — the edge's provenance. A deduplicated graph edge maps
    /// back to one conflict per object/predicate involved, in the
    /// deterministic order [`conflicts`] lists them.
    ///
    /// [`conflicts`]: Dsg::conflicts
    pub fn provenance(&self, from: TxnId, to: TxnId, kind: DepKind) -> Vec<&Conflict> {
        self.conflicts
            .iter()
            .filter(|c| c.from == from && c.to == to && c.kind == kind)
            .collect()
    }

    /// A cycle of only write-dependency edges (the G0 shape).
    pub fn write_cycle(&self) -> Option<Cycle<TxnId, DepKind>> {
        self.graph.find_cycle(|k| k.is_write_dep(), |_| true)
    }

    /// A cycle of only dependency edges (the G1c shape).
    pub fn dependency_cycle(&self) -> Option<Cycle<TxnId, DepKind>> {
        self.graph.find_cycle(|k| k.is_dependency(), |_| true)
    }

    /// A cycle with at least one anti-dependency edge (the G2 shape).
    pub fn anti_cycle(&self) -> Option<Cycle<TxnId, DepKind>> {
        self.cycle_through(DepKind::is_anti, |_| true)
    }

    /// A cycle with at least one *item* anti-dependency edge (the
    /// G2-item shape).
    pub fn item_anti_cycle(&self) -> Option<Cycle<TxnId, DepKind>> {
        self.cycle_through(DepKind::is_item_anti, |_| true)
    }

    /// A cycle with *exactly one* anti-dependency edge (the G-single
    /// shape of PL-2+, Adya's thesis §4.2).
    pub fn single_anti_cycle(&self) -> Option<Cycle<TxnId, DepKind>> {
        self.cycle_through(DepKind::is_anti, DepKind::is_dependency)
    }

    /// The first `first` edge, in edge order, that a path back over
    /// `back` edges closes, with the shortest such path, searched inside
    /// the stored labelling's components: `DiGraph::find_cycle`'s
    /// witness when `back` admits every edge, otherwise
    /// `DiGraph::find_cycle_exactly_one`'s, without a labelling of
    /// its own.
    fn cycle_through(
        &self,
        first: impl Fn(DepKind) -> bool,
        back: impl Fn(DepKind) -> bool,
    ) -> Option<Cycle<TxnId, DepKind>> {
        let (g, components) = (&self.graph, &self.components);
        let mut paths = BackPaths::new(g, components);
        let cycle = g.first_closing(
            components,
            |&k| first(k),
            |from, to| paths.find(to, from, |&k| back(k), |_, _| {}),
        );
        search_visits().add(paths.examined());
        cycle
    }

    /// True if the DSG is acyclic: every component is one node (a
    /// conflict never runs from a transaction to itself).
    pub fn is_acyclic(&self) -> bool {
        self.component_sizes().iter().all(|&s| s == 1)
    }

    /// An equivalent serial order of the committed transactions, when
    /// the DSG is acyclic: read off the stored labelling, whose
    /// descending ids are a topological order.
    pub fn serial_order(&self) -> Option<Vec<TxnId>> {
        let order = topo_order_of(&self.components)?;
        Some(order.into_iter().map(|ix| *self.graph.node(ix)).collect())
    }

    /// True if `order` is an equivalent serial order: it lists every
    /// committed transaction exactly once and every DSG edge points
    /// forward in it.
    pub fn is_valid_serial_order(&self, order: &[TxnId]) -> bool {
        if order.len() != self.graph.node_count() {
            return false;
        }
        let pos: std::collections::HashMap<TxnId, usize> =
            order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        if pos.len() != order.len() {
            return false;
        }
        self.graph
            .edges()
            .all(|e| match (pos.get(e.from), pos.get(e.to)) {
                (Some(a), Some(b)) => a < b,
                _ => false,
            })
    }

    /// Graphviz DOT rendering (cf. Figures 3–5).
    pub fn to_dot(&self, name: &str) -> String {
        self.graph.to_dot(name)
    }
}

/// The work counter of the searches: one tick per edge a component
/// labelling, a back-path search or a USG layout examines.
/// `tests/search_work_bound.rs` holds it to events + conflicts on a
/// history where nothing fires.
pub(crate) fn search_visits() -> &'static adya_obs::Counter {
    adya_obs::counter!("checker.search_visits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_history::parse_history;

    /// H_serial of §4.4.4 (Figure 3).
    fn h_serial() -> History {
        parse_history(
            "w1(z,1) w1(x,1) w1(y,1) w3(x,3) c1 r2(x1) w2(y,2) c2 r3(y2) w3(z,3) c3 \
             [x1 << x3, y1 << y2, z1 << z3]",
        )
        .unwrap()
    }

    #[test]
    fn figure3_edge_set_exact() {
        let dsg = Dsg::build(&h_serial());
        let (t1, t2, t3) = (TxnId(1), TxnId(2), TxnId(3));
        // Figure 3: T1 -wr-> T2, T1 -ww-> T3, T1 -rw? no: edges are
        // T1->T2 wr, T2->T3 wr and rw? Let's assert the paper's set:
        // T1 -wr-> T2 (T2 reads x1), T1 -ww-> T3 (x1 << x3),
        // T1 -ww-> T2 (y1 << y2), T2 -wr-> T3 (T3 reads y2),
        // T2 -rw-> T3 (T2 read x1, T3 installs x3),
        // T1 -ww-> T3 (z1 << z3).
        assert!(dsg.has_edge(t1, t2, DepKind::ItemReadDep));
        assert!(dsg.has_edge(t1, t2, DepKind::WriteDep));
        assert!(dsg.has_edge(t1, t3, DepKind::WriteDep));
        assert!(dsg.has_edge(t2, t3, DepKind::ItemReadDep));
        assert!(dsg.has_edge(t2, t3, DepKind::ItemAntiDep));
        // No reverse edges.
        assert!(!dsg.has_edge(t2, t1, DepKind::WriteDep));
        assert!(!dsg.has_edge(t3, t1, DepKind::WriteDep));
        assert!(!dsg.has_edge(t3, t2, DepKind::ItemReadDep));
    }

    #[test]
    fn figure3_is_acyclic_and_serializes_t1_t2_t3() {
        let dsg = Dsg::build(&h_serial());
        assert!(dsg.is_acyclic());
        let order = dsg.serial_order().unwrap();
        assert_eq!(order, vec![TxnId(1), TxnId(2), TxnId(3)]);
    }

    #[test]
    fn figure4_wcycle() {
        // H_wcycle of §5.1 (Figure 4): pure write-dependency cycle.
        let h =
            parse_history("w1(x,2) w2(x,5) w2(y,5) c2 w1(y,8) c1 [x1 << x2, y2 << y1]").unwrap();
        let dsg = Dsg::build(&h);
        let cyc = dsg.write_cycle().expect("G0 cycle");
        assert_eq!(cyc.len(), 2);
        assert!(cyc.edges().iter().all(|e| e.label.is_write_dep()));
    }

    #[test]
    fn dedup_keeps_graph_small() {
        // Two reads of the same version produce one wr edge but two
        // conflict records.
        let h = parse_history("w1(x,1) w1(y,2) c1 r2(x1) r2(y1) c2").unwrap();
        let dsg = Dsg::build(&h);
        assert_eq!(dsg.graph().edge_count(), 1);
        assert_eq!(
            dsg.conflicts()
                .iter()
                .filter(|c| c.kind == DepKind::ItemReadDep)
                .count(),
            2
        );
    }

    #[test]
    fn provenance_maps_edges_back_to_conflicts() {
        let h = parse_history("w1(x,1) w1(y,2) c1 r2(x1) r2(y1) c2").unwrap();
        let dsg = Dsg::build(&h);
        let prov = dsg.provenance(TxnId(1), TxnId(2), DepKind::ItemReadDep);
        assert_eq!(prov.len(), 2, "one conflict per object read");
        let objects: Vec<_> = prov.iter().map(|c| c.object.unwrap().0).collect();
        assert_eq!(objects, vec![0, 1]);
        assert!(prov.iter().all(|c| c.version.is_some()));
        // No such edge, no provenance.
        assert!(dsg
            .provenance(TxnId(2), TxnId(1), DepKind::ItemReadDep)
            .is_empty());
    }

    #[test]
    fn dot_output_mentions_transactions() {
        let dsg = Dsg::build(&h_serial());
        let dot = dsg.to_dot("Hserial");
        assert!(dot.contains("T1") && dot.contains("T2") && dot.contains("T3"));
        assert!(dot.contains("ww") && dot.contains("wr"));
    }
}
