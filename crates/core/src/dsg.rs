//! The Direct Serialization Graph (Definition 7), its strongly
//! connected components, and the back-path search G2, G2-item,
//! G-single and (over the SSG) G-SIb close their witnesses with.

use std::collections::VecDeque;

use adya_graph::{Cycle, CycleEdge, DiGraph, NodeIdx};
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
        let nodes: Vec<NodeIdx> = graph.node_indices().collect();
        let components = label_components(nodes.len(), |v, out| {
            out.extend(
                graph
                    .successors(nodes[v as usize])
                    .map(|(w, _)| w.index() as u32),
            );
        });
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

    /// The conflicts behind every `from → to` edge regardless of kind,
    /// in deterministic order.
    pub fn edge_provenance(&self, from: TxnId, to: TxnId) -> Vec<&Conflict> {
        self.conflicts
            .iter()
            .filter(|c| c.from == from && c.to == to)
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
    /// `back` edges closes, with the shortest such path. Only an edge
    /// inside one component can close, and only inside it is searched;
    /// with `back` admitting every edge the first such edge closes,
    /// which is `DiGraph::find_cycle`'s witness, and otherwise it is
    /// `DiGraph::find_cycle_exactly_one`'s.
    fn cycle_through(
        &self,
        first: impl Fn(DepKind) -> bool,
        back: impl Fn(DepKind) -> bool,
    ) -> Option<Cycle<TxnId, DepKind>> {
        let mut paths = BackPaths::new(&self.graph, &self.components);
        first_closing(&self.graph, &self.components, first, |from, to| {
            paths.find(to, from, &back, |_, _| {})
        })
    }

    /// True if the DSG is acyclic: every component is one node (a
    /// conflict never runs from a transaction to itself).
    pub fn is_acyclic(&self) -> bool {
        self.component_sizes().iter().all(|&s| s == 1)
    }

    /// An equivalent serial order of the committed transactions, when
    /// the DSG is acyclic.
    pub fn serial_order(&self) -> Option<Vec<TxnId>> {
        self.graph
            .topo_order()
            .map(|ixs| ixs.into_iter().map(|ix| *self.graph.node(ix)).collect())
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

/// Labels the strongly connected components of the graph on nodes
/// `0..n` whose successors `successors(v, out)` appends to `out`: one
/// id per node, equal for two nodes exactly when each reaches the
/// other. Tarjan's algorithm, iterative so that a deep graph cannot
/// overflow the stack; every edge is examined once.
pub(crate) fn label_components(
    n: usize,
    mut successors: impl FnMut(u32, &mut Vec<u32>),
) -> Vec<u32> {
    const UNSEEN: u32 = u32::MAX;
    let mut component = vec![UNSEEN; n];
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0; n];
    // Tarjan's stack; a node on it has an index and no component yet.
    let mut stack = Vec::new();
    // The depth-first path: each node with where its unexamined
    // successors begin in `pending`.
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
    search_visits().add(examined as u64);
    component
}

/// The first edge satisfying `first`, in edge order, whose endpoints
/// share a component and that `back_path(from, to)` closes into a
/// cycle. An edge between two components lies on no cycle, so it is
/// skipped without a search.
pub(crate) fn first_closing(
    g: &DiGraph<TxnId, DepKind>,
    components: &[u32],
    first: impl Fn(DepKind) -> bool,
    mut back_path: impl FnMut(NodeIdx, NodeIdx) -> Option<Vec<CycleEdge<TxnId, DepKind>>>,
) -> Option<Cycle<TxnId, DepKind>> {
    g.node_indices().find_map(|from| {
        g.successors(from)
            .filter(|&(to, &kind)| {
                first(kind) && components[from.index()] == components[to.index()]
            })
            .find_map(|(to, &kind)| {
                let mut edges = vec![edge(g, from, to, kind)];
                edges.extend(back_path(from, to)?);
                Some(Cycle::from_edges(edges))
            })
    })
}

fn edge(
    g: &DiGraph<TxnId, DepKind>,
    from: NodeIdx,
    to: NodeIdx,
    label: DepKind,
) -> CycleEdge<TxnId, DepKind> {
    CycleEdge {
        from: *g.node(from),
        to: *g.node(to),
        label,
    }
}

/// Shortest back-paths inside one component, by breadth-first search
/// in adjacency order — the parent rule of `DiGraph::find_cycle`'s, so
/// the same path. A path between two nodes of a component never leaves
/// it, and a node outside cannot discover one inside, so keeping the
/// search in the component changes no parent and no queue order of the
/// nodes that matter. The parent table is allocated once and reset
/// where a search wrote, so a search costs its component's edges.
pub(crate) struct BackPaths<'g> {
    g: &'g DiGraph<TxnId, DepKind>,
    components: &'g [u32],
    parent: Vec<Option<(NodeIdx, DepKind)>>,
    reached: Vec<NodeIdx>,
    queue: VecDeque<NodeIdx>,
    implied: Vec<NodeIdx>,
}

impl<'g> BackPaths<'g> {
    pub(crate) fn new(g: &'g DiGraph<TxnId, DepKind>, components: &'g [u32]) -> Self {
        BackPaths {
            g,
            components,
            parent: Vec::new(),
            reached: Vec::new(),
            queue: VecDeque::new(),
            implied: Vec::new(),
        }
    }

    /// The shortest path `src ⇝ dst` over the stored edges `back`
    /// admits, each popped node's stored edges followed by the
    /// `implied(v, out)` successors it appends to `out` (labelled
    /// [`DepKind::StartDep`]).
    pub(crate) fn find(
        &mut self,
        src: NodeIdx,
        dst: NodeIdx,
        back: impl Fn(DepKind) -> bool,
        mut implied: impl FnMut(NodeIdx, &mut Vec<NodeIdx>),
    ) -> Option<Vec<CycleEdge<TxnId, DepKind>>> {
        if self.parent.is_empty() {
            self.parent = vec![None; self.g.node_count()];
        }
        let (inside, mut examined) = (self.components[src.index()], 0);
        self.queue.push_back(src);
        'bfs: while let Some(v) = self.queue.pop_front() {
            self.implied.clear();
            implied(v, &mut self.implied);
            let stored = self.g.successors(v).filter(|&(_, &kind)| back(kind));
            let implied = self.implied.iter().map(|&w| (w, &DepKind::StartDep));
            for (w, &kind) in stored.chain(implied).inspect(|_| examined += 1) {
                if w != src
                    && self.components[w.index()] == inside
                    && self.parent[w.index()].is_none()
                {
                    self.parent[w.index()] = Some((v, kind));
                    self.reached.push(w);
                    if w == dst {
                        break 'bfs;
                    }
                    self.queue.push_back(w);
                }
            }
        }
        self.queue.clear();
        search_visits().add(examined);
        let path = self.parent[dst.index()].is_some().then(|| {
            let mut path = Vec::new();
            let mut cur = dst;
            while let Some((prev, kind)) = self.parent[cur.index()] {
                path.push(edge(self.g, prev, cur, kind));
                cur = prev;
            }
            path.reverse();
            path
        });
        for w in self.reached.drain(..) {
            self.parent[w.index()] = None;
        }
        path
    }
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
        assert_eq!(dsg.edge_provenance(TxnId(1), TxnId(2)).len(), 2);
    }

    #[test]
    fn dot_output_mentions_transactions() {
        let dsg = Dsg::build(&h_serial());
        let dot = dsg.to_dot("Hserial");
        assert!(dot.contains("T1") && dot.contains("T2") && dot.contains("T3"));
        assert!(dot.contains("ww") && dot.contains("wr"));
    }
}
