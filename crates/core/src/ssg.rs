//! The Start-ordered Serialization Graph, used by the Snapshot
//! Isolation extension level (Adya's thesis §4.3; the ICDE paper
//! points to it in §6 as one of the commercial levels its approach
//! covers).

use adya_graph::{label_components, BackPaths, Cycle, DiGraph, NodeIdx};
use adya_history::{History, TxnId};

use crate::conflicts::DepKind;
use crate::dsg::{search_visits, Dsg};

/// The SSG of a history: the DSG plus a **start-dependency** edge
/// `Ti -s-> Tj` whenever Ti's commit time-precedes Tj's begin.
///
/// Time-precedence is taken from event positions: an explicit `Begin`
/// event when recorded, the transaction's first event otherwise. Under
/// Snapshot Isolation every read/write-dependency must coincide with a
/// start-dependency (G-SIa), and no cycle may have exactly one
/// anti-dependency edge (G-SIb).
///
/// Start-dependencies are a time test, never stored edges: n serial
/// transactions have n²/2 of them. The searches below treat node `v`'s
/// adjacency as its DSG edges followed by one `s` edge to every
/// transaction that begins after `v` commits, in node order.
#[derive(Debug, Clone)]
pub struct Ssg<'d> {
    dsg: &'d DiGraph<TxnId, DepKind>,
    /// `(begin point, commit event)` of each node, by node index.
    spans: Vec<(usize, usize)>,
}

impl<'d> Ssg<'d> {
    /// Builds the SSG of `h` over its already-built DSG.
    pub fn build(h: &History, dsg: &'d Dsg) -> Ssg<'d> {
        let dsg = dsg.graph();
        let spans = dsg
            .nodes()
            .map(|&t| {
                let info = h.txn(t).expect("committed txn exists");
                (info.begin_point(), info.end_event)
            })
            .collect();
        Ssg { dsg, spans }
    }

    /// True if there is a start-dependency `from -s-> to`: `from`
    /// commits before `to` begins.
    fn time_precedes(&self, from: NodeIdx, to: NodeIdx) -> bool {
        self.spans[from.index()].1 < self.spans[to.index()].0
    }

    /// G-SIa witness: a read/write-dependency edge `Ti → Tj` **not**
    /// accompanied by a start-dependency `Ti -s-> Tj` (i.e. Tj
    /// depends on a transaction that had not committed before Tj
    /// began).
    pub fn interference_edge(&self) -> Option<(TxnId, TxnId, DepKind)> {
        self.dsg.node_indices().find_map(|from| {
            self.dsg
                .successors(from)
                .find(|&(to, kind)| kind.is_dependency() && !self.time_precedes(from, to))
                .map(|(to, &kind)| (*self.dsg.node(from), *self.dsg.node(to), kind))
        })
    }

    /// G-SIb witness: an SSG cycle with exactly one anti-dependency
    /// edge (start- and read/write-dependencies on the path): the
    /// first anti-dependency edge, in edge order, with a shortest path
    /// back over the other kinds. Only an anti-dependency inside one
    /// SSG component is searched from, and only inside it.
    pub fn missed_effects_cycle(&self) -> Option<Cycle<TxnId, DepKind>> {
        let mut by_begin: Vec<NodeIdx> = self.dsg.node_indices().collect();
        by_begin.sort_unstable_by_key(|n| self.spans[n.index()].0);
        let components = self.components(&by_begin);
        // Every node by component and, inside one, by ascending begin
        // point. Whatever in a component begins after a popped node's
        // commit is a suffix of its run, and the part of that suffix an
        // earlier pop already covered was discovered then, so one
        // cursor moving down the run serves a whole search.
        by_begin.sort_by_key(|n| components[n.index()]);
        let mut paths = BackPaths::new(self.dsg, &components);
        let back_path = |from, to: NodeIdx| {
            let inside = components[to.index()];
            let run = by_begin.partition_point(|n| components[n.index()] < inside);
            let mut unswept = by_begin.partition_point(|n| components[n.index()] <= inside);
            let started = |v: NodeIdx, out: &mut Vec<(NodeIdx, DepKind)>| {
                let commit = self.spans[v.index()].1;
                while unswept > run && self.spans[by_begin[unswept - 1].index()].0 > commit {
                    unswept -= 1;
                    out.push((by_begin[unswept], DepKind::StartDep));
                }
                out.sort_unstable_by_key(|&(w, _)| w);
            };
            paths.find(to, from, |k| !k.is_anti(), started)
        };
        let cycle = self
            .dsg
            .first_closing(&components, |k| k.is_anti(), back_path);
        search_visits().add(paths.examined());
        cycle
    }

    /// The SSG's components, by DSG node index; `by_begin` is every
    /// node by ascending begin point. Start edges enter as a chain of
    /// slots, one per transaction in begin order: `Ti` points to the
    /// first slot whose transaction begins after `Ti` commits, each
    /// slot to the next and to its own transaction. A transaction
    /// reaches another through slots exactly when it start-precedes
    /// it, so the components over transactions are the SSG's — for
    /// t + m + 3t edges instead of up to t²/2.
    fn components(&self, by_begin: &[NodeIdx]) -> Vec<u32> {
        let nodes: Vec<NodeIdx> = self.dsg.node_indices().collect();
        let t = nodes.len();
        let slot = |k: usize| (t + k) as u32;
        let (mut components, examined) = label_components(2 * t, |v, out| {
            let v = v as usize;
            if v < t {
                let dsg_edges = self.dsg.successors(nodes[v]);
                out.extend(dsg_edges.map(|(w, _)| w.index() as u32));
                let commit = self.spans[v].1;
                let k = by_begin.partition_point(|n| self.spans[n.index()].0 <= commit);
                if k < t {
                    out.push(slot(k));
                }
            } else {
                let k = v - t;
                out.push(by_begin[k].index() as u32);
                if k + 1 < t {
                    out.push(slot(k + 1));
                }
            }
        });
        search_visits().add(examined);
        components.truncate(t);
        components
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use adya_history::{parse_history, Event};
    use adya_workloads::histgen::{random_history, HistGenConfig};
    use proptest::prelude::*;

    /// The SSG with every start-dependency stored, as `Ssg::build` made
    /// it before they became a time test: the reference the implicit
    /// searches must agree with, down to which of several equally short
    /// back-paths is reported.
    pub(crate) fn materialised(h: &History, dsg: &Dsg) -> DiGraph<TxnId, DepKind> {
        let mut graph = dsg.graph().clone();
        let committed: Vec<TxnId> = h.committed_txns().collect();
        for &ti in &committed {
            let ci = h.txn(ti).expect("committed txn exists").end_event;
            for &tj in &committed {
                if ti == tj {
                    continue;
                }
                let bj = h.txn(tj).expect("committed txn exists").begin_point();
                if ci < bj {
                    graph.add_edge_dedup(ti, tj, DepKind::StartDep);
                }
            }
        }
        graph
    }

    fn stored_interference_edge(g: &DiGraph<TxnId, DepKind>) -> Option<(TxnId, TxnId, DepKind)> {
        g.edges()
            .filter(|e| e.label.is_dependency())
            .find(|e| !g.has_edge_where(e.from, e.to, |&k| k == DepKind::StartDep))
            .map(|e| (*e.from, *e.to, *e.label))
    }

    /// `(G-SIa, G-SIb)` witnesses as printed, implicit then stored.
    fn both(h: &History) -> [(Option<String>, Option<String>); 2] {
        let dsg = Dsg::build(h);
        let ssg = Ssg::build(h, &dsg);
        let stored = materialised(h, &dsg);
        let show = |e: Option<(TxnId, TxnId, DepKind)>| e.map(|e| format!("{e:?}"));
        [
            (
                show(ssg.interference_edge()),
                ssg.missed_effects_cycle().map(|c| c.to_string()),
            ),
            (
                show(stored_interference_edge(&stored)),
                stored
                    .find_cycle_exactly_one(|k| k.is_anti(), |k| !k.is_anti())
                    .map(|c| c.to_string()),
            ),
        ]
    }

    /// `h` with a `b` event put before the first event of every
    /// transaction `explicit` picks.
    pub(crate) fn with_begins(h: &History, explicit: impl Fn(TxnId) -> bool) -> History {
        let mut parts = h.to_parts();
        parts.events.clear();
        for (ix, e) in h.events().iter().enumerate() {
            let info = h.txn(e.txn()).expect("event of a known txn");
            if info.first_event == ix && explicit(e.txn()) {
                parts.events.push(Event::Begin(e.txn()));
            }
            parts.events.push(e.clone());
        }
        History::from_parts(parts).expect("a begin before a first event is well-formed")
    }

    fn ssg_witnesses(input: &str) -> (Option<String>, Option<String>) {
        let [implicit, stored] = both(&parse_history(input).unwrap());
        assert_eq!(implicit, stored);
        implicit
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn implicit_start_edges_report_what_stored_ones_did(
            seed in 0u64..1_000_000,
            txns in 4usize..40,
            objects in 2usize..6,
            dirty in any::<bool>(),
            shuffled in any::<bool>(),
            window in 0usize..5,
            begins in 0u32..3,
        ) {
            let cfg = HistGenConfig {
                txns,
                objects,
                ops_per_txn: 3,
                dirty_read_prob: if dirty { 0.3 } else { 0.0 },
                abort_prob: if dirty { 0.15 } else { 0.0 },
                shuffle_order_prob: if shuffled { 0.5 } else { 0.0 },
                max_concurrent: window,
                ..HistGenConfig::default()
            };
            let h = random_history(&cfg, seed);
            // No `b` events, one per transaction, or one for every
            // other transaction.
            let h = with_begins(&h, |t| begins == 1 || (begins == 2 && t.0 % 2 == 0));
            let [implicit, stored] = both(&h);
            prop_assert_eq!(implicit, stored, "{}", h);
        }
    }

    #[test]
    fn serial_txns_are_start_ordered() {
        let h = parse_history("b1 w1(x,1) c1 b2 r2(x1) c2").unwrap();
        let dsg = Dsg::build(&h);
        let ssg = Ssg::build(&h, &dsg);
        let nodes: Vec<NodeIdx> = dsg.graph().node_indices().collect();
        assert!(ssg.time_precedes(nodes[0], nodes[1]));
        assert!(!ssg.time_precedes(nodes[1], nodes[0]));
        assert!(ssg.interference_edge().is_none());
    }

    #[test]
    fn concurrent_read_dependency_is_interference() {
        // T2 begins before T1 commits yet reads T1's write: G-SIa.
        let h = parse_history("b1 b2 w1(x,1) c1 r2(x1) c2").unwrap();
        let dsg = Dsg::build(&h);
        let (from, to, kind) = Ssg::build(&h, &dsg).interference_edge().expect("G-SIa");
        assert_eq!((from, to), (TxnId(1), TxnId(2)));
        assert!(kind.is_dependency());
    }

    #[test]
    fn write_skew_is_not_missed_effects() {
        // Classic SI write skew: both read both objects, each writes
        // one. Two anti-dependency edges — this is NOT G-SIb (not
        // exactly one anti edge in its only cycle), so SI admits it.
        let witnesses = ssg_witnesses(
            "b1 b2 r1(xinit,5) r1(yinit,5) r2(xinit,5) r2(yinit,5) \
             w1(x,1) w2(y,1) c1 c2",
        );
        assert_eq!(witnesses, (None, None));
    }

    #[test]
    fn single_anti_cycle_is_missed_effects() {
        // T2 commits before T1 begins (T2 -s-> T1), yet T1 reads the
        // version T2 overwrote (T1 -rw-> T2) — legal in a multi-version
        // world, and exactly one anti-dependency on the cycle.
        let (_, cycle) = ssg_witnesses("b2 w2(x,9) c2 b1 r1(xinit,5) c1");
        assert_eq!(cycle.as_deref(), Some("T1 -[rw]-> T2 -[s]-> T1"));
    }

    #[test]
    fn a_txn_without_a_begin_event_starts_at_its_first_event() {
        // T1 has no `b`: it begins at r1, after c2, so T2 -s-> T1 closes
        // a cycle with T1's anti-dependency. T3 does the same reads but
        // its `b3` precedes c2: no start edge, no cycle through it, and
        // its read of x2 is a dependency on a concurrent transaction.
        let (edge, cycle) =
            ssg_witnesses("b2 w2(x,9) b3 c2 r1(xinit,5) r3(yinit,5) r3(x2) c3 c1 b4 w4(y,2) c4");
        assert_eq!(cycle.as_deref(), Some("T1 -[rw]-> T2 -[s]-> T1"));
        assert_eq!(
            edge,
            Some(format!("{:?}", (TxnId(2), TxnId(3), DepKind::ItemReadDep)))
        );
    }

    #[test]
    fn a_cycle_closed_only_through_two_start_edges() {
        // T4 commits before T1 begins and T2 before T3 begins, and the
        // version order puts T3's x before T4's: T1 -rw-> T2 -s-> T3
        // -ww-> T4 -s-> T1. The DSG alone is acyclic, so only the SSG's
        // components put the anti-dependency inside one.
        let input = "b4 w4(x,4) c4 b1 r1(yinit) b2 w2(y,2) c2 b3 w3(x,3) c3 c1 [x3 << x4]";
        let h = parse_history(input).unwrap();
        assert!(Dsg::build(&h).is_acyclic());
        let (_, cycle) = ssg_witnesses(input);
        assert_eq!(
            cycle.as_deref(),
            Some("T1 -[rw]-> T2 -[s]-> T3 -[ww]-> T4 -[s]-> T1")
        );
    }

    #[test]
    fn a_chain_of_start_edges_is_cut_short() {
        // T2 -s-> T3 -s-> T1, and start order is transitive, so
        // T2 -s-> T1 as well: by the time T3 is popped the sweep has
        // already passed T1, and the witness takes the one edge.
        let (_, cycle) = ssg_witnesses("b2 w2(x,9) c2 b3 w3(y,1) c3 b1 r1(xinit,5) c1");
        assert_eq!(cycle.as_deref(), Some("T1 -[rw]-> T2 -[s]-> T1"));
    }
}
