//! The Unfolded Serialization Graph and the G-monotonic phenomenon
//! (PL-MAV, *Monotonic Atomic View* — Adya's thesis §4.2; the ICDE
//! paper points to the thesis for the additional levels its approach
//! covers).
//!
//! PL-MAV strengthens PL-2 with *atomic visibility*: once a
//! transaction has observed any effect of a committed transaction Tj,
//! its subsequent reads must observe **all** of Tj's effects. The DSG
//! cannot express "subsequent": it has one node per transaction. The
//! USG therefore **unfolds** the transaction under scrutiny into one
//! node per read/write event, chained by order edges; G-monotonic is a
//! USG cycle with exactly one anti-dependency edge, emanating from one
//! of the unfolded transaction's *read* nodes.
//!
//! Example (non-monotonic read):
//!
//! ```text
//!   r_i(x_j)  --order-->  r_i(y_old)
//!      ▲                      |
//!      | wr                   | rw        (exactly one anti edge)
//!      Tj  <------------------+
//! ```
//!
//! Ti read Tj's `x` and *later* read a pre-Tj version of `y` — a cycle
//! once order edges are present, invisible to the folded DSG when the
//! two anti/read dependencies are the only conflicts.

use std::collections::HashMap;
use std::fmt;

use adya_graph::{Cycle, CycleEdge, DiGraph};
use adya_history::{Event, History, ObjectId, TxnId, VersionId};

use crate::conflicts::{Conflict, DepKind};
use crate::dsg::{search_visits, Dsg};

/// A node of the unfolded graph: either a whole (other) transaction or
/// one read/write action of the unfolded transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UsgNode {
    /// A committed transaction other than the unfolded one.
    Txn(TxnId),
    /// One event (by index) of the unfolded transaction.
    Action(TxnId, usize),
}

impl fmt::Display for UsgNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsgNode::Txn(t) => write!(f, "{t}"),
            UsgNode::Action(t, e) => write!(f, "{t}@{e}"),
        }
    }
}

/// Edge labels of the USG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UsgEdge {
    /// A read/write dependency (or an anti-dependency not rooted at a
    /// read node of the unfolded transaction).
    Dep(DepKind),
    /// Program-order edge between consecutive actions of the unfolded
    /// transaction.
    Order,
    /// An anti-dependency out of one of the unfolded transaction's
    /// read nodes — the edge kind G-monotonic counts.
    ReadAnti,
}

impl fmt::Display for UsgEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsgEdge::Dep(k) => write!(f, "{k}"),
            UsgEdge::Order => write!(f, "order"),
            UsgEdge::ReadAnti => write!(f, "rw*"),
        }
    }
}

/// Builds USG(H, ti) over `conflicts` and searches for a G-monotonic
/// cycle: exactly one anti-dependency edge, from one of ti's read
/// nodes, the rest dependency/order edges.
fn g_monotonic_for<'c>(
    h: &History,
    conflicts: impl IntoIterator<Item = &'c Conflict>,
    ti: TxnId,
) -> Option<Cycle<UsgNode, String>> {
    let mut g: DiGraph<UsgNode, UsgEdge> = DiGraph::new();

    // One walk of ti's events. Order edges chain its read/write
    // actions. To attach ti's conflicts to specific actions they are
    // re-derived positionally: reads at their read events — by
    // (object, version); a conflict may match several reads and
    // attaches to each — and write-related edges at ti's last write
    // event of the object. Conflicts between other transactions keep
    // their folded Txn nodes.
    let mut prev: Option<usize> = None;
    let mut last_write_of: HashMap<ObjectId, usize> = HashMap::new();
    let mut reads_at: HashMap<(ObjectId, VersionId), Vec<usize>> = HashMap::new();
    let mut pred_reads: Vec<usize> = Vec::new();
    for (ix, e) in h.events_of(ti) {
        match e {
            Event::Read(r) => reads_at.entry((r.object, r.version)).or_default().push(ix),
            Event::Write(w) => {
                last_write_of.insert(w.object, ix);
            }
            Event::PredicateRead(_) => pred_reads.push(ix),
            Event::Begin(_) | Event::Commit(_) | Event::Abort(_) => continue,
        }
        if let Some(p) = prev {
            g.add_edge_dedup(
                UsgNode::Action(ti, p),
                UsgNode::Action(ti, ix),
                UsgEdge::Order,
            );
        } else {
            g.add_node(UsgNode::Action(ti, ix));
        }
        prev = Some(ix);
    }

    let mut laid_out = 0;
    for c in conflicts {
        laid_out += 1;
        match (c.from == ti, c.to == ti) {
            (false, false) => {
                g.add_edge_dedup(
                    UsgNode::Txn(c.from),
                    UsgNode::Txn(c.to),
                    UsgEdge::Dep(c.kind),
                );
            }
            (true, false) => {
                // Edge out of ti: attach at the responsible action.
                let nodes: Vec<UsgNode> = match c.kind {
                    DepKind::ItemAntiDep => {
                        // ti read some version that c.to overwrote; the
                        // conflict records the overwriting version —
                        // attach at every read of that object.
                        let obj = c.object.expect("item conflicts carry objects");
                        reads_at
                            .iter()
                            .filter(|((o, _), _)| *o == obj)
                            .flat_map(|(_, ixs)| ixs.iter().copied())
                            .map(|ix| UsgNode::Action(ti, ix))
                            .collect()
                    }
                    DepKind::PredAntiDep => pred_reads
                        .iter()
                        .map(|&ix| UsgNode::Action(ti, ix))
                        .collect(),
                    _ => {
                        // ww / wr out of ti: rooted at its writes.
                        let obj = c.object.expect("carries object");
                        last_write_of
                            .get(&obj)
                            .map(|&ix| UsgNode::Action(ti, ix))
                            .into_iter()
                            .collect()
                    }
                };
                let label = if c.kind.is_anti() {
                    UsgEdge::ReadAnti
                } else {
                    UsgEdge::Dep(c.kind)
                };
                for n in nodes {
                    g.add_edge_dedup(n, UsgNode::Txn(c.to), label);
                }
            }
            (false, true) => {
                // Edge into ti: reads attach at read events, writes at
                // ti's write of the object.
                let nodes: Vec<UsgNode> = match c.kind {
                    DepKind::ItemReadDep => {
                        let obj = c.object.expect("carries object");
                        let ver = c.version.expect("read deps carry versions");
                        reads_at
                            .get(&(obj, ver))
                            .map(|ixs| ixs.iter().map(|&ix| UsgNode::Action(ti, ix)).collect())
                            .unwrap_or_default()
                    }
                    DepKind::PredReadDep => pred_reads
                        .iter()
                        .map(|&ix| UsgNode::Action(ti, ix))
                        .collect(),
                    _ => {
                        let obj = c.object.expect("carries object");
                        last_write_of
                            .get(&obj)
                            .map(|&ix| UsgNode::Action(ti, ix))
                            .into_iter()
                            .collect()
                    }
                };
                for n in nodes {
                    g.add_edge_dedup(UsgNode::Txn(c.from), n, UsgEdge::Dep(c.kind));
                }
            }
            (true, true) => unreachable!("no self-conflicts"),
        }
    }
    search_visits().add(laid_out);

    g.find_cycle_exactly_one(
        |l| *l == UsgEdge::ReadAnti,
        |l| matches!(l, UsgEdge::Dep(k) if !k.is_anti()) || *l == UsgEdge::Order,
    )
    .map(|c| {
        // Re-label into display strings for the public witness type.
        let edges = c.edges().iter().map(|e| CycleEdge {
            from: e.from,
            to: e.to,
            label: e.label.to_string(),
        });
        Cycle::from_edges(edges.collect())
    })
}

/// G-monotonic — *Monotonic Atomic View* violations: for some
/// committed transaction, USG(H, Ti) has a cycle with exactly one
/// anti-dependency edge rooted at one of Ti's read nodes.
///
/// Folding Ti's actions back into Ti turns such a cycle into a closed
/// DSG walk through Ti — the anti-dependency out of Ti, dependencies
/// back — so Ti sits in a DSG component of two or more transactions
/// and every edge of the cycle joins two of its members. Only those
/// transactions are unfolded, each over its component's conflicts
/// (bucketed once): a history whose DSG is acyclic costs its
/// transactions and nothing more. The witness is the one unfolding
/// every conflict would give: Ti's action nodes come first either way,
/// so the anti-dependencies are tried in the same order, and a node
/// outside the component never discovers one inside, so the search
/// back takes the same path.
pub fn g_monotonic(h: &History, dsg: &Dsg) -> Option<(TxnId, Cycle<UsgNode, String>)> {
    let (g, components) = (dsg.graph(), dsg.components());
    let sizes = dsg.component_sizes();
    // `(txn, component)` of every transaction in a cyclic component,
    // by id (the DSG's node order).
    let cyclic: Vec<(TxnId, u32)> = g
        .node_indices()
        .map(|n| (*g.node(n), components[n.index()]))
        .filter(|&(_, c)| sizes[c as usize] > 1)
        .collect();
    if cyclic.is_empty() {
        return None;
    }
    let component_of = |t: TxnId| {
        let at = cyclic.binary_search_by_key(&t, |&(t, _)| t).ok()?;
        Some(cyclic[at].1)
    };
    // Each conflict inside a cyclic component with its component, in
    // conflict order within a component.
    let mut inside: Vec<(u32, &Conflict)> = Vec::new();
    for c in dsg.conflicts() {
        if let (Some(a), Some(b)) = (component_of(c.from), component_of(c.to)) {
            if a == b {
                inside.push((a, c));
            }
        }
    }
    inside.sort_by_key(|&(k, _)| k);
    cyclic.iter().find_map(|&(ti, k)| {
        let from = inside.partition_point(|&(j, _)| j < k);
        let to = inside.partition_point(|&(j, _)| j <= k);
        let conflicts = inside[from..to].iter().map(|&(_, c)| c);
        g_monotonic_for(h, conflicts, ti).map(|cycle| (ti, cycle))
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use adya_history::parse_history;

    /// The search before it was gated: every committed transaction
    /// unfolded over every conflict — the reference the gated search
    /// must agree with, witness for witness.
    pub(crate) fn ungated(h: &History, dsg: &Dsg) -> Option<(TxnId, Cycle<UsgNode, String>)> {
        h.committed_txns()
            .find_map(|ti| g_monotonic_for(h, dsg.conflicts(), ti).map(|c| (ti, c)))
    }

    fn g_monotonic(h: &History) -> Option<(TxnId, Cycle<UsgNode, String>)> {
        let dsg = Dsg::build(h);
        let gated = super::g_monotonic(h, &dsg);
        let show = |w: &Option<(TxnId, Cycle<UsgNode, String>)>| {
            w.as_ref().map(|(t, c)| format!("{t}: {c}"))
        };
        assert_eq!(show(&gated), show(&ungated(h, &dsg)));
        gated
    }

    #[test]
    fn non_monotonic_read_detected() {
        // T2 reads T1's new x, then the OLD y — it saw part of T1's
        // effects and then a pre-T1 state.
        let h = parse_history("r1(xinit,5) w1(x,1) r1(yinit,5) w1(y,9) c1 r2(x1,1) r2(yinit,5) c2")
            .unwrap();
        let (t, cyc) = g_monotonic(&h).expect("G-monotonic");
        assert_eq!(t, adya_history::TxnId(2));
        assert_eq!(cyc.count_labels(|l| l == "rw*"), 1);
    }

    #[test]
    fn a_cycle_that_leaves_through_a_write_and_comes_back() {
        // T2 reads T3's y, then the initial z that T4 overwrites, then
        // T4's u, then writes v, which T3 reads. The only way back from
        // T4 enters T2 after its stale read, so it leaves again through
        // the write of v and re-enters at the read of T3's y.
        let h = parse_history(
            "w3(y,1) r2(y3) r2(zinit) w4(z,1) w4(u,1) c4 r2(u4) w2(v,1) c2 r3(v2) c3",
        )
        .unwrap();
        let (t, cyc) = g_monotonic(&h).expect("G-monotonic");
        assert_eq!(t, TxnId(2));
        assert_eq!(
            cyc.to_string(),
            "T2@2 -[rw*]-> T4 -[wr]-> T2@6 -[order]-> T2@7 -[wr]-> T3 -[wr]-> T2@1 \
             -[order]-> T2@2"
        );
    }

    #[test]
    fn an_anti_dependency_out_of_the_component_comes_first() {
        // T1's first read is overwritten by T5, which nothing leads back
        // from; its last one by T3, whose x it read in between.
        let h =
            parse_history("w3(x,1) w3(y,1) c3 r1(winit) r1(x3) r1(yinit) c1 w5(w,1) c5").unwrap();
        let dsg = Dsg::build(&h);
        let sizes = dsg.component_sizes();
        assert_eq!(sizes.iter().filter(|&&s| s > 1).count(), 1, "T5 is alone");
        let (t, cyc) = g_monotonic(&h).expect("G-monotonic");
        assert_eq!(t, TxnId(1));
        assert_eq!(
            cyc.to_string(),
            "T1@5 -[rw*]-> T3 -[wr]-> T1@4 -[order]-> T1@5"
        );
    }

    #[test]
    fn other_order_is_monotonic() {
        // Old y first, then T1's new x: reads only ever move forward.
        let h = parse_history("r1(xinit,5) w1(x,1) r1(yinit,5) w1(y,9) c1 r2(yinit,5) r2(x1,1) c2")
            .unwrap();
        assert!(g_monotonic(&h).is_none(), "H1-style history is MAV");
    }

    #[test]
    fn clean_serial_history_is_monotonic() {
        let h = parse_history("w1(x,1) c1 r2(x1) w2(x,2) c2").unwrap();
        assert!(g_monotonic(&h).is_none());
    }

    #[test]
    fn write_skew_is_monotonic() {
        let h =
            parse_history("r1(xinit,5) r1(yinit,5) r2(xinit,5) r2(yinit,5) w1(x,1) w2(y,1) c1 c2")
                .unwrap();
        assert!(g_monotonic(&h).is_none(), "write skew reads a snapshot");
    }
}
