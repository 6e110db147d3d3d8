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

use adya_graph::{Cycle, DiGraph};
use adya_history::{Event, History, ObjectId, TxnId, VersionId};

use crate::conflicts::{Conflict, DepKind};

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

/// Builds USG(H, ti) and searches for a G-monotonic cycle: exactly one
/// anti-dependency edge, from one of ti's read nodes, the rest
/// dependency/order edges.
fn g_monotonic_for(
    h: &History,
    conflicts: &[Conflict],
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

    for c in conflicts.iter().cloned() {
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

    g.find_cycle_exactly_one(
        |l| *l == UsgEdge::ReadAnti,
        |l| matches!(l, UsgEdge::Dep(k) if !k.is_anti()) || *l == UsgEdge::Order,
    )
    .map(|c| {
        // Re-label into display strings for the public witness type.
        let mut out: DiGraph<UsgNode, String> = DiGraph::new();
        for e in c.edges() {
            out.add_edge(e.from, e.to, e.label.to_string());
        }
        out.find_cycle(|_| true, |_| true)
            .expect("relabelled cycle persists")
    })
}

/// G-monotonic — *Monotonic Atomic View* violations: for some
/// committed transaction, USG(H, Ti) has a cycle with exactly one
/// anti-dependency edge rooted at one of Ti's read nodes.
///
/// `conflicts` are `h`'s ([`crate::Dsg::conflicts`]). Every unfolding
/// lays all of them out as a graph: a clean history costs committed
/// transactions × conflicts.
pub fn g_monotonic(h: &History, conflicts: &[Conflict]) -> Option<(TxnId, Cycle<UsgNode, String>)> {
    h.committed_txns()
        .find_map(|ti| g_monotonic_for(h, conflicts, ti).map(|c| (ti, c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_history::parse_history;

    fn g_monotonic(h: &History) -> Option<(TxnId, Cycle<UsgNode, String>)> {
        super::g_monotonic(h, crate::Dsg::build(h).conflicts())
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
