//! Mixed-level histories: the Mixed Serialization Graph and
//! mixing-correctness (§5.5, Definition 9 and the Mixing Theorem).

use std::fmt;

use adya_graph::{Cycle, DiGraph};
use adya_history::{History, RequestedLevel, TxnId};

use crate::conflicts::{Conflict, DepKind};
use crate::phenomena::{g1a_where, g1b_where, Phenomenon};

/// The Mixed Serialization Graph: nodes are committed transactions,
/// and a direct conflict becomes an edge only when it is **relevant**
/// at the level of the transaction it guards (§5.5):
///
/// * write-dependencies matter at every level — always edges;
/// * read-dependencies matter to readers at PL-2 and above — edges
///   into such nodes;
/// * anti-dependencies matter to readers at PL-3 — edges out of PL-3
///   nodes; *item* anti-dependencies already matter at PL-2.99 —
///   edges out of PL-2.99 nodes too.
///
/// These are exactly the paper's obligatory conflicts: a lower-level
/// writer that overwrites a PL-3 reader's data still gets the edge,
/// because the conflict is relevant at the (higher) reader's level.
#[derive(Debug, Clone)]
pub struct Msg {
    graph: DiGraph<TxnId, DepKind>,
}

impl Msg {
    /// Builds the MSG of `h` from its [`crate::Dsg::conflicts`] and the
    /// per-transaction requested levels recorded in the history.
    pub fn build(h: &History, conflicts: &[Conflict]) -> Msg {
        let mut graph = DiGraph::with_capacity(h.committed_txns().count());
        for t in h.committed_txns() {
            graph.add_node(t);
        }
        for c in conflicts {
            let relevant = match c.kind {
                DepKind::WriteDep => true,
                DepKind::ItemReadDep | DepKind::PredReadDep => h.level(c.to) >= RequestedLevel::PL2,
                DepKind::ItemAntiDep => h.level(c.from) >= RequestedLevel::PL299,
                DepKind::PredAntiDep => h.level(c.from) >= RequestedLevel::PL3,
                DepKind::StartDep => false,
            };
            if relevant {
                graph.add_edge_dedup(c.from, c.to, c.kind);
            }
        }
        Msg { graph }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph<TxnId, DepKind> {
        &self.graph
    }

    /// Any cycle in the MSG.
    pub fn cycle(&self) -> Option<Cycle<TxnId, DepKind>> {
        self.graph.find_cycle(|_| true, |_| true)
    }

    /// Graphviz DOT rendering.
    pub fn to_dot(&self, name: &str) -> String {
        self.graph.to_dot(name)
    }
}

/// The outcome of Definition 9 on a history.
#[derive(Debug, Clone)]
pub struct MixingReport {
    /// A cycle in the MSG, if any.
    pub msg_cycle: Option<Cycle<TxnId, DepKind>>,
    /// G1a/G1b occurrences whose reader runs at PL-2 or above.
    pub g1_violations: Vec<Phenomenon>,
}

impl MixingReport {
    /// [`check_mixing`](crate::check_mixing), given `h`'s direct
    /// `conflicts`.
    pub(crate) fn of(h: &History, conflicts: &[Conflict]) -> MixingReport {
        // Detect G1a/G1b among PL-2+ readers only: a PL-1 reader's
        // dirty read is permitted and must not mask a later high-level
        // reader's violation.
        let high = |t| h.level(t) >= RequestedLevel::PL2;
        MixingReport {
            msg_cycle: Msg::build(h, conflicts).cycle(),
            g1_violations: [g1a_where(h, high), g1b_where(h, high)]
                .into_iter()
                .flatten()
                .collect(),
        }
    }

    /// True if the history is mixing-correct: the MSG is acyclic and
    /// G1a/G1b do not occur for PL-2 and PL-3 transactions.
    pub fn is_correct(&self) -> bool {
        self.msg_cycle.is_none() && self.g1_violations.is_empty()
    }
}

impl fmt::Display for MixingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_correct() {
            return write!(f, "mixing-correct");
        }
        write!(f, "not mixing-correct:")?;
        if let Some(c) = &self.msg_cycle {
            write!(f, " MSG cycle {c};")?;
        }
        for v in &self.g1_violations {
            write!(f, " [{v}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_mixing;
    use adya_history::{HistoryBuilder, Value};

    /// Read skew where the reader runs at PL-2 only: the
    /// anti-dependency out of the PL-2 reader is not an MSG edge, so
    /// the mix is correct.
    #[test]
    fn low_level_reader_relaxes_the_graph() {
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        b.txn_level(t2, RequestedLevel::PL2);
        let x = b.preloaded_object("x", Value::Int(5));
        let y = b.preloaded_object("y", Value::Int(5));
        b.read_init(t2, x);
        b.read_init(t1, x);
        b.write(t1, x, Value::Int(1));
        b.read_init(t1, y);
        b.write(t1, y, Value::Int(9));
        b.commit(t1);
        b.read(t2, y, t1);
        b.commit(t2);
        let h = b.build().unwrap();
        let rep = check_mixing(&h);
        assert!(rep.is_correct(), "{rep}");
    }

    /// The same history with the reader at PL-3 is not mixing-correct:
    /// the anti-dependency edge is obligatory and closes a cycle.
    #[test]
    fn pl3_reader_makes_read_skew_incorrect() {
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        b.txn_level(t2, RequestedLevel::PL3);
        let x = b.preloaded_object("x", Value::Int(5));
        let y = b.preloaded_object("y", Value::Int(5));
        b.read_init(t2, x);
        b.read_init(t1, x);
        b.write(t1, x, Value::Int(1));
        b.read_init(t1, y);
        b.write(t1, y, Value::Int(9));
        b.commit(t1);
        b.read(t2, y, t1);
        b.commit(t2);
        let h = b.build().unwrap();
        let rep = check_mixing(&h);
        assert!(!rep.is_correct());
        assert!(rep.msg_cycle.is_some());
    }

    /// A PL-1 transaction's dirty read does not break the mix; a PL-2
    /// transaction's dirty (aborted) read does.
    #[test]
    fn g1_checked_only_for_high_level_readers() {
        // PL-1 reader of an aborted write: fine.
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        b.txn_level(t2, RequestedLevel::PL1);
        let x = b.object("x");
        b.write(t1, x, Value::Int(1));
        b.read(t2, x, t1);
        b.abort(t1);
        b.commit(t2);
        let h = b.build().unwrap();
        assert!(check_mixing(&h).is_correct());

        // Same, reader at PL-2: G1a violation.
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        b.txn_level(t2, RequestedLevel::PL2);
        let x = b.object("x");
        b.write(t1, x, Value::Int(1));
        b.read(t2, x, t1);
        b.abort(t1);
        b.commit(t2);
        let h = b.build().unwrap();
        let rep = check_mixing(&h);
        assert!(!rep.is_correct());
        assert_eq!(rep.g1_violations.len(), 1);
    }

    /// Regression: an early PL-1 dirty read must not mask a later
    /// PL-3 dirty read (the detector used to return only the first
    /// occurrence over all readers).
    #[test]
    fn low_level_dirty_read_does_not_mask_high_level_one() {
        let mut b = HistoryBuilder::new();
        let (t1, t2, t3) = (b.txn(1), b.txn(2), b.txn(3));
        b.txn_level(t2, RequestedLevel::PL1); // reads dirty first
        b.txn_level(t3, RequestedLevel::PL3); // reads dirty later
        let x = b.object("x");
        b.write(t1, x, Value::Int(1));
        b.read(t2, x, t1); // PL-1 reader: allowed
        b.commit(t2);
        b.read(t3, x, t1); // PL-3 reader of soon-aborted data
        b.abort(t1);
        b.commit(t3);
        let h = b.build().unwrap();
        let rep = check_mixing(&h);
        assert!(!rep.is_correct(), "PL-3 G1a must be detected: {rep}");
    }

    /// Write-dependencies are edges regardless of level: a G0 cycle
    /// between two PL-1 transactions is never mixing-correct.
    #[test]
    fn write_cycle_breaks_any_mix() {
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        b.txn_level(t1, RequestedLevel::PL1);
        b.txn_level(t2, RequestedLevel::PL1);
        let x = b.object("x");
        let y = b.object("y");
        b.write(t1, x, Value::Int(2));
        b.write(t2, x, Value::Int(5));
        b.write(t2, y, Value::Int(5));
        b.commit(t2);
        b.write(t1, y, Value::Int(8));
        b.commit(t1);
        b.version_order_by_txn(x, &[t1, t2]);
        b.version_order_by_txn(y, &[t2, t1]);
        let h = b.build().unwrap();
        assert!(!check_mixing(&h).is_correct());
    }

    /// An all-PL-3 history: mixing-correctness coincides with PL-3
    /// acceptance (the MSG equals the DSG).
    #[test]
    fn all_pl3_msg_equals_dsg() {
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        let x = b.preloaded_object("x", Value::Int(5));
        b.read_init(t1, x);
        b.write(t2, x, Value::Int(9));
        b.commit(t2);
        b.commit(t1);
        let h = b.build().unwrap();
        let dsg = crate::Dsg::build(&h);
        let msg = Msg::build(&h, dsg.conflicts());
        assert_eq!(msg.graph().edge_count(), dsg.graph().edge_count());
    }

    #[test]
    fn report_display() {
        let mut b = HistoryBuilder::new();
        let t1 = b.txn(1);
        b.commit(t1);
        let h = b.build().unwrap();
        assert_eq!(check_mixing(&h).to_string(), "mixing-correct");
    }
}
