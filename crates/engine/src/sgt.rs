//! A serialization-graph-testing certifier.
//!
//! This engine is the most direct executable reading of the paper: it
//! tracks (a conservative superset of) the paper's own conflict edges
//! *online* — write-dependencies, read-dependencies and
//! anti-dependencies — and aborts a transaction the moment one of its
//! operations would close a cycle proscribed at the engine's
//! certification level. Reads are allowed to observe **uncommitted**
//! tips (the mobile / disconnected-operation scenario of §3), with
//! commit-ordering obligations enforced instead:
//!
//! * a transaction that read from an uncommitted writer cannot commit
//!   until the writer commits (no G1a/G1b for committed transactions);
//! * if the writer aborts, the reader is cascaded.
//!
//! The result is an engine that violates P0, P1 and P2 routinely while
//! every history it commits passes the corresponding PL level — the
//! mechanical witness for the paper's permissiveness claim.

use std::collections::{HashMap, HashSet};

use adya_graph::DiGraph;

use adya_history::{History, RequestedLevel, TxnId, Value, VersionId};
use parking_lot::Mutex;

use crate::engine::Engine;
use crate::recorder::Recorder;
use crate::store::{InPlace, RowChain, Store, StoredVersion, Txns};
use crate::types::{AbortReason, Catalog, EngineError, Key, OpResult, TableId, TablePred};

/// Which cycles the certifier proscribes — the engine's isolation
/// level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertifyLevel {
    /// Abort only on write-dependency cycles (G0) ⇒ PL-1. Dirty reads
    /// commit freely.
    PL1,
    /// Additionally proscribe dependency cycles (G1c) and enforce the
    /// commit-ordering obligations (no G1a/G1b) ⇒ PL-2.
    PL2,
    /// Proscribe every cycle ⇒ PL-3 (conflict-serializability).
    PL3,
}

impl CertifyLevel {
    fn to_requested(self) -> RequestedLevel {
        match self {
            CertifyLevel::PL1 => RequestedLevel::PL1,
            CertifyLevel::PL2 => RequestedLevel::PL2,
            CertifyLevel::PL3 => RequestedLevel::PL3,
        }
    }
}

/// Edge kinds of the online conflict graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dep {
    Ww,
    Wr,
    Rw,
}

#[derive(Default)]
struct TxnState {
    /// Writers this transaction read uncommitted data from.
    read_from: HashSet<TxnId>,
    writes: InPlace,
    /// Readers that consumed this transaction's uncommitted writes
    /// (for cascading aborts).
    readers_of_mine: HashSet<TxnId>,
}

struct Inner {
    store: Store,
    txns: Txns<TxnState>,
    graph: DiGraph<TxnId, Dep>,
    /// Readers per chain: (reader, version read).
    chain_readers: HashMap<usize, Vec<(TxnId, VersionId)>>,
    /// Predicate readers per table (phantom-conservative).
    table_readers: HashMap<TableId, Vec<TxnId>>,
}

/// The SGT certifier engine.
pub struct SgtEngine {
    catalog: Catalog,
    recorder: Recorder,
    level: CertifyLevel,
    inner: Mutex<Inner>,
}

/// The version a read by `txn` selects: its own latest write, else
/// the tip — committed or not.
fn selected(chain: &RowChain, txn: TxnId) -> Option<&StoredVersion> {
    chain.own_latest(txn).or_else(|| chain.tip())
}

impl SgtEngine {
    /// Creates a certifier at the given level.
    pub fn new(level: CertifyLevel) -> SgtEngine {
        SgtEngine {
            catalog: Catalog::new(),
            recorder: Recorder::new(),
            level,
            inner: Mutex::new(Inner {
                store: Store::new(),
                txns: Txns::new(),
                graph: DiGraph::new(),
                chain_readers: HashMap::new(),
                table_readers: HashMap::new(),
            }),
        }
    }

    /// True if a proscribed cycle *through `txn`* exists in the
    /// conflict graph restricted to non-aborted nodes.
    ///
    /// Every edge the engine adds is incident to the operating
    /// transaction, so any newly-created cycle passes through it; a
    /// DFS from `txn` back to itself is therefore a complete check and
    /// avoids rebuilding the (ever-growing) graph per operation.
    fn on_proscribed_cycle(inner: &Inner, txn: TxnId, level: CertifyLevel) -> bool {
        let edge_ok = |k: &Dep| match level {
            CertifyLevel::PL1 => *k == Dep::Ww,
            CertifyLevel::PL2 => *k != Dep::Rw,
            CertifyLevel::PL3 => true,
        };
        let alive = |t: &TxnId| !inner.txns.is_aborted(*t);
        if !alive(&txn) {
            return false;
        }
        let mut stack: Vec<TxnId> = Vec::new();
        let mut seen: HashSet<TxnId> = HashSet::new();
        for e in inner.graph.edges_from(&txn) {
            if edge_ok(e.label) && alive(e.to) && seen.insert(*e.to) {
                stack.push(*e.to);
            }
        }
        while let Some(v) = stack.pop() {
            if v == txn {
                return true;
            }
            for e in inner.graph.edges_from(&v) {
                if !edge_ok(e.label) || !alive(e.to) {
                    continue;
                }
                if *e.to == txn {
                    return true;
                }
                if seen.insert(*e.to) {
                    stack.push(*e.to);
                }
            }
        }
        false
    }

    /// Aborts `txn`, if it is still running, and cascades to its dirty
    /// readers (at PL-2+).
    fn do_abort(&self, inner: &mut Inner, txn: TxnId, reason: AbortReason) {
        if !inner.txns.is_active(txn) {
            return;
        }
        let state = inner.txns.state(txn);
        state.writes.undo(&mut inner.store, txn);
        // Cascade in TxnId order: the recorded abort sequence must be a
        // pure function of the schedule, not of hash iteration order.
        let mut readers: Vec<TxnId> = state.readers_of_mine.iter().copied().collect();
        readers.sort_unstable();
        inner.txns.abort(&self.recorder, txn, reason);
        if self.level != CertifyLevel::PL1 {
            for r in readers {
                self.do_abort(inner, r, AbortReason::CascadedAbort);
            }
        }
    }

    /// `txn` read a version `writer` wrote: a read-dependency, and —
    /// while the writer is uncommitted — a commit-ordering obligation.
    fn read_from(inner: &mut Inner, txn: TxnId, writer: TxnId, committed: bool) {
        inner.graph.add_edge_dedup(writer, txn, Dep::Wr);
        if !committed {
            inner.txns.state_mut(txn).read_from.insert(writer);
            inner.txns.state_mut(writer).readers_of_mine.insert(txn);
        }
    }

    /// Adds the conservative conflict edges for a write by `txn` to
    /// `chain_ix`, then certifies; aborts `txn` on a proscribed cycle.
    fn edges_for_write(&self, inner: &mut Inner, txn: TxnId, chain_ix: usize) -> OpResult<()> {
        // ww from every earlier writer in the chain (a superset of the
        // true version-order adjacency, sound under aborts).
        let writers: Vec<TxnId> = inner.store.chains[chain_ix]
            .versions
            .iter()
            .map(|v| v.writer)
            .filter(|&w| w != txn)
            .collect();
        for w in writers {
            inner.graph.add_edge_dedup(w, txn, Dep::Ww);
        }
        // rw from every earlier reader of the chain.
        let readers: Vec<(TxnId, VersionId)> = inner
            .chain_readers
            .get(&chain_ix)
            .map(|v| v.iter().copied().filter(|&(r, _)| r != txn).collect())
            .unwrap_or_default();
        for &(r, _) in &readers {
            inner.graph.add_edge_dedup(r, txn, Dep::Rw);
        }
        // This write may have turned the writer's *own earlier*
        // version into an intermediate one; any other transaction that
        // read it is now headed for G1b and must be cascaded (PL-2+).
        if self.level != CertifyLevel::PL1 {
            let new_seq = inner.store.chains[chain_ix]
                .own_latest(txn)
                .map(|v| v.seq)
                .unwrap_or(1);
            for (r, vid) in readers {
                if vid.txn == txn && vid.seq < new_seq {
                    self.do_abort(inner, r, AbortReason::CascadedAbort);
                }
            }
        }
        // rw from predicate readers of the table (phantom edges).
        let table = inner.store.chains[chain_ix].table;
        let preaders: Vec<TxnId> = inner
            .table_readers
            .get(&table)
            .map(|v| v.iter().copied().filter(|&r| r != txn).collect())
            .unwrap_or_default();
        for r in preaders {
            inner.graph.add_edge_dedup(r, txn, Dep::Rw);
        }
        self.certify(inner, txn)
    }

    fn certify(&self, inner: &mut Inner, txn: TxnId) -> OpResult<()> {
        if Self::on_proscribed_cycle(inner, txn, self.level) {
            adya_obs::counter!("engine.sgt.cycle_abort").inc();
            self.do_abort(inner, txn, AbortReason::CycleDetected);
            return Err(EngineError::Aborted(AbortReason::CycleDetected));
        }
        Ok(())
    }
}

impl Engine for SgtEngine {
    fn name(&self) -> String {
        format!("SGT-{:?}", self.level)
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    fn begin(&self) -> TxnId {
        let mut inner = self.inner.lock();
        let level = self.level.to_requested();
        let t = inner.txns.begin(&self.recorder, level, TxnState::default());
        inner.graph.add_node(t);
        t
    }

    fn read(&self, txn: TxnId, table: TableId, key: Key) -> OpResult<Option<Value>> {
        let inner = &mut *self.inner.lock();
        let rec = &self.recorder;
        inner.txns.enter(self, txn, table)?;
        let Some(chain_ix) = inner.store.chain_index(table, key) else {
            return Ok(None);
        };
        let chain = &inner.store.chains[chain_ix];
        let Some(v) = selected(chain, txn) else {
            return Ok(None);
        };
        let Some(value) = v.value.clone() else {
            return Ok(None); // dead tip: row absent
        };
        let (writer, vid, committed) = (v.writer, v.version_id(), v.committed);
        rec.read(txn, chain.object, vid);
        inner
            .chain_readers
            .entry(chain_ix)
            .or_default()
            .push((txn, vid));
        if writer != txn {
            Self::read_from(inner, txn, writer, committed);
            self.certify(inner, txn)?;
        }
        Ok(Some(value))
    }

    fn write(&self, txn: TxnId, table: TableId, key: Key, value: Value) -> OpResult<()> {
        let inner = &mut *self.inner.lock();
        let rec = &self.recorder;
        inner.txns.enter(self, txn, table)?;
        let writes = &mut inner.txns.state_mut(txn).writes;
        let chain_ix = writes
            .write(&mut inner.store, rec, txn, table, key, Some(value))
            .expect("only a delete can be a no-op");
        self.edges_for_write(inner, txn, chain_ix)
    }

    fn delete(&self, txn: TxnId, table: TableId, key: Key) -> OpResult<()> {
        let inner = &mut *self.inner.lock();
        let rec = &self.recorder;
        inner.txns.enter(self, txn, table)?;
        // The dead version goes onto the chain of the version it
        // kills, not through `Store::write`: behind another
        // transaction's uncommitted delete that rule starts a fresh
        // incarnation, and the two deleters would share no object.
        // On one chain their ww edges close a cycle, and
        // certification aborts one of them.
        let Some(chain_ix) = inner.store.chain_index(table, key) else {
            return Ok(());
        };
        if selected(&inner.store.chains[chain_ix], txn).is_none_or(|v| v.is_dead()) {
            return Ok(());
        }
        let writes = &mut inner.txns.state_mut(txn).writes;
        writes.push(&mut inner.store, rec, txn, chain_ix, None);
        self.edges_for_write(inner, txn, chain_ix)
    }

    fn select(&self, txn: TxnId, pred: &TablePred) -> OpResult<Vec<(Key, Value)>> {
        let inner = &mut *self.inner.lock();
        let rec = &self.recorder;
        inner.txns.enter(self, txn, pred.table)?;
        // Every selected version is read: (chain, version, committed).
        let mut read = Vec::new();
        let rows = inner
            .store
            .scan(pred, |ix, chain| {
                let v = selected(chain, txn)?;
                read.push((ix, v.version_id(), v.committed));
                Some(v)
            })
            .record(rec, txn, pred);
        for &(ix, vid, _) in &read {
            inner.chain_readers.entry(ix).or_default().push((txn, vid));
        }
        inner.table_readers.entry(pred.table).or_default().push(txn);
        for (_, vid, committed) in read {
            if vid.txn != txn {
                Self::read_from(inner, txn, vid.txn, committed);
            }
        }
        self.certify(inner, txn)?;
        Ok(rows)
    }

    fn commit(&self, txn: TxnId) -> OpResult<()> {
        let inner = &mut *self.inner.lock();
        let state = inner.txns.check_active(txn)?;
        if self.level != CertifyLevel::PL1 {
            // Commit-ordering obligations: wait for dirty-read sources.
            if state.read_from.iter().any(|&w| inner.txns.is_aborted(w)) {
                adya_obs::counter!("engine.sgt.cascade_abort").inc();
                self.do_abort(inner, txn, AbortReason::CascadedAbort);
                return Err(EngineError::Aborted(AbortReason::CascadedAbort));
            }
            let mut holders: Vec<TxnId> = state.read_from.iter().copied().collect();
            holders.retain(|&w| inner.txns.is_active(w));
            if !holders.is_empty() {
                holders.sort_unstable();
                return Err(EngineError::Blocked { holders });
            }
        }
        // Final certification.
        self.certify(inner, txn)?;
        inner.txns.state(txn).writes.commit(&mut inner.store, txn);
        inner.txns.commit(&self.recorder, txn);
        Ok(())
    }

    fn abort(&self, txn: TxnId) -> OpResult<()> {
        let inner = &mut *self.inner.lock();
        if inner.txns.unresolved(txn)? {
            self.do_abort(inner, txn, AbortReason::Requested);
        }
        Ok(())
    }

    fn finalize(&self) -> History {
        self.inner.lock().store.finalize(&self.recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(level: CertifyLevel) -> (SgtEngine, TableId) {
        let e = SgtEngine::new(level);
        let t = e.catalog().table("acct");
        (e, t)
    }

    #[test]
    fn h1_prime_scenario_commits() {
        // T2 reads T1's uncommitted writes of x and y; both commit in
        // order. Forbidden by P1; accepted here and PL-3 valid.
        let (e, tbl) = setup(CertifyLevel::PL3);
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(5)).unwrap();
        e.write(t0, tbl, Key(2), Value::Int(5)).unwrap();
        e.commit(t0).unwrap();
        let t1 = e.begin();
        e.read(t1, tbl, Key(1)).unwrap();
        e.write(t1, tbl, Key(1), Value::Int(1)).unwrap();
        e.read(t1, tbl, Key(2)).unwrap();
        e.write(t1, tbl, Key(2), Value::Int(9)).unwrap();
        let t2 = e.begin();
        // Dirty reads of both of T1's writes.
        assert_eq!(e.read(t2, tbl, Key(1)).unwrap(), Some(Value::Int(1)));
        assert_eq!(e.read(t2, tbl, Key(2)).unwrap(), Some(Value::Int(9)));
        // T2 cannot commit before T1 (commit ordering).
        assert!(matches!(
            e.commit(t2),
            Err(EngineError::Blocked { ref holders }) if holders == &[t1]
        ));
        e.commit(t1).unwrap();
        e.commit(t2).unwrap();
    }

    #[test]
    fn cascaded_abort_on_dirty_read() {
        let (e, tbl) = setup(CertifyLevel::PL3);
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(1)).unwrap();
        let t2 = e.begin();
        e.read(t2, tbl, Key(1)).unwrap();
        e.abort(t1).unwrap();
        // T2 went with T1, and every later operation on it says why —
        // not "cycle": there was none.
        let cascaded = EngineError::Aborted(AbortReason::CascadedAbort);
        assert_eq!(e.read(t2, tbl, Key(2)), Err(cascaded.clone()));
        assert_eq!(e.commit(t2), Err(cascaded));
        let h = e.finalize();
        assert_eq!(h.committed_txns().count(), 0);
    }

    #[test]
    fn read_skew_cycle_aborts_at_pl3() {
        // T2 reads old x, T1 updates x and y, T2 then reads new y:
        // the rw + wr cycle must abort someone.
        let (e, tbl) = setup(CertifyLevel::PL3);
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(5)).unwrap();
        e.write(t0, tbl, Key(2), Value::Int(5)).unwrap();
        e.commit(t0).unwrap();
        let t2 = e.begin();
        e.read(t2, tbl, Key(1)).unwrap();
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(1)).unwrap();
        e.write(t1, tbl, Key(2), Value::Int(9)).unwrap();
        e.commit(t1).unwrap();
        // T2 now reads the new y: closes T1 -wr-> T2 -rw-> T1.
        let r = e.read(t2, tbl, Key(2));
        assert!(matches!(r, Err(EngineError::Aborted(_))), "{r:?}");
    }

    #[test]
    fn pl1_allows_dirty_reads_to_commit() {
        let (e, tbl) = setup(CertifyLevel::PL1);
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(1)).unwrap();
        let t2 = e.begin();
        e.read(t2, tbl, Key(1)).unwrap();
        // At PL-1 the reader may commit before the writer.
        e.commit(t2).unwrap();
        e.abort(t1).unwrap(); // G1a in the history — allowed at PL-1
        let h = e.finalize();
        assert_eq!(h.committed_txns().count(), 1);
    }

    #[test]
    fn write_cycle_aborts_even_at_pl1() {
        let (e, tbl) = setup(CertifyLevel::PL1);
        let t1 = e.begin();
        let t2 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(1)).unwrap();
        e.write(t2, tbl, Key(1), Value::Int(2)).unwrap(); // ww T1->T2
        e.write(t2, tbl, Key(2), Value::Int(2)).unwrap();
        // T1 writing key 2 closes a ww cycle: abort.
        assert!(matches!(
            e.write(t1, tbl, Key(2), Value::Int(1)),
            Err(EngineError::Aborted(AbortReason::CycleDetected))
        ));
    }

    #[test]
    fn phantom_edge_aborts_serializability_violation() {
        let (e, tbl) = setup(CertifyLevel::PL3);
        let p = TablePred::new("pos", tbl, |v| matches!(v, Value::Int(i) if *i > 0));
        let sums = e.catalog().table("sums");
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(10)).unwrap();
        e.write(t0, sums, Key(0), Value::Int(10)).unwrap();
        e.commit(t0).unwrap();
        // T1 queries the predicate, T2 inserts a matching row and
        // updates the sum, T1 then reads the sum: Hphantom shape.
        let t1 = e.begin();
        e.select(t1, &p).unwrap();
        let t2 = e.begin();
        e.write(t2, tbl, Key(2), Value::Int(10)).unwrap();
        e.write(t2, sums, Key(0), Value::Int(20)).unwrap();
        e.commit(t2).unwrap();
        let r = e.read(t1, sums, Key(0));
        assert!(
            matches!(r, Err(EngineError::Aborted(_))),
            "phantom cycle must abort T1, got {r:?}"
        );
    }

    #[test]
    fn rewrite_after_dirty_read_cascades_reader() {
        // Regression: T2 reads T1's first version of x; T1 writes x
        // again. T2's read is now intermediate (G1b) — T2 must be
        // cascaded instead of committing.
        let (e, tbl) = setup(CertifyLevel::PL2);
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(1)).unwrap();
        let t2 = e.begin();
        assert_eq!(e.read(t2, tbl, Key(1)).unwrap(), Some(Value::Int(1)));
        e.write(t1, tbl, Key(1), Value::Int(2)).unwrap();
        e.commit(t1).unwrap();
        assert!(matches!(e.commit(t2), Err(EngineError::Aborted(_))));
        let h = e.finalize();
        use adya_core::IsolationLevel;
        assert!(adya_core::classify(&h).satisfies(IsolationLevel::PL2));
    }

    #[test]
    fn committed_histories_from_sgt_are_recorded() {
        let (e, tbl) = setup(CertifyLevel::PL3);
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(1)).unwrap();
        e.commit(t1).unwrap();
        let t2 = e.begin();
        e.read(t2, tbl, Key(1)).unwrap();
        e.commit(t2).unwrap();
        let h = e.finalize();
        assert_eq!(h.committed_txns().count(), 2);
    }
}
