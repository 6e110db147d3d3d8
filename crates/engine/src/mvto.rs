//! Multiversion timestamp ordering (MVTO).
//!
//! The scheme that makes §4.2's version-order flexibility *necessary*:
//! versions are ordered by their writers' **begin timestamps**, not by
//! commit order, so a transaction that started earlier but commits
//! later installs its version *before* a faster competitor's — the
//! paper's `H_write_order` (`x2 << x1` despite `c1 < c2`) is this
//! engine's everyday output. A recorder that could only express commit
//! order could not describe these histories at all.
//!
//! Rules (Bernstein–Hadzilacos–Goodman, adapted to the recorder
//! model):
//!
//! * `begin` assigns a monotone timestamp `ts(T)`.
//! * `read(x)` selects the version with the largest writer timestamp
//!   `≤ ts(T)` (uncommitted versions included — readers take a commit
//!   dependency on the writer and cascade if it aborts); the version's
//!   read-timestamp is raised to `ts(T)`.
//! * `write(x)` by `T` is **too late** — abort — if the version it
//!   would supersede has already been read by a transaction younger
//!   than `T` (that reader's view would be invalidated).
//! * `commit` waits (`Blocked`) until every version the transaction
//!   read is committed.

use std::collections::{HashMap, HashSet};

use adya_history::{History, RequestedLevel, TxnId, Value, VersionId};
use parking_lot::Mutex;

use crate::engine::Engine;
use crate::recorder::Recorder;
use crate::store::{committed_order, Scan, Txns};
use crate::types::{AbortReason, Catalog, EngineError, Key, OpResult, TableId, TablePred};

/// One version in timestamp order.
#[derive(Debug, Clone)]
struct TsVersion {
    writer: TxnId,
    /// Writer's begin timestamp (the ordering key).
    wts: u64,
    /// Largest reader timestamp so far.
    rts: u64,
    seq: u32,
    value: Option<Value>,
    committed: bool,
}

impl TsVersion {
    fn version_id(&self) -> VersionId {
        VersionId::new(self.writer, self.seq)
    }
}

/// One object incarnation: versions sorted by `wts` ascending.
#[derive(Debug, Clone)]
struct TsChain {
    object: adya_history::ObjectId,
    versions: Vec<TsVersion>,
}

impl TsChain {
    /// The version a transaction with timestamp `ts` reads: largest
    /// `wts <= ts`.
    fn visible_at(&self, ts: u64) -> Option<&TsVersion> {
        self.versions.iter().rev().find(|v| v.wts <= ts)
    }

    fn visible_at_mut(&mut self, ts: u64) -> Option<&mut TsVersion> {
        self.versions.iter_mut().rev().find(|v| v.wts <= ts)
    }

    /// Inserts keeping `wts` order.
    fn insert(&mut self, v: TsVersion) {
        let pos = self
            .versions
            .iter()
            .position(|x| x.wts > v.wts)
            .unwrap_or(self.versions.len());
        self.versions.insert(pos, v);
    }
}

struct TxnState {
    ts: u64,
    /// Uncommitted writers this transaction read from.
    read_from: HashSet<TxnId>,
    /// Readers of this transaction's uncommitted versions.
    readers_of_mine: HashSet<TxnId>,
    written: HashSet<(TableId, Key)>,
}

struct Inner {
    chains: HashMap<(TableId, Key), TsChain>,
    txns: Txns<TxnState>,
    next_ts: u64,
    /// Largest timestamp that predicate-scanned each table; inserts by
    /// older transactions are "too late" (the phantom guard MVTO needs
    /// on top of per-version read timestamps).
    table_read_ts: HashMap<TableId, u64>,
}

/// The MVTO engine.
pub struct MvtoEngine {
    catalog: Catalog,
    recorder: Recorder,
    inner: Mutex<Inner>,
}

impl Default for MvtoEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl MvtoEngine {
    /// Creates an empty MVTO engine.
    pub fn new() -> MvtoEngine {
        MvtoEngine {
            catalog: Catalog::new(),
            recorder: Recorder::new(),
            inner: Mutex::new(Inner {
                chains: HashMap::new(),
                txns: Txns::new(),
                next_ts: 1,
                table_read_ts: HashMap::new(),
            }),
        }
    }

    /// Aborts `txn`, if it is still running, and cascades to its dirty
    /// readers.
    fn do_abort(&self, inner: &mut Inner, txn: TxnId, reason: AbortReason) {
        if !inner.txns.is_active(txn) {
            return;
        }
        let state = inner.txns.state(txn);
        // Cascade in TxnId order: the recorded abort sequence must be a
        // pure function of the schedule, not of hash iteration order.
        let mut readers: Vec<TxnId> = state.readers_of_mine.iter().copied().collect();
        readers.sort_unstable();
        for key in &state.written {
            if let Some(chain) = inner.chains.get_mut(key) {
                chain.versions.retain(|v| v.writer != txn);
            }
        }
        inner.txns.abort(&self.recorder, txn, reason);
        // Cascade dirty readers.
        for r in readers {
            if inner.txns.is_active(r) {
                adya_obs::counter!("engine.mvto.cascade_abort").inc();
            }
            self.do_abort(inner, r, AbortReason::CascadedAbort);
        }
    }

    /// A write arrived too late in timestamp order to be installed:
    /// `txn` is aborted, and counted.
    fn too_late(&self, inner: &mut Inner, txn: TxnId) -> OpResult<()> {
        adya_obs::counter!("engine.mvto.too_late_abort").inc();
        self.do_abort(inner, txn, AbortReason::ValidationFailed);
        Err(EngineError::Aborted(AbortReason::ValidationFailed))
    }

    /// `txn` read `writer`'s uncommitted version: a commit dependency.
    fn read_from(inner: &mut Inner, txn: TxnId, writer: TxnId) {
        inner.txns.state_mut(txn).read_from.insert(writer);
        inner.txns.state_mut(writer).readers_of_mine.insert(txn);
    }

    /// Common write/delete path.
    fn do_write(&self, txn: TxnId, table: TableId, key: Key, value: Option<Value>) -> OpResult<()> {
        let inner = &mut *self.inner.lock();
        let rec = &self.recorder;
        let ts = inner.txns.enter(self, txn, table)?.ts;

        // Too-late check: the version this write would supersede must
        // not have been read by a younger transaction.
        if let Some(chain) = inner.chains.get(&(table, key)) {
            if let Some(prev) = chain.visible_at(ts) {
                if prev.writer != txn && prev.rts > ts {
                    return self.too_late(inner, txn);
                }
            }
        }

        // Deleting an absent row is a no-op.
        let absent = inner
            .chains
            .get(&(table, key))
            .and_then(|c| c.visible_at(ts))
            .map(|v| v.value.is_none())
            .unwrap_or(true);
        if value.is_none() && absent {
            return Ok(());
        }
        // A dead version must end its object's version order, so a
        // delete whose timestamp slot precedes any younger version is
        // too late.
        if value.is_none() {
            let younger_exists = inner
                .chains
                .get(&(table, key))
                .map(|c| c.versions.iter().any(|v| v.wts > ts && v.writer != txn))
                .unwrap_or(false);
            if younger_exists {
                return self.too_late(inner, txn);
            }
        }

        // Ensure the chain exists (MVTO keeps one incarnation per key:
        // timestamp order interleaves lifetimes, so re-creation reuses
        // the object unless a committed dead version already ended it —
        // in that case the key stays dead for later timestamps and we
        // reject the write as too late).
        if !inner.chains.contains_key(&(table, key)) {
            // Insert of a fresh row: a younger transaction may already
            // have predicate-scanned this table; its version set chose
            // the row's unborn version, so an older insert would be a
            // phantom behind its back — too late.
            if inner.table_read_ts.get(&table).copied().unwrap_or(0) > ts {
                return self.too_late(inner, txn);
            }
            let obj = rec.register_object(table, key, 0);
            inner.chains.insert(
                (table, key),
                TsChain {
                    object: obj,
                    versions: Vec::new(),
                },
            );
        }
        let chain = inner.chains.get_mut(&(table, key)).expect("just ensured");
        // Re-insertion after a *dead* version would need a fresh
        // incarnation whose position in timestamp order is ambiguous;
        // keep the model simple by rejecting writes that follow any
        // dead version in timestamp order.
        let follows_dead = chain
            .versions
            .iter()
            .any(|v| v.wts <= ts && v.value.is_none());
        if value.is_some() && follows_dead {
            // Includes the transaction's own delete: re-insertion is a
            // distinct object in the model, and a fresh incarnation
            // has no well-defined slot in timestamp order.
            return self.too_late(inner, txn);
        }

        let obj = chain.object;
        let vid = match &value {
            Some(v) => rec.write(txn, obj, v.clone()),
            None => rec.delete(txn, obj),
        };
        // A transaction rewriting the object replaces its own version
        // in place (same wts slot, higher seq); any transaction that
        // dirty-read the superseded seq now holds an intermediate
        // version (G1b) and must be cascaded.
        let rewriting = chain.versions.iter().any(|v| v.writer == txn);
        if rewriting {
            let mut doomed: Vec<TxnId> = inner
                .txns
                .state(txn)
                .readers_of_mine
                .iter()
                .copied()
                .filter(|r| *r != txn)
                .collect();
            doomed.sort_unstable();
            for r in doomed {
                self.do_abort(inner, r, AbortReason::CascadedAbort);
            }
        }
        let chain = inner.chains.get_mut(&(table, key)).expect("present");
        if let Some(own) = chain.versions.iter_mut().find(|v| v.writer == txn) {
            own.seq = vid.seq;
            own.value = value;
        } else {
            chain.insert(TsVersion {
                writer: txn,
                wts: ts,
                rts: ts,
                seq: vid.seq,
                value,
                committed: false,
            });
        }
        adya_obs::histogram!("engine.mvto.chain_len").record(chain.versions.len() as u64);
        inner.txns.state_mut(txn).written.insert((table, key));
        Ok(())
    }
}

impl Engine for MvtoEngine {
    fn name(&self) -> String {
        "MVTO".to_string()
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    fn begin(&self) -> TxnId {
        let mut inner = self.inner.lock();
        let state = TxnState {
            ts: inner.next_ts,
            read_from: HashSet::new(),
            readers_of_mine: HashSet::new(),
            written: HashSet::new(),
        };
        inner.next_ts += 1;
        inner.txns.begin(&self.recorder, RequestedLevel::PL3, state)
    }

    fn read(&self, txn: TxnId, table: TableId, key: Key) -> OpResult<Option<Value>> {
        let inner = &mut *self.inner.lock();
        let rec = &self.recorder;
        let ts = inner.txns.enter(self, txn, table)?.ts;
        let Some(chain) = inner.chains.get_mut(&(table, key)) else {
            return Ok(None);
        };
        let obj = chain.object;
        let Some(v) = chain.visible_at_mut(ts) else {
            return Ok(None);
        };
        v.rts = v.rts.max(ts);
        let Some(value) = v.value.clone() else {
            return Ok(None); // dead at this timestamp
        };
        let (writer, dirty) = (v.writer, !v.committed);
        rec.read(txn, obj, v.version_id());
        if writer != txn && dirty {
            Self::read_from(inner, txn, writer);
        }
        Ok(Some(value))
    }

    fn write(&self, txn: TxnId, table: TableId, key: Key, value: Value) -> OpResult<()> {
        self.do_write(txn, table, key, Some(value))
    }

    fn delete(&self, txn: TxnId, table: TableId, key: Key) -> OpResult<()> {
        self.do_write(txn, table, key, None)
    }

    fn select(&self, txn: TxnId, pred: &TablePred) -> OpResult<Vec<(Key, Value)>> {
        let inner = &mut *self.inner.lock();
        let rec = &self.recorder;
        let ts = inner.txns.enter(self, txn, pred.table)?.ts;
        let table = pred.table;
        // Scan in key order: the recorded read sequence must not
        // depend on hash iteration order.
        let mut keys: Vec<(TableId, Key)> = inner
            .chains
            .keys()
            .filter(|(t, _)| *t == table)
            .copied()
            .collect();
        keys.sort_unstable();
        {
            let e = inner.table_read_ts.entry(table).or_insert(0);
            *e = (*e).max(ts);
        }
        let mut scan = Scan::default();
        let mut dirty_from: Vec<TxnId> = Vec::new();
        for ck in keys {
            let chain = inner.chains.get_mut(&ck).expect("listed");
            let obj = chain.object;
            let Some(v) = chain.visible_at_mut(ts) else {
                continue;
            };
            v.rts = v.rts.max(ts);
            if v.writer != txn && !v.committed {
                dirty_from.push(v.writer);
            }
            scan.see(pred, ck.1, obj, v.version_id(), v.value.as_ref());
        }
        let rows = scan.record(rec, txn, pred);
        for w in dirty_from {
            Self::read_from(inner, txn, w);
        }
        Ok(rows)
    }

    fn commit(&self, txn: TxnId) -> OpResult<()> {
        let inner = &mut *self.inner.lock();
        let state = inner.txns.check_active(txn)?;
        // Commit dependencies: versions read must be committed.
        if state.read_from.iter().any(|&w| inner.txns.is_aborted(w)) {
            self.do_abort(inner, txn, AbortReason::CascadedAbort);
            return Err(EngineError::Aborted(AbortReason::CascadedAbort));
        }
        let mut holders: Vec<TxnId> = state.read_from.iter().copied().collect();
        holders.retain(|&w| inner.txns.is_active(w));
        if !holders.is_empty() {
            holders.sort_unstable();
            return Err(EngineError::Blocked { holders });
        }
        for key in &state.written {
            if let Some(chain) = inner.chains.get_mut(key) {
                for v in &mut chain.versions {
                    if v.writer == txn {
                        v.committed = true;
                    }
                }
            }
        }
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
        let inner = self.inner.lock();
        for chain in inner.chains.values() {
            let versions = chain.versions.iter();
            let order = committed_order(versions.map(|v| (v.version_id(), v.committed)));
            self.recorder.set_version_order(chain.object, order);
        }
        self.recorder.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_core::{classify, IsolationLevel};

    fn setup() -> (MvtoEngine, TableId) {
        let e = MvtoEngine::new();
        let t = e.catalog().table("acct");
        (e, t)
    }

    #[test]
    fn version_order_follows_timestamps_not_commit_order() {
        // The H_write_order shape: older T1 commits AFTER younger…
        // here: T1 (ts 1) writes x but commits after T2 (ts 2) does.
        let (e, tbl) = setup();
        let t1 = e.begin();
        let t2 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(1)).unwrap();
        e.write(t2, tbl, Key(1), Value::Int(2)).unwrap();
        e.commit(t2).unwrap(); // T2 commits first
        e.commit(t1).unwrap();
        let h = e.finalize();
        let x = h.object_by_name("table0#1").unwrap();
        // Version order is timestamp order: x1 << x2 — even though
        // commit order was T2 then T1.
        assert!(h.version_precedes(x, VersionId::new(t1, 1), VersionId::new(t2, 1)));
        let c1 = h.txn(t1).unwrap().end_event;
        let c2 = h.txn(t2).unwrap().end_event;
        assert!(c2 < c1, "commit order really was reversed");
        assert!(classify(&h).satisfies(IsolationLevel::PL3));
    }

    #[test]
    fn late_write_aborts() {
        let (e, tbl) = setup();
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(0)).unwrap();
        e.commit(t0).unwrap();
        let t1 = e.begin(); // ts 2
        let t2 = e.begin(); // ts 3
                            // Younger T2 reads the version T1 would supersede.
        assert_eq!(e.read(t2, tbl, Key(1)).unwrap(), Some(Value::Int(0)));
        // T1's write is now too late.
        assert!(matches!(
            e.write(t1, tbl, Key(1), Value::Int(9)),
            Err(EngineError::Aborted(AbortReason::ValidationFailed))
        ));
        e.commit(t2).unwrap();
    }

    #[test]
    fn older_reader_ignores_younger_writer() {
        let (e, tbl) = setup();
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(0)).unwrap();
        e.commit(t0).unwrap();
        let t1 = e.begin(); // ts 2
        let t2 = e.begin(); // ts 3
        e.write(t2, tbl, Key(1), Value::Int(9)).unwrap();
        e.commit(t2).unwrap();
        // T1 (older) still reads T0's version: snapshot-by-timestamp.
        assert_eq!(e.read(t1, tbl, Key(1)).unwrap(), Some(Value::Int(0)));
        e.commit(t1).unwrap();
        let h = e.finalize();
        assert!(classify(&h).satisfies(IsolationLevel::PL3));
    }

    #[test]
    fn dirty_read_takes_commit_dependency_and_cascades() {
        let (e, tbl) = setup();
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(5)).unwrap();
        let t2 = e.begin();
        // T2 reads T1's uncommitted version (wts 1 <= ts 2).
        assert_eq!(e.read(t2, tbl, Key(1)).unwrap(), Some(Value::Int(5)));
        // T2 cannot commit before T1.
        assert!(matches!(
            e.commit(t2),
            Err(EngineError::Blocked { ref holders }) if holders == &[t1]
        ));
        e.abort(t1).unwrap();
        // Cascade: T2 was aborted with T1, and every later operation
        // on it says so.
        let cascaded = EngineError::Aborted(AbortReason::CascadedAbort);
        assert_eq!(e.read(t2, tbl, Key(2)), Err(cascaded.clone()));
        assert_eq!(e.commit(t2), Err(cascaded));
        let h = e.finalize();
        assert_eq!(h.committed_txns().count(), 0);
    }

    #[test]
    fn rewrite_after_dirty_read_cascades_reader() {
        let (e, tbl) = setup();
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(1)).unwrap();
        let t2 = e.begin();
        assert_eq!(e.read(t2, tbl, Key(1)).unwrap(), Some(Value::Int(1)));
        // T1 rewrites: T2's read became intermediate — cascaded.
        e.write(t1, tbl, Key(1), Value::Int(2)).unwrap();
        e.commit(t1).unwrap();
        assert!(matches!(e.commit(t2), Err(EngineError::Aborted(_))));
        let h = e.finalize();
        use adya_core::IsolationLevel;
        assert!(adya_core::classify(&h).satisfies(IsolationLevel::PL2));
    }

    #[test]
    fn histories_check_at_pl3_under_workloads() {
        // See also tests/engine_soundness.rs which runs full
        // workloads; this is the smoke version.
        let (e, tbl) = setup();
        let t0 = e.begin();
        for k in 0..3u64 {
            e.write(t0, tbl, Key(k), Value::Int(10)).unwrap();
        }
        e.commit(t0).unwrap();
        for _ in 0..5 {
            let t = e.begin();
            let a = e.read(t, tbl, Key(0)).unwrap().unwrap().as_int().unwrap();
            if e.write(t, tbl, Key(0), Value::Int(a + 1)).is_ok() {
                let _ = e.commit(t);
            }
        }
        let h = e.finalize();
        assert!(classify(&h).satisfies(IsolationLevel::PL3));
    }

    #[test]
    fn older_insert_after_younger_select_is_too_late() {
        // Phantom guard regression: T2 (younger) scans the predicate,
        // then T1 (older) tries to insert a fresh matching row whose
        // timestamp slot precedes the scan — must abort, or the
        // committed history would contain a G2 cycle (the reader's
        // predicate read anti-depends on a transaction serialized
        // before it).
        let (e, tbl) = setup();
        let p = TablePred::new("pos", tbl, |v| matches!(v, Value::Int(i) if *i > 0));
        let t0 = e.begin();
        e.write(t0, tbl, Key(9), Value::Int(7)).unwrap();
        e.commit(t0).unwrap();
        let t1 = e.begin(); // ts 2 (older)
        let t2 = e.begin(); // ts 3 (younger)
        assert_eq!(e.select(t2, &p).unwrap().len(), 1);
        assert!(matches!(
            e.write(t1, tbl, Key(5), Value::Int(42)),
            Err(EngineError::Aborted(AbortReason::ValidationFailed))
        ));
        e.commit(t2).unwrap();
        let h = e.finalize();
        use adya_core::IsolationLevel;
        assert!(adya_core::classify(&h).satisfies(IsolationLevel::PL3));
    }

    #[test]
    fn select_reads_timestamp_consistent_versions() {
        let (e, tbl) = setup();
        let p = TablePred::new("pos", tbl, |v| matches!(v, Value::Int(i) if *i > 0));
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(1)).unwrap();
        e.commit(t0).unwrap();
        let t1 = e.begin();
        let t2 = e.begin();
        e.write(t2, tbl, Key(2), Value::Int(2)).unwrap();
        e.commit(t2).unwrap();
        // T1 (older) must not see T2's insert.
        assert_eq!(e.select(t1, &p).unwrap().len(), 1);
        e.commit(t1).unwrap();
        let h = e.finalize();
        assert!(classify(&h).satisfies(IsolationLevel::PL3));
    }
}
