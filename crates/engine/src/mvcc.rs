//! Multi-version concurrency control: Snapshot Isolation and
//! multi-version read committed.
//!
//! Snapshot Isolation (Oracle's "serializable", analyzed in the
//! Berenson et al. critique and given a generalized definition —
//! PL-SI — in Adya's thesis) reads a begin-time snapshot and enforces
//! first-committer-wins on write sets. Multi-version read committed
//! reads the latest committed version at each read. Neither ever
//! blocks a reader, and the version order of each object equals commit
//! order — so G0/G1 are excluded *structurally*, while write skew
//! (G2, exactly two anti-dependency edges) remains possible under SI:
//! the shape the checker's PL-SI level admits and PL-3 rejects.

use adya_history::{History, RequestedLevel, TxnId, Value};
use parking_lot::Mutex;

use crate::engine::Engine;
use crate::recorder::Recorder;
use crate::store::{Deferred, Store, Txns};
use crate::types::{AbortReason, Catalog, EngineError, Key, OpResult, TableId, TablePred};

/// Which multi-version flavour an [`MvccEngine`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MvccMode {
    /// Begin-time snapshot reads, first-committer-wins writes (PL-SI).
    SnapshotIsolation,
    /// Latest-committed reads at each operation, unconditional
    /// installs (a deliberately weak PL-2 engine: lost updates are
    /// possible and the checker should find the G2 cycles).
    ReadCommitted,
}

struct TxnState {
    snapshot: u64,
    writes: Deferred,
}

struct Inner {
    store: Store,
    txns: Txns<TxnState>,
}

/// The multi-version engine.
pub struct MvccEngine {
    catalog: Catalog,
    recorder: Recorder,
    mode: MvccMode,
    inner: Mutex<Inner>,
}

impl MvccEngine {
    /// Creates an engine in the given mode.
    pub fn new(mode: MvccMode) -> MvccEngine {
        MvccEngine {
            catalog: Catalog::new(),
            recorder: Recorder::new(),
            mode,
            inner: Mutex::new(Inner {
                store: Store::new(),
                txns: Txns::new(),
            }),
        }
    }

    /// The read stamp of a transaction: its snapshot under SI, "now"
    /// under read committed.
    fn read_stamp(&self, store: &Store, state: &TxnState) -> u64 {
        match self.mode {
            MvccMode::SnapshotIsolation => state.snapshot,
            MvccMode::ReadCommitted => store.stamp(),
        }
    }

    fn do_write(&self, txn: TxnId, table: TableId, key: Key, value: Option<Value>) -> OpResult<()> {
        let mut inner = self.inner.lock();
        inner.txns.enter(self, txn, table)?;
        inner.txns.state_mut(txn).writes.push(table, key, value);
        Ok(())
    }
}

impl Engine for MvccEngine {
    fn name(&self) -> String {
        match self.mode {
            MvccMode::SnapshotIsolation => "MVCC-SI".to_string(),
            MvccMode::ReadCommitted => "MVCC-RC".to_string(),
        }
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    fn begin(&self) -> TxnId {
        // The Begin event must be recorded atomically with the
        // snapshot acquisition: if another transaction's commit slips
        // between the two, the history shows this transaction starting
        // *before* writes its snapshot actually includes, and the
        // checker rightly reports a PL-SI start-dependency violation
        // the engine never committed. Lock order (inner → recorder)
        // matches every other call site.
        let mut inner = self.inner.lock();
        let level = match self.mode {
            MvccMode::SnapshotIsolation => RequestedLevel::PL3,
            MvccMode::ReadCommitted => RequestedLevel::PL2,
        };
        let state = TxnState {
            snapshot: inner.store.stamp(),
            writes: Deferred::default(),
        };
        inner.txns.begin(&self.recorder, level, state)
    }

    fn read(&self, txn: TxnId, table: TableId, key: Key) -> OpResult<Option<Value>> {
        let inner = &mut *self.inner.lock();
        let rec = &self.recorder;
        let state = inner.txns.enter(self, txn, table)?;
        if let Some(v) = state.writes.buffered(table, key) {
            return Ok(v);
        }
        let stamp = self.read_stamp(&inner.store, state);
        // Visit every incarnation: the snapshot may predate the
        // current one.
        let mut selected = None;
        for &ix in inner.store.table_chains(table) {
            let chain = &inner.store.chains[ix];
            if chain.key != key {
                continue;
            }
            if let Some(v) = chain.version_at(stamp) {
                selected = Some((chain.object, v.version_id(), v.value.clone()));
            }
        }
        match selected {
            Some((obj, vid, Some(value))) => {
                rec.read(txn, obj, vid);
                Ok(Some(value))
            }
            _ => Ok(None),
        }
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
        let state = inner.txns.enter(self, txn, pred.table)?;
        let stamp = self.read_stamp(&inner.store, state);
        let scan = inner.store.scan(pred, |_, chain| chain.version_at(stamp));
        let mut rows = scan.record(rec, txn, pred);
        state.writes.overlay(pred, &mut rows);
        Ok(rows)
    }

    fn commit(&self, txn: TxnId) -> OpResult<()> {
        let inner = &mut *self.inner.lock();
        let state = inner.txns.check_active(txn)?;

        if self.mode == MvccMode::SnapshotIsolation {
            // First-committer-wins: abort if any written key gained a
            // committed version after our snapshot.
            let snapshot = state.snapshot;
            let conflict = state.writes.keys().any(|(table, key)| {
                inner.store.current(table, key).is_some_and(|chain| {
                    chain
                        .versions
                        .iter()
                        .any(|v| v.commit_stamp.is_some_and(|s| s > snapshot))
                })
            });
            if conflict {
                adya_obs::counter!("engine.mvcc.fcw_abort").inc();
                let reason = AbortReason::WriteConflict;
                inner.txns.abort(&self.recorder, txn, reason.clone());
                return Err(EngineError::Aborted(reason));
            }
        }

        let writes = &mut inner.txns.state_mut(txn).writes;
        writes.install(&mut inner.store, &self.recorder, txn, |chain, _, _| {
            adya_obs::histogram!("engine.mvcc.chain_len").record(chain.versions.len() as u64);
        });
        inner.txns.commit(&self.recorder, txn);
        Ok(())
    }

    fn abort(&self, txn: TxnId) -> OpResult<()> {
        let mut inner = self.inner.lock();
        if inner.txns.unresolved(txn)? {
            inner
                .txns
                .abort(&self.recorder, txn, AbortReason::Requested);
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

    fn setup(mode: MvccMode) -> (MvccEngine, TableId) {
        let e = MvccEngine::new(mode);
        let t = e.catalog().table("acct");
        (e, t)
    }

    #[test]
    fn snapshot_reads_ignore_later_commits() {
        let (e, tbl) = setup(MvccMode::SnapshotIsolation);
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(1)).unwrap();
        e.commit(t0).unwrap();
        let t1 = e.begin();
        // T2 commits a new version after T1's snapshot.
        let t2 = e.begin();
        e.write(t2, tbl, Key(1), Value::Int(2)).unwrap();
        e.commit(t2).unwrap();
        // T1 still sees the snapshot value.
        assert_eq!(e.read(t1, tbl, Key(1)).unwrap(), Some(Value::Int(1)));
        e.commit(t1).unwrap();
    }

    #[test]
    fn first_committer_wins() {
        let (e, tbl) = setup(MvccMode::SnapshotIsolation);
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(0)).unwrap();
        e.commit(t0).unwrap();
        let t1 = e.begin();
        let t2 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(1)).unwrap();
        e.write(t2, tbl, Key(1), Value::Int(2)).unwrap();
        e.commit(t1).unwrap();
        assert!(matches!(
            e.commit(t2),
            Err(EngineError::Aborted(AbortReason::WriteConflict))
        ));
    }

    #[test]
    fn write_skew_commits_under_si() {
        let (e, tbl) = setup(MvccMode::SnapshotIsolation);
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(5)).unwrap();
        e.write(t0, tbl, Key(2), Value::Int(5)).unwrap();
        e.commit(t0).unwrap();
        let t1 = e.begin();
        let t2 = e.begin();
        e.read(t1, tbl, Key(1)).unwrap();
        e.read(t1, tbl, Key(2)).unwrap();
        e.read(t2, tbl, Key(1)).unwrap();
        e.read(t2, tbl, Key(2)).unwrap();
        e.write(t1, tbl, Key(1), Value::Int(0)).unwrap();
        e.write(t2, tbl, Key(2), Value::Int(0)).unwrap();
        e.commit(t1).unwrap();
        e.commit(t2).unwrap(); // disjoint write sets: both commit
        let h = e.finalize();
        assert_eq!(h.committed_txns().count(), 3);
    }

    #[test]
    fn rc_mode_reads_latest_committed_each_time() {
        let (e, tbl) = setup(MvccMode::ReadCommitted);
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(1)).unwrap();
        e.commit(t0).unwrap();
        let t1 = e.begin();
        assert_eq!(e.read(t1, tbl, Key(1)).unwrap(), Some(Value::Int(1)));
        let t2 = e.begin();
        e.write(t2, tbl, Key(1), Value::Int(2)).unwrap();
        e.commit(t2).unwrap();
        // Non-repeatable read: T1 sees the new value.
        assert_eq!(e.read(t1, tbl, Key(1)).unwrap(), Some(Value::Int(2)));
        e.commit(t1).unwrap();
    }

    #[test]
    fn snapshot_select_sees_consistent_predicate_state() {
        let (e, tbl) = setup(MvccMode::SnapshotIsolation);
        let p = TablePred::new("pos", tbl, |v| matches!(v, Value::Int(i) if *i > 0));
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(1)).unwrap();
        e.commit(t0).unwrap();
        let t1 = e.begin();
        let t2 = e.begin();
        e.write(t2, tbl, Key(2), Value::Int(9)).unwrap();
        e.commit(t2).unwrap();
        // T1's snapshot predates T2: only one match.
        assert_eq!(e.select(t1, &p).unwrap().len(), 1);
        e.commit(t1).unwrap();
    }

    #[test]
    fn deletes_respect_snapshots() {
        let (e, tbl) = setup(MvccMode::SnapshotIsolation);
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(1)).unwrap();
        e.commit(t0).unwrap();
        let t1 = e.begin();
        let t2 = e.begin();
        e.delete(t2, tbl, Key(1)).unwrap();
        e.commit(t2).unwrap();
        // T1's snapshot still sees the row.
        assert_eq!(e.read(t1, tbl, Key(1)).unwrap(), Some(Value::Int(1)));
        e.commit(t1).unwrap();
        // A fresh transaction does not.
        let t3 = e.begin();
        assert_eq!(e.read(t3, tbl, Key(1)).unwrap(), None);
        e.commit(t3).unwrap();
    }

    #[test]
    fn si_history_records_begin_events() {
        let (e, tbl) = setup(MvccMode::SnapshotIsolation);
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(1)).unwrap();
        e.commit(t1).unwrap();
        let h = e.finalize();
        assert!(h.txn(t1).unwrap().begin_event.is_some());
    }
}
