//! Kung–Robinson style optimistic concurrency control.
//!
//! Transactions read the committed state and buffer their writes;
//! commit runs backward validation — the read set (items *and*
//! predicates) is checked against the write sets of transactions that
//! committed after this one began. Validation failures abort; there is
//! no blocking anywhere, which is exactly the class of implementation
//! the preventative definitions exclude (§3) and the generalized ones
//! admit.

use std::collections::HashSet;

use adya_history::{History, RequestedLevel, TxnId, Value};
use parking_lot::Mutex;

use crate::engine::Engine;
use crate::recorder::Recorder;
use crate::store::{Deferred, Store, Txns};
use crate::types::{AbortReason, Catalog, EngineError, Key, OpResult, TableId, TablePred};

struct TxnState {
    start_stamp: u64,
    /// Keys whose value (or absence) the transaction observed.
    read_keys: HashSet<(TableId, Key)>,
    /// Predicates the transaction evaluated.
    pred_reads: Vec<TablePred>,
    writes: Deferred,
}

/// One entry of the committed-transaction log used by backward
/// validation.
struct CommitLogEntry {
    stamp: u64,
    /// `(table, key, before image, after image)` per written row.
    writes: Vec<(TableId, Key, Option<Value>, Option<Value>)>,
}

struct Inner {
    store: Store,
    txns: Txns<TxnState>,
    log: Vec<CommitLogEntry>,
}

/// The optimistic engine.
pub struct OccEngine {
    catalog: Catalog,
    recorder: Recorder,
    inner: Mutex<Inner>,
}

impl Default for OccEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl OccEngine {
    /// Creates an empty optimistic engine.
    pub fn new() -> OccEngine {
        OccEngine {
            catalog: Catalog::new(),
            recorder: Recorder::new(),
            inner: Mutex::new(Inner {
                store: Store::new(),
                txns: Txns::new(),
                log: Vec::new(),
            }),
        }
    }

    fn do_write(&self, txn: TxnId, table: TableId, key: Key, value: Option<Value>) -> OpResult<()> {
        let mut inner = self.inner.lock();
        inner.txns.enter(self, txn, table)?;
        inner.txns.state_mut(txn).writes.push(table, key, value);
        Ok(())
    }
}

impl Engine for OccEngine {
    fn name(&self) -> String {
        "OCC".to_string()
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
            start_stamp: inner.store.stamp(),
            read_keys: HashSet::new(),
            pred_reads: Vec::new(),
            writes: Deferred::default(),
        };
        inner.txns.begin(&self.recorder, RequestedLevel::PL3, state)
    }

    fn read(&self, txn: TxnId, table: TableId, key: Key) -> OpResult<Option<Value>> {
        let inner = &mut *self.inner.lock();
        let rec = &self.recorder;
        let state = inner.txns.enter(self, txn, table)?;
        // Own buffered write wins.
        if let Some(v) = state.writes.buffered(table, key) {
            return Ok(v);
        }
        inner.txns.state_mut(txn).read_keys.insert((table, key));
        let Some(chain) = inner.store.current(table, key) else {
            return Ok(None);
        };
        Ok(chain.committed_tip().and_then(|v| {
            let value = v.value.clone()?;
            rec.read(txn, chain.object, v.version_id());
            Some(value)
        }))
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
        inner.txns.enter(self, txn, pred.table)?;
        let scan = inner.store.scan(pred, |_, chain| chain.committed_tip());
        let state = inner.txns.state_mut(txn);
        state.pred_reads.push(pred.clone());
        for &(key, ..) in &scan.matches {
            state.read_keys.insert((pred.table, key));
        }
        let mut rows = scan.record(rec, txn, pred);
        state.writes.overlay(pred, &mut rows);
        Ok(rows)
    }

    fn commit(&self, txn: TxnId) -> OpResult<()> {
        let inner = &mut *self.inner.lock();
        let state = inner.txns.check_active(txn)?;

        // Backward validation against transactions that committed
        // after we began.
        let start = state.start_stamp;
        let mut conflict = false;
        for entry in inner.log.iter().rev() {
            if entry.stamp <= start {
                break;
            }
            for (t, k, before, after) in &entry.writes {
                if state.read_keys.contains(&(*t, *k)) {
                    conflict = true;
                    break;
                }
                for p in &state.pred_reads {
                    if p.table == *t
                        && (before.as_ref().map(|v| p.matches(v)).unwrap_or(false)
                            || after.as_ref().map(|v| p.matches(v)).unwrap_or(false))
                    {
                        conflict = true;
                        break;
                    }
                }
                if conflict {
                    break;
                }
            }
            if conflict {
                break;
            }
        }
        if conflict {
            adya_obs::counter!("engine.occ.validation_failed").inc();
            let reason = AbortReason::ValidationFailed;
            inner.txns.abort(&self.recorder, txn, reason.clone());
            return Err(EngineError::Aborted(reason));
        }

        let mut log_writes = Vec::new();
        let writes = &mut inner.txns.state_mut(txn).writes;
        writes.install(
            &mut inner.store,
            &self.recorder,
            txn,
            |chain, before, after| log_writes.push((chain.table, chain.key, before, after)),
        );
        inner.log.push(CommitLogEntry {
            stamp: inner.store.stamp(),
            writes: log_writes,
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

    fn setup() -> (OccEngine, TableId) {
        let e = OccEngine::new();
        let t = e.catalog().table("acct");
        (e, t)
    }

    #[test]
    fn reads_never_block() {
        let (e, tbl) = setup();
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(1)).unwrap();
        e.commit(t0).unwrap();
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(2)).unwrap();
        // T2 reads while T1's write is buffered: sees the committed
        // state, never blocks, and commits first without trouble.
        let t2 = e.begin();
        assert_eq!(e.read(t2, tbl, Key(1)).unwrap(), Some(Value::Int(1)));
        e.commit(t2).unwrap();
        e.commit(t1).unwrap();
    }

    #[test]
    fn backward_validation_is_conservative_about_read_overlap() {
        // T2 read key 1 before T1 overwrote and committed it; classic
        // Kung–Robinson aborts T2 even though T2 could serialize
        // before T1.
        let (e, tbl) = setup();
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(1)).unwrap();
        e.commit(t0).unwrap();
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(2)).unwrap();
        let t2 = e.begin();
        e.read(t2, tbl, Key(1)).unwrap();
        e.commit(t1).unwrap();
        assert!(matches!(
            e.commit(t2),
            Err(EngineError::Aborted(AbortReason::ValidationFailed))
        ));
    }

    #[test]
    fn validation_aborts_stale_reader_writer() {
        let (e, tbl) = setup();
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(1)).unwrap();
        e.commit(t0).unwrap();
        // T1 reads key 1; T2 overwrites it and commits first; T1 must
        // fail validation.
        let t1 = e.begin();
        e.read(t1, tbl, Key(1)).unwrap();
        e.write(t1, tbl, Key(2), Value::Int(10)).unwrap();
        let t2 = e.begin();
        e.write(t2, tbl, Key(1), Value::Int(7)).unwrap();
        e.commit(t2).unwrap();
        let failed = adya_obs::global().counter("engine.occ.validation_failed");
        let before = failed.get();
        assert!(matches!(
            e.commit(t1),
            Err(EngineError::Aborted(AbortReason::ValidationFailed))
        ));
        // The failure is counted, so metrics snapshots (`--metrics
        // --json`, perf_sweep reports) show how many lost validation.
        // Tests share the process's counters: others may add too.
        assert!(failed.get() > before, "validation failure not counted");
    }

    #[test]
    fn blind_writes_do_not_conflict() {
        let (e, tbl) = setup();
        let t1 = e.begin();
        let t2 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(1)).unwrap();
        e.write(t2, tbl, Key(1), Value::Int(2)).unwrap();
        e.commit(t1).unwrap();
        // T2 never read key 1, so backward validation passes (Thomas-
        // write-rule-like behaviour; the committed history stays
        // serializable because version order follows commit order).
        e.commit(t2).unwrap();
    }

    #[test]
    fn predicate_validation_catches_phantoms() {
        let (e, tbl) = setup();
        let p = TablePred::new("pos", tbl, |v| matches!(v, Value::Int(i) if *i > 0));
        let t1 = e.begin();
        assert!(e.select(t1, &p).unwrap().is_empty());
        // T2 inserts a matching row and commits.
        let t2 = e.begin();
        e.write(t2, tbl, Key(5), Value::Int(42)).unwrap();
        e.commit(t2).unwrap();
        // T1 writes something and tries to commit: phantom detected.
        e.write(t1, tbl, Key(9), Value::Int(-3)).unwrap();
        assert!(matches!(
            e.commit(t1),
            Err(EngineError::Aborted(AbortReason::ValidationFailed))
        ));
    }

    #[test]
    fn own_buffered_writes_visible() {
        let (e, tbl) = setup();
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(5)).unwrap();
        assert_eq!(e.read(t1, tbl, Key(1)).unwrap(), Some(Value::Int(5)));
        e.delete(t1, tbl, Key(1)).unwrap();
        assert_eq!(e.read(t1, tbl, Key(1)).unwrap(), None);
        e.commit(t1).unwrap();
    }

    #[test]
    fn select_overlays_buffered_writes() {
        let (e, tbl) = setup();
        let p = TablePred::new("pos", tbl, |v| matches!(v, Value::Int(i) if *i > 0));
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(3)).unwrap();
        e.commit(t0).unwrap();
        let t1 = e.begin();
        e.write(t1, tbl, Key(2), Value::Int(4)).unwrap();
        e.delete(t1, tbl, Key(1)).unwrap();
        let rows = e.select(t1, &p).unwrap();
        assert_eq!(rows, vec![(Key(2), Value::Int(4))]);
        e.commit(t1).unwrap();
    }

    #[test]
    fn history_of_validated_run_is_recorded() {
        let (e, tbl) = setup();
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(1)).unwrap();
        e.commit(t1).unwrap();
        let t2 = e.begin();
        e.read(t2, tbl, Key(1)).unwrap();
        e.write(t2, tbl, Key(1), Value::Int(2)).unwrap();
        e.commit(t2).unwrap();
        let h = e.finalize();
        assert_eq!(h.committed_txns().count(), 2);
    }
}
