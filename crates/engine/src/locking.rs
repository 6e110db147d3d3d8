//! Two-phase locking with the lock-scope configurations of Figure 1.

use adya_history::{History, RequestedLevel, TxnId, Value};
use parking_lot::Mutex;

use crate::engine::Engine;
use crate::lock::{LockMode, LockTable};
use crate::recorder::Recorder;
use crate::store::{InPlace, RowChain, Store, StoredVersion, Txns};
use crate::types::{AbortReason, Catalog, EngineError, Key, OpResult, TableId, TablePred};

/// How long a lock is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockDuration {
    /// No lock at all.
    None,
    /// Released at the end of the operation that took it.
    Short,
    /// Released at commit/abort.
    Long,
}

/// One row of Figure 1: the lock scopes of a locking isolation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockConfig {
    /// Display name.
    pub name: &'static str,
    /// Write (exclusive) lock duration — `Short` only for Degree 0.
    pub write: LockDuration,
    /// Data-item read lock duration.
    pub item_read: LockDuration,
    /// Predicate (phantom) read lock duration.
    pub pred_read: LockDuration,
    /// The level this configuration promises, recorded per
    /// transaction for mixed-history analysis.
    pub level: RequestedLevel,
}

impl LockConfig {
    /// Degree 0: short write locks only (proscribes nothing).
    pub fn degree0() -> LockConfig {
        LockConfig {
            name: "2PL-degree0",
            write: LockDuration::Short,
            item_read: LockDuration::None,
            pred_read: LockDuration::None,
            // Nominally recorded as PL-1, but Degree 0 proscribes
            // nothing (Figure 1): short write locks permit G0 cycles,
            // so Degree 0 transactions do not belong in a Definition 9
            // mix and no generalized level is claimed for them.
            level: RequestedLevel::PL1,
        }
    }

    /// Degree 1 = Locking READ UNCOMMITTED: long write locks.
    pub fn read_uncommitted() -> LockConfig {
        LockConfig {
            name: "2PL-read-uncommitted",
            write: LockDuration::Long,
            item_read: LockDuration::None,
            pred_read: LockDuration::None,
            level: RequestedLevel::PL1,
        }
    }

    /// Degree 2 = Locking READ COMMITTED: long write, short read
    /// locks.
    pub fn read_committed() -> LockConfig {
        LockConfig {
            name: "2PL-read-committed",
            write: LockDuration::Long,
            item_read: LockDuration::Short,
            pred_read: LockDuration::Short,
            level: RequestedLevel::PL2,
        }
    }

    /// Locking REPEATABLE READ: long write and item read locks, short
    /// phantom locks.
    pub fn repeatable_read() -> LockConfig {
        LockConfig {
            name: "2PL-repeatable-read",
            write: LockDuration::Long,
            item_read: LockDuration::Long,
            pred_read: LockDuration::Short,
            level: RequestedLevel::PL299,
        }
    }

    /// Degree 3 = Locking SERIALIZABLE: long everything.
    pub fn serializable() -> LockConfig {
        LockConfig {
            name: "2PL-serializable",
            write: LockDuration::Long,
            item_read: LockDuration::Long,
            pred_read: LockDuration::Long,
            level: RequestedLevel::PL3,
        }
    }

    /// All five rows of Figure 1, weakest first.
    pub fn all() -> Vec<LockConfig> {
        vec![
            LockConfig::degree0(),
            LockConfig::read_uncommitted(),
            LockConfig::read_committed(),
            LockConfig::repeatable_read(),
            LockConfig::serializable(),
        ]
    }
}

struct TxnState {
    config: LockConfig,
    writes: InPlace,
    /// The key the transaction's cursor is positioned on, protected by
    /// a cursor (shared) lock until the cursor moves or the key is
    /// written (Cursor Stability).
    cursor: Option<(TableId, Key)>,
}

struct Inner {
    store: Store,
    locks: LockTable,
    txns: Txns<TxnState>,
}

/// A strict-two-phase-locking engine whose lock scopes follow one row
/// of Figure 1. In-place updates: uncommitted versions sit at the tip
/// of the chain, so configurations without read locks genuinely
/// perform dirty reads — exactly the behaviour the corresponding
/// degree permits.
///
/// Lock conflicts are reported as [`EngineError::Blocked`] with the
/// holders; the engine never waits internally, so drivers implement
/// waiting and deadlock victims.
pub struct LockingEngine {
    catalog: Catalog,
    recorder: Recorder,
    config: LockConfig,
    inner: Mutex<Inner>,
}

/// The version a read by `txn` selects on a chain: its own latest
/// write if any, else the tip (dirty) or committed tip depending on
/// whether the configuration takes read locks.
fn selected(chain: &RowChain, txn: TxnId, dirty_ok: bool) -> Option<&StoredVersion> {
    chain.own_latest(txn).or_else(|| {
        if dirty_ok {
            chain.tip()
        } else {
            chain.committed_tip()
        }
    })
}

impl LockingEngine {
    /// Creates an engine with the given Figure 1 lock configuration.
    pub fn new(config: LockConfig) -> LockingEngine {
        LockingEngine {
            catalog: Catalog::new(),
            recorder: Recorder::new(),
            config,
            inner: Mutex::new(Inner {
                store: Store::new(),
                locks: LockTable::new(),
                txns: Txns::new(),
            }),
        }
    }

    /// Starts a transaction at a *different* Figure 1 row than the
    /// engine default — the mixed-level systems of §5.5.
    pub fn begin_with(&self, config: LockConfig) -> TxnId {
        let state = TxnState {
            config,
            writes: InPlace::default(),
            cursor: None,
        };
        let mut inner = self.inner.lock();
        inner.txns.begin(&self.recorder, config.level, state)
    }

    /// Positions a cursor on `(table, key)` and reads through it:
    /// acquires a shared lock that is *held while the cursor stays
    /// put* — released when the cursor moves to another row, upgraded
    /// when the transaction writes the row. This is the
    /// read-modify-write protection Cursor Stability adds over READ
    /// COMMITTED (the PL-CS level of the checker); plain reads keep
    /// their configured short/long durations.
    pub fn cursor_read(&self, txn: TxnId, table: TableId, key: Key) -> OpResult<Option<Value>> {
        let inner = &mut *self.inner.lock();
        let rec = &self.recorder;
        let config = inner.txns.enter(self, txn, table)?.config;
        if let Err(holders) = inner.locks.try_item(txn, table, key, LockMode::Shared) {
            return Err(EngineError::Blocked { holders });
        }
        // Cursor moved: drop the previous position's cursor lock —
        // unless the row was written (the X claim persists) or the
        // configuration takes *long* item read locks, in which case a
        // plain read may share the same S claim and releasing it would
        // silently revoke repeatable-read protection.
        let prev = inner.txns.state_mut(txn).cursor.replace((table, key));
        if let Some((pt, pk)) = prev {
            if (pt, pk) != (table, key) && config.item_read != LockDuration::Long {
                inner.locks.release_shared(txn, pt, pk);
            }
        }
        let Some(chain) = inner.store.current(table, key) else {
            return Ok(None);
        };
        Ok(selected(chain, txn, false).and_then(|v| {
            let value = v.value.clone()?;
            rec.cursor_read(txn, chain.object, v.version_id());
            Some(value)
        }))
    }

    /// Precision-lock check for a writer: other transactions' predicate
    /// locks on `table` that the before- or after-image satisfies.
    fn pred_conflicts(
        inner: &Inner,
        txn: TxnId,
        table: TableId,
        before: Option<&Value>,
        after: Option<&Value>,
    ) -> Vec<TxnId> {
        let mut out = Vec::new();
        for pl in inner.locks.pred_locks_of_others(txn, table) {
            let hit = before.map(|v| pl.pred.matches(v)).unwrap_or(false)
                || after.map(|v| pl.pred.matches(v)).unwrap_or(false);
            if hit {
                out.push(pl.txn);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Common write/delete path. `value: None` deletes.
    fn do_write(&self, txn: TxnId, table: TableId, key: Key, value: Option<Value>) -> OpResult<()> {
        let inner = &mut *self.inner.lock();
        let rec = &self.recorder;
        let config = inner.txns.enter(self, txn, table)?.config;

        // X lock (always at least short).
        if let Err(holders) = inner.locks.try_item(txn, table, key, LockMode::Exclusive) {
            return Err(EngineError::Blocked { holders });
        }
        // Precision predicate-lock check (before/after images).
        let before = inner
            .store
            .current(table, key)
            .and_then(|chain| selected(chain, txn, true))
            .and_then(|v| v.value.clone());
        let holders = Self::pred_conflicts(inner, txn, table, before.as_ref(), value.as_ref());
        if holders.is_empty() {
            let writes = &mut inner.txns.state_mut(txn).writes;
            writes.write(&mut inner.store, rec, txn, table, key, value);
        }
        if config.write == LockDuration::Short {
            inner.locks.release_exclusive(txn, table, key);
        }
        if holders.is_empty() {
            Ok(())
        } else {
            Err(EngineError::Blocked { holders })
        }
    }
}

impl Engine for LockingEngine {
    fn name(&self) -> String {
        self.config.name.to_string()
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    fn begin(&self) -> TxnId {
        self.begin_with(self.config)
    }

    fn read(&self, txn: TxnId, table: TableId, key: Key) -> OpResult<Option<Value>> {
        let inner = &mut *self.inner.lock();
        let rec = &self.recorder;
        let config = inner.txns.enter(self, txn, table)?.config;

        if config.item_read != LockDuration::None {
            if let Err(holders) = inner.locks.try_item(txn, table, key, LockMode::Shared) {
                return Err(EngineError::Blocked { holders });
            }
        }
        let dirty_ok = config.item_read == LockDuration::None;
        let out = inner.store.current(table, key).and_then(|chain| {
            let v = selected(chain, txn, dirty_ok)?;
            let value = v.value.clone()?; // absent or dead: nothing to read
            rec.read(txn, chain.object, v.version_id());
            Some(value)
        });
        if config.item_read == LockDuration::Short {
            inner.locks.release_shared(txn, table, key);
        }
        Ok(out)
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
        let config = inner.txns.enter(self, txn, pred.table)?.config;
        let table = pred.table;

        // Phantom lock: conflicts with concurrent writers whose
        // before- or after-image matches the predicate.
        if config.pred_read != LockDuration::None {
            let mut holders = Vec::new();
            for &ix in inner.store.table_chains(table) {
                let chain = &inner.store.chains[ix];
                let Some(holder) = inner.locks.exclusive_holder(txn, table, chain.key) else {
                    continue;
                };
                let after = chain.tip().and_then(|v| v.value.as_ref());
                let before = chain.committed_tip().and_then(|v| v.value.as_ref());
                if after.map(|v| pred.matches(v)).unwrap_or(false)
                    || before.map(|v| pred.matches(v)).unwrap_or(false)
                {
                    holders.push(holder);
                }
            }
            if !holders.is_empty() {
                holders.sort_unstable();
                holders.dedup();
                return Err(EngineError::Blocked { holders });
            }
        }

        // Scan, then acquire item read locks on the matches before
        // recording anything (all or nothing, so a Blocked return has
        // no side effects).
        let dirty_ok = config.item_read == LockDuration::None;
        let scan = inner
            .store
            .scan(pred, |_, chain| selected(chain, txn, dirty_ok));
        if config.item_read != LockDuration::None {
            let mut acquired = Vec::new();
            for &(key, ..) in &scan.matches {
                if inner.locks.holds_any(txn, table, key) {
                    continue; // already protected by a prior claim
                }
                if let Err(holders) = inner.locks.try_item(txn, table, key, LockMode::Shared) {
                    for key in acquired {
                        inner.locks.release_shared(txn, table, key);
                    }
                    return Err(EngineError::Blocked { holders });
                }
                acquired.push(key);
            }
        }
        let rows = scan.record(rec, txn, pred);
        // Long pred lock persists; short is released at op end; the
        // item read locks follow their own configured duration.
        if config.pred_read == LockDuration::Long {
            inner.locks.add_pred(txn, pred.clone());
        }
        if config.item_read == LockDuration::Short {
            for &(key, _) in &rows {
                inner.locks.release_shared(txn, table, key);
            }
        }
        Ok(rows)
    }

    fn commit(&self, txn: TxnId) -> OpResult<()> {
        let inner = &mut *self.inner.lock();
        inner
            .txns
            .check_active(txn)?
            .writes
            .commit(&mut inner.store, txn);
        inner.locks.release_all(txn);
        inner.txns.commit(&self.recorder, txn);
        Ok(())
    }

    fn abort(&self, txn: TxnId) -> OpResult<()> {
        let inner = &mut *self.inner.lock();
        if inner.txns.unresolved(txn)? {
            inner.txns.state(txn).writes.undo(&mut inner.store, txn);
            inner.locks.release_all(txn);
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

    fn setup(config: LockConfig) -> (LockingEngine, TableId) {
        let e = LockingEngine::new(config);
        let t = e.catalog().table("acct");
        (e, t)
    }

    #[test]
    fn read_your_own_writes() {
        let (e, tbl) = setup(LockConfig::serializable());
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(5)).unwrap();
        assert_eq!(e.read(t1, tbl, Key(1)).unwrap(), Some(Value::Int(5)));
        e.commit(t1).unwrap();
    }

    #[test]
    fn serializable_blocks_conflicting_write() {
        let (e, tbl) = setup(LockConfig::serializable());
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(5)).unwrap();
        let t2 = e.begin();
        let err = e.write(t2, tbl, Key(1), Value::Int(9)).unwrap_err();
        assert!(matches!(err, EngineError::Blocked { ref holders } if holders == &[t1]));
        e.commit(t1).unwrap();
        e.write(t2, tbl, Key(1), Value::Int(9)).unwrap();
        e.commit(t2).unwrap();
        let h = e.finalize();
        assert_eq!(h.committed_txns().count(), 2);
    }

    #[test]
    fn serializable_blocks_read_of_uncommitted() {
        let (e, tbl) = setup(LockConfig::serializable());
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(5)).unwrap();
        let t2 = e.begin();
        assert!(matches!(
            e.read(t2, tbl, Key(1)),
            Err(EngineError::Blocked { .. })
        ));
    }

    #[test]
    fn read_uncommitted_sees_dirty_data() {
        let (e, tbl) = setup(LockConfig::read_uncommitted());
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(5)).unwrap();
        let t2 = e.begin();
        // No read locks: T2 reads T1's uncommitted tip.
        assert_eq!(e.read(t2, tbl, Key(1)).unwrap(), Some(Value::Int(5)));
        e.commit(t1).unwrap();
        e.commit(t2).unwrap();
    }

    #[test]
    fn degree0_allows_overlapping_writes() {
        let (e, tbl) = setup(LockConfig::degree0());
        let t1 = e.begin();
        let t2 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(1)).unwrap();
        // Short X lock released: T2 may write too (P0!).
        e.write(t2, tbl, Key(1), Value::Int(2)).unwrap();
        e.commit(t1).unwrap();
        e.commit(t2).unwrap();
    }

    #[test]
    fn abort_restores_pre_state() {
        let (e, tbl) = setup(LockConfig::serializable());
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(5)).unwrap();
        e.commit(t1).unwrap();
        let t2 = e.begin();
        e.write(t2, tbl, Key(1), Value::Int(99)).unwrap();
        e.abort(t2).unwrap();
        assert_eq!(
            e.read(t2, tbl, Key(1)),
            Err(EngineError::Aborted(AbortReason::Requested))
        );
        let t3 = e.begin();
        assert_eq!(e.read(t3, tbl, Key(1)).unwrap(), Some(Value::Int(5)));
        e.commit(t3).unwrap();
    }

    #[test]
    fn delete_then_reinsert_is_new_object() {
        let (e, tbl) = setup(LockConfig::serializable());
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(5)).unwrap();
        e.commit(t1).unwrap();
        let t2 = e.begin();
        e.delete(t2, tbl, Key(1)).unwrap();
        e.commit(t2).unwrap();
        let t3 = e.begin();
        assert_eq!(e.read(t3, tbl, Key(1)).unwrap(), None);
        e.write(t3, tbl, Key(1), Value::Int(7)).unwrap();
        e.commit(t3).unwrap();
        let h = e.finalize();
        // Two distinct objects for key 1.
        assert_eq!(h.objects().count(), 2);
    }

    #[test]
    fn select_with_predicate_lock_blocks_phantom_insert() {
        let (e, tbl) = setup(LockConfig::serializable());
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(100)).unwrap();
        e.commit(t0).unwrap();
        let p = TablePred::new("pos", tbl, |v| matches!(v, Value::Int(i) if *i > 0));
        let t1 = e.begin();
        let rows = e.select(t1, &p).unwrap();
        assert_eq!(rows.len(), 1);
        // T2's insert of a matching row is blocked by T1's pred lock.
        let t2 = e.begin();
        assert!(matches!(
            e.write(t2, tbl, Key(2), Value::Int(50)),
            Err(EngineError::Blocked { .. })
        ));
        // But a non-matching insert sails through (precision locks).
        e.write(t2, tbl, Key(3), Value::Int(-1)).unwrap();
        e.commit(t1).unwrap();
        e.commit(t2).unwrap();
    }

    #[test]
    fn finalized_history_is_valid_and_has_version_orders() {
        let (e, tbl) = setup(LockConfig::serializable());
        let t1 = e.begin();
        e.write(t1, tbl, Key(1), Value::Int(1)).unwrap();
        e.commit(t1).unwrap();
        let t2 = e.begin();
        e.write(t2, tbl, Key(1), Value::Int(2)).unwrap();
        e.commit(t2).unwrap();
        let h = e.finalize();
        let obj = h.object_by_name("table0#1").unwrap();
        assert_eq!(h.version_order(obj).len(), 3); // init + two versions
    }

    #[test]
    fn aborted_insert_retires_incarnation() {
        let (e, tbl) = setup(LockConfig::serializable());
        let t1 = e.begin();
        e.write(t1, tbl, Key(9), Value::Int(1)).unwrap();
        e.abort(t1).unwrap();
        let t2 = e.begin();
        assert_eq!(e.read(t2, tbl, Key(9)).unwrap(), None);
        e.write(t2, tbl, Key(9), Value::Int(2)).unwrap();
        e.commit(t2).unwrap();
        let h = e.finalize();
        assert_eq!(h.committed_txns().count(), 1);
    }
}

#[cfg(test)]
mod cursor_tests {
    use super::*;
    use adya_core::{classify, IsolationLevel};

    /// Two read-modify-write increments through cursors: the cursor
    /// lock serializes them, no update is lost, and the history
    /// passes PL-CS (indeed PL-3 — with only two txns the protection
    /// is total).
    #[test]
    fn cursor_reads_prevent_lost_updates() {
        let e = LockingEngine::new(LockConfig::read_committed());
        let tbl = e.catalog().table("counter");
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(0)).unwrap();
        e.commit(t0).unwrap();

        let t1 = e.begin();
        let t2 = e.begin();
        let v1 = e.cursor_read(t1, tbl, Key(1)).unwrap().unwrap();
        // T2's cursor read coexists (S locks)…
        let _v2 = e.cursor_read(t2, tbl, Key(1)).unwrap().unwrap();
        // …but T1's write must wait for T2's cursor to move or end:
        assert!(matches!(
            e.write(t1, tbl, Key(1), Value::Int(v1.as_int().unwrap() + 1)),
            Err(EngineError::Blocked { .. })
        ));
        // T2 moves its cursor away; T1 can now upgrade and write.
        let _ = e.cursor_read(t2, tbl, Key(2)).unwrap();
        e.write(t1, tbl, Key(1), Value::Int(v1.as_int().unwrap() + 1))
            .unwrap();
        e.commit(t1).unwrap();
        // T2 re-reads through the cursor and increments: sees T1's 1.
        let v2 = e.cursor_read(t2, tbl, Key(1)).unwrap().unwrap();
        e.write(t2, tbl, Key(1), Value::Int(v2.as_int().unwrap() + 1))
            .unwrap();
        e.commit(t2).unwrap();

        let t3 = e.begin();
        assert_eq!(e.read(t3, tbl, Key(1)).unwrap(), Some(Value::Int(2)));
        e.commit(t3).unwrap();
        let h = e.finalize();
        let r = classify(&h);
        assert!(r.satisfies(IsolationLevel::PLCS), "{r}");
    }

    /// The same increments through *plain* READ COMMITTED reads lose
    /// an update; the history still satisfies PL-2 (and trivially
    /// PL-CS, which only guards cursor accesses) but not PL-3.
    #[test]
    fn plain_rc_reads_lose_updates() {
        let e = LockingEngine::new(LockConfig::read_committed());
        let tbl = e.catalog().table("counter");
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(0)).unwrap();
        e.commit(t0).unwrap();

        let t1 = e.begin();
        let t2 = e.begin();
        let v1 = e.read(t1, tbl, Key(1)).unwrap().unwrap();
        let v2 = e.read(t2, tbl, Key(1)).unwrap().unwrap();
        e.write(t1, tbl, Key(1), Value::Int(v1.as_int().unwrap() + 1))
            .unwrap();
        e.commit(t1).unwrap();
        e.write(t2, tbl, Key(1), Value::Int(v2.as_int().unwrap() + 1))
            .unwrap();
        e.commit(t2).unwrap();

        let t3 = e.begin();
        // Lost update: 1, not 2.
        assert_eq!(e.read(t3, tbl, Key(1)).unwrap(), Some(Value::Int(1)));
        e.commit(t3).unwrap();
        let h = e.finalize();
        let r = classify(&h);
        assert!(r.satisfies(IsolationLevel::PL2));
        assert!(!r.satisfies(IsolationLevel::PL3));
    }

    /// Regression: under REPEATABLE READ (long item read locks), a
    /// cursor move must not release the shared claim a prior plain
    /// read established.
    #[test]
    fn cursor_move_preserves_long_read_locks() {
        let e = LockingEngine::new(LockConfig::repeatable_read());
        let tbl = e.catalog().table("t");
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(1)).unwrap();
        e.write(t0, tbl, Key(2), Value::Int(2)).unwrap();
        e.commit(t0).unwrap();
        let t1 = e.begin();
        e.read(t1, tbl, Key(1)).unwrap(); // long S
        e.cursor_read(t1, tbl, Key(1)).unwrap(); // same row
        e.cursor_read(t1, tbl, Key(2)).unwrap(); // cursor moves away
                                                 // Key 1 must still be read-locked against writers.
        let t2 = e.begin();
        assert!(matches!(
            e.write(t2, tbl, Key(1), Value::Int(9)),
            Err(EngineError::Blocked { .. })
        ));
        e.commit(t1).unwrap();
        e.write(t2, tbl, Key(1), Value::Int(9)).unwrap();
        e.commit(t2).unwrap();
        use adya_core::IsolationLevel;
        let h = e.finalize();
        assert!(adya_core::classify(&h).satisfies(IsolationLevel::PL299));
    }

    /// Writing the cursor row upgrades the cursor lock in place; a
    /// subsequent cursor move must not release the X claim.
    #[test]
    fn write_through_cursor_keeps_exclusive_claim() {
        let e = LockingEngine::new(LockConfig::read_committed());
        let tbl = e.catalog().table("counter");
        let t0 = e.begin();
        e.write(t0, tbl, Key(1), Value::Int(0)).unwrap();
        e.write(t0, tbl, Key(2), Value::Int(0)).unwrap();
        e.commit(t0).unwrap();

        let t1 = e.begin();
        e.cursor_read(t1, tbl, Key(1)).unwrap();
        e.write(t1, tbl, Key(1), Value::Int(9)).unwrap();
        // Cursor moves on; the X lock on key 1 must persist.
        e.cursor_read(t1, tbl, Key(2)).unwrap();
        let t2 = e.begin();
        assert!(matches!(
            e.read(t2, tbl, Key(1)),
            Err(EngineError::Blocked { .. })
        ));
        e.commit(t1).unwrap();
        assert_eq!(e.read(t2, tbl, Key(1)).unwrap(), Some(Value::Int(9)));
        e.commit(t2).unwrap();
    }
}
