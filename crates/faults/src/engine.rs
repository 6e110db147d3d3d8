//! The [`Engine`] decorator that executes a [`FaultPlane`]'s schedule.

use std::collections::HashSet;
use std::sync::Arc;

use adya_engine::{
    AbortReason, Catalog, Engine, EngineError, Key, OpResult, Recorder, TableId, TablePred,
};
use adya_history::{History, TxnId, Value};
use parking_lot::Mutex;

use crate::plane::{Decision, FaultPlane, Site};

/// Wraps any engine and injects the plane's faults at every fallible
/// trait call site.
///
/// Semantics, chosen so the decorated engine still honours the
/// `Engine` contract:
///
/// * **Injected `Blocked`** returns *before* touching the inner
///   engine, with an empty holder list — it is indistinguishable from
///   a transient conflict that cleared, and retrying the identical
///   call is safe exactly as the trait documents.
/// * **Injected aborts** abort the transaction on the inner engine
///   (so the recorded history shows a real abort) and surface as
///   [`AbortReason::Injected`]; every later call on the dead handle
///   also answers `Aborted(Injected)` rather than leaking the inner
///   engine's bookkeeping reason.
/// * **Crash points** fire at scheduled commit attempts: *every*
///   in-flight transaction is aborted at once — committed data stays
///   durable in the inner engine, exactly the paper's completion rule
///   for a crash — and the poisoned handles answer
///   `Aborted(Injected)` until the driver gives up or restarts them.
/// * **`abort` is never faulted** (it is the recovery path) and stays
///   idempotent.
pub struct FaultyEngine<E> {
    inner: E,
    plane: Arc<FaultPlane>,
    /// Transactions begun and not yet terminally resolved *by the
    /// wrapper's own accounting* (a crash point clears it wholesale).
    live: Mutex<HashSet<TxnId>>,
    /// Handles killed by an injected abort or a crash; every later
    /// call answers `Aborted(Injected)` until `abort` reclaims them.
    poisoned: Mutex<HashSet<TxnId>>,
}

impl<E: Engine> FaultyEngine<E> {
    /// Decorates `inner` with `plane`'s schedule. The plane is shared
    /// so the harness can read its [`stats`](FaultPlane::stats).
    pub fn new(inner: E, plane: Arc<FaultPlane>) -> FaultyEngine<E> {
        FaultyEngine {
            inner,
            plane,
            live: Mutex::new(HashSet::new()),
            poisoned: Mutex::new(HashSet::new()),
        }
    }

    /// The shared fault plane.
    pub fn plane(&self) -> &Arc<FaultPlane> {
        &self.plane
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Consults the plane for one call on `txn` at `site`; `Err` means
    /// the call is answered without reaching the inner engine.
    fn gate(&self, txn: TxnId, site: Site) -> Result<(), EngineError> {
        if self.poisoned.lock().contains(&txn) {
            return Err(EngineError::Aborted(AbortReason::Injected));
        }
        match self.plane.decide(site) {
            Decision::Pass => Ok(()),
            Decision::Delay => {
                self.plane.delay();
                Ok(())
            }
            Decision::Block => Err(EngineError::Blocked {
                holders: Vec::new(),
            }),
            Decision::Abort => {
                let _ = self.inner.abort(txn);
                self.live.lock().remove(&txn);
                self.poisoned.lock().insert(txn);
                Err(EngineError::Aborted(AbortReason::Injected))
            }
        }
    }

    /// Takes a crash point: every live transaction is aborted on the
    /// inner engine and poisoned. Returns the number of victims.
    fn crash(&self, committer: TxnId) -> usize {
        let victims: Vec<TxnId> = {
            let mut live = self.live.lock();
            let v = live.iter().copied().collect();
            live.clear();
            v
        };
        let n = victims.len();
        for t in &victims {
            let _ = self.inner.abort(*t);
        }
        let mut poisoned = self.poisoned.lock();
        for t in victims {
            if t != committer {
                poisoned.insert(t);
            }
        }
        adya_obs::counter!("faults.crash_victims").add(n as u64);
        n
    }
}

impl<E: Engine> Engine for FaultyEngine<E> {
    fn name(&self) -> String {
        format!("faulty({})", self.inner.name())
    }

    fn catalog(&self) -> &Catalog {
        self.inner.catalog()
    }

    fn begin(&self) -> TxnId {
        let t = self.inner.begin();
        self.live.lock().insert(t);
        t
    }

    fn read(&self, txn: TxnId, table: TableId, key: Key) -> OpResult<Option<Value>> {
        self.gate(txn, Site::Read)?;
        self.inner.read(txn, table, key)
    }

    fn write(&self, txn: TxnId, table: TableId, key: Key, value: Value) -> OpResult<()> {
        self.gate(txn, Site::Write)?;
        self.inner.write(txn, table, key, value)
    }

    fn delete(&self, txn: TxnId, table: TableId, key: Key) -> OpResult<()> {
        self.gate(txn, Site::Delete)?;
        self.inner.delete(txn, table, key)
    }

    fn select(&self, txn: TxnId, pred: &TablePred) -> OpResult<Vec<(Key, Value)>> {
        self.gate(txn, Site::Select)?;
        self.inner.select(txn, pred)
    }

    fn commit(&self, txn: TxnId) -> OpResult<()> {
        if self.poisoned.lock().contains(&txn) {
            return Err(EngineError::Aborted(AbortReason::Injected));
        }
        if self.plane.crash_due() {
            self.crash(txn);
            return Err(EngineError::Aborted(AbortReason::Injected));
        }
        self.gate(txn, Site::Commit)?;
        let r = self.inner.commit(txn);
        match &r {
            Ok(()) | Err(EngineError::Aborted(_)) => {
                self.live.lock().remove(&txn);
            }
            Err(EngineError::Blocked { .. }) | Err(EngineError::UnknownTxn) => {}
        }
        r
    }

    fn abort(&self, txn: TxnId) -> OpResult<()> {
        self.live.lock().remove(&txn);
        self.poisoned.lock().remove(&txn);
        self.inner.abort(txn)
    }

    fn recorder(&self) -> &Recorder {
        self.inner.recorder()
    }

    fn finalize(&self) -> History {
        self.inner.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::FaultConfig;
    use adya_engine::{LockConfig, LockingEngine};

    fn table(e: &dyn Engine) -> TableId {
        e.catalog().table("acct")
    }

    #[test]
    fn quiet_plane_is_transparent() {
        let plane = Arc::new(FaultPlane::new(FaultConfig::quiet(1)));
        let e = FaultyEngine::new(LockingEngine::new(LockConfig::serializable()), plane);
        let t = table(&e);
        let t1 = e.begin();
        e.write(t1, t, Key(1), Value::Int(5)).unwrap();
        e.commit(t1).unwrap();
        let t2 = e.begin();
        assert_eq!(e.read(t2, t, Key(1)).unwrap(), Some(Value::Int(5)));
        e.commit(t2).unwrap();
        let h = e.finalize();
        assert_eq!(h.committed_txns().count(), 2);
        assert_eq!(e.plane().stats(), Default::default());
    }

    #[test]
    fn injected_abort_reports_injected_everywhere() {
        let plane = Arc::new(FaultPlane::new(FaultConfig {
            seed: 0,
            block_prob: 0.0,
            abort_prob: 1.0,
            delay_prob: 0.0,
            delay_spins: 0,
            crash_every: None,
        }));
        let e = FaultyEngine::new(LockingEngine::new(LockConfig::serializable()), plane);
        let t = table(&e);
        let t1 = e.begin();
        assert_eq!(
            e.write(t1, t, Key(1), Value::Int(5)),
            Err(EngineError::Aborted(AbortReason::Injected))
        );
        // The dead handle keeps answering Injected, not the inner
        // engine's bookkeeping reason.
        assert_eq!(
            e.read(t1, t, Key(1)),
            Err(EngineError::Aborted(AbortReason::Injected))
        );
        assert_eq!(
            e.commit(t1),
            Err(EngineError::Aborted(AbortReason::Injected))
        );
        // Abort stays idempotent and reclaims the handle.
        assert_eq!(e.abort(t1), Ok(()));
        assert_eq!(e.abort(t1), Ok(()));
    }

    #[test]
    fn injected_block_leaves_no_side_effects() {
        let plane = Arc::new(FaultPlane::new(FaultConfig {
            seed: 0,
            block_prob: 0.5,
            abort_prob: 0.0,
            delay_prob: 0.0,
            delay_spins: 0,
            crash_every: None,
        }));
        let e = FaultyEngine::new(LockingEngine::new(LockConfig::serializable()), plane);
        let t = table(&e);
        let t1 = e.begin();
        // Retry each write through injected blocks; every write must
        // eventually land exactly once and the history stay clean.
        let mut blocks = 0;
        for k in 1..=20u64 {
            loop {
                match e.write(t1, t, Key(k), Value::Int(7)) {
                    Ok(()) => break,
                    Err(EngineError::Blocked { holders }) => {
                        assert!(holders.is_empty());
                        blocks += 1;
                        assert!(blocks < 1000, "block schedule never clears");
                    }
                    Err(other) => panic!("{other:?}"),
                }
            }
        }
        loop {
            match e.commit(t1) {
                Ok(()) => break,
                Err(EngineError::Blocked { .. }) => {}
                Err(other) => panic!("{other:?}"),
            }
        }
        assert!(blocks > 0, "20 writes at 50% should block at least once");
        let h = e.finalize();
        assert_eq!(h.committed_txns().count(), 1);
    }

    #[test]
    fn crash_point_loses_in_flight_keeps_committed() {
        let plane = Arc::new(FaultPlane::new(FaultConfig {
            seed: 9,
            block_prob: 0.0,
            abort_prob: 0.0,
            delay_prob: 0.0,
            delay_spins: 0,
            crash_every: Some(2),
        }));
        let e = FaultyEngine::new(LockingEngine::new(LockConfig::serializable()), plane);
        let t = table(&e);
        // First commit survives (crash at every 2nd attempt).
        let t1 = e.begin();
        e.write(t1, t, Key(1), Value::Int(1)).unwrap();
        e.commit(t1).unwrap();
        // Two in-flight transactions; t2's commit attempt is the crash.
        let t2 = e.begin();
        let t3 = e.begin();
        e.write(t2, t, Key(2), Value::Int(2)).unwrap();
        e.write(t3, t, Key(3), Value::Int(3)).unwrap();
        assert_eq!(
            e.commit(t2),
            Err(EngineError::Aborted(AbortReason::Injected))
        );
        // t3 was poisoned by the crash.
        assert_eq!(
            e.read(t3, t, Key(3)),
            Err(EngineError::Aborted(AbortReason::Injected))
        );
        assert_eq!(e.abort(t3), Ok(()));
        // Committed data survived; recovery can run a fresh transaction.
        let t4 = e.begin();
        assert_eq!(e.read(t4, t, Key(1)).unwrap(), Some(Value::Int(1)));
        assert_eq!(e.read(t4, t, Key(2)).unwrap(), None);
        e.commit(t4).unwrap();
        assert_eq!(e.plane().stats().crashes, 1);
        let h = e.finalize();
        assert_eq!(h.committed_txns().count(), 2);
    }
}
