//! The common engine interface.

use adya_history::{History, TxnId, Value};

use crate::recorder::{EventTap, Recorder};
use crate::types::{Catalog, Key, OpResult, TableId, TablePred};

/// A transactional engine over the shared store model.
///
/// All engines are thread-safe; operations may return
/// [`crate::EngineError::Blocked`] (retry the identical call later —
/// blocked operations have no side effects) or
/// [`crate::EngineError::Aborted`] (the transaction is gone; begin a
/// new one). Drivers that want deadlock detection build a wait-for
/// graph from the `holders` reported by `Blocked`.
pub trait Engine: Send + Sync {
    /// Scheme name for reports ("2PL-serializable", "OCC", …).
    fn name(&self) -> String;

    /// The table catalog. Tables are registered by name on first use.
    fn catalog(&self) -> &Catalog;

    /// Starts a transaction.
    fn begin(&self) -> TxnId;

    /// Reads the row `(table, key)`; `None` if the row does not exist
    /// under this engine's visibility rule.
    fn read(&self, txn: TxnId, table: TableId, key: Key) -> OpResult<Option<Value>>;

    /// Writes (inserts or updates) the row.
    fn write(&self, txn: TxnId, table: TableId, key: Key, value: Value) -> OpResult<()>;

    /// Deletes the row (no-op if absent).
    fn delete(&self, txn: TxnId, table: TableId, key: Key) -> OpResult<()>;

    /// Predicate read: returns the matching `(key, value)` pairs and
    /// records a predicate read (plus item reads of the matches).
    fn select(&self, txn: TxnId, pred: &TablePred) -> OpResult<Vec<(Key, Value)>>;

    /// Attempts to commit.
    fn commit(&self, txn: TxnId) -> OpResult<()>;

    /// Aborts the transaction (idempotent).
    fn abort(&self, txn: TxnId) -> OpResult<()>;

    /// The recorder every operation of this engine is recorded
    /// through. Decorators forward to the engine they wrap.
    fn recorder(&self) -> &Recorder;

    /// Installs a streaming observer on the engine's recorder, beside
    /// any already installed: every subsequently recorded event (begin,
    /// read, write, commit, abort, predicate read) is passed to `tap` in
    /// recorded order, enabling live checking with `adya-online` while
    /// the workload runs. [`finalize`](Engine::finalize) drops it.
    fn set_event_tap(&self, tap: EventTap) {
        self.recorder().add_tap(tap);
    }

    /// Assembles the recorded history (completing still-active
    /// transactions with aborts). Call once, after the workload.
    fn finalize(&self) -> History;
}

/// Boxed engines forward the whole interface, so decorators written
/// over `E: Engine` (fault injection, instrumentation) compose with
/// dynamically chosen engines.
impl Engine for Box<dyn Engine> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn catalog(&self) -> &Catalog {
        (**self).catalog()
    }
    fn begin(&self) -> TxnId {
        (**self).begin()
    }
    fn read(&self, txn: TxnId, table: TableId, key: Key) -> OpResult<Option<Value>> {
        (**self).read(txn, table, key)
    }
    fn write(&self, txn: TxnId, table: TableId, key: Key, value: Value) -> OpResult<()> {
        (**self).write(txn, table, key, value)
    }
    fn delete(&self, txn: TxnId, table: TableId, key: Key) -> OpResult<()> {
        (**self).delete(txn, table, key)
    }
    fn select(&self, txn: TxnId, pred: &TablePred) -> OpResult<Vec<(Key, Value)>> {
        (**self).select(txn, pred)
    }
    fn commit(&self, txn: TxnId) -> OpResult<()> {
        (**self).commit(txn)
    }
    fn abort(&self, txn: TxnId) -> OpResult<()> {
        (**self).abort(txn)
    }
    fn recorder(&self) -> &Recorder {
        (**self).recorder()
    }
    fn finalize(&self) -> History {
        (**self).finalize()
    }
}
