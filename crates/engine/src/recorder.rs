//! Records engine operations into a validated history.
//!
//! The recorder is the only bridge between the engines and the
//! checker: every read, write, predicate read, begin, commit and abort
//! flows through it, and [`Recorder::finalize`] assembles an
//! [`adya_history::History`] with explicit version orders (physical
//! install order) and predicate match tables re-derived from the
//! engines' own predicate closures.

use std::collections::HashMap;
use std::sync::Arc;

use adya_history::{
    Event, History, HistoryBuilder, ObjectId, PredicateId, PredicateReadEvent, ReadEvent,
    RelationId, TxnId, Value, VersionId, VersionKind, WriteEvent,
};
use parking_lot::Mutex;

use crate::types::{Key, TableId, TablePred};

/// Observer invoked synchronously (under the recorder lock, so taps
/// see events in the exact recorded order) for every event as it is
/// recorded — the hook that feeds [`adya-online`]'s streaming checker
/// while an engine runs.
///
/// [`adya-online`]: https://docs.rs/adya-online
pub type EventTap = Arc<dyn Fn(&Event) + Send + Sync>;

#[derive(Default)]
struct Rec {
    b: HistoryBuilder,
    next_txn: u32,
    /// Events recorded so far.
    seq: u64,
    rel_of_table: HashMap<TableId, RelationId>,
    /// Predicates are identified by the address of their shared test
    /// closure, so cloned `TablePred`s map to one history predicate.
    pred_of: HashMap<usize, PredicateId>,
    /// Explicit version orders to apply at finalize.
    orders: Vec<(ObjectId, Vec<VersionId>)>,
    /// Set by [`Recorder::finalize`]; a second finalize would build
    /// from a drained builder and silently return an empty history.
    finalized: bool,
    /// Streaming observers, in installation order; see [`EventTap`].
    taps: Vec<EventTap>,
}

impl Rec {
    /// Delivers `ev` to every installed tap.
    ///
    /// Panic-safe: a tap callback that panics is caught here (the
    /// recorder lock is held by the caller, so letting the panic
    /// unwind would leave every later engine operation racing a
    /// half-observed stream — or, with a poisoning mutex, wedge the
    /// engine entirely). The offending tap is disarmed so the engine
    /// keeps running without it, and the incident is counted
    /// (`engine.tap_panics`).
    fn emit(&mut self, ev: Event) {
        self.seq += 1;
        self.taps.retain(|tap| {
            let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tap(&ev))).is_ok();
            if !ok {
                adya_obs::counter!("engine.tap_panics").inc();
            }
            ok
        });
    }
}

/// Thread-safe history recorder shared by an engine's operations.
#[derive(Default)]
pub struct Recorder {
    inner: Mutex<Rec>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Allocates a transaction id and records its begin event.
    pub fn begin_txn(&self) -> TxnId {
        let mut r = self.inner.lock();
        let t = TxnId(r.next_txn);
        r.next_txn += 1;
        r.b.begin(t);
        r.emit(Event::Begin(t));
        t
    }

    /// Installs a streaming observer that sees every subsequent event
    /// (begins, reads, writes, commits, aborts, predicate reads) in
    /// recorded order, beside any taps already installed. Events
    /// already recorded are not replayed. [`finalize`] drops every tap,
    /// which is how a tap that owns a stream's producer ends it.
    ///
    /// [`finalize`]: Recorder::finalize
    pub fn add_tap(&self, tap: EventTap) {
        self.inner.lock().taps.push(tap);
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> u64 {
        self.inner.lock().seq
    }

    /// Registers `table` as a history relation (idempotent).
    pub fn register_table(&self, table: TableId, name: &str) -> RelationId {
        let mut r = self.inner.lock();
        if let Some(&rel) = r.rel_of_table.get(&table) {
            return rel;
        }
        let rel = r.b.relation(name);
        r.rel_of_table.insert(table, rel);
        rel
    }

    /// Registers a fresh object (row incarnation) in `table`.
    pub fn register_object(&self, table: TableId, key: Key, incarnation: u32) -> ObjectId {
        let mut r = self.inner.lock();
        let rel = *r
            .rel_of_table
            .get(&table)
            .expect("table must be registered before its rows");
        let name = if incarnation == 0 {
            format!("{}{}", table, key)
        } else {
            format!("{}{}@{}", table, key, incarnation)
        };
        r.b.object_in(name, rel)
    }

    /// Records the requested isolation level of `txn` (for the
    /// mixed-history analysis of §5.5).
    pub fn set_level(&self, txn: TxnId, level: adya_history::RequestedLevel) {
        self.inner.lock().b.txn_level(txn, level);
    }

    /// Records a visible write; returns the created version id.
    pub fn write(&self, txn: TxnId, object: ObjectId, value: Value) -> VersionId {
        let mut r = self.inner.lock();
        let v = r.b.write(txn, object, value.clone());
        r.emit(Event::Write(WriteEvent {
            txn,
            object,
            seq: v.seq,
            kind: VersionKind::Visible,
            value: Some(value),
        }));
        v
    }

    /// Records a delete (dead version); returns the created version id.
    pub fn delete(&self, txn: TxnId, object: ObjectId) -> VersionId {
        let mut r = self.inner.lock();
        let v = r.b.delete(txn, object);
        r.emit(Event::Write(WriteEvent {
            txn,
            object,
            seq: v.seq,
            kind: VersionKind::Dead,
            value: None,
        }));
        v
    }

    /// Records an item read of an explicit version.
    pub fn read(&self, txn: TxnId, object: ObjectId, version: VersionId) {
        let mut r = self.inner.lock();
        r.b.read_version(txn, object, version);
        r.emit(Event::Read(ReadEvent {
            txn,
            object,
            version,
            through_cursor: false,
        }));
    }

    /// Records a cursor read of an explicit version (Cursor
    /// Stability).
    pub fn cursor_read(&self, txn: TxnId, object: ObjectId, version: VersionId) {
        let mut r = self.inner.lock();
        r.b.cursor_read_version(txn, object, version);
        r.emit(Event::Read(ReadEvent {
            txn,
            object,
            version,
            through_cursor: true,
        }));
    }

    /// Records a predicate read with its version set, registering the
    /// predicate (and scheduling its match-table derivation) on first
    /// use.
    pub fn predicate_read(&self, txn: TxnId, pred: &TablePred, vset: Vec<(ObjectId, VersionId)>) {
        let mut r = self.inner.lock();
        let key = Arc::as_ptr(&pred.test) as *const () as usize;
        let pid = match r.pred_of.get(&key) {
            Some(&p) => p,
            None => {
                let rel = *r
                    .rel_of_table
                    .get(&pred.table)
                    .expect("predicate over unregistered table");
                let pid = r.b.predicate(pred.name.clone(), &[rel]);
                let test = Arc::clone(&pred.test);
                r.b.derive_matches(pid, move |v| test(v));
                r.pred_of.insert(key, pid);
                pid
            }
        };
        r.b.predicate_read_versions(txn, pid, vset.clone());
        r.emit(Event::PredicateRead(PredicateReadEvent {
            txn,
            predicate: pid,
            vset,
        }));
    }

    /// Records a commit.
    pub fn commit(&self, txn: TxnId) {
        adya_obs::counter!("engine.commit").inc();
        let mut r = self.inner.lock();
        r.b.commit(txn);
        r.emit(Event::Commit(txn));
    }

    /// Records an abort.
    pub fn abort(&self, txn: TxnId) {
        adya_obs::counter!("engine.abort").inc();
        let mut r = self.inner.lock();
        r.b.abort(txn);
        r.emit(Event::Abort(txn));
    }

    /// Supplies the physical version order of one object (committed
    /// final versions, install order), to be applied at finalize.
    pub fn set_version_order(&self, object: ObjectId, order: Vec<VersionId>) {
        self.inner.lock().orders.push((object, order));
    }

    /// Builds the validated history. Still-running transactions are
    /// completed with aborts (the paper's completion rule), which is
    /// what a crash at this instant would have meant. Every tap is
    /// dropped: nothing is recorded after this.
    ///
    /// Panics if the recorded event stream violates the model's
    /// well-formedness rules — that would be an engine bug, and the
    /// whole point of the recorder is to make such bugs loud. Also
    /// panics on a second call: finalize drains the builder, so a
    /// repeat would silently yield an empty history.
    pub fn finalize(&self) -> History {
        let mut r = self.inner.lock();
        assert!(
            !r.finalized,
            "Recorder::finalize called twice; it drains the builder, \
             so a second history would be silently empty"
        );
        r.finalized = true;
        r.taps.clear();
        let orders = std::mem::take(&mut r.orders);
        // Rebuild the builder by value to call the consuming build.
        let mut b = std::mem::take(&mut r.b);
        for (obj, order) in orders {
            b.version_order(obj, &order);
        }
        b.build_completed()
            .expect("engine recorded an ill-formed history (engine bug)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_a_round_trip() {
        let rec = Recorder::new();
        let table = TableId(0);
        rec.register_table(table, "acct");
        let obj = rec.register_object(table, Key(1), 0);
        let t1 = rec.begin_txn();
        let v1 = rec.write(t1, obj, Value::Int(5));
        rec.commit(t1);
        let t2 = rec.begin_txn();
        rec.read(t2, obj, v1);
        rec.commit(t2);
        rec.set_version_order(obj, vec![v1]);
        let h = rec.finalize();
        assert_eq!(h.committed_txns().count(), 2);
        assert_eq!(h.version_order(obj).len(), 2);
    }

    #[test]
    fn incomplete_txns_get_aborted() {
        let rec = Recorder::new();
        let table = TableId(0);
        rec.register_table(table, "acct");
        let obj = rec.register_object(table, Key(1), 0);
        let t1 = rec.begin_txn();
        rec.write(t1, obj, Value::Int(5));
        let h = rec.finalize();
        assert!(!h.is_committed(t1));
    }

    #[test]
    fn predicate_registration_dedups_by_closure() {
        let rec = Recorder::new();
        let table = TableId(0);
        rec.register_table(table, "emp");
        let obj = rec.register_object(table, Key(1), 0);
        let p = TablePred::new("pos", table, |v| matches!(v, Value::Int(i) if *i > 0));
        let t1 = rec.begin_txn();
        let v = rec.write(t1, obj, Value::Int(3));
        rec.commit(t1);
        let t2 = rec.begin_txn();
        rec.predicate_read(t2, &p.clone(), vec![(obj, v)]);
        rec.predicate_read(t2, &p, vec![(obj, v)]);
        rec.commit(t2);
        let h = rec.finalize();
        assert_eq!(h.predicates().count(), 1);
        let (pid, _) = h.predicates().next().unwrap();
        assert!(h.matches(pid, obj, v), "match table derived from closure");
    }

    #[test]
    #[should_panic(expected = "finalize called twice")]
    fn double_finalize_panics_instead_of_returning_empty() {
        let rec = Recorder::new();
        let table = TableId(0);
        rec.register_table(table, "acct");
        let obj = rec.register_object(table, Key(1), 0);
        let t1 = rec.begin_txn();
        rec.write(t1, obj, Value::Int(5));
        rec.commit(t1);
        let h = rec.finalize();
        assert_eq!(h.committed_txns().count(), 1);
        let _ = rec.finalize(); // must panic, not hand back an empty history
    }

    #[test]
    fn panicking_tap_is_disarmed_not_fatal() {
        let rec = Recorder::new();
        let table = TableId(0);
        rec.register_table(table, "acct");
        let obj = rec.register_object(table, Key(1), 0);
        let seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let n = Arc::clone(&seen);
        // A tap that panics on its second event: the panic must be
        // contained, the tap disarmed, and the recorder fully usable.
        rec.add_tap(Arc::new(move |_e| {
            if n.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 1 {
                panic!("tap exploded");
            }
        }));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
        let t1 = rec.begin_txn(); // event 1: delivered
        let v1 = rec.write(t1, obj, Value::Int(5)); // event 2: tap panics, gets disarmed
        std::panic::set_hook(hook);
        rec.commit(t1); // tap is gone; must not panic again
        let t2 = rec.begin_txn();
        rec.read(t2, obj, v1);
        rec.commit(t2);
        assert_eq!(seen.load(std::sync::atomic::Ordering::SeqCst), 2);
        let h = rec.finalize();
        assert_eq!(h.committed_txns().count(), 2);
    }

    #[test]
    fn taps_see_recorded_order_until_finalize_drops_them() {
        let rec = Recorder::new();
        let table = TableId(0);
        rec.register_table(table, "acct");
        let obj = rec.register_object(table, Key(1), 0);
        let seen = Arc::new(Mutex::new(Vec::new()));
        for n in 0..2 {
            let sink = Arc::clone(&seen);
            rec.add_tap(Arc::new(move |ev| sink.lock().push((n, ev.clone()))));
        }
        let t1 = rec.begin_txn();
        rec.write(t1, obj, Value::Int(5));
        rec.commit(t1);
        assert_eq!(rec.event_count(), 3);
        assert_eq!(
            seen.lock()[..2],
            [(0, Event::Begin(t1)), (1, Event::Begin(t1))]
        );
        assert_eq!(seen.lock()[5], (1, Event::Commit(t1)));
        rec.finalize();
        assert_eq!(Arc::strong_count(&seen), 1, "finalize drops every tap");
    }

    #[test]
    fn incarnation_names_are_distinct() {
        let rec = Recorder::new();
        let table = TableId(0);
        rec.register_table(table, "t");
        let a = rec.register_object(table, Key(7), 0);
        let b = rec.register_object(table, Key(7), 1);
        assert_ne!(a, b);
    }
}
