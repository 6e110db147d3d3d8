//! The shared substrate: everything about running transactions over
//! rows and *recording* them that does not depend on the
//! concurrency-control scheme.
//!
//! Every engine stores data the same way — per-row version chains in
//! physical install order — and differs only in *which* version an
//! operation selects and in when transactions are forced to block or
//! abort. Chains correspond 1:1 to history objects; a
//! deleted-then-reinserted key starts a fresh chain (the model's
//! "distinct incarnations" rule).
//!
//! Each of these is written here, once, and an engine file keeps only
//! its scheme's three decisions:
//!
//! * [`Txns`] — the begin/commit/abort lifecycle, the prelude of every
//!   operation, and *why* an aborted transaction was aborted;
//! * [`Store::write`] — the chain a write lands on (the incarnation
//!   rule of §4.1) and its recording;
//! * [`Store::scan`] / [`Scan::record`] — a predicate read selects a
//!   version of *every* row of the relation, then item-reads the
//!   matches (§4.3);
//! * [`InPlace`] and [`Deferred`] — the two shapes of write handling;
//! * [`Store::finalize`] — each object's committed version order,
//!   handed to the recorder (§4.2).

use std::collections::{HashMap, HashSet};

use adya_history::{History, ObjectId, RequestedLevel, TxnId, Value, VersionId};

use crate::engine::Engine;
use crate::recorder::Recorder;
use crate::types::{AbortReason, EngineError, Key, OpResult, TableId, TablePred};

#[derive(Debug)]
enum TxnStatus {
    Active,
    Committed,
    /// With the reason recorded when the abort happened.
    Aborted(AbortReason),
}

/// An engine's transaction table: each transaction's status next to
/// the scheme's own per-transaction state `S`, and the tables its
/// operations have named so far — a table becomes a history relation
/// at the first operation on it, whatever that operation is.
pub(crate) struct Txns<S> {
    txns: HashMap<TxnId, (TxnStatus, S)>,
    known_tables: HashSet<TableId>,
}

impl<S> Txns<S> {
    pub fn new() -> Txns<S> {
        Txns {
            txns: HashMap::new(),
            known_tables: HashSet::new(),
        }
    }

    /// Begins a transaction promising `level`, with `state`.
    pub fn begin(&mut self, rec: &Recorder, level: RequestedLevel, state: S) -> TxnId {
        let txn = rec.begin_txn();
        rec.set_level(txn, level);
        self.txns.insert(txn, (TxnStatus::Active, state));
        txn
    }

    /// `txn`'s state while it is running. Otherwise the error says what
    /// became of it: an aborted transaction answers with the reason it
    /// was aborted for, a committed or never-begun handle names no live
    /// transaction.
    pub fn check_active(&self, txn: TxnId) -> OpResult<&S> {
        match self.txns.get(&txn) {
            Some((TxnStatus::Active, state)) => Ok(state),
            Some((TxnStatus::Aborted(reason), _)) => Err(EngineError::Aborted(reason.clone())),
            Some((TxnStatus::Committed, _)) | None => Err(EngineError::UnknownTxn),
        }
    }

    /// The prelude of every operation of `engine` on a table:
    /// [`check_active`], then the table's first mention registers its
    /// relation with the engine's recorder.
    ///
    /// [`check_active`]: Txns::check_active
    pub fn enter(&mut self, engine: &impl Engine, txn: TxnId, table: TableId) -> OpResult<&S> {
        self.check_active(txn)?;
        if self.known_tables.insert(table) {
            let name = engine.catalog().table_name(table);
            engine.recorder().register_table(table, &name);
        }
        Ok(self.state(txn))
    }

    /// The prelude of `abort`, which is idempotent: `Ok(false)` for a
    /// transaction already committed or aborted, `UnknownTxn` for a
    /// handle that was never begun.
    pub fn unresolved(&self, txn: TxnId) -> OpResult<bool> {
        match self.txns.get(&txn) {
            None => Err(EngineError::UnknownTxn),
            Some((status, _)) => Ok(matches!(status, TxnStatus::Active)),
        }
    }

    pub fn is_active(&self, txn: TxnId) -> bool {
        matches!(self.txns.get(&txn), Some((TxnStatus::Active, _)))
    }

    pub fn is_aborted(&self, txn: TxnId) -> bool {
        matches!(self.txns.get(&txn), Some((TxnStatus::Aborted(_), _)))
    }

    /// The state of a transaction this engine began.
    pub fn state(&self, txn: TxnId) -> &S {
        &self.txns.get(&txn).expect("a transaction begun here").1
    }

    /// See [`state`](Txns::state).
    pub fn state_mut(&mut self, txn: TxnId) -> &mut S {
        &mut self.entry(txn).1
    }

    fn entry(&mut self, txn: TxnId) -> &mut (TxnStatus, S) {
        self.txns.get_mut(&txn).expect("a transaction begun here")
    }

    /// Marks `txn` committed and records the commit.
    pub fn commit(&mut self, rec: &Recorder, txn: TxnId) {
        self.entry(txn).0 = TxnStatus::Committed;
        rec.commit(txn);
    }

    /// Marks `txn` aborted for `reason` and records the abort.
    pub fn abort(&mut self, rec: &Recorder, txn: TxnId, reason: AbortReason) {
        self.entry(txn).0 = TxnStatus::Aborted(reason);
        rec.abort(txn);
    }
}

/// One version in a chain.
#[derive(Debug, Clone)]
pub(crate) struct StoredVersion {
    /// Writing transaction.
    pub writer: TxnId,
    /// Per-(writer, object) modification counter.
    pub seq: u32,
    /// `None` encodes a dead (deleted) version.
    pub value: Option<Value>,
    /// Set when the writer commits.
    pub committed: bool,
    /// Commit stamp (monotone), set when the writer commits; used by
    /// snapshot reads.
    pub commit_stamp: Option<u64>,
}

impl StoredVersion {
    /// The history version id.
    pub fn version_id(&self) -> VersionId {
        VersionId::new(self.writer, self.seq)
    }

    /// True for dead (deletion) versions.
    pub fn is_dead(&self) -> bool {
        self.value.is_none()
    }
}

/// The committed version order entries for the history: of `versions`
/// (version, committed) in order, each writer's final committed one.
pub(crate) fn committed_order(
    versions: impl Iterator<Item = (VersionId, bool)> + Clone,
) -> Vec<VersionId> {
    let mut final_seq: HashMap<TxnId, u32> = HashMap::new();
    for (v, _) in versions.clone().filter(|&(_, committed)| committed) {
        let e = final_seq.entry(v.txn).or_insert(v.seq);
        *e = (*e).max(v.seq);
    }
    versions
        .filter(|&(v, committed)| committed && final_seq.get(&v.txn) == Some(&v.seq))
        .map(|(v, _)| v)
        .collect()
}

/// One object incarnation: a chain of versions in install order.
#[derive(Debug, Clone)]
pub(crate) struct RowChain {
    /// The table the row lives in.
    pub table: TableId,
    /// The row key (shared across incarnations).
    pub key: Key,
    /// The history object this incarnation maps to.
    pub object: ObjectId,
    /// Versions in physical install order.
    pub versions: Vec<StoredVersion>,
}

impl RowChain {
    /// The newest version regardless of commit status (dirty tip).
    pub fn tip(&self) -> Option<&StoredVersion> {
        self.versions.last()
    }

    /// The newest committed version.
    pub fn committed_tip(&self) -> Option<&StoredVersion> {
        self.versions.iter().rev().find(|v| v.committed)
    }

    /// The newest version written by `txn` (read-your-own-writes).
    pub fn own_latest(&self, txn: TxnId) -> Option<&StoredVersion> {
        self.versions.iter().rev().find(|v| v.writer == txn)
    }

    /// The newest version committed at or before `stamp` (snapshot
    /// visibility).
    pub fn version_at(&self, stamp: u64) -> Option<&StoredVersion> {
        self.versions
            .iter()
            .rev()
            .find(|v| v.commit_stamp.is_some_and(|s| s <= stamp))
    }

    /// Appends a version.
    pub fn push(&mut self, writer: TxnId, seq: u32, value: Option<Value>) {
        self.versions.push(StoredVersion {
            writer,
            seq,
            value,
            committed: false,
            commit_stamp: None,
        });
    }

    /// Marks `txn`'s versions committed at `stamp`.
    pub fn commit_writer(&mut self, txn: TxnId, stamp: u64) {
        for v in &mut self.versions {
            if v.writer == txn {
                v.committed = true;
                v.commit_stamp = Some(stamp);
            }
        }
    }

    /// Removes `txn`'s versions (abort undo). Returns true if any were
    /// removed.
    pub fn remove_writer(&mut self, txn: TxnId) -> bool {
        let before = self.versions.len();
        self.versions.retain(|v| v.writer != txn);
        self.versions.len() != before
    }

    /// Final committed versions in physical order.
    pub fn committed_order(&self) -> Vec<VersionId> {
        committed_order(self.versions.iter().map(|v| (v.version_id(), v.committed)))
    }
}

/// The store: chains by (table, key), with incarnation tracking.
#[derive(Debug, Default)]
pub(crate) struct Store {
    /// Current incarnation per key.
    current: HashMap<(TableId, Key), usize>,
    /// All chains ever created, including superseded incarnations.
    pub chains: Vec<RowChain>,
    /// Chain indices per table, in creation order.
    by_table: HashMap<TableId, Vec<usize>>,
    /// Incarnations started so far per key: the next one's number.
    incarnations: HashMap<(TableId, Key), u32>,
    /// The last commit stamp handed out (monotone).
    stamp: u64,
}

impl Store {
    pub fn new() -> Store {
        Store::default()
    }

    /// The last commit stamp handed out: "now", for snapshots.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Index of the current incarnation.
    pub fn chain_index(&self, table: TableId, key: Key) -> Option<usize> {
        self.current.get(&(table, key)).copied()
    }

    /// The current incarnation.
    pub fn current(&self, table: TableId, key: Key) -> Option<&RowChain> {
        self.chain_index(table, key).map(|ix| &self.chains[ix])
    }

    /// Creates a fresh incarnation for `(table, key)` mapped to
    /// history object `object`, and makes it current.
    fn new_incarnation(&mut self, table: TableId, key: Key, object: ObjectId) -> usize {
        let ix = self.chains.len();
        self.chains.push(RowChain {
            table,
            key,
            object,
            versions: Vec::new(),
        });
        self.current.insert((table, key), ix);
        self.by_table.entry(table).or_default().push(ix);
        ix
    }

    /// All chain indices of `table` (every incarnation).
    pub fn table_chains(&self, table: TableId) -> &[usize] {
        self.by_table.get(&table).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A write (`value: None` deletes) by `txn` to `(table, key)`:
    /// finds the chain it lands on, records it and pushes the version.
    /// Returns the chain — or `None` for the delete of an absent row
    /// (no chain, or the version the writer would supersede, its own
    /// latest else the tip, is dead), a no-op that records nothing.
    ///
    /// The write starts a fresh incarnation — a new history object,
    /// `t k@n` — when there is no chain, its tip is dead, or `txn`'s
    /// own latest version on it is dead: a deleted-then-reinserted row
    /// is a new object (§4.1).
    pub fn write(
        &mut self,
        rec: &Recorder,
        txn: TxnId,
        table: TableId,
        key: Key,
        value: Option<Value>,
    ) -> Option<usize> {
        let existing = self.chain_index(table, key);
        let chain = existing.map(|ix| &self.chains[ix]);
        if value.is_none() {
            let superseded = chain.and_then(|c| c.own_latest(txn).or_else(|| c.tip()));
            if superseded.is_none_or(|v| v.is_dead()) {
                return None;
            }
        }
        let needs_new = chain.is_none_or(|c| {
            c.versions.is_empty()
                || c.tip().is_some_and(|v| v.is_dead())
                || c.own_latest(txn).is_some_and(|v| v.is_dead())
        });
        let ix = if needs_new {
            let incarnation = self.incarnations.entry((table, key)).or_insert(0);
            let object = rec.register_object(table, key, *incarnation);
            *incarnation += 1;
            self.new_incarnation(table, key, object)
        } else {
            existing.expect("a chain that needs no successor")
        };
        self.push(rec, txn, ix, value);
        Some(ix)
    }

    /// Records a version by `txn` (`None` = dead) and pushes it onto
    /// chain `ix`.
    pub fn push(&mut self, rec: &Recorder, txn: TxnId, ix: usize, value: Option<Value>) {
        let object = self.chains[ix].object;
        let vid = match &value {
            Some(v) => rec.write(txn, object, v.clone()),
            None => rec.delete(txn, object),
        };
        self.chains[ix].push(txn, vid.seq, value);
    }

    /// The selecting half of a predicate read: `select` picks the
    /// version of each incarnation of `pred`'s table that the scheme
    /// lets the reader see. No selection (an empty chain, a row its
    /// snapshot predates) is the implicit unborn version.
    pub fn scan<'a>(
        &'a self,
        pred: &TablePred,
        mut select: impl FnMut(usize, &'a RowChain) -> Option<&'a StoredVersion>,
    ) -> Scan {
        let mut scan = Scan::default();
        for &ix in self.table_chains(pred.table) {
            let chain = &self.chains[ix];
            if let Some(v) = select(ix, chain) {
                scan.see(
                    pred,
                    chain.key,
                    chain.object,
                    v.version_id(),
                    v.value.as_ref(),
                );
            }
        }
        scan
    }

    /// Hands every chain's committed order to the recorder and builds
    /// the history.
    pub fn finalize(&self, rec: &Recorder) -> History {
        for chain in &self.chains {
            rec.set_version_order(chain.object, chain.committed_order());
        }
        rec.finalize()
    }
}

/// What a predicate read selected: a version of every row of the
/// relation, and the rows among them that match.
#[derive(Default)]
pub(crate) struct Scan {
    vset: Vec<(ObjectId, VersionId)>,
    /// `(key, object, version, value)` of each match, in scan order.
    pub matches: Vec<(Key, ObjectId, VersionId, Value)>,
}

impl Scan {
    /// Adds one row's selected version.
    pub fn see(
        &mut self,
        pred: &TablePred,
        key: Key,
        object: ObjectId,
        version: VersionId,
        value: Option<&Value>,
    ) {
        self.vset.push((object, version));
        if let Some(value) = value.filter(|v| pred.matches(v)) {
            self.matches.push((key, object, version, value.clone()));
        }
    }

    /// The recording half: the predicate read with its version set,
    /// then an item read of each match. Returns the matching rows.
    pub fn record(self, rec: &Recorder, txn: TxnId, pred: &TablePred) -> Vec<(Key, Value)> {
        rec.predicate_read(txn, pred, self.vset);
        for &(_, object, version, _) in &self.matches {
            rec.read(txn, object, version);
        }
        self.matches
            .into_iter()
            .map(|(key, _, _, value)| (key, value))
            .collect()
    }
}

/// Write handling *in place* (locking, SGT): a version goes onto its
/// chain when it is written, uncommitted at the tip, where schemes
/// that allow it read it dirty. Commit stamps the writer's versions;
/// abort takes them out again.
#[derive(Default)]
pub(crate) struct InPlace {
    written_chains: HashSet<usize>,
}

impl InPlace {
    /// [`Store::write`], remembering the chain.
    pub fn write(
        &mut self,
        store: &mut Store,
        rec: &Recorder,
        txn: TxnId,
        table: TableId,
        key: Key,
        value: Option<Value>,
    ) -> Option<usize> {
        let ix = store.write(rec, txn, table, key, value)?;
        self.written_chains.insert(ix);
        Some(ix)
    }

    /// [`Store::push`], remembering the chain.
    pub fn push(
        &mut self,
        store: &mut Store,
        rec: &Recorder,
        txn: TxnId,
        ix: usize,
        value: Option<Value>,
    ) {
        store.push(rec, txn, ix, value);
        self.written_chains.insert(ix);
    }

    /// Marks everything `txn` wrote committed, at the next stamp.
    pub fn commit(&self, store: &mut Store, txn: TxnId) {
        store.stamp += 1;
        for &ix in &self.written_chains {
            store.chains[ix].commit_writer(txn, store.stamp);
        }
    }

    /// Removes everything `txn` wrote.
    pub fn undo(&self, store: &mut Store, txn: TxnId) {
        for &ix in &self.written_chains {
            let chain = &mut store.chains[ix];
            chain.remove_writer(txn);
            // An incarnation that ends up empty is retired so the next
            // writer starts a fresh object.
            if chain.versions.is_empty()
                && store.current.get(&(chain.table, chain.key)) == Some(&ix)
            {
                store.current.remove(&(chain.table, chain.key));
            }
        }
    }
}

/// Write handling *deferred* (OCC, MVCC): writes are buffered in
/// program order (`None` value = delete), visible only to their own
/// transaction, and installed — recorded, pushed and committed — when
/// it commits. The chains never hold an uncommitted version.
#[derive(Default)]
pub(crate) struct Deferred {
    writes: Vec<(TableId, Key, Option<Value>)>,
}

impl Deferred {
    pub fn push(&mut self, table: TableId, key: Key, value: Option<Value>) {
        self.writes.push((table, key, value));
    }

    /// The rows written so far.
    pub fn keys(&self) -> impl Iterator<Item = (TableId, Key)> + '_ {
        self.writes.iter().map(|&(table, key, _)| (table, key))
    }

    /// The value the transaction itself would see for `(table, key)`,
    /// if it wrote it. No history event: the write is only recorded at
    /// install time.
    pub fn buffered(&self, table: TableId, key: Key) -> Option<Option<Value>> {
        self.writes
            .iter()
            .rev()
            .find(|(t, k, _)| *t == table && *k == key)
            .map(|(_, _, v)| v.clone())
    }

    /// Overlays the buffered writes on a predicate read's `rows`
    /// (read-your-own-writes for predicate queries).
    pub fn overlay(&self, pred: &TablePred, rows: &mut Vec<(Key, Value)>) {
        for (table, key, value) in &self.writes {
            if *table != pred.table {
                continue;
            }
            rows.retain(|(k, _)| k != key);
            if let Some(value) = value.as_ref().filter(|v| pred.matches(v)) {
                rows.push((*key, value.clone()));
            }
        }
    }

    /// Installs the buffered writes, committed at the next stamp, and
    /// reports each as `installed(chain, before image, after image)`.
    pub fn install(
        &mut self,
        store: &mut Store,
        rec: &Recorder,
        txn: TxnId,
        mut installed: impl FnMut(&RowChain, Option<Value>, Option<Value>),
    ) {
        store.stamp += 1;
        for (table, key, value) in std::mem::take(&mut self.writes) {
            let before = store
                .current(table, key)
                .and_then(|c| c.committed_tip())
                .and_then(|v| v.value.clone());
            let Some(ix) = store.write(rec, txn, table, key, value.clone()) else {
                continue;
            };
            store.chains[ix].commit_writer(txn, store.stamp);
            installed(&store.chains[ix], before, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_history::ObjectId;

    fn chain() -> RowChain {
        RowChain {
            table: TableId(0),
            key: Key(1),
            object: ObjectId(0),
            versions: Vec::new(),
        }
    }

    #[test]
    fn visibility_selectors() {
        let mut c = chain();
        c.push(TxnId(1), 1, Some(Value::Int(10)));
        c.commit_writer(TxnId(1), 1);
        c.push(TxnId(2), 1, Some(Value::Int(20)));
        // Dirty tip is T2's uncommitted version; committed tip is T1's.
        assert_eq!(c.tip().unwrap().writer, TxnId(2));
        assert_eq!(c.committed_tip().unwrap().writer, TxnId(1));
        assert_eq!(c.own_latest(TxnId(2)).unwrap().seq, 1);
        assert!(c.own_latest(TxnId(3)).is_none());
        // Snapshot visibility.
        assert_eq!(c.version_at(1).unwrap().writer, TxnId(1));
        assert!(c.version_at(0).is_none());
        c.commit_writer(TxnId(2), 5);
        assert_eq!(c.version_at(4).unwrap().writer, TxnId(1));
        assert_eq!(c.version_at(5).unwrap().writer, TxnId(2));
    }

    #[test]
    fn abort_removes_versions() {
        let mut c = chain();
        c.push(TxnId(1), 1, Some(Value::Int(10)));
        c.push(TxnId(2), 1, Some(Value::Int(20)));
        assert!(c.remove_writer(TxnId(2)));
        assert_eq!(c.versions.len(), 1);
        assert!(!c.remove_writer(TxnId(2)));
    }

    #[test]
    fn committed_order_keeps_final_versions_in_install_order() {
        let mut c = chain();
        c.push(TxnId(1), 1, Some(Value::Int(1)));
        c.push(TxnId(1), 2, Some(Value::Int(2))); // T1 writes twice
        c.push(TxnId(2), 1, Some(Value::Int(3)));
        c.commit_writer(TxnId(1), 1);
        c.commit_writer(TxnId(2), 2);
        let order = c.committed_order();
        assert_eq!(
            order,
            vec![VersionId::new(TxnId(1), 2), VersionId::new(TxnId(2), 1)]
        );
    }

    #[test]
    fn committed_order_skips_uncommitted() {
        let mut c = chain();
        c.push(TxnId(1), 1, Some(Value::Int(1)));
        c.push(TxnId(2), 1, Some(Value::Int(2)));
        c.commit_writer(TxnId(2), 1);
        assert_eq!(c.committed_order(), vec![VersionId::new(TxnId(2), 1)]);
    }

    /// A store over one registered table, a recorder, and a begun
    /// transaction.
    fn substrate() -> (Store, Recorder, TxnId) {
        let rec = Recorder::new();
        rec.register_table(TableId(0), "t");
        let t1 = rec.begin_txn();
        (Store::new(), rec, t1)
    }

    const T: TableId = TableId(0);
    const K: Key = Key(7);

    /// One write by a fresh transaction, committed in store and
    /// recorder alike. Returns the chain it landed on.
    fn committed_write(s: &mut Store, rec: &Recorder, value: Option<Value>) -> Option<usize> {
        let txn = rec.begin_txn();
        let mut writes = InPlace::default();
        let ix = writes.write(s, rec, txn, T, K, value);
        writes.commit(s, txn);
        rec.commit(txn);
        ix
    }

    #[test]
    fn first_write_starts_incarnation_zero() {
        let (mut s, rec, _) = substrate();
        let ix = committed_write(&mut s, &rec, Some(Value::Int(1))).unwrap();
        assert_eq!(s.chain_index(T, K), Some(ix));
        let h = s.finalize(&rec);
        assert_eq!(h.object_by_name("table0#7"), Some(s.chains[ix].object));
        assert_eq!(h.objects().count(), 1);
    }

    #[test]
    fn write_after_a_committed_dead_tip_is_a_new_object() {
        let (mut s, rec, _) = substrate();
        let first = committed_write(&mut s, &rec, Some(Value::Int(1))).unwrap();
        assert_eq!(committed_write(&mut s, &rec, None), Some(first));
        let second = committed_write(&mut s, &rec, Some(Value::Int(2))).unwrap();
        assert_ne!(second, first);
        assert_ne!(s.chains[second].object, s.chains[first].object);
        assert_eq!(s.chain_index(T, K), Some(second));
        let h = s.finalize(&rec);
        assert_eq!(
            h.object_by_name("table0#7@1"),
            Some(s.chains[second].object)
        );
    }

    #[test]
    fn reinsert_after_own_uncommitted_delete_is_a_new_object() {
        let (mut s, rec, t1) = substrate();
        let first = s.write(&rec, t1, T, K, Some(Value::Int(1))).unwrap();
        assert_eq!(s.write(&rec, t1, T, K, None), Some(first));
        let second = s.write(&rec, t1, T, K, Some(Value::Int(2))).unwrap();
        assert_ne!(second, first);
        assert_eq!(s.chains[second].versions.len(), 1);
        assert_eq!(s.table_chains(T), &[first, second]);
    }

    #[test]
    fn chain_emptied_by_its_only_writers_abort_is_retired() {
        let (mut s, rec, t1) = substrate();
        let mut writes = InPlace::default();
        let first = writes.write(&mut s, &rec, t1, T, K, Some(Value::Int(1)));
        writes.undo(&mut s, t1);
        rec.abort(t1);
        assert_eq!(s.chain_index(T, K), None, "retired");
        let second = committed_write(&mut s, &rec, Some(Value::Int(2)));
        assert_ne!(second, first, "the next writer starts a fresh object");
        let h = s.finalize(&rec);
        assert!(h.object_by_name("table0#7@1").is_some());
    }

    #[test]
    fn delete_of_an_absent_row_records_nothing() {
        let (mut s, rec, t1) = substrate();
        let before = rec.event_count();
        assert_eq!(s.write(&rec, t1, T, K, None), None, "no chain");
        let ix = s.write(&rec, t1, T, K, Some(Value::Int(1))).unwrap();
        s.write(&rec, t1, T, K, None).unwrap();
        let after_delete = rec.event_count();
        assert_eq!(after_delete, before + 2);
        assert_eq!(s.write(&rec, t1, T, K, None), None, "dead already");
        assert_eq!(rec.event_count(), after_delete);
        assert_eq!(s.chains[ix].versions.len(), 2);
        assert_eq!(s.chains.len(), 1);
    }

    #[test]
    fn incarnations_are_distinct_chains() {
        let mut s = Store::new();
        let a = s.new_incarnation(TableId(0), Key(1), ObjectId(0));
        let b = s.new_incarnation(TableId(0), Key(1), ObjectId(1));
        assert_ne!(a, b);
        let cur = s.chain_index(TableId(0), Key(1)).unwrap();
        assert_eq!(s.chains[cur].object, ObjectId(1));
        assert_eq!(s.table_chains(TableId(0)), &[a, b]);
    }
}
