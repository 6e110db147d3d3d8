//! A programmatic DSL for assembling histories in the paper's
//! notation.
//!
//! The builder tracks version sequence numbers automatically (`w1(x)`
//! twice produces `x_{1:1}` then `x_{1:2}`), resolves "read T1's write
//! of x" to the correct version, derives predicate match tables from
//! row values, and completes histories by appending aborts — so tests
//! and examples read almost exactly like the paper's histories.

use crate::error::HistoryError;
use crate::event::{Event, PredicateReadEvent, ReadEvent, WriteEvent};
use crate::history::{History, HistoryParts, ObjectInfo, PredicateInfo, RelationInfo};
use crate::ids::{IdMap, IdSet, ObjectId, PredicateId, RelationId, TxnId, VersionId};
use crate::txn::RequestedLevel;
use crate::value::{Value, VersionKind};

type MatchFn = Box<dyn Fn(&Value) -> bool + Send + Sync>;

/// Incremental builder for a [`History`].
///
/// ```
/// use adya_history::{HistoryBuilder, Value};
///
/// // H_wcycle of §5.1: w1(x1,2) w2(x2,5) w2(y2,5) c2 w1(y1,8) c1
/// //                   [x1 << x2, y2 << y1]
/// let mut b = HistoryBuilder::new();
/// let (t1, t2) = (b.txn(1), b.txn(2));
/// let x = b.object("x");
/// let y = b.object("y");
/// b.write(t1, x, Value::Int(2));
/// b.write(t2, x, Value::Int(5));
/// b.write(t2, y, Value::Int(5));
/// b.commit(t2);
/// b.write(t1, y, Value::Int(8));
/// b.commit(t1);
/// b.version_order_by_txn(x, &[t1, t2]);
/// b.version_order_by_txn(y, &[t2, t1]);
/// let h = b.build().unwrap();
/// assert!(h.version_precedes(x, adya_history::VersionId::new(t1, 1),
///                               adya_history::VersionId::new(t2, 1)));
/// ```
#[derive(Default)]
pub struct HistoryBuilder {
    parts: HistoryParts,
    next_object: u32,
    next_relation: u32,
    next_predicate: u32,
    default_relation: Option<RelationId>,
    /// Latest write seq per (txn, object) so far.
    seqs: IdMap<(TxnId, ObjectId), u32>,
    /// Match derivations to run at build time.
    derived: Vec<(PredicateId, MatchFn)>,
}

impl HistoryBuilder {
    /// Creates an empty builder.
    pub fn new() -> HistoryBuilder {
        HistoryBuilder::default()
    }

    // ---- schema ---------------------------------------------------

    /// Registers a relation.
    pub fn relation(&mut self, name: impl Into<String>) -> RelationId {
        let id = RelationId(self.next_relation);
        self.next_relation += 1;
        self.parts
            .relations
            .insert(id, RelationInfo { name: name.into() });
        id
    }

    /// The default relation, created on demand; item-only histories
    /// never need to mention relations at all. Public so the textual
    /// parser can declare predicates over it.
    pub fn default_relation(&mut self) -> RelationId {
        self.default_rel()
    }

    /// The default relation, created on demand.
    fn default_rel(&mut self) -> RelationId {
        match self.default_relation {
            Some(r) => r,
            None => {
                let r = self.relation("default");
                self.default_relation = Some(r);
                r
            }
        }
    }

    /// Registers an object in the default relation, with an unborn
    /// initial version.
    pub fn object(&mut self, name: impl Into<String>) -> ObjectId {
        let rel = self.default_rel();
        self.object_in(name, rel)
    }

    /// Registers an object in `relation`, with an unborn initial
    /// version.
    pub fn object_in(&mut self, name: impl Into<String>, relation: RelationId) -> ObjectId {
        self.register_object(name, relation, None)
    }

    /// Registers an object whose initial version is *visible* with
    /// `value` (database-loader semantics, §4.1).
    pub fn preloaded_object(&mut self, name: impl Into<String>, value: Value) -> ObjectId {
        let rel = self.default_rel();
        self.preloaded_object_in(name, rel, value)
    }

    /// Registers a preloaded object in `relation`.
    pub fn preloaded_object_in(
        &mut self,
        name: impl Into<String>,
        relation: RelationId,
        value: Value,
    ) -> ObjectId {
        self.register_object(name, relation, Some(value))
    }

    fn register_object(
        &mut self,
        name: impl Into<String>,
        relation: RelationId,
        preload: Option<Value>,
    ) -> ObjectId {
        let id = ObjectId(self.next_object);
        self.next_object += 1;
        self.parts.objects.insert(
            id,
            ObjectInfo {
                name: name.into(),
                relation,
                preload,
            },
        );
        id
    }

    /// Registers a predicate ranging over `relations`. Its match table
    /// starts empty; fill it with [`HistoryBuilder::set_match`] or
    /// [`HistoryBuilder::derive_matches`].
    pub fn predicate(&mut self, name: impl Into<String>, relations: &[RelationId]) -> PredicateId {
        let id = PredicateId(self.next_predicate);
        self.next_predicate += 1;
        self.parts.predicates.insert(
            id,
            PredicateInfo {
                name: name.into(),
                relations: relations.to_vec(),
                matches: Default::default(),
            },
        );
        id
    }

    /// Declares a transaction id (idempotent; any event also declares
    /// its transaction implicitly).
    pub fn txn(&mut self, id: u32) -> TxnId {
        TxnId(id)
    }

    /// Records the requested isolation level for mixed-history analysis
    /// (§5.5). Defaults to PL-3.
    pub fn txn_level(&mut self, txn: TxnId, level: RequestedLevel) {
        self.parts.levels.insert(txn, level);
    }

    // ---- events ---------------------------------------------------

    /// Appends a raw event.
    pub fn event(&mut self, event: Event) {
        if let Event::Write(w) = &event {
            self.seqs.insert((w.txn, w.object), w.seq);
        }
        self.parts.events.push(event);
    }

    /// `b_i` — explicit begin (needed for Snapshot Isolation's
    /// time-precedes order; otherwise optional).
    pub fn begin(&mut self, txn: TxnId) {
        self.event(Event::Begin(txn));
    }

    /// `w_i(x_{i:m}, v)` — visible write; the seq `m` is assigned
    /// automatically. Returns the created version id.
    pub fn write(&mut self, txn: TxnId, object: ObjectId, value: Value) -> VersionId {
        self.push_write(txn, object, VersionKind::Visible, Some(value))
    }

    /// `w_i(x_{i:m})` — visible write without a recorded value.
    pub fn write_unvalued(&mut self, txn: TxnId, object: ObjectId) -> VersionId {
        self.push_write(txn, object, VersionKind::Visible, None)
    }

    /// `w_i(x_i, dead)` — delete: installs a dead version.
    pub fn delete(&mut self, txn: TxnId, object: ObjectId) -> VersionId {
        self.push_write(txn, object, VersionKind::Dead, None)
    }

    fn push_write(
        &mut self,
        txn: TxnId,
        object: ObjectId,
        kind: VersionKind,
        value: Option<Value>,
    ) -> VersionId {
        let seq = self.seqs.get(&(txn, object)).copied().unwrap_or(0) + 1;
        self.event(Event::Write(WriteEvent {
            txn,
            object,
            seq,
            kind,
            value,
        }));
        VersionId::new(txn, seq)
    }

    /// The sequence number of `txn`'s latest write of `object` so far,
    /// if any. Lets callers resolve "the version T1 last wrote"
    /// without panicking.
    pub fn last_seq(&self, txn: TxnId, object: ObjectId) -> Option<u32> {
        self.seqs.get(&(txn, object)).copied()
    }

    /// `r_j(x_i)` — reads `writer`'s *latest write so far* of
    /// `object`. Panics if `writer` has not written `object` yet (use
    /// [`HistoryBuilder::read_version`] for exotic cases; validation
    /// would reject them anyway).
    pub fn read(&mut self, txn: TxnId, object: ObjectId, writer: TxnId) {
        let seq = self
            .seqs
            .get(&(writer, object))
            .copied()
            .unwrap_or_else(|| panic!("{writer} has not written this object yet"));
        self.read_version(txn, object, VersionId::new(writer, seq));
    }

    /// `r_j(x_init)` — reads the (preloaded, visible) initial version.
    pub fn read_init(&mut self, txn: TxnId, object: ObjectId) {
        self.read_version(txn, object, VersionId::INIT);
    }

    /// Reads an explicit version.
    pub fn read_version(&mut self, txn: TxnId, object: ObjectId, version: VersionId) {
        self.event(Event::Read(ReadEvent {
            txn,
            object,
            version,
            through_cursor: false,
        }));
    }

    /// `rc_j(x_i)` — a read through a cursor (Cursor Stability
    /// extension), reading `writer`'s latest write so far.
    pub fn cursor_read(&mut self, txn: TxnId, object: ObjectId, writer: TxnId) {
        let version = if writer.is_init() {
            VersionId::INIT
        } else {
            let seq = self
                .seqs
                .get(&(writer, object))
                .copied()
                .unwrap_or_else(|| panic!("{writer} has not written this object yet"));
            VersionId::new(writer, seq)
        };
        self.event(Event::Read(ReadEvent {
            txn,
            object,
            version,
            through_cursor: true,
        }));
    }

    /// Cursor-read of an explicit version.
    pub fn cursor_read_version(&mut self, txn: TxnId, object: ObjectId, version: VersionId) {
        self.event(Event::Read(ReadEvent {
            txn,
            object,
            version,
            through_cursor: true,
        }));
    }

    /// `r_i(P: Vset(P))` — predicate read with an explicit version
    /// set. Versions are given as `(object, writer)` pairs resolved to
    /// the writer's latest write so far (`Tinit` selects the initial
    /// version). Objects of `P`'s relations not listed are implicitly
    /// selected at their initial versions.
    pub fn predicate_read(
        &mut self,
        txn: TxnId,
        predicate: PredicateId,
        vset: &[(ObjectId, TxnId)],
    ) {
        let resolved: Vec<(ObjectId, VersionId)> =
            vset.iter()
                .map(|&(obj, writer)| {
                    let v = if writer.is_init() {
                        VersionId::INIT
                    } else {
                        let seq =
                            self.seqs.get(&(writer, obj)).copied().unwrap_or_else(|| {
                                panic!("{writer} has not written this object yet")
                            });
                        VersionId::new(writer, seq)
                    };
                    (obj, v)
                })
                .collect();
        self.predicate_read_versions(txn, predicate, resolved);
    }

    /// Predicate read with fully explicit `(object, version)` entries.
    pub fn predicate_read_versions(
        &mut self,
        txn: TxnId,
        predicate: PredicateId,
        vset: Vec<(ObjectId, VersionId)>,
    ) {
        self.event(Event::PredicateRead(PredicateReadEvent {
            txn,
            predicate,
            vset,
        }));
    }

    /// `c_i`.
    pub fn commit(&mut self, txn: TxnId) {
        self.event(Event::Commit(txn));
    }

    /// `a_i`.
    pub fn abort(&mut self, txn: TxnId) {
        self.event(Event::Abort(txn));
    }

    // ---- predicate match tables ------------------------------------

    /// Marks `version` of `object` as satisfying `predicate`.
    pub fn set_match(&mut self, predicate: PredicateId, object: ObjectId, version: VersionId) {
        if let Some(p) = self.parts.predicates.get_mut(&predicate) {
            p.matches.insert((object, version));
        }
    }

    /// Derives `predicate`'s match table at build time by evaluating
    /// `f` on the value of every visible version (including preloaded
    /// initial versions) of every object in the predicate's relations.
    /// Versions without recorded values are treated as non-matching.
    pub fn derive_matches(
        &mut self,
        predicate: PredicateId,
        f: impl Fn(&Value) -> bool + Send + Sync + 'static,
    ) {
        self.derived.push((predicate, Box::new(f)));
    }

    // ---- version orders --------------------------------------------

    /// Sets an explicit version order: the committed versions of
    /// `object` after the implicit leading init version.
    pub fn version_order(&mut self, object: ObjectId, order: &[VersionId]) {
        self.parts.version_orders.insert(object, order.to_vec());
    }

    /// Sets an explicit version order naming the final versions of the
    /// given writers, in order — the common case, matching the paper's
    /// `[x1 << x2]` annotations.
    pub fn version_order_by_txn(&mut self, object: ObjectId, writers: &[TxnId]) {
        let order: Vec<VersionId> = writers
            .iter()
            .map(|&t| {
                let seq = self
                    .seqs
                    .get(&(t, object))
                    .copied()
                    .unwrap_or_else(|| panic!("{t} has not written this object"));
                VersionId::new(t, seq)
            })
            .collect();
        self.version_order(object, &order);
    }

    // ---- build ------------------------------------------------------

    /// Validates and returns the history. Fails if any transaction is
    /// incomplete; see [`HistoryBuilder::build_completed`].
    pub fn build(mut self) -> Result<History, HistoryError> {
        self.run_derivations();
        History::from_parts(self.parts)
    }

    /// Appends an abort for every incomplete transaction (the paper's
    /// completion rule, §4.2) and then validates.
    pub fn build_completed(mut self) -> Result<History, HistoryError> {
        self.run_derivations();
        // Transactions with a non-terminal event, in order of first
        // appearance: the order the aborts are appended in.
        let mut open: Vec<TxnId> = Vec::new();
        let mut seen: IdSet<TxnId> = IdSet::default();
        let mut terminated: IdSet<TxnId> = IdSet::default();
        for e in &self.parts.events {
            match e {
                Event::Commit(t) | Event::Abort(t) => {
                    terminated.insert(*t);
                }
                other => {
                    if seen.insert(other.txn()) {
                        open.push(other.txn());
                    }
                }
            }
        }
        for t in open {
            if !terminated.contains(&t) {
                self.parts.events.push(Event::Abort(t));
            }
        }
        History::from_parts(self.parts)
    }

    fn run_derivations(&mut self) {
        if self.derived.is_empty() {
            return;
        }
        // Gather (object, version, value) for all visible versions.
        let mut visible: Vec<(ObjectId, VersionId, Value)> = Vec::new();
        for (&obj, info) in &self.parts.objects {
            if let Some(v) = &info.preload {
                visible.push((obj, VersionId::INIT, v.clone()));
            }
        }
        for e in &self.parts.events {
            if let Event::Write(w) = e {
                if w.kind == VersionKind::Visible {
                    if let Some(v) = &w.value {
                        visible.push((w.object, w.version(), v.clone()));
                    }
                }
            }
        }
        for (pid, f) in self.derived.drain(..) {
            let Some(pred) = self.parts.predicates.get_mut(&pid) else {
                continue;
            };
            let rels = pred.relations.clone();
            for (obj, ver, val) in &visible {
                let in_rel = self
                    .parts
                    .objects
                    .get(obj)
                    .is_some_and(|o| rels.contains(&o.relation));
                if in_rel && f(val) {
                    // Re-borrow mutably: `pred` borrow ended above.
                    self.parts
                        .predicates
                        .get_mut(&pid)
                        .expect("predicate exists")
                        .matches
                        .insert((*obj, *ver));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxnStatus;

    #[test]
    fn simple_history_builds() {
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        let x = b.object("x");
        b.write(t1, x, Value::Int(1));
        b.commit(t1);
        b.read(t2, x, t1);
        b.commit(t2);
        let h = b.build().unwrap();
        assert_eq!(h.len(), 4);
        assert_eq!(h.committed_txns().count(), 2);
        assert_eq!(h.version_order(x).len(), 2); // init + x1
    }

    #[test]
    fn auto_seq_increments_per_object() {
        let mut b = HistoryBuilder::new();
        let t1 = b.txn(1);
        let x = b.object("x");
        let y = b.object("y");
        let v1 = b.write(t1, x, Value::Int(1));
        let v2 = b.write(t1, x, Value::Int(2));
        let v3 = b.write(t1, y, Value::Int(3));
        assert_eq!(v1.seq, 1);
        assert_eq!(v2.seq, 2);
        assert_eq!(v3.seq, 1);
        b.commit(t1);
        let h = b.build().unwrap();
        // Only the final version is in the order.
        assert_eq!(h.version_order(x), &[VersionId::INIT, v2]);
        assert!(h.is_final_version(x, v2));
        assert!(!h.is_final_version(x, v1));
    }

    #[test]
    fn incomplete_txn_rejected_then_completed() {
        let mut b = HistoryBuilder::new();
        let t1 = b.txn(1);
        let x = b.object("x");
        b.write(t1, x, Value::Int(1));
        assert!(matches!(
            b.build(),
            Err(HistoryError::IncompleteTxn { txn }) if txn == t1
        ));

        let mut b = HistoryBuilder::new();
        let t1 = b.txn(1);
        let x = b.object("x");
        b.write(t1, x, Value::Int(1));
        let h = b.build_completed().unwrap();
        assert_eq!(h.txn(t1).unwrap().status, TxnStatus::Aborted);
    }

    #[test]
    fn completion_aborts_in_order_of_first_appearance() {
        // Open T3, T1, T2 (first seen in that order, T3 twice) around a
        // committed T4: the aborts follow first appearance, not ids.
        let mut b = HistoryBuilder::new();
        let (t1, t2, t3, t4) = (b.txn(1), b.txn(2), b.txn(3), b.txn(4));
        let (x, y, z) = (b.object("x"), b.object("y"), b.object("z"));
        b.write(t3, x, Value::Int(1));
        b.write(t4, z, Value::Int(4));
        b.write(t1, y, Value::Int(2));
        b.write(t3, x, Value::Int(3));
        b.commit(t4);
        b.write(t2, z, Value::Int(5));
        let h = b.build_completed().unwrap();
        let tail: Vec<(bool, TxnId)> = h.events()[6..]
            .iter()
            .map(|e| (matches!(e, Event::Abort(_)), e.txn()))
            .collect();
        assert_eq!(tail, vec![(true, t3), (true, t1), (true, t2)]);
    }

    #[test]
    fn read_own_write_enforced() {
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        let x = b.object("x");
        b.write(t2, x, Value::Int(9));
        b.write(t1, x, Value::Int(1));
        // T1 wrote x, then reads T2's version: violates constraint 3.
        b.read(t1, x, t2);
        b.commit(t1);
        b.commit(t2);
        assert!(matches!(b.build(), Err(HistoryError::ReadOwnStale { .. })));
    }

    #[test]
    fn read_before_write_rejected() {
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        let x = b.object("x");
        b.read_version(t2, x, VersionId::new(t1, 1));
        b.write(t1, x, Value::Int(1));
        b.commit(t1);
        b.commit(t2);
        assert!(matches!(
            b.build(),
            Err(HistoryError::ReadBeforeWrite { .. })
        ));
    }

    #[test]
    fn reading_unpreloaded_init_rejected() {
        let mut b = HistoryBuilder::new();
        let t1 = b.txn(1);
        let x = b.object("x"); // unborn init
        b.read_init(t1, x);
        b.commit(t1);
        assert!(matches!(b.build(), Err(HistoryError::ReadInvisible { .. })));
    }

    #[test]
    fn reading_preloaded_init_allowed() {
        let mut b = HistoryBuilder::new();
        let t1 = b.txn(1);
        let x = b.preloaded_object("x", Value::Int(5));
        b.read_init(t1, x);
        b.commit(t1);
        let h = b.build().unwrap();
        assert_eq!(h.version_value(x, VersionId::INIT), Some(&Value::Int(5)));
    }

    #[test]
    fn reading_dead_version_rejected() {
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        let x = b.object("x");
        let dead = b.delete(t1, x);
        b.commit(t1);
        b.read_version(t2, x, dead);
        b.commit(t2);
        assert!(matches!(b.build(), Err(HistoryError::ReadInvisible { .. })));
    }

    #[test]
    fn write_after_delete_rejected() {
        let mut b = HistoryBuilder::new();
        let t1 = b.txn(1);
        let x = b.object("x");
        b.delete(t1, x);
        b.write(t1, x, Value::Int(1));
        b.commit(t1);
        assert!(matches!(
            b.build(),
            Err(HistoryError::WriteAfterDead { .. })
        ));
    }

    #[test]
    fn explicit_version_order_overrides_commit_order() {
        // H_write_order of §4.2: x2 << x1 although T1 commits first.
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        let x = b.object("x");
        let v1 = b.write_unvalued(t1, x);
        let v2 = b.write_unvalued(t2, x);
        b.commit(t1);
        b.commit(t2);
        b.version_order_by_txn(x, &[t2, t1]);
        let h = b.build().unwrap();
        assert!(h.version_precedes(x, v2, v1));
        assert_eq!(h.next_version(x, v2), Some(v1));
        assert_eq!(h.prev_version(x, v1), Some(v2));
        assert_eq!(h.prev_version(x, v2), Some(VersionId::INIT));
    }

    #[test]
    fn inferred_order_is_commit_order() {
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        let x = b.object("x");
        let v1 = b.write_unvalued(t1, x);
        let v2 = b.write_unvalued(t2, x);
        b.commit(t2); // T2 commits first
        b.commit(t1);
        let h = b.build().unwrap();
        assert_eq!(h.version_order(x), &[VersionId::INIT, v2, v1]);
    }

    #[test]
    fn aborted_writes_not_in_version_order() {
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        let x = b.object("x");
        b.write_unvalued(t1, x);
        let v2 = b.write_unvalued(t2, x);
        b.abort(t1);
        b.commit(t2);
        let h = b.build().unwrap();
        assert_eq!(h.version_order(x), &[VersionId::INIT, v2]);
        assert_eq!(h.order_index(x, VersionId::new(t1, 1)), None);
    }

    #[test]
    fn version_order_missing_writer_rejected() {
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        let x = b.object("x");
        b.write_unvalued(t1, x);
        let v2 = b.write_unvalued(t2, x);
        b.commit(t1);
        b.commit(t2);
        b.version_order(x, &[v2]); // forgot T1
        assert!(matches!(
            b.build(),
            Err(HistoryError::VersionOrderMissingWriter { .. })
        ));
    }

    #[test]
    fn dead_version_must_be_last() {
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        let x = b.object("x");
        let vdead = b.delete(t1, x);
        let v2 = b.write_unvalued(t2, x);
        b.commit(t1);
        b.commit(t2);
        b.version_order(x, &[vdead, v2]);
        assert!(matches!(b.build(), Err(HistoryError::DeadNotLast { .. })));
    }

    #[test]
    fn predicate_match_table_derivation() {
        let mut b = HistoryBuilder::new();
        let t1 = b.txn(1);
        let rel = b.relation("Emp");
        let x = b.object_in("x", rel);
        let p = b.predicate("dept=Sales", &[rel]);
        let v = b.write(t1, x, Value::str("Sales"));
        b.commit(t1);
        b.derive_matches(p, |val| val == &Value::str("Sales"));
        let h = b.build().unwrap();
        assert!(h.matches(p, x, v));
        assert!(!h.matches(p, x, VersionId::INIT));
        assert!(h.changes_matches(p, x, v));
    }

    #[test]
    fn resolve_vset_adds_implicit_init_versions() {
        let mut b = HistoryBuilder::new();
        let t1 = b.txn(1);
        let rel = b.relation("Emp");
        let x = b.object_in("x", rel);
        let z = b.object_in("z", rel); // never touched: implicit unborn
        let p = b.predicate("all", &[rel]);
        b.write(t1, x, Value::Int(1));
        b.predicate_read(t1, p, &[(x, t1)]);
        b.commit(t1);
        let h = b.build().unwrap();
        let pr = h
            .predicate_reads_of(t1)
            .next()
            .map(|(_, e)| e.clone())
            .unwrap();
        let full = h.resolve_vset(&pr);
        assert_eq!(full.len(), 2);
        assert!(full.contains(&(x, VersionId::new(t1, 1))));
        assert!(full.contains(&(z, VersionId::INIT)));
    }

    #[test]
    fn vset_object_outside_relations_rejected() {
        let mut b = HistoryBuilder::new();
        let t1 = b.txn(1);
        let r1 = b.relation("A");
        let r2 = b.relation("B");
        let x = b.object_in("x", r2);
        let p = b.predicate("only-A", &[r1]);
        b.write(t1, x, Value::Int(1));
        b.predicate_read(t1, p, &[(x, t1)]);
        b.commit(t1);
        assert!(matches!(
            b.build(),
            Err(HistoryError::VsetObjectOutsidePredicate { .. })
        ));
    }

    #[test]
    fn event_after_commit_rejected() {
        let mut b = HistoryBuilder::new();
        let t1 = b.txn(1);
        let x = b.object("x");
        b.commit(t1);
        b.write(t1, x, Value::Int(1));
        assert!(matches!(b.build(), Err(HistoryError::EventAfterEnd { .. })));
    }

    #[test]
    fn duplicate_commit_rejected() {
        let mut b = HistoryBuilder::new();
        let t1 = b.txn(1);
        b.commit(t1);
        b.commit(t1);
        assert!(matches!(
            b.build(),
            Err(HistoryError::DuplicateTerminal { .. })
        ));
    }

    #[test]
    fn begin_must_be_first() {
        let mut b = HistoryBuilder::new();
        let t1 = b.txn(1);
        let x = b.object("x");
        b.write(t1, x, Value::Int(1));
        b.begin(t1);
        b.commit(t1);
        assert!(matches!(b.build(), Err(HistoryError::BeginNotFirst { .. })));
    }

    #[test]
    fn mixed_levels_recorded() {
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        b.txn_level(t1, RequestedLevel::PL1);
        b.commit(t1);
        b.commit(t2);
        let h = b.build().unwrap();
        assert_eq!(h.level(t1), RequestedLevel::PL1);
        assert_eq!(h.level(t2), RequestedLevel::PL3); // default
    }

    #[test]
    fn display_uses_paper_notation() {
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        let x = b.object("x");
        b.write(t1, x, Value::Int(2));
        b.commit(t1);
        b.read(t2, x, t1);
        b.commit(t2);
        let h = b.build().unwrap();
        let s = h.to_string();
        assert!(s.contains("w1(x[1], 2)"), "got: {s}");
        assert!(s.contains("r2(x[1])"), "got: {s}");
        assert!(s.contains("c1") && s.contains("c2"));
    }
}
