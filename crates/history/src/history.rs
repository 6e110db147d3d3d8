//! The validated [`History`] type and its accessors.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use crate::error::HistoryError;
use crate::event::{Event, PredicateReadEvent};
use crate::ids::{IdMap, IdSet, ObjectId, PredicateId, RelationId, TxnId, VersionId};
use crate::txn::{RequestedLevel, TxnInfo, TxnStatus};
use crate::value::{Value, VersionKind};

/// Metadata for a registered object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectInfo {
    /// Human-readable name ("x", "emp#4", …) used in displays.
    pub name: String,
    /// The relation the object (tuple) belongs to, fixed for life.
    pub relation: RelationId,
    /// When `Some`, the database loader installed a *visible* initial
    /// version with this value (the paper's "transaction that loads the
    /// database creates the initial visible versions"); when `None`,
    /// the initial version is unborn.
    pub preload: Option<Value>,
}

/// Metadata for a registered relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationInfo {
    /// Human-readable name.
    pub name: String,
}

/// Metadata for a registered predicate: its relations and its match
/// table.
///
/// The match table records, for each version the analysis may consult,
/// whether that version satisfies the predicate's boolean condition.
/// Unborn and dead versions never match and are not stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateInfo {
    /// Human-readable condition ("Dept=Sales").
    pub name: String,
    /// Relations the condition ranges over (Definition 1).
    pub relations: Vec<RelationId>,
    /// Versions that satisfy the condition.
    pub matches: HashSet<(ObjectId, VersionId)>,
}

impl PredicateInfo {
    /// True if `version` of `object` satisfies the predicate.
    pub fn matches(&self, object: ObjectId, version: VersionId) -> bool {
        self.matches.contains(&(object, version))
    }
}

/// Raw, unvalidated parts of a history; validated into a [`History`]
/// by [`History::from_parts`]. Builders and recorders assemble this.
#[derive(Debug, Clone, Default)]
pub struct HistoryParts {
    /// The event sequence (a total order consistent with the paper's
    /// partial order).
    pub events: Vec<Event>,
    /// Explicit version orders: full committed order per object,
    /// *excluding* the implicit leading init version. Objects absent
    /// here get the commit-order default.
    pub version_orders: BTreeMap<ObjectId, Vec<VersionId>>,
    /// Registered objects.
    pub objects: BTreeMap<ObjectId, ObjectInfo>,
    /// Registered relations.
    pub relations: BTreeMap<RelationId, RelationInfo>,
    /// Registered predicates with match tables.
    pub predicates: BTreeMap<PredicateId, PredicateInfo>,
    /// Requested isolation levels (default PL-3).
    pub levels: BTreeMap<TxnId, RequestedLevel>,
}

/// A validated multi-version transaction history (§4.2).
///
/// Construction via [`History::from_parts`] (usually through
/// [`crate::HistoryBuilder`]) checks every well-formedness rule of the
/// paper, so downstream analyses can rely on:
///
/// * event order consistent per transaction, exactly one terminal
///   event each (complete history);
/// * reads observe versions that exist, are visible, and respect
///   read-your-own-writes;
/// * version orders start at `x_init`, contain exactly the final
///   versions of committed writers, and place a dead version (if any)
///   last;
/// * predicate version sets select at most one version per object,
///   all within the predicate's relations.
#[derive(Debug, Clone)]
pub struct History {
    events: Vec<Event>,
    objects: BTreeMap<ObjectId, ObjectInfo>,
    relations: BTreeMap<RelationId, RelationInfo>,
    predicates: BTreeMap<PredicateId, PredicateInfo>,
    txns: BTreeMap<TxnId, TxnInfo>,
    /// Full committed order per object, *including* the leading init
    /// version.
    version_orders: BTreeMap<ObjectId, Vec<VersionId>>,
    /// Position of each committed version within its object's order.
    order_index: IdMap<(ObjectId, VersionId), usize>,
    /// Last write seq of each (txn, object) pair.
    final_seqs: IdMap<(TxnId, ObjectId), u32>,
    /// Value of every valued version, plus preloaded init versions.
    values: IdMap<(ObjectId, VersionId), Value>,
    /// Objects per relation, in id order.
    rel_objects: BTreeMap<RelationId, Vec<ObjectId>>,
    /// Event positions of each transaction, ascending.
    txn_events: IdMap<TxnId, Vec<usize>>,
}

impl History {
    /// Validates `parts` into a `History`.
    ///
    /// Missing version orders default to commit order (the order of
    /// the writers' commit events), which is what every
    /// installs-at-commit implementation produces; multi-version
    /// schemes that choose a different order must supply it explicitly.
    pub fn from_parts(parts: HistoryParts) -> Result<History, HistoryError> {
        validate::build(parts)
    }

    /// The event sequence.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the history has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Metadata for `txn` (absent for `Tinit` and unknown ids).
    pub fn txn(&self, txn: TxnId) -> Option<&TxnInfo> {
        self.txns.get(&txn)
    }

    /// All transactions with their metadata, in id order.
    pub fn txns(&self) -> impl Iterator<Item = (TxnId, &TxnInfo)> {
        self.txns.iter().map(|(t, i)| (*t, i))
    }

    /// Ids of committed transactions, in id order. `Tinit` is not
    /// included (it is implicit).
    pub fn committed_txns(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.txns
            .iter()
            .filter(|(_, i)| i.status.is_committed())
            .map(|(t, _)| *t)
    }

    /// True if `txn` committed. `Tinit` is always committed.
    pub fn is_committed(&self, txn: TxnId) -> bool {
        if txn.is_init() {
            return true;
        }
        self.txns.get(&txn).is_some_and(|i| i.status.is_committed())
    }

    /// The requested isolation level of `txn` (PL-3 for `Tinit`).
    pub fn level(&self, txn: TxnId) -> RequestedLevel {
        if txn.is_init() {
            return RequestedLevel::PL3;
        }
        self.txns.get(&txn).map(|i| i.level).unwrap_or_default()
    }

    /// Registered objects in id order.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, &ObjectInfo)> {
        self.objects.iter().map(|(o, i)| (*o, i))
    }

    /// Metadata for `object`.
    pub fn object(&self, object: ObjectId) -> Option<&ObjectInfo> {
        self.objects.get(&object)
    }

    /// Looks an object up by its display name.
    pub fn object_by_name(&self, name: &str) -> Option<ObjectId> {
        self.objects
            .iter()
            .find(|(_, i)| i.name == name)
            .map(|(o, _)| *o)
    }

    /// Display name for `object` (falls back to the raw id).
    pub fn object_name(&self, object: ObjectId) -> &str {
        self.objects
            .get(&object)
            .map(|i| i.name.as_str())
            .unwrap_or("?")
    }

    /// Registered relations in id order.
    pub fn relations(&self) -> impl Iterator<Item = (RelationId, &RelationInfo)> {
        self.relations.iter().map(|(r, i)| (*r, i))
    }

    /// Objects belonging to `relation`, in id order.
    pub fn relation_objects(&self, relation: RelationId) -> &[ObjectId] {
        self.rel_objects
            .get(&relation)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Metadata (incl. match table) for `predicate`.
    pub fn predicate(&self, predicate: PredicateId) -> Option<&PredicateInfo> {
        self.predicates.get(&predicate)
    }

    /// Registered predicates in id order.
    pub fn predicates(&self) -> impl Iterator<Item = (PredicateId, &PredicateInfo)> {
        self.predicates.iter().map(|(p, i)| (*p, i))
    }

    /// The committed version order of `object`, starting with its init
    /// version. Objects never written have the one-element order
    /// `[init]`.
    pub fn version_order(&self, object: ObjectId) -> &[VersionId] {
        self.version_orders
            .get(&object)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Position of a committed `version` of `object` within its
    /// version order (`0` = init). `None` for uncommitted, aborted or
    /// intermediate versions.
    pub fn order_index(&self, object: ObjectId, version: VersionId) -> Option<usize> {
        self.order_index.get(&(object, version)).copied()
    }

    /// True if committed version `a` precedes committed version `b` in
    /// `object`'s version order (`a << b` in the paper's notation).
    pub fn version_precedes(&self, object: ObjectId, a: VersionId, b: VersionId) -> bool {
        match (self.order_index(object, a), self.order_index(object, b)) {
            (Some(ia), Some(ib)) => ia < ib,
            _ => false,
        }
    }

    /// The committed version immediately following `version` in
    /// `object`'s version order.
    pub fn next_version(&self, object: ObjectId, version: VersionId) -> Option<VersionId> {
        let ix = self.order_index(object, version)?;
        self.version_order(object).get(ix + 1).copied()
    }

    /// The committed version immediately preceding `version`.
    pub fn prev_version(&self, object: ObjectId, version: VersionId) -> Option<VersionId> {
        let ix = self.order_index(object, version)?;
        ix.checked_sub(1).map(|p| self.version_order(object)[p])
    }

    /// The last write sequence number of `txn` on `object`, if it ever
    /// wrote it.
    pub fn final_seq(&self, txn: TxnId, object: ObjectId) -> Option<u32> {
        if txn.is_init() {
            return Some(1);
        }
        self.final_seqs.get(&(txn, object)).copied()
    }

    /// True if `version` is its writer's *final* modification of
    /// `object` (`x_i` rather than `x_{i:m}`, m < final).
    pub fn is_final_version(&self, object: ObjectId, version: VersionId) -> bool {
        self.final_seq(version.txn, object) == Some(version.seq)
    }

    /// The value stored in `version` of `object`, when one was
    /// recorded.
    pub fn version_value(&self, object: ObjectId, version: VersionId) -> Option<&Value> {
        self.values.get(&(object, version))
    }

    /// True if `version` of `object` satisfies `predicate`'s boolean
    /// condition. Unborn and dead versions never match (§4.3).
    pub fn matches(&self, predicate: PredicateId, object: ObjectId, version: VersionId) -> bool {
        self.predicates
            .get(&predicate)
            .is_some_and(|p| p.matches(object, version))
    }

    /// True if installing committed `version` *changed the matches* of
    /// `predicate` (Definition 2): its match status differs from the
    /// immediately preceding version's. The first version of an object
    /// changes the matches iff it matches (the transition out of
    /// nonexistence).
    pub fn changes_matches(
        &self,
        predicate: PredicateId,
        object: ObjectId,
        version: VersionId,
    ) -> bool {
        let cur = self.matches(predicate, object, version);
        match self.prev_version(object, version) {
            Some(prev) => self.matches(predicate, object, prev) != cur,
            // x_init (or a version not in the committed order, where
            // the question is not meaningful): a match appearing from
            // nothing is a change.
            None => cur,
        }
    }

    /// Resolves the full version set of a predicate read: the explicit
    /// entries of the event plus, for every other object of the
    /// predicate's relations, the implicit selection of its init
    /// version (the paper's convention of not writing out unborn
    /// versions).
    pub fn resolve_vset(&self, event: &PredicateReadEvent) -> Vec<(ObjectId, VersionId)> {
        let Some(pred) = self.predicates.get(&event.predicate) else {
            return event.vset.clone();
        };
        let explicit: HashMap<ObjectId, VersionId> = event.vset.iter().copied().collect();
        let mut out = Vec::new();
        for rel in &pred.relations {
            for &obj in self.relation_objects(*rel) {
                let v = explicit.get(&obj).copied().unwrap_or(VersionId::INIT);
                out.push((obj, v));
            }
        }
        out
    }

    /// The events of `txn` with their event indices, in history order
    /// (empty for `Tinit` and unknown ids). Costs the transaction's own
    /// events, not the history's.
    pub fn events_of(&self, txn: TxnId) -> impl Iterator<Item = (usize, &Event)> {
        let positions = self.txn_events.get(&txn).map_or(&[][..], Vec::as_slice);
        positions.iter().map(|&i| (i, &self.events[i]))
    }

    /// Item-read events performed by `txn`, with their event indices.
    pub fn reads_of(&self, txn: TxnId) -> impl Iterator<Item = (usize, &crate::ReadEvent)> {
        self.events_of(txn)
            .filter_map(|(i, e)| Some((i, e.as_read()?)))
    }

    /// Predicate-read events performed by `txn`, with their event
    /// indices.
    pub fn predicate_reads_of(
        &self,
        txn: TxnId,
    ) -> impl Iterator<Item = (usize, &PredicateReadEvent)> {
        self.events_of(txn)
            .filter_map(|(i, e)| Some((i, e.as_predicate_read()?)))
    }

    /// Renders the history in the parser's textual notation, so that
    /// `parse_history(h.to_notation()?)` reconstructs an equivalent
    /// history (same events, same version orders).
    ///
    /// Returns `None` for histories the notation cannot express:
    /// predicate reads over non-integer-range conditions, non-integer
    /// values, or cursor reads mixed with same-named objects. Values
    /// that are not integers are omitted (the theory never needs
    /// them); integer values round-trip.
    pub fn to_notation(&self) -> Option<String> {
        use std::fmt::Write as _;
        // Only item events are expressible.
        if self
            .events
            .iter()
            .any(|e| matches!(e, Event::PredicateRead(_)))
        {
            return None;
        }
        // Object names must be identifier-ish and digit-free at the
        // end for the parser's target grammar.
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && !n.ends_with(|c: char| c.is_ascii_digit())
                && !n.ends_with("init")
        };
        for (_, info) in self.objects() {
            if !name_ok(&info.name) {
                return None;
            }
        }
        let mut out = String::new();
        for e in &self.events {
            if !out.is_empty() {
                out.push(' ');
            }
            match e {
                Event::Begin(t) => {
                    let _ = write!(out, "b{}", t.0);
                }
                Event::Commit(t) => {
                    let _ = write!(out, "c{}", t.0);
                }
                Event::Abort(t) => {
                    let _ = write!(out, "a{}", t.0);
                }
                Event::Write(w) => {
                    let name = self.object_name(w.object);
                    match (&w.kind, &w.value) {
                        (VersionKind::Dead, _) => {
                            let _ = write!(out, "w{}({name},dead)", w.txn.0);
                        }
                        (_, Some(Value::Int(i))) => {
                            let _ = write!(out, "w{}({name},{i})", w.txn.0);
                        }
                        _ => {
                            let _ = write!(out, "w{}({name})", w.txn.0);
                        }
                    }
                }
                Event::Read(r) => {
                    let name = self.object_name(r.object);
                    let prefix = if r.through_cursor { "rc" } else { "r" };
                    if r.version.is_init() {
                        let _ = write!(out, "{prefix}{}({name}init)", r.txn.0);
                    } else {
                        // Always the exact seq: "latest so far" would
                        // mis-resolve reads recorded after the writer
                        // wrote again.
                        let _ = write!(
                            out,
                            "{prefix}{}({name}{}:{})",
                            r.txn.0, r.version.txn.0, r.version.seq
                        );
                    }
                }
                Event::PredicateRead(_) => unreachable!("checked above"),
            }
        }
        // Version orders for multi-version objects (the single-version
        // ones are forced). Explicit beats inference differences.
        let mut chains = Vec::new();
        for (obj, order) in &self.version_orders {
            if order.len() <= 2 {
                continue;
            }
            let name = self.object_name(*obj);
            let chain: Vec<String> = order
                .iter()
                .filter(|v| !v.is_init())
                .map(|v| format!("{name}{}", v.txn.0))
                .collect();
            chains.push(chain.join(" << "));
        }
        if !chains.is_empty() {
            let _ = write!(out, " [{}]", chains.join(", "));
        }
        Some(out)
    }

    /// Decomposes the history back into (validated) parts, e.g. to
    /// relabel transaction levels or promote an executing transaction.
    /// Version orders are exported explicitly (without the leading
    /// init version), so rebuilding reproduces this history exactly.
    pub fn to_parts(&self) -> HistoryParts {
        let mut parts = HistoryParts {
            events: self.events.clone(),
            objects: self.objects.clone(),
            relations: self.relations.clone(),
            predicates: self.predicates.clone(),
            ..Default::default()
        };
        for (t, info) in &self.txns {
            parts.levels.insert(*t, info.level);
        }
        for (obj, order) in &self.version_orders {
            parts.version_orders.insert(
                *obj,
                order.iter().copied().filter(|v| !v.is_init()).collect(),
            );
        }
        parts
    }

    /// The "what if `txn` committed now" view used for
    /// executing-transaction analysis (§5.6 points to Adya's thesis
    /// for these): the transaction's abort event is replaced by a
    /// commit, and its final versions are appended to the version
    /// orders of the objects it wrote (the install order an
    /// at-commit implementation would choose).
    ///
    /// Fails if `txn` is unknown, already committed, or deleted an
    /// object that already has a committed dead version.
    pub fn promote_to_committed(&self, txn: TxnId) -> Result<History, HistoryError> {
        let info = self.txn(txn).ok_or(HistoryError::IncompleteTxn { txn })?;
        if info.status.is_committed() {
            return Ok(self.clone());
        }
        let mut parts = self.to_parts();
        parts.events[info.end_event] = Event::Commit(txn);
        // Append the promoted transaction's final versions.
        for ((t, obj), seq) in &self.final_seqs {
            if *t != txn {
                continue;
            }
            parts
                .version_orders
                .entry(*obj)
                .or_default()
                .push(VersionId::new(txn, *seq));
        }
        History::from_parts(parts)
    }

    /// Renders one event using object names instead of raw ids,
    /// mirroring the paper's notation.
    pub fn display_event(&self, event: &Event) -> String {
        use std::fmt::Write as _;
        let sub = |t: TxnId| {
            if t.is_init() {
                "init".to_string()
            } else {
                t.0.to_string()
            }
        };
        match event {
            Event::Begin(t) => format!("b{}", sub(*t)),
            Event::Commit(t) => format!("c{}", sub(*t)),
            Event::Abort(t) => format!("a{}", sub(*t)),
            Event::Write(w) => {
                let mut s = format!(
                    "w{}({}[{}]",
                    sub(w.txn),
                    self.object_name(w.object),
                    w.version()
                );
                match (&w.kind, &w.value) {
                    (VersionKind::Dead, _) => s.push_str(", dead)"),
                    (_, Some(v)) => {
                        let _ = write!(s, ", {v})");
                    }
                    _ => s.push(')'),
                }
                s
            }
            Event::Read(r) => format!(
                "{}{}({}[{}])",
                if r.through_cursor { "rc" } else { "r" },
                sub(r.txn),
                self.object_name(r.object),
                r.version
            ),
            Event::PredicateRead(p) => {
                let pname = self
                    .predicates
                    .get(&p.predicate)
                    .map(|i| i.name.as_str())
                    .unwrap_or("?");
                let mut s = format!("r{}({}:", sub(p.txn), pname);
                for (i, (o, v)) in p.vset.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, " {}[{}]", self.object_name(*o), v);
                }
                s.push(')');
                s
            }
        }
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", self.display_event(e))?;
        }
        // Version orders for multi-version objects, paper style.
        let mut shown_any = false;
        for (obj, order) in &self.version_orders {
            if order.len() <= 2 {
                continue; // init + at most one version: order is forced
            }
            if !shown_any {
                write!(f, "  [")?;
                shown_any = true;
            } else {
                write!(f, ", ")?;
            }
            let name = self.object_name(*obj);
            let chain: Vec<String> = order.iter().map(|v| format!("{name}[{v}]")).collect();
            write!(f, "{}", chain.join(" << "))?;
        }
        if shown_any {
            write!(f, "]")?;
        }
        Ok(())
    }
}

mod validate {
    use super::*;

    pub(super) fn build(parts: HistoryParts) -> Result<History, HistoryError> {
        let HistoryParts {
            events,
            version_orders: explicit_orders,
            objects,
            relations,
            predicates,
            levels,
        } = parts;

        // -- Relations referenced by objects must exist.
        for info in objects.values() {
            if !relations.contains_key(&info.relation) {
                return Err(HistoryError::UnknownRelation {
                    relation: info.relation,
                });
            }
        }
        for pred in predicates.values() {
            for rel in &pred.relations {
                if !relations.contains_key(rel) {
                    return Err(HistoryError::UnknownRelation { relation: *rel });
                }
            }
        }

        // -- Seed version kinds/values with init versions.
        let mut kinds: IdMap<(ObjectId, VersionId), VersionKind> = IdMap::default();
        let mut values: IdMap<(ObjectId, VersionId), Value> = IdMap::default();
        for (&obj, info) in &objects {
            match &info.preload {
                Some(v) => {
                    kinds.insert((obj, VersionId::INIT), VersionKind::Visible);
                    values.insert((obj, VersionId::INIT), v.clone());
                }
                None => {
                    kinds.insert((obj, VersionId::INIT), VersionKind::Unborn);
                }
            }
        }

        // -- Scan events: per-txn ordering, write seqs, read rules.
        // Each transaction gets a slot on first appearance; its info and
        // event positions live at that slot until the scan is done.
        let mut slots: IdMap<TxnId, usize> = IdMap::default();
        let mut infos: Vec<(TxnId, TxnInfo)> = Vec::new();
        let mut positions: Vec<Vec<usize>> = Vec::new();
        // Last write seq of each (txn, object) pair so far, and the
        // pairs whose last write was a delete.
        let mut final_seqs: IdMap<(TxnId, ObjectId), u32> = IdMap::default();
        let mut deleted: IdSet<(TxnId, ObjectId)> = IdSet::default();

        for (index, event) in events.iter().enumerate() {
            let txn = event.txn();
            if txn.is_init() {
                return Err(HistoryError::InitTxnEvent { index });
            }
            let slot = *slots.entry(txn).or_insert_with(|| {
                infos.push((
                    txn,
                    TxnInfo {
                        status: TxnStatus::Aborted, // placeholder until terminal seen
                        level: levels.get(&txn).copied().unwrap_or_default(),
                        first_event: index,
                        end_event: usize::MAX,
                        begin_event: None,
                    },
                ));
                positions.push(Vec::new());
                infos.len() - 1
            });
            positions[slot].push(index);
            let entry = &mut infos[slot].1;
            if entry.end_event != usize::MAX {
                return Err(if event.is_terminal() {
                    HistoryError::DuplicateTerminal { txn, index }
                } else {
                    HistoryError::EventAfterEnd { txn, index }
                });
            }
            match event {
                Event::Begin(_) => {
                    if entry.first_event != index {
                        return Err(HistoryError::BeginNotFirst { txn, index });
                    }
                    entry.begin_event = Some(index);
                }
                Event::Commit(_) => {
                    entry.status = TxnStatus::Committed;
                    entry.end_event = index;
                }
                Event::Abort(_) => {
                    entry.status = TxnStatus::Aborted;
                    entry.end_event = index;
                }
                Event::Write(w) => {
                    if !objects.contains_key(&w.object) {
                        return Err(HistoryError::UnknownObject { object: w.object });
                    }
                    if deleted.contains(&(txn, w.object)) {
                        return Err(HistoryError::WriteAfterDead {
                            txn,
                            object: w.object,
                        });
                    }
                    let last_seq = final_seqs.entry((txn, w.object)).or_insert(0);
                    if w.seq != *last_seq + 1 {
                        return Err(HistoryError::NonContiguousWriteSeq {
                            txn,
                            object: w.object,
                            expected: *last_seq + 1,
                            got: w.seq,
                        });
                    }
                    *last_seq = w.seq;
                    if w.kind == VersionKind::Dead {
                        deleted.insert((txn, w.object));
                    }
                    kinds.insert((w.object, w.version()), w.kind);
                    if let Some(v) = &w.value {
                        values.insert((w.object, w.version()), v.clone());
                    }
                }
                Event::Read(r) => {
                    if !objects.contains_key(&r.object) {
                        return Err(HistoryError::UnknownObject { object: r.object });
                    }
                    let kind = kinds.get(&(r.object, r.version)).copied();
                    match kind {
                        None => {
                            return Err(HistoryError::ReadBeforeWrite {
                                txn,
                                object: r.object,
                                version: r.version,
                                index,
                            })
                        }
                        Some(VersionKind::Visible) => {}
                        Some(_) => {
                            return Err(HistoryError::ReadInvisible {
                                txn,
                                object: r.object,
                                version: r.version,
                            })
                        }
                    }
                    // Read-your-own-writes (§4.2, constraint 3).
                    if let Some(&last_seq) = final_seqs.get(&(txn, r.object)) {
                        let own = VersionId::new(txn, last_seq);
                        if r.version != own {
                            return Err(HistoryError::ReadOwnStale {
                                txn,
                                object: r.object,
                                expected: own,
                                got: r.version,
                            });
                        }
                    }
                }
                Event::PredicateRead(p) => {
                    let Some(pred) = predicates.get(&p.predicate) else {
                        return Err(HistoryError::UnknownPredicate {
                            predicate: p.predicate,
                        });
                    };
                    let mut seen: IdSet<ObjectId> = IdSet::default();
                    for (obj, ver) in &p.vset {
                        let Some(info) = objects.get(obj) else {
                            return Err(HistoryError::UnknownObject { object: *obj });
                        };
                        if !pred.relations.contains(&info.relation) {
                            return Err(HistoryError::VsetObjectOutsidePredicate {
                                predicate: p.predicate,
                                object: *obj,
                            });
                        }
                        if !seen.insert(*obj) {
                            return Err(HistoryError::VsetDuplicateObject {
                                predicate: p.predicate,
                                object: *obj,
                            });
                        }
                        if !kinds.contains_key(&(*obj, *ver)) {
                            return Err(HistoryError::VsetUnknownVersion {
                                predicate: p.predicate,
                                object: *obj,
                                version: *ver,
                            });
                        }
                    }
                }
            }
        }

        // -- Completeness: the lowest incomplete id is the one reported.
        if let Some(txn) = infos
            .iter()
            .filter(|(_, info)| info.end_event == usize::MAX)
            .map(|&(txn, _)| txn)
            .min()
        {
            return Err(HistoryError::IncompleteTxn { txn });
        }

        // -- Version orders.
        let info = |t: TxnId| slots.get(&t).map(|&slot| &infos[slot].1);
        let committed = |t: TxnId| t.is_init() || info(t).is_some_and(|i| i.status.is_committed());
        // Committed final writers of each object, by commit order.
        let mut writers_of: IdMap<ObjectId, Vec<(usize, TxnId, u32)>> = IdMap::default();
        for (&(t, obj), &seq) in &final_seqs {
            if committed(t) {
                let end = info(t).expect("a writer has an info").end_event;
                writers_of.entry(obj).or_default().push((end, t, seq));
            }
        }
        let mut version_orders: BTreeMap<ObjectId, Vec<VersionId>> = BTreeMap::new();
        let mut seen: IdSet<VersionId> = IdSet::default();
        for &obj in objects.keys() {
            let mut writers = writers_of.remove(&obj).unwrap_or_default();
            writers.sort_unstable();

            let order: Vec<VersionId> = match explicit_orders.get(&obj) {
                None => {
                    let mut order = Vec::with_capacity(writers.len() + 1);
                    order.push(VersionId::INIT);
                    order.extend(writers.iter().map(|&(_, t, seq)| VersionId::new(t, seq)));
                    order
                }
                Some(explicit) => {
                    let mut order = Vec::with_capacity(explicit.len() + 1);
                    order.push(VersionId::INIT);
                    for v in explicit {
                        if v.is_init() {
                            return Err(HistoryError::VersionOrderDuplicate {
                                object: obj,
                                version: *v,
                            });
                        }
                        order.push(*v);
                    }
                    order
                }
            };

            // Validate the (explicit or inferred) order.
            seen.clear();
            let mut dead_seen = false;
            for (pos, v) in order.iter().enumerate() {
                if !seen.insert(*v) {
                    return Err(HistoryError::VersionOrderDuplicate {
                        object: obj,
                        version: *v,
                    });
                }
                let Some(kind) = kinds.get(&(obj, *v)).copied() else {
                    return Err(HistoryError::VersionOrderUnknownVersion {
                        object: obj,
                        version: *v,
                    });
                };
                if pos == 0 {
                    if !v.is_init() {
                        return Err(HistoryError::VersionOrderMissingInit { object: obj });
                    }
                } else {
                    if !committed(v.txn) {
                        return Err(HistoryError::VersionOrderNotCommitted {
                            object: obj,
                            version: *v,
                        });
                    }
                    if final_seqs.get(&(v.txn, obj)) != Some(&v.seq) {
                        return Err(HistoryError::VersionOrderNotFinal {
                            object: obj,
                            version: *v,
                        });
                    }
                }
                if dead_seen {
                    return Err(HistoryError::DeadNotLast { object: obj });
                }
                if kind == VersionKind::Dead {
                    if dead_seen {
                        return Err(HistoryError::MultipleDead { object: obj });
                    }
                    dead_seen = true;
                }
            }
            // Every committed writer must be present.
            for &(_, t, seq) in &writers {
                if !seen.contains(&VersionId::new(t, seq)) {
                    return Err(HistoryError::VersionOrderMissingWriter {
                        object: obj,
                        txn: t,
                    });
                }
            }
            version_orders.insert(obj, order);
        }
        // Explicit orders for unregistered objects are an error.
        for obj in explicit_orders.keys() {
            if !objects.contains_key(obj) {
                return Err(HistoryError::VersionOrderUnknownObject { object: *obj });
            }
        }

        // -- Predicate match tables.
        for (&pid, pred) in &predicates {
            for &(obj, ver) in &pred.matches {
                let Some(kind) = kinds.get(&(obj, ver)).copied() else {
                    return Err(HistoryError::MatchUnknownVersion {
                        predicate: pid,
                        object: obj,
                        version: ver,
                    });
                };
                if kind != VersionKind::Visible {
                    return Err(HistoryError::MatchNonVisible {
                        predicate: pid,
                        object: obj,
                        version: ver,
                    });
                }
            }
        }

        // -- Derived indexes.
        let mut order_index = IdMap::default();
        for (&obj, order) in &version_orders {
            for (ix, &v) in order.iter().enumerate() {
                order_index.insert((obj, v), ix);
            }
        }
        let mut rel_objects: BTreeMap<RelationId, Vec<ObjectId>> = BTreeMap::new();
        for (&obj, info) in &objects {
            rel_objects.entry(info.relation).or_default().push(obj);
        }

        let txn_events = infos.iter().map(|&(txn, _)| txn).zip(positions).collect();
        Ok(History {
            events,
            objects,
            relations,
            predicates,
            txns: infos.into_iter().collect(),
            version_orders,
            order_index,
            final_seqs,
            values,
            rel_objects,
            txn_events,
        })
    }
}
