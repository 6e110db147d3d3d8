//! Direct conflicts between committed transactions (§4.4,
//! Definitions 2–6 and Figure 2).

use std::fmt;

use adya_history::{Event, History, ObjectId, PredicateId, TxnId, VersionId};

/// The kind of a direct conflict edge `Ti → Tj` ("Tj conflicts on
/// Ti"), exactly the notation of Figure 2 plus the start-dependency
/// used by the Snapshot Isolation extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKind {
    /// `ww`: Ti installs `x_i` and Tj installs x's next version
    /// (Definition 6, *directly write-depends*).
    WriteDep,
    /// `wr` (item): Ti installs `x_i` and Tj reads `x_i`
    /// (Definition 3, *directly item-read-depends*).
    ItemReadDep,
    /// `wr` (predicate): Ti installs the latest version at-or-before
    /// Tj's version-set selection that *changes the matches* of Tj's
    /// predicate read (Definition 3, *directly
    /// predicate-read-depends*).
    PredReadDep,
    /// `rw` (item): Ti reads `x_h` and Tj installs x's next version
    /// (Definition 5, *directly item-anti-depends*).
    ItemAntiDep,
    /// `rw` (predicate): Tj overwrites Ti's predicate read — installs
    /// a *later* version of some selected object that changes the
    /// matches (Definitions 4–5, *directly predicate-anti-depends*).
    PredAntiDep,
    /// `s`: Ti's commit time-precedes Tj's begin. Not a conflict of
    /// the ICDE paper's DSG; used only by the start-ordered graph of
    /// the Snapshot Isolation extension (Adya's thesis, §4.3).
    StartDep,
}

impl DepKind {
    /// True for the *dependency* kinds (read- or write-dependencies) —
    /// the edges Definition 8 ("depends") ranges over.
    pub fn is_dependency(self) -> bool {
        matches!(
            self,
            DepKind::WriteDep | DepKind::ItemReadDep | DepKind::PredReadDep
        )
    }

    /// True for anti-dependencies (item or predicate).
    pub fn is_anti(self) -> bool {
        matches!(self, DepKind::ItemAntiDep | DepKind::PredAntiDep)
    }

    /// True for the item anti-dependency (the G2-item discriminator).
    pub fn is_item_anti(self) -> bool {
        self == DepKind::ItemAntiDep
    }

    /// True for the write-dependency.
    pub fn is_write_dep(self) -> bool {
        self == DepKind::WriteDep
    }
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepKind::WriteDep => write!(f, "ww"),
            DepKind::ItemReadDep => write!(f, "wr"),
            DepKind::PredReadDep => write!(f, "wr(pred)"),
            DepKind::ItemAntiDep => write!(f, "rw"),
            DepKind::PredAntiDep => write!(f, "rw(pred)"),
            DepKind::StartDep => write!(f, "s"),
        }
    }
}

/// One direct conflict with its provenance, for explanations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The depended-on transaction Ti.
    pub from: TxnId,
    /// The depending transaction Tj.
    pub to: TxnId,
    /// Edge kind.
    pub kind: DepKind,
    /// The object the conflict arose on (`None` for start-deps).
    pub object: Option<ObjectId>,
    /// The version involved: the version read/installed by `from`
    /// (dependencies) or the overwriting version installed by `to`
    /// (anti-dependencies).
    pub version: Option<VersionId>,
    /// The predicate, for predicate conflicts.
    pub predicate: Option<PredicateId>,
}

impl Conflict {
    fn item(from: TxnId, to: TxnId, kind: DepKind, object: ObjectId, version: VersionId) -> Self {
        Conflict {
            from,
            to,
            kind,
            object: Some(object),
            version: Some(version),
            predicate: None,
        }
    }

    fn pred(
        from: TxnId,
        to: TxnId,
        kind: DepKind,
        object: ObjectId,
        version: VersionId,
        predicate: PredicateId,
    ) -> Self {
        Conflict {
            from,
            to,
            kind,
            object: Some(object),
            version: Some(version),
            predicate: Some(predicate),
        }
    }
}

/// Derives every direct conflict of `h` between committed transactions
/// (Figure 2). `Tinit` never participates: it has no incoming edges by
/// construction, so it cannot be part of any cycle, and the paper's
/// DSG figures omit it.
pub fn direct_conflicts(h: &History) -> Vec<Conflict> {
    adya_obs::counter!("checker.conflict_derivations").inc();
    let mut out = Vec::new();
    write_dependencies(h, &mut out);
    item_read_dependencies(h, &mut out);
    item_anti_dependencies(h, &mut out);
    predicate_dependencies(h, &mut out);
    out
}

/// The work counter of graph construction: one tick per event walked
/// while deriving conflicts. `tests/construction_work_bound.rs` holds
/// it to events + conflicts.
pub(crate) fn visits() -> &'static adya_obs::Counter {
    adya_obs::counter!("checker.construction_visits")
}

/// The events of `txn`, each one a tick of [`visits`].
fn walk(h: &History, txn: TxnId) -> impl Iterator<Item = &Event> {
    let visits = visits();
    h.events_of(txn).map(|(_, e)| e).inspect(|_| visits.inc())
}

/// `ww`: consecutive committed versions in each object's version
/// order.
fn write_dependencies(h: &History, out: &mut Vec<Conflict>) {
    for (obj, _) in h.objects() {
        let order = h.version_order(obj);
        for pair in order.windows(2) {
            let (prev, next) = (pair[0], pair[1]);
            if prev.txn.is_init() {
                continue; // edges out of Tinit are omitted
            }
            debug_assert!(!next.txn.is_init());
            if prev.txn != next.txn {
                out.push(Conflict::item(
                    prev.txn,
                    next.txn,
                    DepKind::WriteDep,
                    obj,
                    prev,
                ));
            }
        }
    }
}

/// `wr` (item): committed Tj read a version installed by committed
/// Ti. Reads of intermediate versions of committed transactions also
/// read-depend on the writer (they additionally trigger G1b).
fn item_read_dependencies(h: &History, out: &mut Vec<Conflict>) {
    for tj in h.committed_txns() {
        for read in walk(h, tj).filter_map(Event::as_read) {
            let ti = read.version.txn;
            if ti.is_init() || ti == tj || !h.is_committed(ti) {
                continue;
            }
            out.push(Conflict::item(
                ti,
                tj,
                DepKind::ItemReadDep,
                read.object,
                read.version,
            ));
        }
    }
}

/// `rw` (item): committed Ti read version `x_k`; the installer of x's
/// next committed version directly item-anti-depends… i.e. the edge
/// runs from the reader Ti to the overwriter Tj.
fn item_anti_dependencies(h: &History, out: &mut Vec<Conflict>) {
    for ti in h.committed_txns() {
        for read in walk(h, ti).filter_map(Event::as_read) {
            let Some(anchor) = order_anchor(h, read.object, read.version) else {
                continue; // dirty read of a never-committed version: G1a territory
            };
            let Some(next) = h.next_version(read.object, anchor) else {
                continue; // read the latest committed version
            };
            let tj = next.txn;
            if tj == ti {
                continue;
            }
            out.push(Conflict::item(
                ti,
                tj,
                DepKind::ItemAntiDep,
                read.object,
                next,
            ));
        }
    }
}

/// Maps a read version to its position in the committed order: the
/// version itself when committed-final, the writer's final committed
/// version when the read observed an intermediate version (a G1b
/// situation, anchored at the writer's install), `None` when the
/// writer never committed. Shared with the phenomenon detectors.
pub(crate) fn order_anchor(h: &History, object: ObjectId, version: VersionId) -> Option<VersionId> {
    if h.order_index(object, version).is_some() {
        return Some(version);
    }
    if !h.is_committed(version.txn) {
        return None;
    }
    let final_seq = h.final_seq(version.txn, object)?;
    let fin = VersionId::new(version.txn, final_seq);
    h.order_index(object, fin).map(|_| fin)
}

/// `wr`/`rw` (predicate): for each predicate read of a committed
/// transaction and each object in its resolved version set,
///
/// * the **latest** match-changing version at-or-before the selected
///   version creates a predicate-read-dependency (Definition 3 — "we
///   use the latest transaction where a change to Vset(P) occurs"),
/// * **every** later match-changing version overwrites the read and
///   creates a predicate-anti-dependency (Definition 4).
fn predicate_dependencies(h: &History, out: &mut Vec<Conflict>) {
    for tj in h.committed_txns() {
        for pread in walk(h, tj).filter_map(Event::as_predicate_read) {
            let pid = pread.predicate;
            for (obj, selected) in h.resolve_vset(pread) {
                let Some(anchor) = order_anchor(h, obj, selected) else {
                    continue; // dirty version-set entry: flagged by G1a/G1b
                };
                let pos = h
                    .order_index(obj, anchor)
                    .expect("anchor is committed by construction");
                let order = h.version_order(obj);
                // Read-dependency: latest change at or before `pos`.
                for &v in order[..=pos].iter().rev() {
                    if h.changes_matches(pid, obj, v) {
                        if !v.txn.is_init() && v.txn != tj {
                            out.push(Conflict::pred(v.txn, tj, DepKind::PredReadDep, obj, v, pid));
                        }
                        break;
                    }
                }
                // Anti-dependencies: every later change.
                for &v in &order[pos + 1..] {
                    if h.changes_matches(pid, obj, v) && v.txn != tj {
                        out.push(Conflict::pred(tj, v.txn, DepKind::PredAntiDep, obj, v, pid));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_history::{parse_history, HistoryBuilder, Value};

    fn kinds_between(cs: &[Conflict], from: u32, to: u32) -> Vec<DepKind> {
        cs.iter()
            .filter(|c| c.from == TxnId(from) && c.to == TxnId(to))
            .map(|c| c.kind)
            .collect()
    }

    #[test]
    fn ww_follows_version_order_not_commit_order() {
        // H_write_order: version order x2 << x1 although c1 < c2.
        let h =
            parse_history("w1(x) w2(x) w2(y) c1 c2 r3(x1) w3(x) w4(y) a4 a3 [x2 << x1]").unwrap();
        let cs = direct_conflicts(&h);
        assert_eq!(kinds_between(&cs, 2, 1), vec![DepKind::WriteDep]);
        assert!(kinds_between(&cs, 1, 2).is_empty());
    }

    #[test]
    fn wr_from_committed_writer_to_reader() {
        let h = parse_history("w1(x,1) c1 r2(x1) c2").unwrap();
        let cs = direct_conflicts(&h);
        assert_eq!(kinds_between(&cs, 1, 2), vec![DepKind::ItemReadDep]);
    }

    #[test]
    fn no_wr_edge_for_aborted_writer_or_reader() {
        // Aborted writer: no edge (G1a's job).
        let h = parse_history("w1(x,1) r2(x1) a1 c2").unwrap();
        assert!(direct_conflicts(&h).is_empty());
        // Aborted reader: not a DSG node.
        let h = parse_history("w1(x,1) c1 r2(x1) a2").unwrap();
        assert!(direct_conflicts(&h).is_empty());
    }

    #[test]
    fn rw_to_installer_of_next_version() {
        // T1 reads init, T2 overwrites: T1 -rw-> T2.
        let h = parse_history("r1(xinit,5) w2(x,9) c2 c1").unwrap();
        let cs = direct_conflicts(&h);
        assert_eq!(kinds_between(&cs, 1, 2), vec![DepKind::ItemAntiDep]);
    }

    #[test]
    fn rw_skips_reads_of_latest_version() {
        let h = parse_history("w1(x,1) c1 r2(x1) c2").unwrap();
        let cs = direct_conflicts(&h);
        assert!(cs.iter().all(|c| !c.kind.is_anti()));
    }

    #[test]
    fn intermediate_read_anchors_at_writers_final_version() {
        // T2 reads x1:1 (intermediate); T3 installs the next committed
        // version after x1 — anti-dependency T2 -rw-> T3.
        let h = parse_history("w1(x,1) w1(x,2) r2(x1:1) c1 c2 w3(x,7) c3").unwrap();
        let cs = direct_conflicts(&h);
        assert!(kinds_between(&cs, 2, 3).contains(&DepKind::ItemAntiDep));
        // and a read-dependency T1 -wr-> T2 still exists.
        assert!(kinds_between(&cs, 1, 2).contains(&DepKind::ItemReadDep));
    }

    #[test]
    fn own_write_read_makes_no_edge() {
        let h = parse_history("w1(x,1) r1(x1) c1").unwrap();
        assert!(direct_conflicts(&h).is_empty());
    }

    #[test]
    fn h_pred_read_minimal_conflicts() {
        // H_pred_read of §4.4.1: predicate-read-dependency from the
        // *latest match-changing* writer T1, not from T2 whose update
        // is irrelevant to the predicate.
        let mut b = HistoryBuilder::new();
        let (t0, t1, t2, t3) = (b.txn(0), b.txn(1), b.txn(2), b.txn(3));
        let rel = b.relation("Emp");
        let x = b.object_in("x", rel);
        let y = b.object_in("y", rel);
        let p = b.predicate("Dept=Sales", &[rel]);
        let _x0 = b.write(t0, x, Value::str("Sales"));
        let y0 = b.write(t0, y, Value::str("Sales-y"));
        b.commit(t0);
        b.write(t1, x, Value::str("Legal"));
        b.commit(t1);
        let x2 = b.write(t2, x, Value::str("Legal-newphone"));
        b.predicate_read_versions(t3, p, vec![(x, x2), (y, y0)]);
        b.write(t2, y, Value::str("Sales-y2"));
        b.commit(t2);
        b.commit(t3);
        // Sales-matching: x0 and both y versions.
        b.derive_matches(p, |v| matches!(v, Value::Str(s) if s.starts_with("Sales")));
        let h = b.build().unwrap();
        let cs = direct_conflicts(&h);
        // T1 -wr(pred)-> T3 (T1 changed x out of Sales).
        assert!(kinds_between(&cs, 1, 3).contains(&DepKind::PredReadDep));
        // No predicate edge from T2 to T3: T2's x-update didn't change
        // matches, and T2's y-update (Sales-y -> Sales-y2) doesn't
        // change y's match status either.
        assert!(!kinds_between(&cs, 2, 3).contains(&DepKind::PredReadDep));
        assert!(!kinds_between(&cs, 3, 2).contains(&DepKind::PredAntiDep));
    }

    #[test]
    fn predicate_anti_dependency_on_insert() {
        // T1 queries Sales; T2 inserts a new Sales employee afterwards:
        // T1 -rw(pred)-> T2 (the phantom conflict).
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        let rel = b.relation("Emp");
        let x = b.object_in("x", rel);
        let z = b.object_in("z", rel);
        let p = b.predicate("Dept=Sales", &[rel]);
        let x1 = b.write(t1, x, Value::str("Sales"));
        b.commit(t1);
        // T3 reads the predicate, selecting x1 and (implicitly) z_init.
        let t3 = b.txn(3);
        b.predicate_read_versions(t3, p, vec![(x, x1)]);
        b.read(t3, x, t1);
        b.commit(t3);
        b.write(t2, z, Value::str("Sales"));
        b.commit(t2);
        b.derive_matches(p, |v| v == &Value::str("Sales"));
        let h = b.build().unwrap();
        let cs = direct_conflicts(&h);
        assert!(kinds_between(&cs, 3, 2).contains(&DepKind::PredAntiDep));
        // And the read-dependency on T1 via the predicate (x1 entered
        // Sales) plus the item read.
        assert!(kinds_between(&cs, 1, 3).contains(&DepKind::PredReadDep));
        assert!(kinds_between(&cs, 1, 3).contains(&DepKind::ItemReadDep));
    }

    #[test]
    fn predicate_anti_dependency_on_delete() {
        // T2 deletes the only Sales row after T1's query: overwrite.
        let mut b = HistoryBuilder::new();
        let (t0, t1, t2) = (b.txn(0), b.txn(1), b.txn(2));
        let rel = b.relation("Emp");
        let x = b.object_in("x", rel);
        let p = b.predicate("Dept=Sales", &[rel]);
        let x0 = b.write(t0, x, Value::str("Sales"));
        b.commit(t0);
        b.predicate_read_versions(t1, p, vec![(x, x0)]);
        b.commit(t1);
        b.delete(t2, x);
        b.commit(t2);
        b.derive_matches(p, |v| v == &Value::str("Sales"));
        let h = b.build().unwrap();
        let cs = direct_conflicts(&h);
        assert!(kinds_between(&cs, 1, 2).contains(&DepKind::PredAntiDep));
    }

    #[test]
    fn later_non_matching_update_is_no_overwrite() {
        // T2 updates a non-Sales row to another non-Sales value after
        // T1's Sales query: no predicate conflict at all (the paper's
        // flexibility over predicate locking).
        let mut b = HistoryBuilder::new();
        let (t0, t1, t2) = (b.txn(0), b.txn(1), b.txn(2));
        let rel = b.relation("Emp");
        let y = b.object_in("y", rel);
        let p = b.predicate("Dept=Sales", &[rel]);
        let y0 = b.write(t0, y, Value::str("Legal"));
        b.commit(t0);
        b.predicate_read_versions(t1, p, vec![(y, y0)]);
        b.commit(t1);
        b.write(t2, y, Value::str("Shipping"));
        b.commit(t2);
        b.derive_matches(p, |v| v == &Value::str("Sales"));
        let h = b.build().unwrap();
        let cs = direct_conflicts(&h);
        assert!(kinds_between(&cs, 1, 2).is_empty());
        assert!(kinds_between(&cs, 2, 1).is_empty());
    }

    #[test]
    fn flip_flop_match_changes_use_latest_change() {
        // x: Sales -> Legal -> Sales. A read selecting the final
        // version predicate-read-depends on the transaction that moved
        // it BACK to Sales (T2), not the original inserter (T0) or the
        // remover (T1) — those are reached transitively through ww.
        let mut b = HistoryBuilder::new();
        let (t0, t1, t2, t3) = (b.txn(0), b.txn(1), b.txn(2), b.txn(3));
        let rel = b.relation("Emp");
        let x = b.object_in("x", rel);
        let p = b.predicate("Dept=Sales", &[rel]);
        b.write(t0, x, Value::str("Sales"));
        b.commit(t0);
        b.write(t1, x, Value::str("Legal"));
        b.commit(t1);
        let x2 = b.write(t2, x, Value::str("Sales"));
        b.commit(t2);
        b.predicate_read_versions(t3, p, vec![(x, x2)]);
        b.commit(t3);
        b.derive_matches(p, |v| v == &Value::str("Sales"));
        let h = b.build().unwrap();
        let cs = direct_conflicts(&h);
        assert!(kinds_between(&cs, 2, 3).contains(&DepKind::PredReadDep));
        assert!(!kinds_between(&cs, 0, 3).contains(&DepKind::PredReadDep));
        assert!(!kinds_between(&cs, 1, 3).contains(&DepKind::PredReadDep));
    }

    #[test]
    fn selecting_an_old_version_sees_both_edge_directions() {
        // T3 selects the middle version (Legal): read-dep from the
        // remover T1 (latest change at-or-before), anti-dep to the
        // re-adder T2 (later change).
        let mut b = HistoryBuilder::new();
        let (t0, t1, t2, t3) = (b.txn(0), b.txn(1), b.txn(2), b.txn(3));
        let rel = b.relation("Emp");
        let x = b.object_in("x", rel);
        let p = b.predicate("Dept=Sales", &[rel]);
        b.write(t0, x, Value::str("Sales"));
        b.commit(t0);
        let x1 = b.write(t1, x, Value::str("Legal"));
        b.commit(t1);
        b.predicate_read_versions(t3, p, vec![(x, x1)]);
        b.commit(t3);
        b.write(t2, x, Value::str("Sales"));
        b.commit(t2);
        b.derive_matches(p, |v| v == &Value::str("Sales"));
        let h = b.build().unwrap();
        let cs = direct_conflicts(&h);
        assert!(kinds_between(&cs, 1, 3).contains(&DepKind::PredReadDep));
        assert!(kinds_between(&cs, 3, 2).contains(&DepKind::PredAntiDep));
    }

    #[test]
    fn dep_kind_classification() {
        assert!(DepKind::WriteDep.is_dependency());
        assert!(DepKind::ItemReadDep.is_dependency());
        assert!(DepKind::PredReadDep.is_dependency());
        assert!(!DepKind::ItemAntiDep.is_dependency());
        assert!(DepKind::ItemAntiDep.is_anti());
        assert!(DepKind::PredAntiDep.is_anti());
        assert!(DepKind::ItemAntiDep.is_item_anti());
        assert!(!DepKind::PredAntiDep.is_item_anti());
        assert!(!DepKind::StartDep.is_dependency());
        assert_eq!(DepKind::PredAntiDep.to_string(), "rw(pred)");
    }
}
