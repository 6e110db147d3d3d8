//! The proscribed phenomena (§5, plus thesis extensions), each
//! detector returning a concrete witness.

use std::fmt;

use adya_graph::{Cycle, CycleEdge, DiGraph};
use adya_history::{Event, History, ObjectId, TxnId, VersionId};

use crate::conflicts::DepKind;
use crate::dsg::Dsg;

/// Discriminants of the phenomena, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhenomenonKind {
    /// Write cycles (§5.1).
    G0,
    /// Aborted reads (§5.2).
    G1a,
    /// Intermediate reads (§5.2).
    G1b,
    /// Circular information flow (§5.2).
    G1c,
    /// Item anti-dependency cycles (§5.4).
    G2Item,
    /// Anti-dependency cycles (§5.3).
    G2,
    /// Single anti-dependency cycles (PL-2+, thesis §4.2).
    GSingle,
    /// Interference: dependency on a concurrent transaction (PL-SI,
    /// thesis §4.3).
    GSIa,
    /// Missed effects: SSG cycle with exactly one anti-dependency
    /// (PL-SI, thesis §4.3).
    GSIb,
    /// Labeled (cursor) anti-dependency cycles (PL-CS, thesis §4.2).
    GCursor,
    /// Non-monotonic atomic visibility: a USG cycle with exactly one
    /// read-rooted anti-dependency (PL-MAV, thesis §4.2).
    GMonotonic,
}

impl PhenomenonKind {
    /// Every kind, in report order.
    pub const ALL: [PhenomenonKind; 11] = [
        PhenomenonKind::G0,
        PhenomenonKind::G1a,
        PhenomenonKind::G1b,
        PhenomenonKind::G1c,
        PhenomenonKind::G2Item,
        PhenomenonKind::G2,
        PhenomenonKind::GSingle,
        PhenomenonKind::GSIa,
        PhenomenonKind::GSIb,
        PhenomenonKind::GCursor,
        PhenomenonKind::GMonotonic,
    ];
}

impl fmt::Display for PhenomenonKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhenomenonKind::G0 => write!(f, "G0"),
            PhenomenonKind::G1a => write!(f, "G1a"),
            PhenomenonKind::G1b => write!(f, "G1b"),
            PhenomenonKind::G1c => write!(f, "G1c"),
            PhenomenonKind::G2Item => write!(f, "G2-item"),
            PhenomenonKind::G2 => write!(f, "G2"),
            PhenomenonKind::GSingle => write!(f, "G-single"),
            PhenomenonKind::GSIa => write!(f, "G-SIa"),
            PhenomenonKind::GSIb => write!(f, "G-SIb"),
            PhenomenonKind::GCursor => write!(f, "G-cursor"),
            PhenomenonKind::GMonotonic => write!(f, "G-monotonic"),
        }
    }
}

/// A detected phenomenon with its witness.
#[derive(Debug, Clone)]
pub enum Phenomenon {
    /// A cycle of only write-dependency edges.
    G0(Cycle<TxnId, DepKind>),
    /// A committed transaction read a version written by an aborted
    /// transaction (directly or through a predicate's version set).
    G1a {
        /// The committed reader T2.
        reader: TxnId,
        /// The aborted writer T1.
        writer: TxnId,
        /// Object read.
        object: ObjectId,
        /// Version read.
        version: VersionId,
        /// True when the read was a version-set selection.
        via_predicate: bool,
    },
    /// A committed transaction read a non-final version.
    G1b {
        /// The committed reader T2.
        reader: TxnId,
        /// The writer T1 whose intermediate version leaked.
        writer: TxnId,
        /// Object read.
        object: ObjectId,
        /// The intermediate version.
        version: VersionId,
        /// T1's final modification of the object.
        final_version: VersionId,
        /// True when the read was a version-set selection.
        via_predicate: bool,
    },
    /// A cycle of only dependency (ww/wr) edges.
    G1c(Cycle<TxnId, DepKind>),
    /// A cycle with at least one item anti-dependency edge.
    G2Item(Cycle<TxnId, DepKind>),
    /// A cycle with at least one anti-dependency edge.
    G2(Cycle<TxnId, DepKind>),
    /// A cycle with exactly one anti-dependency edge.
    GSingle(Cycle<TxnId, DepKind>),
    /// A dependency edge between concurrent transactions (SSG has no
    /// matching start-dependency).
    GSIa {
        /// Depended-on transaction.
        from: TxnId,
        /// Depending transaction (began before `from` committed).
        to: TxnId,
        /// The dependency kind.
        kind: DepKind,
    },
    /// An SSG cycle with exactly one anti-dependency edge.
    GSIb(Cycle<TxnId, DepKind>),
    /// A DSG cycle through a cursor-labeled anti-dependency edge.
    GCursor(Cycle<TxnId, DepKind>),
    /// A USG cycle with exactly one read-rooted anti-dependency.
    GMonotonic {
        /// The transaction whose unfolded graph is cyclic.
        txn: TxnId,
        /// The witness cycle over unfolded nodes.
        cycle: Cycle<crate::usg::UsgNode, String>,
    },
}

impl Phenomenon {
    /// The discriminant.
    pub fn kind(&self) -> PhenomenonKind {
        match self {
            Phenomenon::G0(_) => PhenomenonKind::G0,
            Phenomenon::G1a { .. } => PhenomenonKind::G1a,
            Phenomenon::G1b { .. } => PhenomenonKind::G1b,
            Phenomenon::G1c(_) => PhenomenonKind::G1c,
            Phenomenon::G2Item(_) => PhenomenonKind::G2Item,
            Phenomenon::G2(_) => PhenomenonKind::G2,
            Phenomenon::GSingle(_) => PhenomenonKind::GSingle,
            Phenomenon::GSIa { .. } => PhenomenonKind::GSIa,
            Phenomenon::GSIb(_) => PhenomenonKind::GSIb,
            Phenomenon::GCursor(_) => PhenomenonKind::GCursor,
            Phenomenon::GMonotonic { .. } => PhenomenonKind::GMonotonic,
        }
    }

    /// The DSG witness cycle, for the cycle-shaped phenomena. `None`
    /// for G1a/G1b (read-of-bad-version shapes), G-SIa (a missing
    /// start-dependency, not a cycle) and G-monotonic (whose cycle
    /// lives in the per-transaction USG, not the DSG).
    pub fn cycle(&self) -> Option<&Cycle<TxnId, DepKind>> {
        match self {
            Phenomenon::G0(c)
            | Phenomenon::G1c(c)
            | Phenomenon::G2Item(c)
            | Phenomenon::G2(c)
            | Phenomenon::GSingle(c)
            | Phenomenon::GSIb(c)
            | Phenomenon::GCursor(c) => Some(c),
            Phenomenon::G1a { .. }
            | Phenomenon::G1b { .. }
            | Phenomenon::GSIa { .. }
            | Phenomenon::GMonotonic { .. } => None,
        }
    }
}

impl fmt::Display for Phenomenon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phenomenon::G0(c) => write!(f, "G0: write cycle {c}"),
            Phenomenon::G1a {
                reader,
                writer,
                object,
                version,
                via_predicate,
            } => write!(
                f,
                "G1a: {reader} read {object}[{version}] of aborted {writer}{}",
                if *via_predicate {
                    " (via predicate)"
                } else {
                    ""
                }
            ),
            Phenomenon::G1b {
                reader,
                writer,
                object,
                version,
                final_version,
                via_predicate,
            } => write!(
                f,
                "G1b: {reader} read intermediate {object}[{version}] of {writer} \
                 (final is [{final_version}]){}",
                if *via_predicate {
                    " (via predicate)"
                } else {
                    ""
                }
            ),
            Phenomenon::G1c(c) => write!(f, "G1c: dependency cycle {c}"),
            Phenomenon::G2Item(c) => write!(f, "G2-item: item anti-dependency cycle {c}"),
            Phenomenon::G2(c) => write!(f, "G2: anti-dependency cycle {c}"),
            Phenomenon::GSingle(c) => write!(f, "G-single: single anti-dependency cycle {c}"),
            Phenomenon::GSIa { from, to, kind } => write!(
                f,
                "G-SIa: {to} {kind}-depends on concurrent {from} (no start-dependency)"
            ),
            Phenomenon::GSIb(c) => write!(f, "G-SIb: missed-effects cycle {c}"),
            Phenomenon::GCursor(c) => write!(f, "G-cursor: cursor-labeled cycle {c}"),
            Phenomenon::GMonotonic { txn, cycle } => write!(
                f,
                "G-monotonic: non-monotonic reads of {txn}, USG cycle {cycle}"
            ),
        }
    }
}

/// G0 — *Write Cycles*: DSG cycle of only write-dependency edges.
pub fn g0(dsg: &Dsg) -> Option<Phenomenon> {
    dsg.write_cycle().map(Phenomenon::G0)
}

/// G1a — *Aborted Reads*: a committed transaction read (directly or
/// via a predicate's version set) a version written by an aborted
/// transaction.
pub fn g1a(h: &History) -> Option<Phenomenon> {
    g1a_where(h, |_| true)
}

/// [`g1a`] restricted to committed readers satisfying `readers` —
/// used by the mixed-level check, where only PL-2+ readers matter and
/// a PL-1 reader's dirty read must not mask a later violation.
pub fn g1a_where(h: &History, readers: impl FnMut(TxnId) -> bool) -> Option<Phenomenon> {
    first_bad_read(h, readers, |reader, object, version, via_predicate| {
        let aborted = !version.is_init() && !h.is_committed(version.txn);
        aborted.then_some(Phenomenon::G1a {
            reader,
            writer: version.txn,
            object,
            version,
            via_predicate,
        })
    })
}

/// G1b — *Intermediate Reads*: a committed transaction read a version
/// that was not its writer's final modification of the object.
pub fn g1b(h: &History) -> Option<Phenomenon> {
    g1b_where(h, |_| true)
}

/// [`g1b`] restricted to committed readers satisfying `readers`.
pub fn g1b_where(h: &History, readers: impl FnMut(TxnId) -> bool) -> Option<Phenomenon> {
    first_bad_read(h, readers, |reader, object, version, via_predicate| {
        let writer = version.txn;
        if writer == reader || writer.is_init() {
            return None;
        }
        let final_seq = h.final_seq(writer, object)?;
        (version.seq != final_seq).then_some(Phenomenon::G1b {
            reader,
            writer,
            object,
            version,
            final_version: VersionId::new(writer, final_seq),
            via_predicate,
        })
    })
}

/// The sweep G1a and G1b share: the first version read — by each
/// committed reader passing `readers` in turn, through its item reads
/// and then its version-set selections — that `bad` makes a witness
/// of. `bad` is given `(reader, object, version, via_predicate)`.
fn first_bad_read(
    h: &History,
    mut readers: impl FnMut(TxnId) -> bool,
    bad: impl Fn(TxnId, ObjectId, VersionId, bool) -> Option<Phenomenon>,
) -> Option<Phenomenon> {
    h.committed_txns()
        .filter(|&t| readers(t))
        .find_map(|reader| {
            let items = h
                .reads_of(reader)
                .map(|(_, r)| (r.object, r.version, false));
            let selected = h
                .predicate_reads_of(reader)
                .flat_map(|(_, p)| p.vset.iter().map(|&(o, v)| (o, v, true)));
            items
                .chain(selected)
                .find_map(|(object, version, via)| bad(reader, object, version, via))
        })
}

/// G1c — *Circular Information Flow*: DSG cycle of only dependency
/// edges (includes every G0 cycle).
pub fn g1c(dsg: &Dsg) -> Option<Phenomenon> {
    dsg.dependency_cycle().map(Phenomenon::G1c)
}

/// G2 — *Anti-dependency Cycles*: DSG cycle with at least one
/// (item or predicate) anti-dependency edge.
pub fn g2(dsg: &Dsg) -> Option<Phenomenon> {
    dsg.anti_cycle().map(Phenomenon::G2)
}

/// G2-item — *Item Anti-dependency Cycles*: DSG cycle with at least
/// one **item** anti-dependency edge.
pub fn g2_item(dsg: &Dsg) -> Option<Phenomenon> {
    dsg.item_anti_cycle().map(Phenomenon::G2Item)
}

/// G-cursor — *Labeled Anti-dependency Cycles* (Cursor Stability).
///
/// An item anti-dependency `Ti → Tj` is **cursor-labeled** when Ti
/// read the object through a cursor and wrote it *while the cursor
/// was still positioned there* — no intervening cursor move (the
/// read-modify-write window the cursor lock protects in a locking
/// implementation, cf. Adya's thesis LDSG). A cursor read abandoned
/// by repositioning claims no protection, exactly like a plain READ
/// COMMITTED read. G-cursor is a DSG cycle containing at least one
/// labeled edge.
pub fn g_cursor(h: &History, dsg: &Dsg) -> Option<Phenomenon> {
    // Identify cursor-labeled reader→overwriter pairs.
    let mut labeled: Vec<(TxnId, TxnId)> = Vec::new();
    for ti in h.committed_txns() {
        let own: Vec<&Event> = h.events_of(ti).map(|(_, e)| e).collect();
        for (at, e) in own.iter().enumerate() {
            let Some(r) = e.as_read().filter(|r| r.through_cursor) else {
                continue;
            };
            // Ti must write the object after the cursor read, before
            // moving its cursor elsewhere.
            let mut wrote_after = false;
            for e in &own[at + 1..] {
                if let Some(w) = e.as_write() {
                    if w.object == r.object {
                        wrote_after = true;
                        break;
                    }
                    continue;
                }
                if let Some(next_read) = e.as_read() {
                    if next_read.through_cursor {
                        // The cursor repositioned (even onto the same
                        // row): this read's protection window ends and
                        // the newer read takes over.
                        break;
                    }
                }
            }
            if !wrote_after {
                continue;
            }
            let Some(anchor) = crate::conflicts::order_anchor(h, r.object, r.version) else {
                continue;
            };
            if let Some(next) = h.next_version(r.object, anchor) {
                if next.txn != ti {
                    labeled.push((ti, next.txn));
                }
            }
        }
    }
    if labeled.is_empty() {
        return None;
    }
    labeled.sort_unstable();
    labeled.dedup();
    // Rebuild the DSG with labeled anti-edges distinguished so the
    // generic cycle search can require one.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum L {
        Plain(DepKind),
        LabeledAnti,
    }
    let mut g: DiGraph<TxnId, L> = DiGraph::with_capacity(dsg.graph().node_count());
    for n in dsg.graph().nodes() {
        g.add_node(*n);
    }
    for e in dsg.graph().edges() {
        let lab = if e.label.is_item_anti() && labeled.binary_search(&(*e.from, *e.to)).is_ok() {
            L::LabeledAnti
        } else {
            L::Plain(*e.label)
        };
        g.add_edge_dedup(*e.from, *e.to, lab);
    }
    let cyc = g.find_cycle(|_| true, |l| *l == L::LabeledAnti)?;
    // Report with the original kinds.
    let edges = cyc.edges().iter().map(|e| CycleEdge {
        from: e.from,
        to: e.to,
        label: match e.label {
            L::LabeledAnti => DepKind::ItemAntiDep,
            L::Plain(k) => k,
        },
    });
    Some(Phenomenon::GCursor(Cycle::from_edges(edges.collect())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect_all;
    use adya_history::parse_history;

    fn dsg_of(s: &str) -> (adya_history::History, Dsg) {
        let h = parse_history(s).unwrap();
        let d = Dsg::build(&h);
        (h, d)
    }

    #[test]
    fn g0_on_wcycle() {
        let (_, d) = dsg_of("w1(x,2) w2(x,5) w2(y,5) c2 w1(y,8) c1 [x1 << x2, y2 << y1]");
        assert!(g0(&d).is_some());
    }

    #[test]
    fn g0_absent_on_serial_writes() {
        let (_, d) = dsg_of("w1(x,2) w1(y,8) c1 w2(x,5) w2(y,5) c2");
        assert!(g0(&d).is_none());
    }

    #[test]
    fn g1a_on_aborted_read() {
        let h = parse_history("w1(x,1) r2(x1) a1 c2").unwrap();
        let p = g1a(&h).expect("G1a");
        assert!(matches!(
            p,
            Phenomenon::G1a { reader, writer, .. }
                if reader == TxnId(2) && writer == TxnId(1)
        ));
    }

    #[test]
    fn g1a_absent_when_reader_aborts_too() {
        // Cascaded abort averted the damage: no committed reader.
        let h = parse_history("w1(x,1) r2(x1) a1 a2").unwrap();
        assert!(g1a(&h).is_none());
    }

    #[test]
    fn g1b_on_intermediate_read() {
        let h = parse_history("w1(x,1) r2(x1:1) w1(x,2) c1 c2").unwrap();
        let p = g1b(&h).expect("G1b");
        assert!(matches!(p, Phenomenon::G1b { version, .. } if version.seq == 1));
    }

    #[test]
    fn g1b_absent_on_final_read() {
        let h = parse_history("w1(x,1) w1(x,2) c1 r2(x1:2) c2").unwrap();
        assert!(g1b(&h).is_none());
    }

    #[test]
    fn own_intermediate_read_is_not_g1b() {
        let h = parse_history("w1(x,1) r1(x1:1) w1(x,2) c1").unwrap();
        assert!(g1b(&h).is_none());
    }

    #[test]
    fn g1c_on_circular_information_flow() {
        // T1 reads T2's write, T2 reads T1's write.
        let h = parse_history("w1(x,1) w2(y,2) r1(y2) r2(x1) c1 c2").unwrap();
        let d = Dsg::build(&h);
        assert!(g1c(&d).is_some());
        assert!(g0(&d).is_none(), "no write cycle, only wr edges");
    }

    #[test]
    fn g2_on_h2_but_not_g1() {
        // H2 of §3: T2 observes violated invariant (read skew).
        let h = parse_history("r2(xinit,5) r1(xinit,5) w1(x,1) r1(yinit,5) w1(y,9) c1 r2(y1,9) c2")
            .unwrap();
        let d = Dsg::build(&h);
        assert!(g2(&d).is_some());
        assert!(d.single_anti_cycle().is_some(), "exactly one anti edge");
        assert!(g1c(&d).is_none());
        assert!(g0(&d).is_none());
    }

    #[test]
    fn g2_item_distinguished_from_predicate_g2() {
        // Pure item anti cycle: G2-item and G2 both fire.
        let h = parse_history("r2(xinit,5) r1(xinit,5) w1(x,1) r1(yinit,5) w1(y,9) c1 r2(y1,9) c2")
            .unwrap();
        let d = Dsg::build(&h);
        assert!(g2_item(&d).is_some());
    }

    #[test]
    fn g_cursor_on_lost_update() {
        // Classic lost update through cursors:
        // rc1(x_init) rc2(x_init) w1(x) c1 w2(x) c2 — T2's write
        // clobbers T1's.
        let h = parse_history("rc1(xinit,0) rc2(xinit,0) w1(x,1) c1 w2(x,2) c2").unwrap();
        let d = Dsg::build(&h);
        assert!(g_cursor(&h, &d).is_some());
        // The same history with plain reads has no G-cursor…
        let h2 = parse_history("r1(xinit,0) r2(xinit,0) w1(x,1) c1 w2(x,2) c2").unwrap();
        let d2 = Dsg::build(&h2);
        assert!(g_cursor(&h2, &d2).is_none());
        // …but is still G2 (lost update is non-serializable).
        assert!(g2(&d2).is_some());
    }

    #[test]
    fn detect_all_collects_each_kind_once() {
        let h = parse_history("r2(xinit,5) r1(xinit,5) w1(x,1) r1(yinit,5) w1(y,9) c1 r2(y1,9) c2")
            .unwrap();
        let found = detect_all(&h);
        let kinds: Vec<PhenomenonKind> = found.iter().map(Phenomenon::kind).collect();
        assert!(kinds.contains(&PhenomenonKind::G2));
        assert!(kinds.contains(&PhenomenonKind::G2Item));
        assert!(!kinds.contains(&PhenomenonKind::G0));
        // One witness per kind.
        let mut dedup = kinds.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), kinds.len());
    }

    #[test]
    fn g1a_via_predicate_version_set() {
        // The paper's fragment w1(x1:i) … r2(P: x1:i, …) … (a1, c2):
        // the aborted version sits in T2's version set.
        use adya_history::{HistoryBuilder, Value};
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        let rel = b.relation("Emp");
        let x = b.object_in("x", rel);
        let p = b.predicate("any", &[rel]);
        let x1 = b.write(t1, x, Value::Int(1));
        b.predicate_read_versions(t2, p, vec![(x, x1)]);
        b.abort(t1);
        b.commit(t2);
        let h = b.build().unwrap();
        let ph = g1a(&h).expect("G1a via predicate");
        assert!(matches!(
            ph,
            Phenomenon::G1a {
                via_predicate: true,
                ..
            }
        ));
    }

    #[test]
    fn g1b_via_predicate_version_set() {
        // Version set selecting an intermediate version.
        use adya_history::{HistoryBuilder, Value};
        let mut b = HistoryBuilder::new();
        let (t1, t2) = (b.txn(1), b.txn(2));
        let rel = b.relation("Emp");
        let x = b.object_in("x", rel);
        let p = b.predicate("any", &[rel]);
        let x11 = b.write(t1, x, Value::Int(1));
        b.predicate_read_versions(t2, p, vec![(x, x11)]);
        b.write(t1, x, Value::Int(2));
        b.commit(t1);
        b.commit(t2);
        let h = b.build().unwrap();
        let ph = g1b(&h).expect("G1b via predicate");
        assert!(matches!(
            ph,
            Phenomenon::G1b {
                via_predicate: true,
                ..
            }
        ));
    }

    #[test]
    fn display_forms_mention_kind() {
        let h = parse_history("w1(x,1) r2(x1) a1 c2").unwrap();
        let p = g1a(&h).unwrap();
        let s = p.to_string();
        assert!(s.starts_with("G1a:"));
        assert!(s.contains("T2") && s.contains("T1"));
        assert_eq!(p.kind().to_string(), "G1a");
    }
}
