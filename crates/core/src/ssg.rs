//! The Start-ordered Serialization Graph, used by the Snapshot
//! Isolation extension level (Adya's thesis §4.3; the ICDE paper
//! points to it in §6 as one of the commercial levels its approach
//! covers).

use adya_graph::{Cycle, DiGraph};
use adya_history::{History, TxnId};

use crate::conflicts::DepKind;
use crate::dsg::Dsg;

/// The SSG of a history: the DSG plus a **start-dependency** edge
/// `Ti -s-> Tj` whenever Ti's commit time-precedes Tj's begin.
///
/// Time-precedence is taken from event positions: an explicit `Begin`
/// event when recorded, the transaction's first event otherwise. Under
/// Snapshot Isolation every read/write-dependency must coincide with a
/// start-dependency (G-SIa), and no cycle may have exactly one
/// anti-dependency edge (G-SIb).
#[derive(Debug, Clone)]
pub struct Ssg {
    graph: DiGraph<TxnId, DepKind>,
}

impl Ssg {
    /// Builds the SSG of `h`, reusing an already-built DSG.
    pub fn build(h: &History, dsg: &Dsg) -> Ssg {
        let mut graph = dsg.graph().clone();
        let committed: Vec<TxnId> = h.committed_txns().collect();
        for &ti in &committed {
            let ci = h.txn(ti).expect("committed txn exists").end_event;
            for &tj in &committed {
                if ti == tj {
                    continue;
                }
                let bj = h.txn(tj).expect("committed txn exists").begin_point();
                if ci < bj {
                    graph.add_edge_dedup(ti, tj, DepKind::StartDep);
                }
            }
        }
        Ssg { graph }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph<TxnId, DepKind> {
        &self.graph
    }

    /// G-SIa witness: a read/write-dependency edge `Ti → Tj` **not**
    /// accompanied by a start-dependency `Ti -s-> Tj` (i.e. Tj
    /// depends on a transaction that had not committed before Tj
    /// began).
    pub fn interference_edge(&self) -> Option<(TxnId, TxnId, DepKind)> {
        for e in self.graph.edges() {
            if !e.label.is_dependency() {
                continue;
            }
            if !self
                .graph
                .has_edge_where(e.from, e.to, |&k| k == DepKind::StartDep)
            {
                return Some((*e.from, *e.to, *e.label));
            }
        }
        None
    }

    /// G-SIb witness: an SSG cycle with exactly one anti-dependency
    /// edge (start- and read/write-dependencies on the path).
    pub fn missed_effects_cycle(&self) -> Option<Cycle<TxnId, DepKind>> {
        self.graph
            .find_cycle_exactly_one(|k| k.is_anti(), |k| !k.is_anti())
    }

    /// Graphviz DOT rendering.
    pub fn to_dot(&self, name: &str) -> String {
        self.graph.to_dot(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_history::parse_history;

    fn ssg_of(input: &str) -> Ssg {
        let h = parse_history(input).unwrap();
        let dsg = Dsg::build(&h);
        Ssg::build(&h, &dsg)
    }

    #[test]
    fn start_dep_added_for_serial_txns() {
        let ssg = ssg_of("b1 w1(x,1) c1 b2 r2(x1) c2");
        assert!(ssg
            .graph()
            .has_edge_where(&TxnId(1), &TxnId(2), |&k| k == DepKind::StartDep));
        assert!(ssg.interference_edge().is_none());
    }

    #[test]
    fn concurrent_read_dependency_is_interference() {
        // T2 begins before T1 commits yet reads T1's write: G-SIa.
        let ssg = ssg_of("b1 b2 w1(x,1) c1 r2(x1) c2");
        let (from, to, kind) = ssg.interference_edge().expect("G-SIa");
        assert_eq!((from, to), (TxnId(1), TxnId(2)));
        assert!(kind.is_dependency());
    }

    #[test]
    fn write_skew_is_missed_effects() {
        // Classic SI write skew: both read both objects, each writes
        // one. Two anti-dependency edges — this is NOT G-SIb (not
        // exactly one anti edge in its only cycle), so SI admits it.
        let ssg = ssg_of(
            "b1 b2 r1(xinit,5) r1(yinit,5) r2(xinit,5) r2(yinit,5) \
             w1(x,1) w2(y,1) c1 c2",
        );
        assert!(ssg.interference_edge().is_none());
        assert!(ssg.missed_effects_cycle().is_none());
    }

    #[test]
    fn single_anti_cycle_is_missed_effects() {
        // T1 reads x_init then T2 overwrites x and commits before...
        // make T2 also read something T1 wrote: T1 -wr-> ... simpler:
        // T2 reads y1 (dep T1->T2), T1 read x_init overwritten by T2
        // (anti T1->T2)? That's not a cycle. Build: T1 -rw-> T2 and
        // T2 -s-> T1: T2 commits before T1 begins? Impossible with
        // T1 reading before. Use dependency path back:
        // b1 r1(xinit) c1 ; b2 w2(x) c2 gives T1 -rw-> T2 and
        // T1 -s-> T2 (no cycle). Add T3? Simplest G-SIb: T1 -rw-> T2,
        // T2 -s-> T1 requires c2 < b1: then T1 must read the version
        // T2 overwrote — T1 reads x_init *after* T2 installed x2:
        // legal in a multi-version world.
        let h = parse_history("b2 w2(x,9) c2 b1 r1(xinit,5) c1").unwrap();
        let dsg = Dsg::build(&h);
        let ssg = Ssg::build(&h, &dsg);
        let cyc = ssg.missed_effects_cycle().expect("G-SIb");
        assert_eq!(cyc.count_labels(|k| k.is_anti()), 1);
    }
}
