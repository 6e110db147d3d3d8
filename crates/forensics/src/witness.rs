//! Structured violation witnesses: the offending cycle, the concrete
//! operations behind each edge, and the minimal sub-history.

use adya_core::{detect_all, Conflict, DepKind, Dsg, Phenomenon, PhenomenonKind};
use adya_history::{History, ObjectId, PredicateId, TxnId, VersionId};

use crate::shrink::{detected_kinds, minimize_to};

/// One concrete operation citation behind a witness edge.
#[derive(Debug, Clone)]
pub struct EdgeOp {
    /// The underlying direct conflict (object / version / predicate).
    pub conflict: Conflict,
    /// Human-readable citation in the paper's notation, naming the
    /// inducing events and their positions in the minimal history.
    pub citation: String,
}

/// One edge of the witness cycle with its provenance.
#[derive(Debug, Clone)]
pub struct WitnessEdge {
    /// Depended-on transaction Ti.
    pub from: TxnId,
    /// Depending transaction Tj.
    pub to: TxnId,
    /// Edge kind (ww / wr / rw, item or predicate).
    pub kind: DepKind,
    /// The operations that induced the edge, one per object/predicate.
    pub ops: Vec<EdgeOp>,
}

/// A forensic witness for one phenomenon: the shortest offending cycle
/// over a minimal sub-history, with every edge mapped back to the
/// operations that induced it.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The phenomenon this witness exhibits.
    pub kind: PhenomenonKind,
    /// The re-detected phenomenon on the minimal history (its witness
    /// cycle, for the cycle-shaped kinds).
    pub phenomenon: Phenomenon,
    /// The minimal sub-history still exhibiting the phenomenon.
    pub minimal_history: History,
    /// Transactions removed by shrinking.
    pub removed_txns: usize,
    /// Events removed by shrinking (beyond whole-transaction removals).
    pub removed_events: usize,
    /// The witness cycle with per-edge provenance; empty for the
    /// non-cycle phenomena (G1a, G1b, G-SIa, G-monotonic).
    pub cycle: Vec<WitnessEdge>,
}

impl Witness {
    /// Stable witness id: [`adya_obs::witness_id`] over the canonical
    /// (rotation-invariant) cycle signature, or over the phenomenon's
    /// description for the cycle-less kinds. The online checker's
    /// verdicts and health exemplars derive their `witness_id` the
    /// same way, so a fired G1c/G2 in the live plane resolves to this
    /// witness when both saw the same cycle.
    pub fn id(&self) -> String {
        let nodes: Vec<u64> = self.cycle.iter().map(|e| u64::from(e.from.0)).collect();
        adya_obs::witness_id(&self.kind.to_string(), &nodes, &self.phenomenon.to_string())
    }
}

/// Extracts a witness for `target` from `h`: shrinks the history to a
/// minimal sub-history (see [`crate::minimize`]), re-detects the
/// phenomenon there (re-detection on the smaller DSG yields the
/// shortest offending cycle), and maps every cycle edge back to its
/// inducing operations. `None` when `h` does not exhibit `target`.
pub fn extract(h: &History, target: PhenomenonKind) -> Option<Witness> {
    witnesses(h, |k| k == target).pop()
}

/// Every witness `h` supports, one per detected phenomenon kind, in
/// detection order.
pub fn extract_all(h: &History) -> Vec<Witness> {
    witnesses(h, |_| true)
}

/// The witnesses of `h` for its `wanted` kinds. Minimization keeps the
/// whole kind set, so one minimal history, one detection on it and
/// one DSG of it serve every kind.
fn witnesses(h: &History, wanted: impl Fn(PhenomenonKind) -> bool) -> Vec<Witness> {
    let kinds = detected_kinds(h);
    if !kinds.iter().any(|&k| wanted(k)) {
        return Vec::new();
    }
    let minimal = minimize_to(h, &kinds);
    let dsg = Dsg::build(&minimal);
    detect_all(&minimal)
        .into_iter()
        .filter(|p| wanted(p.kind()))
        .map(|phenomenon| {
            let edges = phenomenon.cycle().into_iter().flat_map(|c| c.edges());
            let cycle = edges
                .map(|e| WitnessEdge {
                    from: e.from,
                    to: e.to,
                    kind: e.label,
                    ops: dsg
                        .provenance(e.from, e.to, e.label)
                        .into_iter()
                        .map(|c| EdgeOp {
                            conflict: c.clone(),
                            citation: citation(&minimal, c),
                        })
                        .collect(),
                })
                .collect();
            Witness {
                kind: phenomenon.kind(),
                phenomenon,
                removed_txns: h.txns().count() - minimal.txns().count(),
                removed_events: h.len() - minimal.len(),
                minimal_history: minimal.clone(),
                cycle,
            }
        })
        .collect()
}

/// Renders the provenance of one conflict as a citation naming the
/// concrete events (by position) in `h`.
fn citation(h: &History, c: &Conflict) -> String {
    match c.kind {
        DepKind::WriteDep => {
            let (o, v) = (
                c.object.expect("ww has object"),
                c.version.expect("ww has version"),
            );
            let next = h.next_version(o, v);
            let mut s = format!(
                "{} installed {}{}",
                c.from,
                ver(h, o, v),
                write_site(h, o, v)
            );
            match next {
                Some(n) => {
                    s.push_str(&format!(
                        "; {} installed the next version {}{}",
                        c.to,
                        ver(h, o, n),
                        write_site(h, o, n)
                    ));
                }
                None => s.push_str(&format!("; {} overwrote it", c.to)),
            }
            s
        }
        DepKind::ItemReadDep => {
            let (o, v) = (
                c.object.expect("wr has object"),
                c.version.expect("wr has version"),
            );
            format!(
                "{} read {} installed by {}{}",
                c.to,
                ver(h, o, v),
                c.from,
                read_site(h, c.to, o, v)
            )
        }
        DepKind::PredReadDep => {
            let p = c.predicate.expect("wr(pred) has predicate");
            let (o, v) = (c.object.expect("object"), c.version.expect("version"));
            format!(
                "{}'s predicate read of {} observed {} installed by {}{}",
                c.to,
                pred_name(h, p),
                ver(h, o, v),
                c.from,
                pred_site(h, c.to, p)
            )
        }
        DepKind::ItemAntiDep => {
            let (o, v) = (
                c.object.expect("rw has object"),
                c.version.expect("rw has version"),
            );
            let read = read_version_of(h, c.from, o);
            let mut s = match read {
                Some(rv) => format!(
                    "{} read {}{}",
                    c.from,
                    ver(h, o, rv),
                    read_site(h, c.from, o, rv)
                ),
                None => format!("{} read {}", c.from, h.object_name(o)),
            };
            s.push_str(&format!(
                "; {} overwrote it with {}{}",
                c.to,
                ver(h, o, v),
                write_site(h, o, v)
            ));
            s
        }
        DepKind::PredAntiDep => {
            let p = c.predicate.expect("rw(pred) has predicate");
            let (o, v) = (c.object.expect("object"), c.version.expect("version"));
            format!(
                "{}'s predicate read of {}{} changed matches when {} installed {}{} (phantom)",
                c.from,
                pred_name(h, p),
                pred_site(h, c.from, p),
                c.to,
                ver(h, o, v),
                write_site(h, o, v)
            )
        }
        DepKind::StartDep => format!("{} began after {} committed", c.to, c.from),
    }
}

/// `x[1]`-style rendering of one version of one object.
fn ver(h: &History, o: ObjectId, v: VersionId) -> String {
    format!("{}[{}]", h.object_name(o), v)
}

/// ` (w1(x[1], 2), event 0)` for the write installing `o[v]`, if found.
fn write_site(h: &History, o: ObjectId, v: VersionId) -> String {
    h.events()
        .iter()
        .position(|e| {
            e.as_write()
                .is_some_and(|w| w.object == o && w.version() == v)
        })
        .map(|i| format!(" ({}, event {})", h.display_event(&h.events()[i]), i))
        .unwrap_or_default()
}

/// ` (r2(x[1]), event 3)` for `reader`'s read of `o[v]`, if found.
fn read_site(h: &History, reader: TxnId, o: ObjectId, v: VersionId) -> String {
    h.reads_of(reader)
        .find(|(_, r)| r.object == o && r.version == v)
        .map(|(i, _)| format!(" ({}, event {})", h.display_event(&h.events()[i]), i))
        .unwrap_or_default()
}

/// ` (r1(P: …), event 0)` for `reader`'s read of predicate `p`.
fn pred_site(h: &History, reader: TxnId, p: PredicateId) -> String {
    h.events()
        .iter()
        .position(|e| {
            e.as_predicate_read()
                .is_some_and(|pr| pr.txn == reader && pr.predicate == p)
        })
        .map(|i| format!(" ({}, event {})", h.display_event(&h.events()[i]), i))
        .unwrap_or_default()
}

/// The version of `o` that `reader` observed (first matching read).
fn read_version_of(h: &History, reader: TxnId, o: ObjectId) -> Option<VersionId> {
    h.reads_of(reader)
        .find(|(_, r)| r.object == o)
        .map(|(_, r)| r.version)
}

/// The predicate's name, or its id when unknown.
fn pred_name(h: &History, p: PredicateId) -> String {
    h.predicate(p)
        .map(|i| i.name.clone())
        .unwrap_or_else(|| p.to_string())
}
