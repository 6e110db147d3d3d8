//! What the checker says: the per-commit [`Verdict`] and its one-line
//! JSON, the [`VerdictFact`] a commit verdict reduces to, the
//! latched-phenomenon record behind both, and the two small
//! vocabularies they are written in — which phenomena the streaming
//! checker reports (with their snapshot bit) and how a cycle edge is
//! labelled. Plain data: nothing here reads the checker's tables.
//!
//! A verdict line has one writer, `Line::write`: a `Verdict` renders
//! through it, and so does a fact, with its witness, witness id and
//! cycle taken from the latch record. That record is write-once per
//! kind, so a fact renders to the line its verdict did for as long as
//! the checker (or an image of it) lives.

use std::fmt::{self, Display};
use std::sync::OnceLock;

use adya_core::{IsolationLevel, PhenomenonKind};
use adya_graph::Dot;
use adya_history::{ObjectId, TxnId, VersionId};
use adya_obs::json::write_escaped;

/// The phenomena the streaming checker reports, in report order. A
/// kind's position is its bit in [`Fired::mask`] and in the snapshot
/// image.
pub(crate) const ONLINE_KINDS: [PhenomenonKind; 6] = [
    PhenomenonKind::G0,
    PhenomenonKind::G1a,
    PhenomenonKind::G1b,
    PhenomenonKind::G1c,
    PhenomenonKind::G2Item,
    PhenomenonKind::G2,
];

/// `k`'s bit in the latch mask; 0 for a kind the checker never reports.
pub(crate) fn kind_bit(k: PhenomenonKind) -> u8 {
    ONLINE_KINDS
        .iter()
        .position(|&o| o == k)
        .map_or(0, |i| 1 << i)
}

/// The kind whose latch bit is exactly `b`.
pub(crate) fn kind_from_bit(b: u8) -> Option<PhenomenonKind> {
    ONLINE_KINDS.iter().copied().find(|&k| kind_bit(k) == b)
}

/// The latch mask of `kinds`.
fn mask_of(kinds: &[PhenomenonKind]) -> u8 {
    kinds.iter().fold(0, |m, &k| m | kind_bit(k))
}

/// The strongest ANSI-chain level a prefix whose latch mask is `mask`
/// satisfies: Figure 6's rule, over the mask.
pub(crate) fn strongest_ansi_of(mask: u8) -> Option<IsolationLevel> {
    IsolationLevel::strongest_ansi(|k| mask & kind_bit(k) != 0)
}

/// How a cycle edge reads in witness text, verdict JSON and DOT: the
/// incremental graphs tell dependency edges (ww, wr) from item
/// anti-dependencies only — all the cycle rules ask of an edge.
pub(crate) fn edge_label(anti: bool) -> &'static str {
    if anti {
        "rw"
    } else {
        "ww/wr"
    }
}

/// One edge of a violating cycle with its provenance, as attached to a
/// [`Verdict`] when the phenomenon fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleEdgeProv {
    /// Depended-on transaction.
    pub from: TxnId,
    /// Depending transaction.
    pub to: TxnId,
    /// True when the edge carries an item anti-dependency (rw).
    pub anti: bool,
    /// The concrete inducing operations, rendered `kind obj[version]`
    /// and `; `-joined; empty when provenance was disabled.
    pub via: String,
}

impl CycleEdgeProv {
    /// The edge's label: `rw` for an item anti-dependency, `ww/wr` for
    /// a dependency edge.
    pub fn label(&self) -> &'static str {
        edge_label(self.anti)
    }
}

/// The commit-time (or final) answer of the online checker.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The transaction whose commit produced this verdict; `None` for
    /// the final verdict from [`OnlineChecker::finish`].
    ///
    /// [`OnlineChecker::finish`]: crate::OnlineChecker::finish
    pub txn: Option<TxnId>,
    /// Committed transactions in the prefix so far.
    pub committed: u64,
    /// Strongest ANSI-chain level the committed prefix satisfies
    /// (`None` when even PL-1 is violated).
    pub strongest_ansi: Option<IsolationLevel>,
    /// Every phenomenon that has fired in the prefix (latched).
    pub fired: Vec<PhenomenonKind>,
    /// Phenomena that fired for the first time at this commit.
    pub new_fired: Vec<PhenomenonKind>,
    /// Witness for the first newly fired phenomenon, if any.
    pub witness: Option<String>,
    /// Stable id of the first newly fired phenomenon's witness:
    /// [`adya_obs::witness_id`] over the canonical (rotation-invariant)
    /// cycle signature when the offending cycle is known, else over
    /// the witness text. The forensics plane derives witness ids the
    /// same way, so a fired G1c/G2 here links straight to its
    /// forensic witness when both saw the same cycle.
    pub witness_id: Option<String>,
    /// Cycle provenance for the first newly fired phenomenon: every
    /// edge of the offending cycle with the operations that induced
    /// it. `None` when nothing new fired, the phenomenon has no cycle
    /// (G1a/G1b), or provenance tracking is disabled.
    pub cycle: Option<Vec<CycleEdgeProv>>,
    /// Transactions whose rows the GC has released so far (`pruned` in
    /// the JSON).
    pub pruned_txns: u64,
    /// Reads that referenced a never-seen writer or a version it never
    /// wrote, or a version superseded before their reader began
    /// (retired, with collection on): when non-zero the verdict may be
    /// weaker than a batch check of the full history — flagged, never
    /// silent.
    pub stale_refs: u64,
    /// Rows the checker holds: the running transactions, and the
    /// finished ones a later event may still need — those the watermark
    /// has not passed, and those a cycle graph or a read of an aborted
    /// version still holds. A finished transaction that left keeps its
    /// versions as cold entries on their objects, so this counts what
    /// the checker holds, not the history; with collection off, every
    /// transaction seen.
    pub live_txns: usize,
    /// True for the verdict returned by [`OnlineChecker::finish`].
    ///
    /// [`OnlineChecker::finish`]: crate::OnlineChecker::finish
    pub is_final: bool,
}

impl Verdict {
    /// True when none of `level`'s proscribed phenomena have fired.
    pub fn satisfies(&self, level: IsolationLevel) -> bool {
        level.admits(|k| self.fired.contains(&k))
    }

    /// Cycle-scoped DOT for a violating verdict, drawn from its cycle
    /// provenance and named after the phenomena that fired: each edge
    /// carries its [`label`](CycleEdgeProv::label) and, below it, the
    /// inducing operations. `None` when the verdict fired nothing new
    /// or carries no cycle (provenance off, or a non-cycle phenomenon
    /// such as G1a/G1b).
    pub fn cycle_dot(&self) -> Option<String> {
        let cycle = self.cycle.as_ref().filter(|c| !c.is_empty())?;
        if self.new_fired.is_empty() {
            return None;
        }
        let kinds: Vec<String> = self.new_fired.iter().map(|k| k.to_string()).collect();
        let edges: Vec<_> = cycle
            .iter()
            .map(|e| {
                let mut label = vec![e.label()];
                if !e.via.is_empty() {
                    label.push(&e.via);
                }
                (e.from, e.to, label)
            })
            .collect();
        Some(Dot::of_edges(&kinds.join("_"), &edges))
    }

    /// Renders the verdict as a single-line JSON object (NDJSON-ready).
    pub fn to_json(&self) -> String {
        // Room for a line that fires nothing new — all but a handful.
        let mut s = String::with_capacity(256);
        self.write_json(&mut s);
        s
    }

    /// Appends what [`to_json`](Verdict::to_json) returns to `out`,
    /// allocating nothing itself: a caller writing line after line
    /// clears and reuses one buffer.
    pub fn write_json(&self, out: &mut String) {
        Line {
            txn: self.txn,
            is_final: self.is_final,
            committed: self.committed,
            strongest_ansi: self.strongest_ansi,
            fired: &self.fired,
            new: &self.new_fired,
            witness: self.witness.as_deref(),
            witness_id: self.witness_id.as_deref(),
            cycle: self.cycle.as_deref(),
            pruned: self.pruned_txns,
            stale_refs: self.stale_refs,
            live_txns: self.live_txns as u64,
        }
        .write(out)
        .expect("a String takes any write");
    }

    /// The facts of a commit verdict; `None` for the final one.
    pub fn fact(&self) -> Option<VerdictFact> {
        if self.is_final {
            return None;
        }
        Some(VerdictFact {
            txn: self.txn?.0,
            committed: self.committed,
            pruned: self.pruned_txns,
            stale_refs: self.stale_refs,
            live_txns: self.live_txns as u64,
            fired: mask_of(&self.fired),
            new: mask_of(&self.new_fired),
        })
    }
}

/// A commit verdict as fixed-size, heap-free facts: everything its line
/// says that the checker's latch record does not. The line's
/// `strongest_ansi` follows from `fired` by Figure 6, and its witness,
/// witness id and cycle are those latched for the first kind in `new`
/// — see [`OnlineChecker::verdict_line`].
///
/// [`OnlineChecker::verdict_line`]: crate::OnlineChecker::verdict_line
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerdictFact {
    /// The committing transaction.
    pub txn: u32,
    /// Committed transactions in the prefix so far.
    pub committed: u64,
    /// `pruned` in the line.
    pub pruned: u64,
    /// `stale_refs` in the line.
    pub stale_refs: u64,
    /// `live_txns` in the line.
    pub live_txns: u64,
    /// Every phenomenon fired so far: bit `i` is the `i`-th kind the
    /// streaming checker reports (G0, G1a, G1b, G1c, G2-item, G2).
    pub fired: u8,
    /// The phenomena that fired first at this commit, in the same bits.
    pub new: u8,
}

impl VerdictFact {
    /// Reads the facts back out of a commit verdict line; `None` for a
    /// line that is not one. Whether the line is exactly what the facts
    /// render to is the caller's question.
    pub fn from_line(line: &str) -> Option<VerdictFact> {
        let v = adya_obs::json::parse(line).ok()?;
        let mask = |key: &str| {
            v.get(key)?.as_array()?.iter().try_fold(0u8, |m, k| {
                let name = k.as_str()?;
                let kind = ONLINE_KINDS.iter().find(|&&o| kind_name(o) == name)?;
                Some(m | kind_bit(*kind))
            })
        };
        Some(VerdictFact {
            txn: u32::try_from(v.u64_at("txn")?).ok()?,
            committed: v.u64_at("committed")?,
            pruned: v.u64_at("pruned")?,
            stale_refs: v.u64_at("stale_refs")?,
            live_txns: v.u64_at("live_txns")?,
            fired: mask("fired")?,
            new: mask("new")?,
        })
    }
}

/// What one verdict line says, borrowed: the input of the one writer
/// of verdict lines.
struct Line<'a> {
    txn: Option<TxnId>,
    is_final: bool,
    committed: u64,
    strongest_ansi: Option<IsolationLevel>,
    fired: &'a [PhenomenonKind],
    new: &'a [PhenomenonKind],
    witness: Option<&'a str>,
    witness_id: Option<&'a str>,
    cycle: Option<&'a [CycleEdgeProv]>,
    pruned: u64,
    stale_refs: u64,
    live_txns: u64,
}

impl Line<'_> {
    /// Appends the line to `s`, allocating nothing itself. `s` may be
    /// a sink that only counts bytes ([`fmt::Write`]); a `String`
    /// returns no error.
    fn write<W: fmt::Write + ?Sized>(&self, s: &mut W) -> fmt::Result {
        s.write_str("{\"txn\": ")?;
        match self.txn {
            Some(t) => push_u64(s, u64::from(t.0))?,
            None => s.write_str("null")?,
        }
        s.write_str(", \"final\": ")?;
        s.write_str(if self.is_final { "true" } else { "false" })?;
        s.write_str(", \"committed\": ")?;
        push_u64(s, self.committed)?;
        s.write_str(", \"strongest_ansi\": ")?;
        match self.strongest_ansi {
            Some(l) => {
                s.write_char('"')?;
                push_name(s, &IsolationLevel::ALL, &names().levels, l)?;
                s.write_char('"')?;
            }
            None => s.write_str("null")?,
        }
        for (key, kinds) in [(", \"fired\": [", self.fired), (", \"new\": [", self.new)] {
            s.write_str(key)?;
            for (i, &k) in kinds.iter().enumerate() {
                s.write_str(if i > 0 { ", \"" } else { "\"" })?;
                push_name(s, &PhenomenonKind::ALL, &names().kinds, k)?;
                s.write_char('"')?;
            }
            s.write_char(']')?;
        }
        let texts = [
            (", \"witness\": ", self.witness),
            (", \"witness_id\": ", self.witness_id),
        ];
        for (key, text) in texts {
            s.write_str(key)?;
            match text {
                Some(t) => {
                    s.write_char('"')?;
                    write_escaped(s, t);
                    s.write_char('"')?;
                }
                None => s.write_str("null")?,
            }
        }
        match self.cycle {
            Some(c) => {
                s.write_str(", \"cycle\": [")?;
                for (i, e) in c.iter().enumerate() {
                    s.write_str(if i > 0 {
                        ", {\"from\": "
                    } else {
                        "{\"from\": "
                    })?;
                    push_u64(s, u64::from(e.from.0))?;
                    s.write_str(", \"to\": ")?;
                    push_u64(s, u64::from(e.to.0))?;
                    s.write_str(", \"label\": \"")?;
                    s.write_str(e.label())?;
                    s.write_str("\", \"via\": \"")?;
                    write_escaped(s, &e.via);
                    s.write_str("\"}")?;
                }
                s.write_char(']')?;
            }
            None => s.write_str(", \"cycle\": null")?,
        }
        s.write_str(", \"pruned\": ")?;
        push_u64(s, self.pruned)?;
        s.write_str(", \"stale_refs\": ")?;
        push_u64(s, self.stale_refs)?;
        s.write_str(", \"live_txns\": ")?;
        push_u64(s, self.live_txns)?;
        s.write_char('}')
    }
}

/// Appends `n` in decimal. (`write!` costs a formatter per number, and
/// a verdict line carries five.)
fn push_u64<W: fmt::Write + ?Sized>(s: &mut W, mut n: u64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    s.write_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
}

/// What `Display` prints for every phenomenon kind and level, rendered
/// once: a name then costs a copy, not two nested formatters — which
/// for the half-dozen names on a verdict line was most of the line.
struct Names {
    kinds: [String; PhenomenonKind::ALL.len()],
    levels: [String; IsolationLevel::ALL.len()],
}

fn names() -> &'static Names {
    static NAMES: OnceLock<Names> = OnceLock::new();
    NAMES.get_or_init(|| Names {
        kinds: PhenomenonKind::ALL.map(|k| k.to_string()),
        levels: IsolationLevel::ALL.map(|l| l.to_string()),
    })
}

/// What `Display` prints for `k`, rendered once.
fn kind_name(k: PhenomenonKind) -> &'static str {
    let i = PhenomenonKind::ALL.iter().position(|&a| a == k);
    i.map_or("", |i| &names().kinds[i])
}

/// Appends `v`'s pre-rendered name — `names[i]` for `all[i]`.
fn push_name<W: fmt::Write + ?Sized, T: Copy + PartialEq + Display>(
    s: &mut W,
    all: &[T],
    names: &[String],
    v: T,
) -> fmt::Result {
    match all.iter().position(|&a| a == v) {
        Some(i) => s.write_str(&names[i]),
        None => write!(s, "{v}"),
    }
}

fn via_note(via_predicate: bool) -> &'static str {
    if via_predicate {
        " (via predicate)"
    } else {
        ""
    }
}

/// Some of the kinds the streaming checker reports, in report order,
/// held inline: a verdict line re-rendered from its fact allocates no
/// list of them.
pub(crate) struct Kinds {
    kinds: [PhenomenonKind; ONLINE_KINDS.len()],
    len: usize,
}

impl std::ops::Deref for Kinds {
    type Target = [PhenomenonKind];

    fn deref(&self) -> &[PhenomenonKind] {
        &self.kinds[..self.len]
    }
}

/// Which phenomena have latched, with the first witness of each.
#[derive(Debug, Default)]
pub(crate) struct Fired {
    pub(crate) mask: u8,
    pub(crate) witnesses: Vec<(PhenomenonKind, String)>,
    /// Cycle provenance captured at first fire, per phenomenon.
    pub(crate) cycles: Vec<(PhenomenonKind, Vec<CycleEdgeProv>)>,
}

impl Fired {
    pub(crate) fn has(&self, k: PhenomenonKind) -> bool {
        self.mask & kind_bit(k) != 0
    }

    pub(crate) fn set(&mut self, k: PhenomenonKind, witness: String) -> bool {
        if self.has(k) {
            return false;
        }
        self.mask |= kind_bit(k);
        self.witnesses.push((k, witness));
        true
    }

    /// Latches G1a: committed `reader` read `v` of `o`, and `v`'s
    /// writer aborted.
    pub(crate) fn aborted_read(
        &mut self,
        reader: TxnId,
        o: ObjectId,
        v: VersionId,
        via_predicate: bool,
    ) {
        if self.has(PhenomenonKind::G1a) {
            return; // latched: only the first witness is kept
        }
        let via = via_note(via_predicate);
        let w = format!(
            "T{} read aborted version {o}[{v}] of T{}{via}",
            reader.0, v.txn.0
        );
        self.set(PhenomenonKind::G1a, w);
    }

    /// Latches G1b: committed `reader` read `v` of `o`, which was not
    /// the last version (`final_seq`) its writer made of `o`.
    pub(crate) fn intermediate_read(
        &mut self,
        reader: TxnId,
        o: ObjectId,
        v: VersionId,
        final_seq: u32,
        via_predicate: bool,
    ) {
        if self.has(PhenomenonKind::G1b) {
            return; // latched: only the first witness is kept
        }
        let via = via_note(via_predicate);
        let w = format!(
            "T{} read intermediate version {o}[{v}] of T{} (final seq {final_seq}){via}",
            reader.0, v.txn.0
        );
        self.set(PhenomenonKind::G1b, w);
    }

    pub(crate) fn set_cycle(&mut self, k: PhenomenonKind, cycle: Vec<CycleEdgeProv>) {
        if !cycle.is_empty() && !self.cycles.iter().any(|(ck, _)| *ck == k) {
            self.cycles.push((k, cycle));
        }
    }

    pub(crate) fn witness_of(&self, k: PhenomenonKind) -> Option<&String> {
        self.witnesses
            .iter()
            .find(|(fk, _)| *fk == k)
            .map(|(_, w)| w)
    }

    pub(crate) fn cycle_of(&self, k: PhenomenonKind) -> Option<&Vec<CycleEdgeProv>> {
        self.cycles.iter().find(|(ck, _)| *ck == k).map(|(_, c)| c)
    }

    /// The stable id of `k`'s latched witness:
    /// [`adya_obs::witness_id`] over the cycle's transactions when one
    /// was captured, else over the witness text.
    pub(crate) fn witness_id(&self, k: PhenomenonKind) -> String {
        let nodes: Vec<u64> = self
            .cycle_of(k)
            .map(|c| c.iter().map(|e| u64::from(e.from.0)).collect())
            .unwrap_or_default();
        let witness = self.witness_of(k).map_or("", String::as_str);
        adya_obs::witness_id(kind_name(k), &nodes, witness)
    }

    /// Appends the line of the commit verdict `f` stands for to `out`
    /// (or counts its bytes, see [`Line::write`]): its witness, witness
    /// id and cycle are those latched for the first kind in `f.new`.
    pub(crate) fn write_line<W: fmt::Write + ?Sized>(
        &self,
        f: &VerdictFact,
        out: &mut W,
    ) -> fmt::Result {
        let (fired, new) = (Fired::kinds_in(f.fired), Fired::kinds_in(f.new));
        let first = new.first().copied();
        let witness_id = first.map(|k| self.witness_id(k));
        Line {
            txn: Some(TxnId(f.txn)),
            is_final: false,
            committed: f.committed,
            strongest_ansi: strongest_ansi_of(f.fired),
            fired: &fired,
            new: &new,
            witness: first.and_then(|k| self.witness_of(k)).map(String::as_str),
            witness_id: witness_id.as_deref(),
            cycle: first.and_then(|k| self.cycle_of(k)).map(Vec::as_slice),
            pruned: f.pruned,
            stale_refs: f.stale_refs,
            live_txns: f.live_txns,
        }
        .write(out)
    }

    /// The kinds whose bit is set in `mask`, in report order.
    pub(crate) fn kinds_in(mask: u8) -> Kinds {
        let mut kinds = Kinds {
            kinds: ONLINE_KINDS,
            len: 0,
        };
        for k in ONLINE_KINDS {
            if mask & kind_bit(k) != 0 {
                kinds.kinds[kinds.len] = k;
                kinds.len += 1;
            }
        }
        kinds
    }

    pub(crate) fn kinds(&self) -> Vec<PhenomenonKind> {
        Fired::kinds_in(self.mask).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use crate::testkit::{feed, r, w};
    use crate::OnlineChecker;
    use adya_core::IsolationLevel;
    use adya_history::{Event, TxnId};

    #[test]
    fn verdict_json_shape() {
        let mut c = OnlineChecker::new();
        let vs = feed(
            &mut c,
            &[Event::Begin(TxnId(1)), w(1, 0, 1), Event::Commit(TxnId(1))],
        );
        let j = vs[0].to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"txn\": 1"));
        assert!(j.contains("\"strongest_ansi\": \"PL-3\""));
        assert!(!j.contains('\n'));
    }

    #[test]
    fn a_fact_renders_to_its_verdicts_line_for_the_checkers_life_and_its_images() {
        use crate::testkit::eventful_stream;
        use crate::VerdictFact;
        let mut c = OnlineChecker::new();
        c.set_provenance(true);
        // Then T42 reads T41's version, T41 aborts, and T42 reads T40's
        // intermediate one: G1a and G1b at one commit.
        let mut evs = eventful_stream();
        evs.extend([
            Event::Begin(TxnId(40)),
            w(40, 5, 1),
            w(40, 5, 2),
            Event::Commit(TxnId(40)),
            Event::Begin(TxnId(41)),
            w(41, 6, 1),
            Event::Begin(TxnId(42)),
            r(42, 6, 41, 1),
            Event::Abort(TxnId(41)),
            r(42, 5, 40, 1),
            Event::Commit(TxnId(42)),
        ]);
        let vs = feed(&mut c, &evs);
        let firsts: Vec<_> = vs.iter().filter(|v| !v.new_fired.is_empty()).collect();
        assert!(firsts.len() >= 3, "{firsts:#?}");
        let restored = OnlineChecker::restore(&c.snapshot()).expect("restores");
        for v in &vs {
            let line = v.to_json();
            let fact = v.fact().expect("a commit verdict");
            assert_eq!(VerdictFact::from_line(&line), Some(fact));
            assert_eq!(c.verdict_line(&fact), line);
            assert_eq!(restored.verdict_line(&fact), line);
        }
        assert_eq!(c.finish().fact(), None, "the final verdict is no fact");
    }

    #[test]
    fn satisfies_follows_proscriptions() {
        let mut c = OnlineChecker::new();
        feed(
            &mut c,
            &[
                Event::Begin(TxnId(1)),
                w(1, 0, 1),
                Event::Begin(TxnId(2)),
                r(2, 0, 1, 1),
                Event::Commit(TxnId(2)),
                Event::Abort(TxnId(1)),
            ],
        );
        let end = c.finish();
        assert!(end.satisfies(IsolationLevel::PL1));
        assert!(!end.satisfies(IsolationLevel::PL2));
        assert!(!end.satisfies(IsolationLevel::PL3));
    }
}
