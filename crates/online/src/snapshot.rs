//! The checker image: `ADYACKP\x02`, the one owner of its bytes.
//!
//! Layout: `[magic; 8][crc32(payload); 4][payload]` — not
//! [`wire::seal`](crate::wire::seal)'s container, which also carries a
//! length. The payload is every field of the checker in a fixed order
//! with hash-ordered tables sorted, so equal states give equal bytes.
//!
//! [`decode`] trusts none of it. The checksum catches damage, not
//! intent — a follower restores images a peer `put` — so after parsing
//! it cross-checks everything the event handlers and the collector
//! index into or subtract from: ids resolve, derived counters equal
//! their recomputation from the tables, the graphs are states a graph
//! can be in. A refused image is a [`SnapshotError`]; an accepted one
//! cannot make the checker panic.

use std::collections::{HashMap, VecDeque};

use adya_graph::{DagParts, IncrementalDag, SlotParts};
use adya_history::{ObjectId, TxnId, VersionId};

use crate::checker::{
    BufferedRead, Entry, ObjectState, OnlineChecker, PendingRead, Status, TxnState,
};
use crate::gc::{Collector, GcConfig};
use crate::lanes::{Dag, EdgeKind, EdgeMask, Lanes};
use crate::provenance::ProvStep;
use crate::verdict::{kind_bit, kind_from_bit, CycleEdgeProv};
use crate::wire::{crc32, Dec, Enc, WireError};

/// First 8 bytes of every checker snapshot. `\x02` added the fired
/// cycle provenance, the provenance flag and the per-edge side map;
/// `\x01` images are rejected as [`SnapshotError::BadMagic`].
const SNAP_MAGIC: [u8; 8] = *b"ADYACKP\x02";

/// Why [`OnlineChecker::restore`] rejected a byte image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with the snapshot magic.
    BadMagic,
    /// The payload checksum failed (torn or corrupted snapshot).
    Checksum,
    /// The payload parsed wrongly (truncated or impossible values).
    Wire(WireError),
}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Wire(e)
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a checker snapshot (bad magic)"),
            SnapshotError::Checksum => write!(f, "snapshot failed its checksum"),
            SnapshotError::Wire(e) => write!(f, "snapshot payload: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// See [`OnlineChecker::snapshot`].
pub(crate) fn encode(c: &OnlineChecker) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(c.clock);
    let gc = c.gc.config();
    e.bool(gc.enabled);
    e.u64(gc.interval);
    let (reorders_dropped, reorders_reported) = c.lanes.reorder_counters();
    for v in [
        c.committed,
        c.gc.pruned_txns(),
        c.stale_refs,
        c.gc.events_since_gc(),
        reorders_dropped,
        reorders_reported,
    ] {
        e.u64(v);
    }
    e.u8(c.fired.mask);
    e.len(c.fired.witnesses.len());
    for (k, w) in &c.fired.witnesses {
        e.u8(kind_bit(*k));
        e.str(w);
    }
    e.len(c.fired.cycles.len());
    for (k, cyc) in &c.fired.cycles {
        e.u8(kind_bit(*k));
        e.len(cyc.len());
        for edge in cyc {
            e.u32(edge.from.0);
            e.u32(edge.to.0);
            e.bool(edge.anti);
            e.str(&edge.via);
        }
    }
    e.bool(c.prov.enabled());
    let chains = c.prov.sorted();
    e.len(chains.len());
    for (key, chain) in chains {
        e.u32(key.0 .0);
        e.u32(key.1 .0);
        e.len(chain.len());
        for st in chain {
            e.u8(st.kind.code());
            e.u32(st.object.0);
            e.u32(st.version.txn.0);
            e.u32(st.version.seq);
        }
    }
    let mut txn_ids: Vec<TxnId> = c.txns.keys().copied().collect();
    txn_ids.sort_unstable();
    e.len(txn_ids.len());
    for id in txn_ids {
        let t = &c.txns[&id];
        e.u32(id.0);
        e.u8(match t.status {
            Status::Active => 0,
            Status::Committed => 1,
            Status::Aborted => 2,
        });
        e.u64(t.begin_clock);
        e.u64(t.terminal_clock);
        e.len(t.reads.len());
        for r in &t.reads {
            e.u32(r.object.0);
            e.u32(r.version.txn.0);
            e.u32(r.version.seq);
            e.u8(r.via_predicate as u8 | (r.counted as u8) << 1 | (r.stale as u8) << 2);
        }
        let mut writes: Vec<(ObjectId, u32)> = t.writes.iter().map(|(&o, &s)| (o, s)).collect();
        writes.sort_unstable();
        e.len(writes.len());
        for (o, s) in writes {
            e.u32(o.0);
            e.u32(s);
        }
        e.len(t.pending_readers.len());
        for p in &t.pending_readers {
            e.u32(p.reader.0);
            e.u32(p.object.0);
            e.u32(p.seq);
            e.bool(p.via_predicate);
        }
        for v in [t.unsuperseded, t.refs, t.awaiting, t.registered] {
            e.u32(v);
        }
        e.u64(t.prune_after);
    }
    let mut obj_ids: Vec<ObjectId> = c.objects.keys().copied().collect();
    obj_ids.sort_unstable();
    e.len(obj_ids.len());
    for id in obj_ids {
        let o = &c.objects[&id];
        e.u32(id.0);
        e.u64(o.base as u64);
        e.len(o.entries.len());
        for entry in &o.entries {
            e.u32(entry.txn.0);
            e.len(entry.readers.len());
            for r in &entry.readers {
                e.u32(r.0);
            }
        }
        e.len(o.init_readers.len());
        for r in &o.init_readers {
            e.u32(r.0);
        }
    }
    for g in c.lanes.dags() {
        match g {
            None => e.bool(false),
            Some(g) => {
                e.bool(true);
                enc_dag(&mut e, g);
            }
        }
    }
    let payload = e.into_bytes();
    let mut out = Vec::with_capacity(SNAP_MAGIC.len() + 4 + payload.len());
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn malformed(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Wire(WireError::Malformed(what.into()))
}

/// No stream gets a counter anywhere near this; an image that claims
/// more is refused, so adding to a restored counter (or summing a few)
/// cannot overflow.
const COUNTER_MAX: u64 = 1 << 60;

fn counter(d: &mut Dec<'_>) -> Result<u64, SnapshotError> {
    let v = d.u64()?;
    if v > COUNTER_MAX {
        return Err(malformed(format!("counter {v} is out of range")));
    }
    Ok(v)
}

/// See [`OnlineChecker::restore`].
pub(crate) fn decode(bytes: &[u8]) -> Result<OnlineChecker, SnapshotError> {
    let header = SNAP_MAGIC.len() + 4;
    if bytes.len() < header || bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let crc = u32::from_le_bytes(bytes[SNAP_MAGIC.len()..header].try_into().unwrap());
    let payload = &bytes[header..];
    if crc32(payload) != crc {
        return Err(SnapshotError::Checksum);
    }
    let mut d = Dec::new(payload);
    let mut c = OnlineChecker::default();
    c.clock = counter(&mut d)?;
    let gc = GcConfig {
        enabled: d.bool()?,
        interval: d.u64()?,
    };
    c.committed = counter(&mut d)?;
    let pruned_txns = counter(&mut d)?;
    c.stale_refs = counter(&mut d)?;
    let events_since_gc = counter(&mut d)?;
    c.gc = Collector::new(gc, events_since_gc, pruned_txns);
    let reorders_dropped = counter(&mut d)?;
    let reorders_reported = counter(&mut d)?;
    c.fired.mask = d.u8()?;
    let nw = d.len()?;
    for _ in 0..nw {
        let bit = d.u8()?;
        let k = kind_from_bit(bit).ok_or_else(|| malformed(format!("phenomenon bit {bit}")))?;
        c.fired.witnesses.push((k, d.str()?));
    }
    let nc = d.len()?;
    for _ in 0..nc {
        let bit = d.u8()?;
        let k =
            kind_from_bit(bit).ok_or_else(|| malformed(format!("cycle phenomenon bit {bit}")))?;
        let ne = d.len()?;
        let mut edges = Vec::with_capacity(ne);
        for _ in 0..ne {
            edges.push(CycleEdgeProv {
                from: TxnId(d.u32()?),
                to: TxnId(d.u32()?),
                anti: d.bool()?,
                via: d.str()?,
            });
        }
        c.fired.cycles.push((k, edges));
    }
    c.prov.set_enabled(d.bool()?);
    let np = d.len()?;
    for _ in 0..np {
        let a = TxnId(d.u32()?);
        let b = TxnId(d.u32()?);
        let n = d.len()?;
        let mut chain = Vec::with_capacity(n);
        for _ in 0..n {
            let code = d.u8()?;
            let kind = EdgeKind::from_code(code)
                .ok_or_else(|| malformed(format!("prov step kind {code}")))?;
            chain.push(ProvStep {
                kind,
                object: ObjectId(d.u32()?),
                version: VersionId {
                    txn: TxnId(d.u32()?),
                    seq: d.u32()?,
                },
            });
        }
        if !c.prov.insert(a, b, chain) {
            return Err(malformed(format!("two provenance chains for {a} -> {b}")));
        }
    }
    let nt = d.len()?;
    for _ in 0..nt {
        let id = TxnId(d.u32()?);
        let status = match d.u8()? {
            0 => Status::Active,
            1 => Status::Committed,
            2 => Status::Aborted,
            s => return Err(malformed(format!("txn status {s}"))),
        };
        let begin_clock = d.u64()?;
        let terminal_clock = d.u64()?;
        let nr = d.len()?;
        let mut reads = Vec::with_capacity(nr);
        for _ in 0..nr {
            let object = ObjectId(d.u32()?);
            let vtxn = TxnId(d.u32()?);
            let vseq = d.u32()?;
            let flags = d.u8()?;
            if flags > 7 {
                return Err(malformed(format!("read flags {flags}")));
            }
            reads.push(BufferedRead {
                object,
                version: VersionId {
                    txn: vtxn,
                    seq: vseq,
                },
                via_predicate: flags & 1 != 0,
                counted: flags & 2 != 0,
                stale: flags & 4 != 0,
            });
        }
        let nws = d.len()?;
        let mut writes = HashMap::with_capacity(nws);
        for _ in 0..nws {
            let o = ObjectId(d.u32()?);
            let s = d.u32()?;
            writes.insert(o, s);
        }
        let np = d.len()?;
        let mut pending_readers = Vec::with_capacity(np);
        for _ in 0..np {
            pending_readers.push(PendingRead {
                reader: TxnId(d.u32()?),
                object: ObjectId(d.u32()?),
                seq: d.u32()?,
                via_predicate: d.bool()?,
            });
        }
        let t = TxnState {
            status,
            begin_clock,
            terminal_clock,
            reads,
            writes,
            pending_readers,
            unsuperseded: d.u32()?,
            refs: d.u32()?,
            awaiting: d.u32()?,
            registered: d.u32()?,
            prune_after: d.u64()?,
            behind: 0, // derived by `cross_check`, once the objects are read
        };
        if status == Status::Active {
            c.active.insert(id);
        }
        if c.txns.insert(id, t).is_some() {
            return Err(malformed(format!("transaction {id} appears twice")));
        }
    }
    let no = d.len()?;
    for _ in 0..no {
        let id = ObjectId(d.u32()?);
        let base = counter(&mut d)? as usize;
        let ne = d.len()?;
        let mut entries = VecDeque::with_capacity(ne);
        let mut pos_of = HashMap::with_capacity(ne);
        for i in 0..ne {
            let txn = TxnId(d.u32()?);
            let nr = d.len()?;
            let mut readers = Vec::with_capacity(nr);
            for _ in 0..nr {
                readers.push(TxnId(d.u32()?));
            }
            if pos_of.insert(txn, base + i).is_some() {
                return Err(malformed(format!("{txn} installed {id} twice")));
            }
            entries.push_back(Entry { txn, readers });
        }
        let ni = d.len()?;
        let mut init_readers = Vec::with_capacity(ni);
        for _ in 0..ni {
            init_readers.push(TxnId(d.u32()?));
        }
        let obj = ObjectState {
            base,
            entries,
            pos_of,
            init_readers,
        };
        if c.objects.insert(id, obj).is_some() {
            return Err(malformed(format!("object {id} appears twice")));
        }
    }
    let mut dags = [None, None, None];
    for slot in &mut dags {
        if d.bool()? {
            *slot = Some(dec_dag(&mut d, &c.txns)?);
        }
    }
    c.lanes = Lanes::from_image(dags, reorders_dropped, reorders_reported);
    if d.remaining() != 0 {
        return Err(malformed(format!(
            "{} trailing bytes after snapshot",
            d.remaining()
        )));
    }
    cross_check(&mut c).map_err(malformed)?;
    c.gc.rebuild(&c.txns);
    Ok(c)
}

/// What the tables say a transaction's derived counters are.
#[derive(Default)]
struct Derived {
    unsuperseded: u64,
    refs: u64,
    awaiting: u64,
    registered: u64,
    behind: u32,
}

/// Holds a decoded image's tables to each other, in one pass over
/// them: every transaction id they name is in the transaction table;
/// every committed write has its place in its object's version list,
/// and every place belongs to a committed write; and the per-
/// transaction counters the image carries — `unsuperseded`, `refs`,
/// `awaiting`, `registered`, which the handlers decrement and the
/// collector trusts — equal what the tables imply. `behind` is not in
/// the image and is set from the same count.
fn cross_check(c: &mut OnlineChecker) -> Result<(), String> {
    let mut derived: HashMap<TxnId, Derived> = HashMap::with_capacity(c.txns.len());
    let known = |id: TxnId, named_by: &str| {
        if c.txns.contains_key(&id) {
            Ok(())
        } else {
            Err(format!("{named_by} names {id}, which is not in the image"))
        }
    };
    for (a, b) in c.prov.edges() {
        known(a, "a provenance chain")?;
        known(b, "a provenance chain")?;
    }
    for (&id, t) in &c.txns {
        if t.begin_clock.max(t.terminal_clock).max(t.prune_after) > c.clock {
            return Err(format!("{id} carries a clock later than the image's"));
        }
        for r in &t.reads {
            // A read of another transaction's version either pins its
            // writer or found none to pin; no other read does either.
            let foreign = !r.version.is_init() && r.version.txn != id;
            if (r.counted && r.stale) || (r.counted || r.stale) != foreign {
                return Err(format!("a buffered read of {id} has impossible flags"));
            }
            if r.counted {
                known(r.version.txn, "a buffered read")?;
                derived.entry(r.version.txn).or_default().refs += 1;
            }
        }
        if !t.pending_readers.is_empty() && t.status != Status::Active {
            return Err(format!("{id} has ended but still parks readers"));
        }
        for p in &t.pending_readers {
            known(p.reader, "a parked read")?;
            derived.entry(p.reader).or_default().awaiting += 1;
            derived.entry(id).or_default().refs += 1;
        }
        if t.status == Status::Committed {
            for o in t.writes.keys() {
                if !c
                    .objects
                    .get(o)
                    .is_some_and(|obj| obj.pos_of.contains_key(&id))
                {
                    return Err(format!(
                        "{id} committed a write of {o} that {o} does not list"
                    ));
                }
            }
        }
    }
    for (&o, obj) in &c.objects {
        if obj.base as u64 > c.gc.pruned_txns() {
            return Err(format!("{o} has lost more versions than were ever pruned"));
        }
        if !obj.init_readers.is_empty() && (obj.base > 0 || !obj.entries.is_empty()) {
            return Err(format!(
                "{o} has versions and readers still waiting for one"
            ));
        }
        let newest = obj.entries.len().wrapping_sub(1);
        for (i, e) in obj.entries.iter().enumerate() {
            let installer = c.txns.get(&e.txn);
            if !installer
                .is_some_and(|t| t.status == Status::Committed && t.writes.contains_key(&o))
            {
                return Err(format!("{o} lists a version {} did not commit", e.txn));
            }
            let d = derived.entry(e.txn).or_default();
            d.behind += u32::from(i > 0);
            d.unsuperseded += u64::from(i == newest);
            if i != newest && !e.readers.is_empty() {
                return Err(format!("a superseded version of {o} still anchors readers"));
            }
        }
        let anchored = obj.entries.iter().flat_map(|e| &e.readers);
        for &r in anchored.chain(&obj.init_readers) {
            known(r, "a version's reader list")?;
            derived.entry(r).or_default().registered += 1;
        }
    }
    for (id, t) in &mut c.txns {
        let d = derived.remove(id).unwrap_or_default();
        let carried = [t.unsuperseded, t.refs, t.awaiting, t.registered].map(u64::from);
        if carried != [d.unsuperseded, d.refs, d.awaiting, d.registered] {
            return Err(format!("{id}'s counters disagree with the tables"));
        }
        t.behind = d.behind;
    }
    Ok(())
}

fn enc_dag(e: &mut Enc, g: &Dag) {
    let p = g.to_parts();
    e.len(p.slots.len());
    for s in &p.slots {
        e.u64(s.parent as u64);
        e.bool(s.live);
        e.u64(s.ord);
        e.u32(s.members);
        for edges in [&s.out, &s.inc] {
            e.len(edges.len());
            for &(slot, src, dst, label) in edges {
                e.u64(slot as u64);
                e.u32(src.0);
                e.u32(dst.0);
                e.u8(label.0);
            }
        }
    }
    e.len(p.index.len());
    for &(k, s) in &p.index {
        e.u32(k.0);
        e.u64(s as u64);
    }
    e.len(p.free.len());
    for &s in &p.free {
        e.u64(s as u64);
    }
    e.len(p.seen.len());
    for &(a, b, l) in &p.seen {
        e.u32(a.0);
        e.u32(b.0);
        e.u8(l.0);
    }
    e.u64(p.next_ord);
    e.u64(p.reorders);
    e.u64(p.merges);
}

fn dec_label(d: &mut Dec<'_>) -> Result<EdgeMask, SnapshotError> {
    let bits = d.u8()?;
    EdgeMask::from_bits(bits).ok_or_else(|| malformed(format!("edge label {bits}")))
}

/// Decodes one graph, refusing parts that are not a state a graph can
/// be in (see [`DagParts::validate`]) or that hold a node outside
/// `txns`.
fn dec_dag(d: &mut Dec<'_>, txns: &HashMap<TxnId, TxnState>) -> Result<Dag, SnapshotError> {
    let ns = d.len()?;
    let mut slots = Vec::with_capacity(ns);
    for _ in 0..ns {
        let parent = d.u64()? as usize;
        let live = d.bool()?;
        let ord = d.u64()?;
        let members = d.u32()?;
        let mut lists = [Vec::new(), Vec::new()];
        for list in &mut lists {
            let n = d.len()?;
            list.reserve(n);
            for _ in 0..n {
                let slot = d.u64()? as usize;
                let src = TxnId(d.u32()?);
                let dst = TxnId(d.u32()?);
                list.push((slot, src, dst, dec_label(d)?));
            }
        }
        let [out, inc] = lists;
        slots.push(SlotParts {
            parent,
            live,
            ord,
            members,
            out,
            inc,
        });
    }
    let ni = d.len()?;
    let mut index = Vec::with_capacity(ni);
    for _ in 0..ni {
        let k = TxnId(d.u32()?);
        let s = d.u64()? as usize;
        if !txns.contains_key(&k) {
            return Err(malformed(format!(
                "a graph holds {k}, which is not in the image"
            )));
        }
        index.push((k, s));
    }
    let nf = d.len()?;
    let mut free = Vec::with_capacity(nf);
    for _ in 0..nf {
        free.push(d.u64()? as usize);
    }
    let nseen = d.len()?;
    let mut seen = Vec::with_capacity(nseen);
    for _ in 0..nseen {
        let a = TxnId(d.u32()?);
        let b = TxnId(d.u32()?);
        seen.push((a, b, dec_label(d)?));
    }
    let parts = DagParts {
        slots,
        index,
        free,
        seen,
        next_ord: counter(d)?,
        reorders: counter(d)?,
        merges: counter(d)?,
    };
    parts
        .validate()
        .map_err(|why| malformed(format!("graph: {why}")))?;
    Ok(IncrementalDag::from_parts(parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{eventful_stream, feed, w};
    use adya_history::Event;

    #[test]
    fn snapshot_restore_round_trips_at_every_prefix() {
        let evs = eventful_stream();
        for cut in 0..=evs.len() {
            // Original run, snapshotted at `cut`.
            let mut a = OnlineChecker::with_gc(GcConfig {
                enabled: true,
                interval: 1,
            });
            // Provenance on so the snapshot carries a live side map.
            a.set_provenance(true);
            let mut verdicts_a: Vec<String> = Vec::new();
            for e in &evs[..cut] {
                if let Some(v) = a.ingest(e) {
                    verdicts_a.push(v.to_json());
                }
            }
            let snap = a.snapshot();
            let mut b = OnlineChecker::restore(&snap).expect("restore");
            assert_eq!(b.snapshot(), snap, "re-snapshot differs at cut {cut}");
            // Continue both over the tail: verdict streams and final
            // snapshots must be byte-identical.
            let mut verdicts_b = verdicts_a.clone();
            for e in &evs[cut..] {
                let va = a.ingest(e);
                let vb = b.ingest(e);
                if let Some(v) = va {
                    verdicts_a.push(v.to_json());
                }
                if let Some(v) = vb {
                    verdicts_b.push(v.to_json());
                }
            }
            verdicts_a.push(a.finish().to_json());
            verdicts_b.push(b.finish().to_json());
            assert_eq!(verdicts_a, verdicts_b, "verdicts diverged at cut {cut}");
            assert_eq!(
                a.snapshot(),
                b.snapshot(),
                "final states diverged at cut {cut}"
            );
        }
    }

    #[test]
    fn snapshot_rejects_damage() {
        let mut c = OnlineChecker::new();
        feed(
            &mut c,
            &[Event::Begin(TxnId(1)), w(1, 0, 1), Event::Commit(TxnId(1))],
        );
        let snap = c.snapshot();
        assert_eq!(
            OnlineChecker::restore(b"junk").err(),
            Some(SnapshotError::BadMagic)
        );
        let mut flipped = snap.clone();
        let n = flipped.len();
        flipped[n - 1] ^= 0xFF;
        assert_eq!(
            OnlineChecker::restore(&flipped).err(),
            Some(SnapshotError::Checksum)
        );
        let truncated = &snap[..snap.len() - 4];
        assert!(OnlineChecker::restore(truncated).is_err());
        assert!(OnlineChecker::restore(&snap).is_ok());
    }

    /// Every single-bit mutation (four bits of every payload byte,
    /// checksum recomputed so the image gets past it) of an image taken
    /// mid-stream — live graphs, a live provenance map, buffered and
    /// parked reads; with the default GC nothing pruned yet, with a pass
    /// after every event pruned prefixes and contraction shortcuts — is
    /// either refused or restores to a checker that takes the rest of
    /// the stream, finishes and snapshots without panicking. Debug
    /// builds trap arithmetic overflow, so a counter the image got to
    /// lie about shows up here too. The unmutated image carries on to
    /// the bytes of the run it was taken from.
    #[test]
    fn no_mutated_image_restores_to_a_checker_that_panics() {
        let evs = eventful_stream();
        let half = evs.len() / 2;
        let run_on = |mut c: OnlineChecker| {
            let mut lines: Vec<String> = feed(&mut c, &evs[half..])
                .iter()
                .map(|v| v.to_json())
                .collect();
            lines.push(c.finish().to_json());
            (lines, c.snapshot())
        };
        let header = SNAP_MAGIC.len() + 4;
        let (mut refused, mut accepted) = (0u32, 0u32);
        let mut panicked = Vec::new();
        for interval in [GcConfig::default().interval, 1] {
            let mut original = OnlineChecker::with_gc(GcConfig {
                enabled: true,
                interval,
            });
            original.set_provenance(true);
            feed(&mut original, &evs[..half]);
            let image = original.snapshot();
            let want = run_on(original);
            assert_eq!(
                run_on(OnlineChecker::restore(&image).expect("own image")),
                want
            );
            for at in header..image.len() {
                for bit in [1u8, 2, 4, 0x80] {
                    let mut bad = image.clone();
                    bad[at] ^= bit;
                    let crc = crc32(&bad[header..]).to_le_bytes();
                    bad[SNAP_MAGIC.len()..header].copy_from_slice(&crc);
                    let outcome = std::panic::catch_unwind(|| {
                        OnlineChecker::restore(&bad).map(|c| {
                            run_on(c);
                        })
                    });
                    match outcome {
                        Ok(Ok(())) => accepted += 1,
                        Ok(Err(_)) => refused += 1,
                        Err(_) => panicked.push((interval, at, bit)),
                    }
                }
            }
        }
        assert!(
            panicked.is_empty(),
            "{} mutated images panicked (gc interval, byte, bit): {:?}",
            panicked.len(),
            &panicked[..panicked.len().min(20)]
        );
        // Both outcomes must occur, or the sweep is not exercising the
        // cross-checks (nothing refused) or the continuation (nothing
        // accepted: text and counters that no check reads).
        assert!(refused > 1000 && accepted > 1000, "{refused} / {accepted}");
    }
}
