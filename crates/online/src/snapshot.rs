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

use std::collections::{HashMap, HashSet};

use adya_graph::{DagParts, IncrementalDag, SlotParts};
use adya_history::{ObjectId, TxnId, VersionId};

use crate::checker::{
    seal_writes, BufferedRead, OnlineChecker, PendingRead, Status, TxnState, TxnTable, WriteEntry,
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
    // Slots stay in here: the image names transactions and objects by
    // id and lists them in id order.
    let id_of = |t| c.txns.key_of(t).0;
    let mut txns: Vec<(TxnId, &TxnState)> = c.txns.iter().map(|(id, _, t)| (id, t)).collect();
    txns.sort_unstable_by_key(|&(id, _)| id);
    e.len(txns.len());
    for (id, t) in txns {
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
            let counted = r.writer.is_some();
            e.u8(r.via_predicate as u8 | (counted as u8) << 1 | (r.stale as u8) << 2);
        }
        // The image lists a transaction's writes the way its terminal
        // event will leave them, whether or not it has had one.
        let mut sealed = Vec::new();
        let writes = if t.status == Status::Active {
            sealed.clone_from(&t.writes);
            seal_writes(&mut sealed);
            &sealed
        } else {
            &t.writes
        };
        e.len(writes.len());
        for w in writes {
            e.u32(w.object.0);
            e.u32(w.seq);
        }
        e.len(t.pending_readers.len());
        for p in &t.pending_readers {
            e.u32(id_of(p.reader));
            e.u32(p.object.0);
            e.u32(p.seq);
            e.bool(p.via_predicate);
        }
        for v in [t.unsuperseded, t.refs, t.awaiting, t.registered] {
            e.u32(v);
        }
        e.u64(t.prune_after);
    }
    let mut objects: Vec<_> = c.objects.iter().map(|(id, _, o)| (id, o)).collect();
    objects.sort_unstable_by_key(|&(id, _)| id);
    e.len(objects.len());
    for (id, o) in objects {
        e.u32(id.0);
        e.u64(o.base as u64);
        e.len(o.entries.len());
        // The image gives every version a reader list and the object
        // one more, for readers of the initial version; only the list
        // of the newest version (or that last one, while there is no
        // version) can be other than empty.
        let newest = o.entries.len().wrapping_sub(1);
        for (i, &entry) in o.entries.iter().enumerate() {
            e.u32(id_of(entry));
            let readers: &[_] = if i == newest { &o.anchored } else { &[] };
            e.len(readers.len());
            for &r in readers {
                e.u32(id_of(r));
            }
        }
        let init_readers: &[_] = if o.entries.is_empty() {
            &o.anchored
        } else {
            &[]
        };
        e.len(init_readers.len());
        for &r in init_readers {
            e.u32(id_of(r));
        }
    }
    // The first graph slot held the G0 lane's (gone, see `crate::lanes`):
    // always dropped, and in the layout until the format next changes.
    for g in std::iter::once(None).chain(c.lanes.dags()) {
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
    let mut reorders_dropped = counter(&mut d)?;
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
    // Records name each other by id, forwards as well as back: a name
    // takes its slot at first sight, and every name must have had its
    // record by the end of the section.
    let nt = d.len()?;
    let mut defined: HashSet<TxnId> = HashSet::with_capacity(nt);
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
            let version = VersionId {
                txn: TxnId(d.u32()?),
                seq: d.u32()?,
            };
            let flags = d.u8()?;
            if flags > 7 {
                return Err(malformed(format!("read flags {flags}")));
            }
            let (counted, stale) = (flags & 2 != 0, flags & 4 != 0);
            // A read of another transaction's version either pins its
            // writer or found none to pin; no other read does either.
            let foreign = !version.is_init() && version.txn != id;
            if (counted && stale) || (counted || stale) != foreign {
                return Err(malformed(format!(
                    "a buffered read of {id} has impossible flags"
                )));
            }
            reads.push(BufferedRead {
                object,
                version,
                via_predicate: flags & 1 != 0,
                writer: counted.then(|| c.txns.enter(version.txn).0),
                stale,
            });
        }
        let nws = d.len()?;
        let mut writes: Vec<WriteEntry> = Vec::with_capacity(nws);
        for _ in 0..nws {
            let object = ObjectId(d.u32()?);
            let seq = d.u32()?;
            if writes.last().is_some_and(|w| w.object >= object) {
                return Err(malformed(format!("{id}'s writes are out of order")));
            }
            writes.push(WriteEntry {
                object,
                seq,
                installed: None, // set below, by the object that lists it
                pos: 0,
            });
        }
        let np = d.len()?;
        let mut pending_readers = Vec::with_capacity(np);
        for _ in 0..np {
            pending_readers.push(PendingRead {
                reader: c.txns.enter(TxnId(d.u32()?)).0,
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
            ..TxnState::default() // `behind`: derived by `cross_check`
        };
        if !defined.insert(id) {
            return Err(malformed(format!("transaction {id} appears twice")));
        }
        let (slot, _) = c.txns.enter(id);
        c.txns[slot] = t;
        if status == Status::Active {
            c.activate(slot);
        }
    }
    if let Some((id, _, _)) = c.txns.iter().find(|(id, _, _)| !defined.contains(id)) {
        return Err(malformed(format!(
            "a read names {id}, which is not in the image"
        )));
    }
    let known = |txns: &TxnTable, id: TxnId, named_by: &str| {
        txns.lookup(id)
            .ok_or_else(|| malformed(format!("{named_by} names {id}, which is not in the image")))
    };
    let no = d.len()?;
    for _ in 0..no {
        let id = ObjectId(d.u32()?);
        let (slot, fresh) = c.objects.enter(id);
        if !fresh {
            return Err(malformed(format!("object {id} appears twice")));
        }
        let base = counter(&mut d)? as usize;
        let ne = d.len()?;
        let mut anchored = Vec::new();
        for i in 0..ne {
            let txn = TxnId(d.u32()?);
            let installer = known(&c.txns, txn, "a version list")?;
            c.objects[slot].entries.push_back(installer);
            let t = &mut c.txns[installer];
            let w = match t.writes.binary_search_by_key(&id, |w| w.object) {
                Ok(at) if t.status == Status::Committed => &mut t.writes[at],
                _ => {
                    return Err(malformed(format!(
                        "{id} lists a version {txn} did not commit"
                    )))
                }
            };
            if w.installed.replace(slot).is_some() {
                return Err(malformed(format!("{txn} installed {id} twice")));
            }
            w.pos = base + i;
            let nr = d.len()?;
            if nr > 0 && i + 1 != ne {
                return Err(malformed(format!(
                    "a superseded version of {id} still anchors readers"
                )));
            }
            for _ in 0..nr {
                anchored.push(known(&c.txns, TxnId(d.u32()?), "a version's reader list")?);
            }
        }
        let ni = d.len()?;
        if ni > 0 && (base > 0 || ne > 0) {
            return Err(malformed(format!(
                "{id} has versions and readers still waiting for one"
            )));
        }
        for _ in 0..ni {
            anchored.push(known(&c.txns, TxnId(d.u32()?), "a version's reader list")?);
        }
        let obj = &mut c.objects[slot];
        (obj.base, obj.anchored) = (base, anchored);
    }
    let mut dags = [None, None, None];
    for slot in &mut dags {
        if d.bool()? {
            *slot = Some(dec_dag(&mut d, &c.txns)?);
        }
    }
    // An older image's G0 graph, checked like any, is dropped with its
    // reorders counted, as a latch drops a lane.
    let [g0, dags @ ..] = dags;
    reorders_dropped += g0.map_or(0, |g| g.reorders());
    c.lanes = Lanes::from_image(dags, reorders_dropped, reorders_reported);
    if !c.lanes.any_live() {
        c.prov.clear(); // what the last lane's drop does
    }
    if d.remaining() != 0 {
        return Err(malformed(format!(
            "{} trailing bytes after snapshot",
            d.remaining()
        )));
    }
    cross_check(&mut c).map_err(malformed)?;
    c.gc.rebuild(&c.txns);
    c.parked = c.txns.iter().map(|(_, _, t)| t.pending_readers.len()).sum();
    // An image an older build wrote may hold a G1c graph with nothing
    // parked; this build's never does between events.
    c.lanes.shed(c.parked != 0, &mut c.prov);
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
/// them (that every transaction they name is in the transaction
/// table, [`decode`] saw to when it gave the names their slots): every
/// committed write has its place in its object's version list — and
/// every place belongs to a committed write, which `decode` checked as
/// it filed them; and the per-transaction counters the image carries —
/// `unsuperseded`, `refs`, `awaiting`, `registered`, which the handlers
/// decrement and the collector trusts — equal what the tables imply.
/// `behind` is not in the image and is set from the same count.
fn cross_check(c: &mut OnlineChecker) -> Result<(), String> {
    let mut derived: HashMap<TxnId, Derived> = HashMap::with_capacity(c.txns.len());
    let id_of = |t| c.txns.key_of(t);
    for (a, b) in c.prov.edges() {
        for id in [a, b] {
            if c.txns.lookup(id).is_none() {
                return Err(format!(
                    "a provenance chain names {id}, which is not in the image"
                ));
            }
        }
    }
    for (id, _, t) in c.txns.iter() {
        if t.begin_clock.max(t.terminal_clock).max(t.prune_after) > c.clock {
            return Err(format!("{id} carries a clock later than the image's"));
        }
        for w in t.reads.iter().filter_map(|r| r.writer) {
            derived.entry(id_of(w)).or_default().refs += 1;
        }
        if !t.pending_readers.is_empty() && t.status != Status::Active {
            return Err(format!("{id} has ended but still parks readers"));
        }
        for p in &t.pending_readers {
            derived.entry(id_of(p.reader)).or_default().awaiting += 1;
            derived.entry(id).or_default().refs += 1;
        }
        if t.status == Status::Committed {
            if let Some(w) = t.writes.iter().find(|w| w.installed.is_none()) {
                let o = w.object;
                return Err(format!(
                    "{id} committed a write of {o} that {o} does not list"
                ));
            }
        }
    }
    for (o, _, obj) in c.objects.iter() {
        if obj.base as u64 > c.gc.pruned_txns() {
            return Err(format!("{o} has lost more versions than were ever pruned"));
        }
        let newest = obj.entries.len().wrapping_sub(1);
        for (i, &e) in obj.entries.iter().enumerate() {
            let d = derived.entry(id_of(e)).or_default();
            d.behind += u32::from(i > 0);
            d.unsuperseded += u64::from(i == newest);
        }
        for &r in &obj.anchored {
            derived.entry(id_of(r)).or_default().registered += 1;
        }
    }
    let mut behind = Vec::with_capacity(c.txns.len());
    for (id, slot, t) in c.txns.iter() {
        let d = derived.remove(&id).unwrap_or_default();
        let carried = [t.unsuperseded, t.refs, t.awaiting, t.registered].map(u64::from);
        if carried != [d.unsuperseded, d.refs, d.awaiting, d.registered] {
            return Err(format!("{id}'s counters disagree with the tables"));
        }
        behind.push((slot, d.behind));
    }
    for (slot, behind) in behind {
        c.txns[slot].behind = behind;
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
fn dec_dag(d: &mut Dec<'_>, txns: &TxnTable) -> Result<Dag, SnapshotError> {
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
        if txns.lookup(k).is_none() {
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
