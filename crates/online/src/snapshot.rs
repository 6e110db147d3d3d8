//! The checker image: `ADYACKP\x03`, the one owner of its bytes (and
//! the reader of `\x02` images, which earlier builds wrote).
//!
//! Layout: `[magic; 8][crc32(payload); 4][payload]` — not
//! [`wire::seal`](crate::wire::seal)'s container, which also carries a
//! length. The payload is every field of the checker in a fixed order
//! with hash-ordered tables sorted, so equal states give equal bytes.
//!
//! [`decode`] trusts none of it. The checksum catches damage, not
//! intent — a follower restores images a peer `put` — so after parsing
//! it checks everything the event handlers and the collector index
//! into: ids resolve, versions belong to the writes that installed
//! them, the graphs are states a graph can be in; the counters the
//! handlers subtract from are derived from the tables, never read. A
//! refused image is a [`SnapshotError`]; an accepted one cannot make
//! the checker panic.

use std::collections::HashSet;

use adya_graph::{DagParts, EdgeParts, IncrementalDag, SlotParts};
use adya_history::{ObjectId, TxnId, VersionId};

use crate::checker::{
    seal_writes, BufferedRead, OnlineChecker, PendingRead, Running, Source, Status, TxnState,
    TxnTable, WriteEntry,
};
use crate::gc::{Collector, GcConfig};
use crate::lanes::{Dag, EdgeKind, EdgeMask};
use crate::provenance::ProvStep;
use crate::verdict::{kind_bit, kind_from_bit, CycleEdgeProv};
use crate::wire::{crc32, Dec, Enc, Sink, WireError};

/// First 8 bytes of every checker snapshot this build writes. `\x03`
/// gave objects their cold entries, left out the counters a restore
/// derives (`refs`, `awaiting`, the anchors, and the collector's
/// `unsuperseded` and `prune_after`, which are gone) and the G0 graph's
/// slot, always empty; each object lists its installers and then the
/// readers anchored at its newest version.
const SNAP_MAGIC: [u8; 8] = *b"ADYACKP\x03";

/// The layout before: each transaction carried its counters, each
/// version its own reader list (and the object one more, for readers of
/// its initial version), and three graph slots. Still restored. `\x02`
/// added the fired cycle provenance, the provenance flag and the
/// per-edge side map; `\x01` images are rejected as
/// [`SnapshotError::BadMagic`].
const SNAP_MAGIC_V2: [u8; 8] = *b"ADYACKP\x02";

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

/// See [`OnlineChecker::snapshot_into`].
pub(crate) fn encode<S: Sink>(c: &OnlineChecker, e: &mut Enc<S>) {
    e.bytes(&SNAP_MAGIC);
    e.crc_prefixed(|e| encode_payload(c, e));
}

fn encode_payload<S: Sink>(c: &OnlineChecker, e: &mut Enc<S>) {
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
    let idle = Running::default();
    let mut sealed = Vec::new();
    for (id, t) in txns {
        let running = c.running_of(t);
        // The image lists a transaction's writes the way its terminal
        // event will leave them, whether or not it has had one.
        match running {
            Some(running) => {
                sealed.clone_from(&running.writes);
                seal_writes(&mut sealed);
            }
            None => {
                sealed.clear();
                sealed.extend(t.writes.iter().map(|w| (w.object, w.seq)));
            }
        }
        let running = running.unwrap_or(&idle);
        e.u32(id.0);
        e.u8(match t.status {
            Status::Active => 0,
            Status::Committed => 1,
            Status::Aborted => 2,
        });
        e.u64(t.begin_clock);
        e.u64(t.terminal_clock);
        e.len(running.reads.len());
        for r in &running.reads {
            e.u32(r.object.0);
            e.u32(r.version.txn.0);
            e.u32(r.version.seq);
            let flags = match r.source {
                Source::Local => 0,
                Source::Held(_) => 2,
                Source::Stale => 4,
                Source::Cold(_) => 8,
            };
            e.u8(r.via_predicate as u8 | flags);
            if let Source::Cold(seq) = r.source {
                e.u32(seq);
            }
        }
        e.len(sealed.len());
        for &(object, seq) in &sealed {
            e.u32(object.0);
            e.u32(seq);
        }
        e.len(running.pending_readers.len());
        for p in &running.pending_readers {
            e.u32(id_of(p.reader));
            e.u32(p.object.0);
            e.u32(p.seq);
            e.bool(p.via_predicate);
        }
    }
    // Rows are indexed by id: walking them is id order.
    e.len(c.objects.len());
    for o in c.objects.in_id_order() {
        e.u32(o.id.0);
        e.u64(o.base);
        e.bool(o.cold.is_some());
        if let Some((writer, seq)) = o.cold {
            e.u32(writer.0);
            e.u32(seq);
        }
        let (entries, readers) = match o.hot {
            Some(st) => (st.entries.len(), st.anchored.as_slice()),
            None => (0, &[][..]),
        };
        e.len(entries);
        for t in o.hot.iter().flat_map(|st| st.entries.iter()) {
            e.u32(id_of(t));
        }
        e.len(readers.len());
        for &r in readers {
            e.u32(id_of(r));
        }
    }
    for g in c.lanes.dags() {
        match g {
            None => e.bool(false),
            Some(g) => {
                e.bool(true);
                enc_dag(e, g);
            }
        }
    }
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

/// An object id off the image: with `names`, one of the ids a parser
/// restored beside the checker has interned.
fn object(d: &mut Dec<'_>, names: Option<usize>) -> Result<ObjectId, SnapshotError> {
    let o = ObjectId(d.u32()?);
    match names {
        Some(n) if o.0 as usize >= n => Err(malformed(format!(
            "object {} is beyond the {n} names interned",
            o.0
        ))),
        _ => Ok(o),
    }
}

/// See [`OnlineChecker::restore`]. With `names`, the image is restored
/// beside a parser that has interned that many names (`StreamFeed`),
/// and must name no other object: rows stay indexed by id.
pub(crate) fn decode(bytes: &[u8], names: Option<usize>) -> Result<OnlineChecker, SnapshotError> {
    let header = SNAP_MAGIC.len() + 4;
    let magic = bytes.get(..SNAP_MAGIC.len());
    let v2 = magic == Some(&SNAP_MAGIC_V2[..]);
    if bytes.len() < header || !(v2 || magic == Some(&SNAP_MAGIC[..])) {
        return Err(SnapshotError::BadMagic);
    }
    let crc = u32::from_le_bytes(bytes[SNAP_MAGIC.len()..header].try_into().unwrap());
    let payload = &bytes[header..];
    if crc32(payload) != crc {
        return Err(SnapshotError::Checksum);
    }
    let mut d = Dec::new(payload);
    let mut c = OnlineChecker::default();
    if let Some(n) = names {
        c.objects.number_dense(n);
    }
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
                object: object(&mut d, names)?,
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
            let object = object(&mut d, names)?;
            let version = VersionId {
                txn: TxnId(d.u32()?),
                seq: d.u32()?,
            };
            let flags = d.u8()?;
            if flags > if v2 { 7 } else { 15 } {
                return Err(malformed(format!("read flags {flags}")));
            }
            // A read of another transaction's version pins its writer,
            // found none to pin, or took a final seq from a writer that
            // left (a `\x02` image has none of those); no other read does
            // any of the three.
            let foreign = !version.is_init() && version.txn != id;
            if (flags >> 1).count_ones() != u32::from(foreign) {
                return Err(malformed(format!(
                    "a buffered read of {id} has impossible flags"
                )));
            }
            let source = match flags >> 1 {
                0 => Source::Local,
                1 => Source::Held(c.txns.enter(version.txn).0),
                2 => Source::Stale,
                _ => Source::Cold(d.u32()?),
            };
            reads.push(BufferedRead {
                object,
                version,
                via_predicate: flags & 1 != 0,
                source,
            });
        }
        let nws = d.len()?;
        let mut writes: Vec<WriteEntry> = Vec::with_capacity(nws);
        for _ in 0..nws {
            let object = object(&mut d, names)?;
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
                object: object(&mut d, names)?,
                seq: d.u32()?,
                via_predicate: d.bool()?,
            });
        }
        if status != Status::Active && !(reads.is_empty() && pending_readers.is_empty()) {
            return Err(malformed(format!("{id} has ended but still holds reads")));
        }
        // A running transaction's writes go on its record, where its
        // terminal event will seal them from.
        let running_writes = if status == Status::Active {
            std::mem::take(&mut writes)
                .into_iter()
                .map(|w| (w.object, w.seq))
                .collect()
        } else {
            Vec::new()
        };
        if v2 {
            // The counters an earlier build carried; derived below.
            for _ in 0..4 {
                d.u32()?;
            }
            counter(&mut d)?;
        }
        let t = TxnState {
            status,
            begin_clock,
            terminal_clock,
            writes,
            ..TxnState::default() // the counters: derived by `derive`
        };
        if !defined.insert(id) {
            return Err(malformed(format!("transaction {id} appears twice")));
        }
        let (slot, _) = c.txns.enter(id);
        c.txns[slot] = t;
        if status == Status::Active {
            c.activate(slot);
            c.running[c.active.len() - 1] = Running {
                writes: running_writes,
                reads,
                pending_readers,
            };
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
        let id = object(&mut d, names)?;
        let (slot, fresh) = c.objects.enter(id);
        if !fresh {
            return Err(malformed(format!("object {id} appears twice")));
        }
        let base = counter(&mut d)?;
        c.objects[slot].base = base;
        if !v2 && d.bool()? {
            if base == 0 {
                return Err(malformed(format!(
                    "{id} has a cold entry before its first version"
                )));
            }
            c.objects[slot].cold = Some((TxnId(d.u32()?), d.u32()?));
        }
        let ne = d.len()?;
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
            w.pos = c.objects[slot].position(i);
            // An earlier build gave each version a reader list: only the
            // newest version's could be other than empty.
            let nr = if v2 { d.len()? } else { 0 };
            if nr > 0 && i + 1 != ne {
                return Err(malformed(format!(
                    "a superseded version of {id} still anchors readers"
                )));
            }
            for _ in 0..nr {
                let reader = known(&c.txns, TxnId(d.u32()?), "a version's reader list")?;
                c.objects[slot].anchored.push(reader);
            }
        }
        // The readers anchored at the newest version — or, with an
        // earlier build's layout, at the initial one.
        let ni = d.len()?;
        if v2 && ni > 0 && (base > 0 || ne > 0) {
            return Err(malformed(format!(
                "{id} has versions and readers still waiting for one"
            )));
        }
        for _ in 0..ni {
            let reader = known(&c.txns, TxnId(d.u32()?), "a version's reader list")?;
            c.objects[slot].anchored.push(reader);
        }
        c.objects.settle(slot);
    }
    // An earlier image's G0 graph, checked like any, is dropped with its
    // reorders counted, as a latch drops a lane.
    if v2 && d.bool()? {
        reorders_dropped += dec_dag(&mut d, &c.txns)?.reorders();
    }
    // The others go straight into the checker's boxed lane table.
    for slot in c.lanes.dags_mut() {
        *slot = if d.bool()? {
            Some(dec_dag(&mut d, &c.txns)?)
        } else {
            None
        };
    }
    c.lanes
        .set_reorder_counters(reorders_dropped, reorders_reported);
    if !c.lanes.any_live() {
        c.prov.clear(); // what the last lane's drop does
    }
    if d.remaining() != 0 {
        return Err(malformed(format!(
            "{} trailing bytes after snapshot",
            d.remaining()
        )));
    }
    derive(&mut c).map_err(malformed)?;
    c.prov.note_orphans(|a, b| c.lanes.holds(a, b));
    c.gc.rebuild(&c.txns);
    c.parked = c.running.iter().map(|r| r.pending_readers.len()).sum();
    // An image an older build wrote may hold a G1c graph with nothing
    // parked; this build's never does between events.
    c.lanes.shed(c.parked != 0, &mut c.prov);
    Ok(c)
}

/// Holds a decoded image's tables to each other (that every
/// transaction they name is in the transaction table, [`decode`] saw
/// to when it gave the names their slots, and that every listed version
/// is a committed write's) and derives from them the counters the
/// handlers subtract from: each writer's `refs` — the buffered and
/// parked reads of its versions —, each reader's `awaiting` and its
/// `anchors`. A committed write no object lists is a retired version.
fn derive(c: &mut OnlineChecker) -> Result<(), String> {
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
        if t.begin_clock.max(t.terminal_clock) > c.clock {
            return Err(format!("{id} carries a clock later than the image's"));
        }
    }
    for (&t, running) in c.active.iter().zip(&c.running) {
        c.txns[t].refs += running.pending_readers.len() as u32;
        for p in &running.pending_readers {
            c.txns[p.reader].awaiting += 1;
        }
        for r in &running.reads {
            if let Source::Held(w) = r.source {
                c.txns[w].refs += 1;
            }
        }
    }
    for (slot, obj) in c.objects.hot() {
        for &r in obj.anchored.as_slice() {
            c.txns[r].anchors.push(slot);
        }
    }
    Ok(())
}

/// [`IncrementalDag::to_parts`]'s image, read off the graph in place:
/// no copy of its slot table.
fn enc_dag<S: Sink>(e: &mut Enc<S>, g: &Dag) {
    let slots = g.slot_views();
    e.len(slots.len());
    for s in slots {
        e.u64(s.parent() as u64);
        e.bool(s.live());
        e.u64(s.ord());
        e.u32(s.members());
        enc_edges(e, s.out());
        enc_edges(e, s.inc());
    }
    let index = g.sorted_index();
    e.len(index.len());
    for &(k, s) in &index {
        e.u32(k.0);
        e.u64(s as u64);
    }
    e.len(g.free_slots().count());
    for s in g.free_slots() {
        e.u64(s as u64);
    }
    let seen = g.sorted_edges();
    e.len(seen.len());
    for &(a, b, l) in &seen {
        e.u32(a.0);
        e.u32(b.0);
        e.u8(l.0);
    }
    e.u64(g.next_ord());
    e.u64(g.reorders());
    e.u64(g.merges());
}

fn enc_edges<S: Sink>(
    e: &mut Enc<S>,
    edges: impl ExactSizeIterator<Item = EdgeParts<TxnId, EdgeMask>>,
) {
    e.len(edges.len());
    for (slot, src, dst, label) in edges {
        e.u64(slot as u64);
        e.u32(src.0);
        e.u32(dst.0);
        e.u8(label.0);
    }
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
    fn positions_wrap_past_two_to_the_32() {
        // Object 0 holds T1's version, restored at position `base`. The
        // tail anchors a reader at every version, installs its successor
        // and, once the open T100 has ended, prunes the versions behind
        // it — across 2³² when `base` is 2³² − 2. The verdicts are those
        // of the same stream restored with `base` 0 (both images count
        // as many pruned, so the lines can be equal), and the image the
        // run ends with carries `base` on from where it started.
        use crate::testkit::{r, rinit};
        const BASE: u64 = (1 << 32) - 2;
        let mut head = OnlineChecker::with_gc(GcConfig {
            enabled: true,
            interval: 1,
        });
        head.set_provenance(true);
        feed(
            &mut head,
            &[
                Event::Begin(TxnId(1)),
                rinit(1, 0),
                w(1, 0, 1),
                Event::Commit(TxnId(1)),
            ],
        );
        let x = ObjectId(0);
        let image_at = |base: u64| {
            let mut c = OnlineChecker::restore(&head.snapshot()).unwrap();
            c.gc = Collector::new(c.gc.config(), c.gc.events_since_gc(), BASE);
            let slot = c.objects.lookup(x).unwrap();
            c.objects[slot].base = base;
            c.snapshot()
        };
        let mut tail = vec![Event::Begin(TxnId(100))];
        for t in 2..=12u32 {
            let reader = 1_000 + t;
            tail.extend([
                r(reader, 0, t - 1, 1),
                Event::Commit(TxnId(reader)),
                Event::Begin(TxnId(t)),
                r(t, 0, t - 1, 1),
                w(t, 0, 1),
                Event::Commit(TxnId(t)),
            ]);
            if t == 6 {
                tail.push(Event::Commit(TxnId(100)));
            }
        }
        let run = |image: &[u8]| {
            let mut c = OnlineChecker::restore(image).expect("restore");
            let mut lines: Vec<String> = feed(&mut c, &tail).iter().map(|v| v.to_json()).collect();
            lines.push(c.finish().to_json());
            let base = c.objects[c.objects.lookup(x).unwrap()].base;
            (lines, base, c.snapshot())
        };
        let (zero, pruned, _) = run(&image_at(0));
        let (wrapped, base, image) = run(&image_at(BASE));
        assert_eq!(wrapped, zero);
        assert!(BASE + pruned > 1 << 32, "only {pruned} versions pruned");
        assert_eq!(base, BASE + pruned);
        let revived = OnlineChecker::restore(&image).expect("re-encoded image");
        assert_eq!(
            revived.objects[revived.objects.lookup(x).unwrap()].base,
            base
        );
        assert_eq!(revived.snapshot(), image);
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
    /// parked reads; with the default GC nothing released yet, with a
    /// pass after every event retired versions, cold entries and
    /// released rows — is either refused or restores to a checker that
    /// takes the rest of the stream, finishes and snapshots without
    /// panicking. Debug builds trap arithmetic overflow, so a clock or a
    /// count the image got to lie about shows up here too. The unmutated
    /// image carries on to the bytes of the run it was taken from.
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
