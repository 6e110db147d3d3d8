//! The incremental checker: the transaction and object tables, and
//! the event handlers that keep them — buffering reads until their
//! reader's fate is known, installing versions at commit, parking
//! reads on writers still running. A handler's findings leave it two
//! ways only: G1a/G1b latch directly, and every DSG edge goes through
//! [`OnlineChecker::edge`] onto the commit's plan, which the lane table
//! ([`crate::lanes`]) turns into cycle checks. Pruning is the
//! collector's ([`crate::gc`]), the byte image the snapshot codec's
//! ([`crate::snapshot`]).

use std::collections::VecDeque;
use std::time::Instant;

use adya_core::{IsolationLevel, PhenomenonKind};
use adya_history::{Event, ObjectId, TxnId, VersionId};

use crate::gc::{self, Collector, GcConfig, Heap};
use crate::lanes::{EdgeKind, Lanes, PlannedEdge};
use crate::provenance::{ProvStep, Provenance};
use crate::snapshot::{self, SnapshotError};
use crate::tables::{Recycle, Slot, Table};
use crate::verdict::{Fired, Verdict};

pub(crate) type TxnSlot = Slot<TxnId>;
pub(crate) type ObjSlot = Slot<ObjectId>;
pub(crate) type TxnTable = Table<TxnId, TxnState>;
pub(crate) type ObjectTable = Table<ObjectId, ObjectState>;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Status {
    #[default]
    Active,
    Committed,
    Aborted,
}

/// A read buffered on its (still-active) reader until the reader's
/// terminal event decides whether it produces conflicts at all.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BufferedRead {
    pub(crate) object: ObjectId,
    pub(crate) version: VersionId,
    pub(crate) via_predicate: bool,
    /// The other transaction whose version this is, found at ingest;
    /// the read holds a `refs` pin on it from then on.
    pub(crate) writer: Option<TxnSlot>,
    /// True when the writer was already pruned (or never seen) at
    /// ingest time; resolves to a `stale_refs` tick, never an edge.
    pub(crate) stale: bool,
}

/// A committed reader whose read of a still-active writer's version is
/// parked on that writer until the writer's terminal event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingRead {
    pub(crate) reader: TxnSlot,
    pub(crate) object: ObjectId,
    pub(crate) seq: u32,
    pub(crate) via_predicate: bool,
}

/// One object a transaction wrote.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WriteEntry {
    pub(crate) object: ObjectId,
    /// Last (= highest) write seq.
    pub(crate) seq: u32,
    /// The object's slot, once the commit installed the version.
    pub(crate) installed: Option<ObjSlot>,
    /// The version's absolute position (`base`-inclusive) in the
    /// object's list; meaningful once `installed`.
    pub(crate) pos: usize,
}

#[derive(Debug, Default)]
pub(crate) struct TxnState {
    pub(crate) status: Status,
    pub(crate) begin_clock: u64,
    pub(crate) terminal_clock: u64,
    /// Its reads, buffered until its terminal event. A spare buffer
    /// from the checker's list while it runs (see [`Spares`]).
    pub(crate) reads: Vec<BufferedRead>,
    /// What it wrote. While it runs, one entry per write in arrival
    /// order; its terminal event [seals](seal_writes) them to
    /// one entry per object, sorted by object (the order commits
    /// install in). Kept after that for G1a/G1b checks against
    /// late-committing readers.
    pub(crate) writes: Vec<WriteEntry>,
    /// Committed readers waiting for this (active) writer's fate; a
    /// spare buffer, like `reads`.
    pub(crate) pending_readers: Vec<PendingRead>,
    /// Installed versions not yet superseded by a later install.
    pub(crate) unsuperseded: u32,
    /// Buffered or pending reads by live transactions that reference
    /// this transaction as a writer.
    pub(crate) refs: u32,
    /// This (committed) transaction's own reads parked on still-active
    /// writers.
    pub(crate) awaiting: u32,
    /// How many version-order anchors this committed reader occupies,
    /// each of which will emit an rw edge when a successor installs.
    pub(crate) registered: u32,
    /// Clock of the latest install superseding one of this
    /// transaction's versions; prunable only once every active
    /// transaction began after it.
    pub(crate) prune_after: u64,
    /// Installed versions that are not yet the oldest surviving
    /// version of their object — the prefix rule as a counter. Derived
    /// from the object table (rebuilt by `restore`, never serialised).
    pub(crate) behind: u32,
    /// Where the checker's active list holds this transaction, while
    /// it is active.
    pub(crate) active_at: u32,
}

impl TxnState {
    /// The entry for `o`, if this transaction — which has ended — wrote
    /// it.
    pub(crate) fn write_of(&self, o: ObjectId) -> Option<&WriteEntry> {
        debug_assert!(self.status != Status::Active, "writes not sealed yet");
        let at = self.writes.binary_search_by_key(&o, |w| w.object).ok()?;
        Some(&self.writes[at])
    }
}

/// Sorts a transaction's writes by object and keeps, of each object's,
/// the one with the highest seq. Done once, at the terminal event, so
/// the order a peer writes its objects in costs a sort and no more.
pub(crate) fn seal_writes(writes: &mut Vec<WriteEntry>) {
    writes.sort_unstable_by_key(|w| (w.object, std::cmp::Reverse(w.seq)));
    writes.dedup_by_key(|w| w.object);
}

/// Most elements a recycled buffer keeps room for: one huge
/// transaction must not leave its slot holding its memory for good.
const RECYCLED_CAPACITY: usize = 64;

fn recycled<T>(mut v: Vec<T>) -> Vec<T> {
    v.clear();
    if v.capacity() > RECYCLED_CAPACITY {
        v = Vec::new();
    }
    v
}

impl Recycle for TxnState {
    /// A fresh `TxnState`, but for the capacity of `writes`: the other
    /// two buffers went to the spare lists at the terminal event.
    fn recycle(&mut self) {
        let writes = recycled(std::mem::take(&mut self.writes));
        *self = TxnState {
            writes,
            ..TxnState::default()
        };
    }
}

/// Emptied buffers of one kind, from transactions that ended, for the
/// running ones: a transaction takes one at its first buffered read
/// (`reads`) or its first parked reader (`pending_readers`), and hands
/// it back at its terminal event. So a finished transaction — most of
/// the live set on a wide key space — keeps only its `writes`, and the
/// buffers in circulation number about the running transactions.
#[derive(Debug)]
pub(crate) struct Spares<T>(Vec<Vec<T>>);

impl<T> Default for Spares<T> {
    fn default() -> Self {
        Spares(Vec::new())
    }
}

impl<T> Spares<T> {
    /// `buf`, given a spare buffer's room if it has none of its own.
    fn fill(&mut self, buf: &mut Vec<T>) {
        if buf.capacity() == 0 {
            if let Some(spare) = self.0.pop() {
                *buf = spare;
            }
        }
    }

    /// Takes back `buf`, emptied, from a transaction that just ended
    /// while `running` others were still running. The list keeps at
    /// most one buffer per transaction running at that terminal event
    /// (`running` + 1), and none with more room than a recycled slot
    /// may keep.
    fn give(&mut self, mut buf: Vec<T>, running: usize) {
        self.0.truncate(running + 1);
        if self.0.len() <= running && (1..=RECYCLED_CAPACITY).contains(&buf.capacity()) {
            buf.clear();
            self.0.push(buf);
        }
    }
}

#[derive(Debug, Default)]
pub(crate) struct ObjectState {
    /// Number of versions pruned off the front of `entries`.
    pub(crate) base: usize,
    /// The installers of the committed versions, in install (= commit)
    /// order. An installer's [`WriteEntry::pos`] is its place here.
    pub(crate) entries: VecDeque<TxnSlot>,
    /// Committed readers anchored at the newest version — or, while
    /// there is none, before the first. (A superseded version anchors
    /// nobody: installing its successor resolved them all.)
    pub(crate) anchored: Vec<TxnSlot>,
}

/// The streaming checker. See the crate docs for scope and semantics.
#[derive(Debug, Default)]
pub struct OnlineChecker {
    pub(crate) clock: u64,
    pub(crate) txns: TxnTable,
    /// The transactions still running, in no particular order.
    pub(crate) active: Vec<TxnSlot>,
    /// Reads parked on running writers: the sum of their
    /// `pending_readers`. Derived (set by `restore`, never serialised).
    pub(crate) parked: usize,
    spare_reads: Spares<BufferedRead>,
    spare_parked: Spares<PendingRead>,
    pub(crate) objects: ObjectTable,
    /// The cycle graphs, one per edge filter.
    pub(crate) lanes: Lanes,
    pub(crate) fired: Fired,
    /// The concrete operations behind each live DSG edge, while
    /// provenance tracking is on.
    pub(crate) prov: Provenance,
    /// Telemetry sampling period: every Nth ingested event gets full
    /// phase attribution (apply → graph insert → verdict; GC passes
    /// are all timed while sampling is on).
    /// 0 (the default) disables per-event telemetry entirely; E17
    /// measures the sampled plane's ingest overhead.
    telemetry_every: u32,
    /// Events left until the next sampled one (countdown avoids a
    /// per-event division on the ingest hot path).
    telemetry_countdown: u32,
    /// Whether the event currently being ingested is sampled.
    sampled_now: bool,
    pub(crate) gc: Collector,
    pub(crate) committed: u64,
    pub(crate) stale_refs: u64,
    /// The current commit's edge plan, in sequential discovery order.
    /// Always empty between events (so it never needs snapshotting);
    /// held on the checker only to reuse its allocation across
    /// commits.
    plan: Vec<PlannedEdge>,
}

impl OnlineChecker {
    /// A checker with default GC (enabled, interval 64).
    pub fn new() -> OnlineChecker {
        OnlineChecker::with_gc(GcConfig::default())
    }

    /// A checker with an explicit GC policy.
    pub fn with_gc(gc: GcConfig) -> OnlineChecker {
        OnlineChecker {
            gc: Collector::new(gc, 0, 0),
            ..OnlineChecker::default()
        }
    }

    /// Turns edge-provenance tracking on or off. Off by default: E16
    /// measures the bookkeeping at roughly 18% of ingest time on
    /// conflict-heavy workloads, above the 10% budget for an
    /// always-on feature. Tools that exist to explain violations
    /// (`adya-check --stream`) turn it on; with it off, violating
    /// verdicts carry `cycle: null` instead of the per-edge inducing
    /// operations.
    pub fn set_provenance(&mut self, on: bool) {
        self.prov.set_enabled(on);
    }

    /// Turns sampled per-event telemetry on (`every` ≥ 1: every Nth
    /// event is timed phase by phase into the global obs registry's
    /// `online.apply_ns`, `online.graph_insert_ns`,
    /// `online.cycle_check_ns` and `online.verdict_ns` histograms, and
    /// every GC pass into `online.gc_ns`) or off (`every` = 0, the
    /// default). Sampling exists for the same reason provenance is
    /// opt-in: E17 measures the fully-on plane against a 10% ingest
    /// budget, and per-event timing alone would not fit it.
    pub fn set_telemetry_sampling(&mut self, every: u32) {
        self.telemetry_every = every;
    }

    /// Events between the GC low watermark (the earliest begin of any
    /// live transaction) and the current event clock: how far behind
    /// the stream the collector's pruning horizon sits. Zero when no
    /// transaction is active.
    pub fn watermark_staleness(&self) -> u64 {
        self.clock - gc::watermark(&self.active, &self.txns, self.clock)
    }

    /// Approximate heap footprint of the provenance side maps, in
    /// bytes (capacity-based, so it reflects reserved memory, not just
    /// live entries). Zero when provenance is off.
    pub fn provenance_bytes(&self) -> usize {
        self.prov.bytes()
    }

    /// Events ingested so far.
    pub fn events(&self) -> u64 {
        self.clock
    }

    /// Transactions currently held in memory.
    pub fn live_txns(&self) -> usize {
        self.txns.len()
    }

    /// Nodes and edges of the two cycle graphs — G1c's, then G2's —
    /// or `None` for one whose phenomena latched, which dropped it.
    /// G1c's holds nothing while no read is parked on a running writer.
    pub fn cycle_graphs(&self) -> [Option<(usize, usize)>; 2] {
        self.lanes.sizes()
    }

    /// Whether a parser counter for `t`'s writes of `o`, restored beside
    /// this just-restored checker, is one of a transaction it holds:
    /// `t` wrote `o` while it ran, or after it ended — a stray, which the
    /// image does not carry, so it is filed again here. A counter of a
    /// `t` not held, or running again under a reused id, is an earlier
    /// holder's.
    pub(crate) fn adopt_counter(&mut self, t: TxnId, o: ObjectId) -> bool {
        let Some(slot) = self.txns.lookup(t) else {
            return false;
        };
        let txn = &self.txns[slot];
        // An image lists every transaction's writes sealed, running or not.
        if txn.writes.binary_search_by_key(&o, |w| w.object).is_ok() {
            return true;
        }
        let ended = txn.status != Status::Active;
        if ended {
            self.gc.note_stray(t, o);
        }
        ended
    }

    /// Transactions pruned by the GC so far.
    pub fn pruned_txns(&self) -> u64 {
        self.gc.pruned_txns()
    }

    /// Reads that referenced a pruned or never-seen writer.
    pub fn stale_refs(&self) -> u64 {
        self.stale_refs
    }

    /// Every phenomenon fired so far (latched).
    pub fn fired_kinds(&self) -> Vec<PhenomenonKind> {
        self.fired.kinds()
    }

    /// Strongest ANSI-chain level the committed prefix satisfies.
    pub fn strongest_ansi(&self) -> Option<IsolationLevel> {
        IsolationLevel::strongest_ansi(|k| self.fired.has(k))
    }

    /// Feeds one event; returns a [`Verdict`] when the event is a
    /// commit. Events of the initialization transaction are ignored.
    pub fn ingest(&mut self, event: &Event) -> Option<Verdict> {
        if event.txn().is_init() {
            return None;
        }
        self.clock += 1;
        adya_obs::counter!("online.ingest_events").inc();
        self.sampled_now = if self.telemetry_every == 0 {
            false
        } else if self.telemetry_countdown == 0 {
            self.telemetry_countdown = self.telemetry_every - 1;
            true
        } else {
            self.telemetry_countdown -= 1;
            false
        };
        let apply_t0 = self.sampled_now.then(Instant::now);
        // The one place an event's transaction id is hashed: from
        // `enter` on, the handlers hold its slot.
        let verdict = match event {
            Event::Begin(t) => {
                self.enter(*t);
                None
            }
            Event::Write(w) => {
                let t = self.enter(w.txn);
                self.on_write(t, w.object, w.seq);
                None
            }
            Event::Read(r) => {
                let t = self.enter(r.txn);
                self.on_read(t, r.object, r.version, false);
                None
            }
            Event::PredicateRead(p) => {
                // One over an empty version set has never begun its
                // transaction, and still does not.
                if !p.vset.is_empty() {
                    let t = self.enter(p.txn);
                    for &(o, v) in &p.vset {
                        self.on_read(t, o, v, true);
                    }
                }
                None
            }
            Event::Commit(t) => {
                let t = self.enter(*t);
                Some(self.on_commit(t))
            }
            Event::Abort(t) => {
                let t = self.enter(*t);
                self.on_abort(t);
                None
            }
        };
        self.lanes.shed(self.parked != 0, &mut self.prov);
        self.maybe_gc();
        self.lanes.sync_reorder_counter();
        if let Some(t0) = apply_t0 {
            adya_obs::histogram!("online.apply_ns").record(t0.elapsed().as_nanos() as u64);
        }
        verdict
    }

    /// Completes the stream: still-active transactions are aborted (in
    /// ascending id order — the paper's completion rule) and the final
    /// verdict over the whole stream is returned.
    pub fn finish(&mut self) -> Verdict {
        let mut open: Vec<TxnId> = self.active.iter().map(|&t| self.txns.key_of(t)).collect();
        open.sort_unstable();
        for t in open {
            self.ingest(&Event::Abort(t));
        }
        if self.gc.config().enabled {
            self.run_gc();
        }
        let mut v = self.verdict(None, &[]);
        v.is_final = true;
        v
    }

    /// The slot of transaction `id`, which begins now if the stream has
    /// not mentioned it before (or not since it was pruned).
    fn enter(&mut self, id: TxnId) -> TxnSlot {
        let (t, fresh) = self.txns.enter(id);
        if fresh {
            self.txns[t].begin_clock = self.clock;
            self.activate(t);
        }
        t
    }

    /// Files `t` in the active list.
    pub(crate) fn activate(&mut self, t: TxnSlot) {
        self.txns[t].active_at = self.active.len() as u32;
        self.active.push(t);
    }

    /// `t`'s terminal event: it leaves the active list with `status`.
    fn end(&mut self, t: TxnSlot, status: Status) {
        let txn = &mut self.txns[t];
        seal_writes(&mut txn.writes);
        txn.status = status;
        txn.terminal_clock = self.clock;
        let at = txn.active_at as usize;
        self.active.swap_remove(at);
        if let Some(&moved) = self.active.get(at) {
            self.txns[moved].active_at = at as u32;
        }
    }

    fn on_write(&mut self, t: TxnSlot, o: ObjectId, seq: u32) {
        let txn = &mut self.txns[t];
        if txn.status != Status::Active {
            // A write after the terminal event: ill-formed, ignored —
            // but a parser counted it, and must forget it with `t`.
            if txn.write_of(o).is_none() {
                self.gc.note_stray(self.txns.key_of(t), o);
            }
            return;
        }
        // Unsorted until the terminal event seals them; a run of writes
        // to one object stays one entry.
        match txn.writes.last_mut() {
            Some(last) if last.object == o => last.seq = last.seq.max(seq),
            _ => txn.writes.push(WriteEntry {
                object: o,
                seq,
                installed: None,
                pos: 0,
            }),
        }
    }

    fn on_read(&mut self, t: TxnSlot, o: ObjectId, v: VersionId, via_predicate: bool) {
        if self.txns[t].status != Status::Active {
            return;
        }
        let foreign = !v.is_init() && v.txn != self.txns.key_of(t);
        let writer = if foreign {
            self.txns.lookup(v.txn)
        } else {
            None
        };
        if let Some(w) = writer {
            self.txns[w].refs += 1;
            self.settle(w); // a new pin unsettles a finished writer
        }
        let reads = &mut self.txns[t].reads;
        self.spare_reads.fill(reads);
        reads.push(BufferedRead {
            object: o,
            version: v,
            via_predicate,
            writer,
            stale: foreign && writer.is_none(),
        });
    }

    fn on_commit(&mut self, t: TxnSlot) -> Verdict {
        let started = Instant::now();
        let before = self.fired.mask;
        let id = self.txns.key_of(t);
        if self.txns[t].status != Status::Active {
            return self.verdict(Some(id), &[]);
        }
        // Taken before this commit unparks its readers or parks its
        // reads: see `Lanes::apply`.
        let parked = self.parked != 0;
        self.end(t, Status::Committed);
        self.committed += 1;

        let verdict_t0 = self.sampled_now.then(Instant::now);
        self.install_writes(t);
        // Both buffers go to the spare lists, emptied: a finished
        // transaction keeps only its writes.
        let mut reads = std::mem::take(&mut self.txns[t].reads);
        for br in reads.drain(..) {
            self.resolve_read(t, br);
        }
        self.spare_reads.give(reads, self.active.len());
        let mut pending = std::mem::take(&mut self.txns[t].pending_readers);
        for pr in pending.drain(..) {
            self.resolve_pending(t, pr);
        }
        self.spare_parked.give(pending, self.active.len());
        self.settle(t);
        self.apply_edge_plan(parked);

        let v = self.verdict(Some(id), &Fired::kinds_in(self.fired.mask & !before));
        adya_obs::histogram!("online.verdict_latency").record(started.elapsed().as_nanos() as u64);
        if let Some(t0) = verdict_t0 {
            adya_obs::histogram!("online.verdict_ns").record(t0.elapsed().as_nanos() as u64);
        }
        v
    }

    /// Installs `t`'s final versions in object-id order: appends the
    /// entry, adds the ww edge from the previous installer, and
    /// resolves readers anchored at the previous tip into rw edges.
    fn install_writes(&mut self, t: TxnSlot) {
        for at in 0..self.txns[t].writes.len() {
            let o = self.txns[t].writes[at].object;
            let clock = self.clock;
            let (slot, _) = self.objects.enter(o);
            let obj = &mut self.objects[slot];
            let prev = obj.entries.back().copied();
            let mut resolved = std::mem::take(&mut obj.anchored);
            obj.entries.push_back(t);
            let pos = obj.base + obj.entries.len() - 1;
            let w = &mut self.txns[t].writes[at];
            (w.installed, w.pos) = (Some(slot), pos);
            if let Some(p) = prev {
                let w = &mut self.txns[p];
                w.unsuperseded -= 1;
                w.prune_after = w.prune_after.max(clock);
                self.settle(p);
                // Commit-order installs: ww edges ascend, so no write
                // cycle closes online (why `crate::lanes` has no G0 row).
                debug_assert!(self.txns[p].terminal_clock < self.txns[t].terminal_clock);
                self.edge(EdgeKind::Ww, p, t, o, None);
            }
            for r in resolved.drain(..) {
                self.txns[r].registered -= 1;
                self.settle(r);
                if r != t {
                    self.edge(EdgeKind::Rw, r, t, o, None);
                }
            }
            self.objects[slot].anchored = resolved; // emptied, capacity kept
            let me = &mut self.txns[t];
            me.unsuperseded += 1;
            me.behind += u32::from(prev.is_some());
        }
    }

    /// Resolves one buffered read of the just-committed reader `t`.
    fn resolve_read(&mut self, t: TxnSlot, br: BufferedRead) {
        if br.stale {
            self.stale_refs += 1;
            return;
        }
        let (o, v) = (br.object, br.version);
        if v.is_init() {
            if br.via_predicate {
                return; // vset entries carry no edges
            }
            let (slot, _) = self.objects.enter(o);
            let obj = &mut self.objects[slot];
            if obj.base > 0 {
                // The init version's successor was pruned; the rw edge
                // it would anchor is unknowable.
                self.stale_refs += 1;
                return;
            }
            match obj.entries.front().copied() {
                Some(succ) => {
                    if succ != t {
                        self.edge(EdgeKind::Rw, t, succ, o, None);
                    }
                }
                None => {
                    obj.anchored.push(t);
                    self.txns[t].registered += 1;
                }
            }
            return;
        }
        let Some(w) = br.writer else {
            // Own read: no read-dependency, no G1a/G1b, but it anchors
            // at the own entry exactly like the batch checker's
            // `order_anchor`, so a later overwrite emits t → successor.
            if !br.via_predicate {
                self.anchor_reader(t, o, t);
            }
            return;
        };
        let writer = &mut self.txns[w];
        if writer.status == Status::Active {
            self.spare_parked.fill(&mut writer.pending_readers);
            writer.pending_readers.push(PendingRead {
                reader: t,
                object: o,
                seq: v.seq,
                via_predicate: br.via_predicate,
            });
            self.parked += 1;
            self.txns[t].awaiting += 1;
            return; // the `refs` pin stays held until the writer resolves
        }
        writer.refs -= 1;
        let (status, final_seq) = (writer.status, writer.write_of(o).map(|w| w.seq));
        self.settle(w);
        let reader = self.txns.key_of(t);
        if status == Status::Aborted {
            self.fired.aborted_read(reader, o, v, br.via_predicate);
        }
        let Some(final_seq) = final_seq else {
            self.stale_refs += 1; // read of a never-written version
            return;
        };
        if v.seq != final_seq {
            self.fired
                .intermediate_read(reader, o, v, final_seq, br.via_predicate);
        }
        if status == Status::Committed && !br.via_predicate {
            self.edge(EdgeKind::Wr, w, t, o, Some(v));
            self.anchor_reader(t, o, w);
        }
    }

    /// Anchors committed reader `t` at `writer`'s installed version of
    /// `o`: emit the rw edge to the successor if one exists, otherwise
    /// register at the entry to await one. A `writer` that never wrote
    /// `o` — the stream's say-so, again — installed nothing to anchor
    /// at: a stale tick.
    fn anchor_reader(&mut self, t: TxnSlot, o: ObjectId, writer: TxnSlot) {
        let at = self.txns[writer]
            .write_of(o)
            .and_then(|w| Some((w.installed?, w.pos)));
        let Some((slot, pos)) = at else {
            self.stale_refs += 1;
            return;
        };
        let obj = &mut self.objects[slot];
        let idx = pos - obj.base;
        if idx + 1 < obj.entries.len() {
            let succ = obj.entries[idx + 1];
            if succ != t {
                self.edge(EdgeKind::Rw, t, succ, o, None);
            }
        } else {
            obj.anchored.push(t);
            self.txns[t].registered += 1;
        }
    }

    /// Resolves a reader parked on writer `t`, which just committed.
    fn resolve_pending(&mut self, t: TxnSlot, pr: PendingRead) {
        self.parked -= 1;
        self.txns[pr.reader].awaiting -= 1;
        self.txns[t].refs -= 1;
        // As when the writer had committed before the reader: a read
        // of a version its writer never wrote resolves to a stale tick.
        let Some(final_seq) = self.txns[t].write_of(pr.object).map(|w| w.seq) else {
            self.stale_refs += 1;
            self.settle(pr.reader);
            return;
        };
        // A literal, not `VersionId::new`: the seq is whatever the stream
        // said, and `new` asserts it is at least 1.
        let read = VersionId {
            txn: self.txns.key_of(t),
            seq: pr.seq,
        };
        if pr.seq != final_seq {
            let reader = self.txns.key_of(pr.reader);
            self.fired
                .intermediate_read(reader, pr.object, read, final_seq, pr.via_predicate);
        }
        if !pr.via_predicate {
            self.edge(EdgeKind::Wr, t, pr.reader, pr.object, Some(read));
            self.anchor_reader(pr.reader, pr.object, t);
        }
        self.settle(pr.reader);
    }

    fn on_abort(&mut self, t: TxnSlot) {
        if self.txns[t].status != Status::Active {
            return;
        }
        self.end(t, Status::Aborted);
        // Its own buffered reads die with it: release the writer pins.
        let mut reads = std::mem::take(&mut self.txns[t].reads);
        for br in reads.drain(..) {
            if let Some(w) = br.writer {
                self.txns[w].refs -= 1;
                self.settle(w);
            }
        }
        self.spare_reads.give(reads, self.active.len());
        // Committed readers that observed its versions read aborted
        // data: G1a now, G1b too if the version wasn't the last one.
        let mut pending = std::mem::take(&mut self.txns[t].pending_readers);
        for pr in pending.drain(..) {
            self.parked -= 1;
            self.txns[pr.reader].awaiting -= 1;
            self.settle(pr.reader);
            self.txns[t].refs -= 1;
            let reader = self.txns.key_of(pr.reader);
            let v = VersionId {
                txn: self.txns.key_of(t),
                seq: pr.seq,
            };
            self.fired
                .aborted_read(reader, pr.object, v, pr.via_predicate);
            match self.txns[t].write_of(pr.object).map(|w| w.seq) {
                Some(fs) if fs != pr.seq => {
                    self.fired
                        .intermediate_read(reader, pr.object, v, fs, pr.via_predicate)
                }
                Some(_) => {}
                None => self.stale_refs += 1, // read of a never-written version
            }
        }
        self.spare_parked.give(pending, self.active.len());
        self.settle(t);
    }

    // ------------------------------------------------------------------
    // The edges seam
    // ------------------------------------------------------------------

    /// Queues one DSG edge discovered during commit resolution — the
    /// only way a handler says "these two transactions conflict". The
    /// plan is applied by [`Self::apply_edge_plan`] at the end of the
    /// commit, with results replayed in exactly this discovery order.
    ///
    /// `read` is the version read, for a read dependency — it need not
    /// be the writer's last. The operation a ww or rw edge cites is the
    /// final version [`EdgeKind::writer`] installed on `object`, looked
    /// up here while the slots are at hand, and only while a graph is
    /// left to cite it for.
    fn edge(
        &mut self,
        kind: EdgeKind,
        from: TxnSlot,
        to: TxnSlot,
        object: ObjectId,
        read: Option<VersionId>,
    ) {
        let cites = if self.prov.enabled() && self.lanes.any_live() {
            let version = read.or_else(|| {
                let writer = kind.writer(from, to);
                Some(VersionId {
                    txn: self.txns.key_of(writer),
                    seq: self.txns[writer].write_of(object)?.seq,
                })
            });
            version.map(|version| ProvStep {
                kind,
                object,
                version,
            })
        } else {
            None
        };
        self.plan.push(PlannedEdge {
            kind,
            from: self.txns.key_of(from),
            to: self.txns.key_of(to),
            cites,
        });
    }

    /// Hands the commit's planned edges to the lane table (see
    /// [`Lanes::apply`]); `parked` says whether a read was parked when
    /// the commit began.
    fn apply_edge_plan(&mut self, parked: bool) {
        if self.plan.is_empty() {
            return;
        }
        // With nothing parked, this commit unparked no reader, so every
        // ww or wr edge it plans runs into it from an earlier commit.
        let clock = |id| self.txns[self.txns.lookup(id).expect("held")].terminal_clock;
        debug_assert!(
            parked
                || (self.plan.iter())
                    .all(|e| e.kind == EdgeKind::Rw || clock(e.from) < clock(e.to)),
            "a dependency edge against commit order with nothing parked"
        );
        self.lanes.apply(
            &self.plan,
            parked,
            &mut self.fired,
            &mut self.prov,
            self.sampled_now,
        );
        self.plan.clear();
    }

    // ------------------------------------------------------------------
    // Garbage collection (see `crate::gc`)
    // ------------------------------------------------------------------

    /// Tells the collector that one of the counters `t`'s
    /// prunability reads has moved.
    fn settle(&mut self, t: TxnSlot) {
        self.gc.settle(self.txns.key_of(t), t, &self.txns[t]);
    }

    fn maybe_gc(&mut self) {
        if !self.gc.due() {
            return;
        }
        let t0 = (self.telemetry_every != 0).then(Instant::now);
        self.run_gc();
        if let Some(t0) = t0 {
            adya_obs::histogram!("online.gc_ns").record(t0.elapsed().as_nanos() as u64);
        }
    }

    fn run_gc(&mut self) {
        self.gc.run(&mut Heap {
            clock: self.clock,
            active: &self.active,
            txns: &mut self.txns,
            objects: &mut self.objects,
            lanes: &mut self.lanes,
            prov: &mut self.prov,
        });
    }

    /// Makes collection passes run the reference collector, which
    /// keeps no index: every round scans the table for candidates and
    /// tries each. Exists so tests can hold the indexed collector to
    /// it byte for byte; debug and test builds only.
    #[cfg(any(test, debug_assertions))]
    #[doc(hidden)]
    pub fn set_gc_by_scan(&mut self, on: bool) {
        self.gc.set_by_scan(on);
    }

    /// Makes every commit feed G1c's graph and never sheds it, as
    /// checkers did before it was kept empty while no read is parked
    /// (DESIGN.md, "Why G1c's graph is empty while nothing is parked").
    /// Exists so tests can hold the shed graph to it byte for byte;
    /// debug and test builds only.
    #[cfg(any(test, debug_assertions))]
    #[doc(hidden)]
    pub fn set_g1c_eager(&mut self, on: bool) {
        self.lanes.set_eager(on);
    }

    // ------------------------------------------------------------------
    // Crash/restore snapshots (see `crate::snapshot`)
    // ------------------------------------------------------------------

    /// Freezes the checker's complete state — clocks, transaction and
    /// object tables, the live incremental graphs, latched phenomena
    /// and GC policy — into a checksummed byte image.
    ///
    /// The round trip through [`restore`] is exact: the revived
    /// checker produces verdicts byte-identical to the original
    /// continuing uninterrupted, which is what lets a crashed checking
    /// process resume from its last snapshot plus the surviving tail
    /// of the event log. Two checkers in equal states produce equal
    /// images (all hash-order-dependent fields are serialized sorted),
    /// so snapshot bytes can also *prove* state equality in tests.
    ///
    /// [`restore`]: OnlineChecker::restore
    pub fn snapshot(&self) -> Vec<u8> {
        snapshot::encode(self)
    }

    /// Revives a checker from [`snapshot`] bytes. The image is not
    /// trusted: beyond the checksum, every index, id and derived
    /// counter in it is checked against the rest, so a checker this
    /// returns cannot be made to panic by the image it came from.
    ///
    /// [`snapshot`]: OnlineChecker::snapshot
    pub fn restore(bytes: &[u8]) -> Result<OnlineChecker, SnapshotError> {
        snapshot::decode(bytes)
    }

    fn verdict(&self, txn: Option<TxnId>, new_fired: &[PhenomenonKind]) -> Verdict {
        let witness = new_fired
            .first()
            .and_then(|k| self.fired.witness_of(*k).cloned());
        let cycle = new_fired
            .first()
            .and_then(|k| self.fired.cycle_of(*k).cloned());
        let witness_id = new_fired.first().map(|k| {
            let nodes: Vec<u64> = cycle
                .as_deref()
                .map(|c| c.iter().map(|e| u64::from(e.from.0)).collect())
                .unwrap_or_default();
            adya_obs::witness_id(&k.to_string(), &nodes, witness.as_deref().unwrap_or(""))
        });
        Verdict {
            txn,
            committed: self.committed,
            strongest_ansi: self.strongest_ansi(),
            fired: self.fired.kinds(),
            new_fired: new_fired.to_vec(),
            witness,
            witness_id,
            cycle,
            pruned_txns: self.gc.pruned_txns(),
            stale_refs: self.stale_refs,
            live_txns: self.txns.len(),
            is_final: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{feed, r, rinit, w};

    #[test]
    fn clean_serial_history_is_pl3() {
        let mut c = OnlineChecker::new();
        let vs = feed(
            &mut c,
            &[
                Event::Begin(TxnId(1)),
                w(1, 0, 1),
                Event::Commit(TxnId(1)),
                Event::Begin(TxnId(2)),
                r(2, 0, 1, 1),
                w(2, 0, 1),
                Event::Commit(TxnId(2)),
            ],
        );
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[1].strongest_ansi, Some(IsolationLevel::PL3));
        assert!(vs[1].fired.is_empty());
        let end = c.finish();
        assert_eq!(end.strongest_ansi, Some(IsolationLevel::PL3));
    }

    #[test]
    fn aborted_read_is_g1a_and_caps_at_pl1() {
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
        assert_eq!(end.fired, vec![PhenomenonKind::G1a]);
        assert_eq!(end.strongest_ansi, Some(IsolationLevel::PL1));
    }

    #[test]
    fn intermediate_read_is_g1b() {
        let mut c = OnlineChecker::new();
        feed(
            &mut c,
            &[
                Event::Begin(TxnId(1)),
                w(1, 0, 1),
                Event::Begin(TxnId(2)),
                r(2, 0, 1, 1),
                Event::Commit(TxnId(2)),
                w(1, 0, 2),
                Event::Commit(TxnId(1)),
            ],
        );
        let end = c.finish();
        assert_eq!(end.fired, vec![PhenomenonKind::G1b]);
    }

    #[test]
    fn mutual_dirty_reads_are_g1c() {
        // T1 and T2 read each other's uncommitted writes; both commit.
        let mut c = OnlineChecker::new();
        feed(
            &mut c,
            &[
                Event::Begin(TxnId(1)),
                Event::Begin(TxnId(2)),
                w(1, 0, 1),
                w(2, 1, 1),
                r(2, 0, 1, 1),
                r(1, 1, 2, 1),
                Event::Commit(TxnId(1)),
                Event::Commit(TxnId(2)),
            ],
        );
        let end = c.finish();
        assert!(end.fired.contains(&PhenomenonKind::G1c), "{:?}", end.fired);
        assert_eq!(end.strongest_ansi, Some(IsolationLevel::PL1));
    }

    #[test]
    fn write_skew_is_g2_item() {
        // Classic write skew: T1 reads x-init writes y, T2 reads
        // y-init writes x. rw edges both ways.
        let mut c = OnlineChecker::new();
        feed(
            &mut c,
            &[
                Event::Begin(TxnId(1)),
                Event::Begin(TxnId(2)),
                rinit(1, 0),
                rinit(2, 1),
                w(1, 1, 1),
                w(2, 0, 1),
                Event::Commit(TxnId(1)),
                Event::Commit(TxnId(2)),
            ],
        );
        let end = c.finish();
        assert!(
            end.fired.contains(&PhenomenonKind::G2Item),
            "{:?}",
            end.fired
        );
        assert!(end.fired.contains(&PhenomenonKind::G2));
        assert_eq!(end.strongest_ansi, Some(IsolationLevel::PL2));
    }

    #[test]
    fn lost_update_read_modify_write_is_g2_item() {
        // T1 and T2 both read x-init then write x: the later installer
        // receives an rw edge from the other's anchored read.
        let mut c = OnlineChecker::new();
        feed(
            &mut c,
            &[
                Event::Begin(TxnId(1)),
                Event::Begin(TxnId(2)),
                rinit(1, 0),
                rinit(2, 0),
                w(1, 0, 1),
                Event::Commit(TxnId(1)),
                w(2, 0, 1),
                Event::Commit(TxnId(2)),
            ],
        );
        let end = c.finish();
        assert!(
            end.fired.contains(&PhenomenonKind::G2Item),
            "{:?}",
            end.fired
        );
    }

    #[test]
    fn a_read_of_an_own_version_never_written_is_a_stale_tick() {
        // `b1 r1(x1) c1`: T1 reads "its own version" of an object it
        // never wrote. Nothing was installed for the read to anchor at.
        let mut c = OnlineChecker::new();
        let vs = feed(
            &mut c,
            &[
                Event::Begin(TxnId(1)),
                r(1, 0, 1, 1),
                Event::Commit(TxnId(1)),
            ],
        );
        assert_eq!(vs[0].stale_refs, 1);
        assert!(c.finish().fired.is_empty());
    }

    #[test]
    fn peer_chosen_ids_never_size_a_table() {
        // `b4294967294 w4294967294(x,1) c4294967294` (the largest id
        // there is: 4294967295 is Tinit, whose events are skipped), then
        // the same under id 1, at a pass per event: the ids are a
        // peer's to choose, so the tables grow with what is live, not
        // with them.
        const BIG: u32 = u32::MAX - 1;
        let mut c = OnlineChecker::with_gc(GcConfig {
            enabled: true,
            interval: 1,
        });
        let mut verdicts = Vec::new();
        for id in [BIG, 1] {
            verdicts.extend(feed(
                &mut c,
                &[
                    Event::Begin(TxnId(id)),
                    w(id, 0, 1),
                    Event::Commit(TxnId(id)),
                ],
            ));
            assert!(c.live_txns() <= 2);
        }
        for (v, id) in verdicts.iter().zip([BIG, 1]) {
            assert_eq!(v.txn, Some(TxnId(id)));
            assert_eq!(v.strongest_ansi, Some(IsolationLevel::PL3));
            assert_eq!((v.stale_refs, v.fired.len()), (0, 0));
        }
        assert_eq!(verdicts[1].committed, 2);
        assert!(c.txns.slots() <= 2, "{} transaction slots", c.txns.slots());
        assert_eq!(c.objects.slots(), 1);

        // And a long run of ever-larger ids reuses the slots the pruned
        // ones gave back.
        for id in (10..2_000u32).map(|i| i * 1_000_003 % u32::MAX) {
            feed(
                &mut c,
                &[
                    Event::Begin(TxnId(id)),
                    w(id, 0, 1),
                    Event::Commit(TxnId(id)),
                ],
            );
        }
        assert!(c.live_txns() <= 3, "{} live", c.live_txns());
        assert!(c.txns.slots() <= 4, "{} transaction slots", c.txns.slots());
    }

    #[test]
    fn a_wide_transaction_written_in_descending_order_costs_a_sort() {
        // Object ids follow first mention, so a peer decides the order a
        // transaction's writes arrive in. T1 makes 100k objects known,
        // lowest id first; T2 overwrites them all from the highest id
        // down, then touches each again. Keeping `writes` sorted write
        // by write would move ~5·10⁹ entries on the way down (and cost
        // nothing on the way up, which is the yardstick here); sealing
        // at the terminal event sorts once.
        const N: u32 = 100_000;
        let mut c = OnlineChecker::new();
        c.ingest(&Event::Begin(TxnId(1)));
        let started = Instant::now();
        for o in 0..N {
            c.ingest(&w(1, o, 1));
        }
        let up = started.elapsed();
        c.ingest(&Event::Commit(TxnId(1)));
        c.ingest(&Event::Begin(TxnId(2)));
        let started = Instant::now();
        for o in (0..N).rev() {
            c.ingest(&w(2, o, 2));
        }
        let down = started.elapsed();
        assert!(
            down < 4 * up + std::time::Duration::from_millis(250),
            "{N} writes took {up:?} in ascending object order, {down:?} in descending"
        );
        for o in (0..N).rev() {
            c.ingest(&w(2, o, 1));
        }
        let t2 = c.txns.lookup(TxnId(2)).unwrap();
        assert_eq!(c.txns[t2].writes.len(), 2 * N as usize);
        // A snapshot of the running transaction lists them sealed, and
        // restoring it changes nothing about what the commit installs.
        let mut revived = OnlineChecker::restore(&c.snapshot()).unwrap();
        let v = c.ingest(&Event::Commit(TxnId(2))).unwrap();
        let again = revived.ingest(&Event::Commit(TxnId(2))).unwrap();
        assert_eq!(again.to_json(), v.to_json());
        assert_eq!(revived.snapshot(), c.snapshot());
        let sealed = &c.txns[t2].writes;
        assert_eq!(sealed.len(), N as usize);
        assert!(sealed.windows(2).all(|p| p[0].object < p[1].object));
        assert!(sealed.iter().all(|w| w.seq == 2 && w.installed.is_some()));
        assert!(v.fired.is_empty(), "{:?}", v.fired);
    }

    #[test]
    fn a_parked_read_of_a_version_its_writer_never_wrote_is_a_stale_tick() {
        // T2 commits having read `x` "as written by T1" while T1, still
        // running, never writes `x`. Whichever way T1 ends, the read
        // resolves the way it does against a writer that had already
        // ended: a stale tick (after G1a, on an abort), not a panic.
        // The seq is the stream's say-so too: 0 is not a version, and
        // must not trip `VersionId::new`'s assertion either.
        for (seq, end) in [
            (1, Event::Commit(TxnId(1))),
            (1, Event::Abort(TxnId(1))),
            (0, Event::Commit(TxnId(1))),
        ] {
            let mut c = OnlineChecker::new();
            let dangling = Event::Read(adya_history::ReadEvent {
                txn: TxnId(2),
                object: ObjectId(0),
                version: VersionId { txn: TxnId(1), seq },
                through_cursor: false,
            });
            feed(
                &mut c,
                &[
                    Event::Begin(TxnId(1)),
                    w(1, 1, 1),
                    Event::Begin(TxnId(2)),
                    dangling,
                    Event::Commit(TxnId(2)),
                ],
            );
            let aborted = matches!(end, Event::Abort(_));
            c.ingest(&end);
            let fin = c.finish();
            assert_eq!(fin.stale_refs, 1, "{end:?}");
            let want = if aborted {
                vec![PhenomenonKind::G1a]
            } else {
                vec![]
            };
            assert_eq!(fin.fired, want, "{end:?}");
        }
    }
}
