//! The incremental checker: the transaction and object tables, and
//! the event handlers that keep them — buffering reads until their
//! reader's fate is known, installing versions at commit, parking
//! reads on writers still running. A handler's findings leave it two
//! ways only: a read's G1a/G1b latch through its one judgement,
//! [`OnlineChecker::judge`], and every DSG edge goes through
//! [`OnlineChecker::edge`] onto the commit's plan, which the lane table
//! ([`crate::lanes`]) turns into cycle checks. Pruning is the
//! collector's ([`crate::gc`]), the byte image the snapshot codec's
//! ([`crate::snapshot`]).

use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;

use adya_core::{IsolationLevel, PhenomenonKind};
use adya_history::{Event, ObjectId, TxnId, VersionId};

use crate::gc::{self, Collector, GcConfig, Heap};
use crate::keys::Keys;
use crate::lanes::{EdgeKind, Lanes, PlannedEdge};
use crate::provenance::{ProvStep, Provenance};
use crate::snapshot::{self, SnapshotError};
use crate::tables::{Recycle, Slot, Table};
use crate::verdict::{strongest_ansi_of, Fired, Verdict, VerdictFact};
use crate::wire::{Enc, Sink};

pub(crate) type TxnSlot = Slot<TxnId>;
pub(crate) type ObjSlot = Slot<ObjectId>;
pub(crate) type TxnTable = Table<TxnId, TxnState>;

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
    pub(crate) source: Source,
}

/// What a buffered read's commit will ask of the version's writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// An own or initial version.
    Local,
    /// A held transaction's version, found at ingest: the read holds a
    /// `refs` pin on it from then on.
    Held(TxnSlot),
    /// A version whose committed writer has left the checker: the final
    /// seq it wrote to the object, from its object's cold entry when
    /// the read came, or from its row when it left (`crate::gc`).
    Cold(u32),
    /// A version whose writer had left (or was never seen) when it was
    /// read, and no cold entry kept: resolves to a `stale_refs` tick,
    /// never an edge.
    Stale,
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

/// One object a finished transaction wrote: 16 bytes in release builds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WriteEntry {
    pub(crate) object: ObjectId,
    /// Last (= highest) write seq.
    pub(crate) seq: u32,
    /// The object's slot, once the commit installed the version, until
    /// the version is retired: `None` on a committed row is a version
    /// the watermark has retired (see `crate::gc`).
    pub(crate) installed: Option<ObjSlot>,
    /// The version's absolute position (`base`-inclusive) in the
    /// object's list, mod 2³² (see [`ObjectState::index_of`](crate::keys::ObjectState::index_of));
    /// meaningful once `installed`.
    pub(crate) pos: u32,
}

/// One object a running transaction wrote so far, with the highest seq
/// of its run of writes to it: 8 bytes.
pub(crate) type RunningWrite = (ObjectId, u32);

/// A transaction the checker holds: what a finished one still needs.
/// What only a running one has is on its [`Running`] record.
#[derive(Debug, Default)]
pub(crate) struct TxnState {
    pub(crate) status: Status,
    /// Whether a collection pass has passed it: it has ended below the
    /// watermark, and its superseded versions are retired. Derived
    /// (every restored row starts unpassed, and the next pass passes it
    /// again; never serialised).
    pub(crate) passed: bool,
    pub(crate) begin_clock: u64,
    pub(crate) terminal_clock: u64,
    /// What it wrote, one entry per object sorted by object (the order
    /// commits install in): empty while it runs (its writes are on its
    /// [`Running`] record), [sealed](Self::seal) by its terminal event,
    /// and kept after that for G1a/G1b checks against late-committing
    /// readers.
    pub(crate) writes: Vec<WriteEntry>,
    /// The objects at whose newest version this committed reader is
    /// anchored, one per anchor: each will emit an rw edge when a
    /// successor installs. Derived from the objects' reader lists by
    /// `restore`.
    pub(crate) anchors: Vec<ObjSlot>,
    /// Buffered or pending reads by live transactions that reference
    /// this transaction as a writer.
    pub(crate) refs: u32,
    /// This (committed) transaction's own reads parked on still-active
    /// writers.
    pub(crate) awaiting: u32,
    /// Where the checker's active list holds this transaction — and
    /// its [`Running`] record —, while it is active.
    pub(crate) active_at: u32,
}

/// What a transaction holds only while it runs, on its entry in the
/// active list: its writes, its buffered reads, and the committed
/// readers parked on it. Its terminal event seals the first onto its
/// row and drains the other two.
#[derive(Debug, Default)]
pub(crate) struct Running {
    /// Its writes in arrival order, a run of writes to one object as
    /// one entry; [sealed](seal_writes) at its terminal event.
    pub(crate) writes: Vec<RunningWrite>,
    /// Its reads, buffered until its terminal event.
    pub(crate) reads: Vec<BufferedRead>,
    /// Committed readers waiting for this writer's fate.
    pub(crate) pending_readers: Vec<PendingRead>,
}

impl TxnState {
    /// The entry for `o`, if this transaction — which has ended — wrote
    /// it.
    pub(crate) fn write_of(&self, o: ObjectId) -> Option<&WriteEntry> {
        debug_assert!(self.status != Status::Active, "writes not sealed yet");
        let at = self.writes.binary_search_by_key(&o, |w| w.object).ok()?;
        Some(&self.writes[at])
    }

    /// Files `sealed` as its writes, in the room its row has if that
    /// is enough and in a buffer of exactly their number if not.
    fn seal(&mut self, sealed: &[RunningWrite]) {
        self.writes.clear();
        if self.writes.capacity() < sealed.len() {
            self.writes = Vec::with_capacity(sealed.len());
        }
        self.writes
            .extend(sealed.iter().map(|&(object, seq)| WriteEntry {
                object,
                seq,
                installed: None,
                pos: 0,
            }));
    }
}

/// Sorts a running transaction's writes by object and keeps, of each
/// object's, the one with the highest seq. Done once, at the terminal
/// event, so the order a peer writes its objects in costs a sort and no
/// more.
pub(crate) fn seal_writes(writes: &mut Vec<RunningWrite>) {
    writes.sort_unstable_by_key(|&(o, seq)| (o, std::cmp::Reverse(seq)));
    writes.dedup_by_key(|w| w.0);
}

/// Most elements a recycled buffer keeps room for: one huge
/// transaction must not leave its slot holding its memory for good.
pub(crate) const RECYCLED_CAPACITY: usize = 64;

/// Gives back a ring's room once it holds less than a quarter of it,
/// down to twice what it holds and no less than [`RECYCLED_CAPACITY`].
pub(crate) fn shrink_if_sparse<T>(q: &mut VecDeque<T>) {
    if q.capacity() > RECYCLED_CAPACITY && q.len() < q.capacity() / 4 {
        q.shrink_to(RECYCLED_CAPACITY.max(2 * q.len()));
    }
}

/// `v` emptied, keeping its room only up to [`RECYCLED_CAPACITY`].
pub(crate) fn recycled<T>(mut v: Vec<T>) -> Vec<T> {
    v.clear();
    if v.capacity() > RECYCLED_CAPACITY {
        v = Vec::new();
    }
    v
}

impl Recycle for TxnState {
    /// A fresh `TxnState`, but for the capacity of `writes` and
    /// `anchors`.
    fn recycle(&mut self) {
        let writes = recycled(std::mem::take(&mut self.writes));
        let anchors = recycled(std::mem::take(&mut self.anchors));
        *self = TxnState {
            writes,
            anchors,
            ..TxnState::default()
        };
    }
}

/// The streaming checker. See the crate docs for scope and semantics.
#[derive(Debug, Default)]
pub struct OnlineChecker {
    pub(crate) clock: u64,
    pub(crate) txns: TxnTable,
    /// The transactions still running, in no particular order.
    pub(crate) active: Vec<TxnSlot>,
    /// `running[i]` is `active[i]`'s [`Running`] record. Those past
    /// `active.len()` are idle: emptied at terminal events and kept,
    /// for their buffers' room, until a transaction begins — as many
    /// as were ever running at once, so a first read or a first parked
    /// reader costs no allocation at steady state.
    pub(crate) running: Vec<Running>,
    /// Reads parked on running writers: the sum of their
    /// `pending_readers`. Derived (set by `restore`, never serialised).
    pub(crate) parked: usize,
    /// The object table: a row per object id the stream has mentioned.
    pub(crate) objects: Keys,
    /// The cycle graphs, one per edge filter. Boxed: the lane table is
    /// most of a checker's inline bytes, and a checker is built and
    /// moved on every connection thread of a server.
    pub(crate) lanes: Box<Lanes>,
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
    /// While a commit resolves: the clock below which a finished
    /// transaction is closed (`gc::closed`) — the watermark taken with
    /// the committer still running, since its own reads may still
    /// plant an anti-dependency edge. Meaningless between events.
    commit_floor: u64,
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

    /// Heap bytes the provenance map has allocated: its table as laid
    /// out, reserved room included, and the chains that spilled to a
    /// buffer of their own. Zero while provenance has never been on.
    pub fn provenance_bytes(&self) -> usize {
        self.prov.bytes()
    }

    /// Events ingested so far.
    pub fn events(&self) -> u64 {
        self.clock
    }

    /// Transactions whose rows the checker holds: the running ones, and
    /// the finished ones a later event may still need (see
    /// `crate::gc`). A finished transaction that left may leave its
    /// newest versions behind as cold entries on their objects.
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
    /// `t` has ended — whatever it wrote, before its terminal event or
    /// after — or runs and wrote `o`. A counter of a `t` not held, or
    /// running again under a reused id and not yet writing `o`, is an
    /// earlier holder's.
    pub(crate) fn adopt_counter(&self, t: TxnId, o: ObjectId) -> bool {
        let Some(slot) = self.txns.lookup(t) else {
            return false;
        };
        // An image lists every transaction's writes sealed, running or
        // not, and a running one's go onto its record in that order.
        self.running_of(&self.txns[slot])
            .is_none_or(|running| running.writes.binary_search_by_key(&o, |w| w.0).is_ok())
    }

    /// Transactions whose rows the GC has released so far.
    pub fn pruned_txns(&self) -> u64 {
        self.gc.pruned_txns()
    }

    /// Reads that referenced a never-seen writer or a version it never
    /// wrote, or that were retired (a version superseded before their
    /// reader began).
    pub fn stale_refs(&self) -> u64 {
        self.stale_refs
    }

    /// Every phenomenon fired so far (latched).
    pub fn fired_kinds(&self) -> Vec<PhenomenonKind> {
        self.fired.kinds()
    }

    /// Strongest ANSI-chain level the committed prefix satisfies.
    pub fn strongest_ansi(&self) -> Option<IsolationLevel> {
        strongest_ansi_of(self.fired.mask)
    }

    /// The line of the commit verdict `fact` was taken from
    /// ([`Verdict::fact`]), byte for byte what [`Verdict::to_json`]
    /// returned then: the witness, witness id and cycle of its first new
    /// kind are the ones this checker latched, once, when that kind
    /// fired — and an image carries them. `fact` must come from this
    /// checker's stream, or from the stream of the checker it was
    /// restored from.
    pub fn verdict_line(&self, fact: &VerdictFact) -> String {
        let mut s = String::with_capacity(256);
        self.write_verdict_line(fact, &mut s)
            .expect("a String takes any write");
        s
    }

    /// Appends [`verdict_line`](Self::verdict_line)'s line for `fact` to
    /// `out`, allocating nothing itself but the witness id of a line
    /// that fired something new. Through a [`fmt::Write`] that only
    /// counts bytes, this measures the line: a caller re-sending many
    /// renders them into one buffer of its exact size.
    pub fn write_verdict_line<W: fmt::Write + ?Sized>(
        &self,
        fact: &VerdictFact,
        out: &mut W,
    ) -> fmt::Result {
        self.fired.write_line(fact, out)
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
                self.objects.number(w.object);
                let t = self.enter(w.txn);
                self.on_write(t, w.object, w.seq);
                None
            }
            Event::Read(r) => {
                self.objects.number(r.object);
                let t = self.enter(r.txn);
                self.on_read(t, r.object, r.version, false);
                None
            }
            Event::PredicateRead(p) => {
                // One over an empty version set has never begun its
                // transaction, and still does not.
                if !p.vset.is_empty() {
                    for &(o, _) in &p.vset {
                        self.objects.number(o);
                    }
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
    /// not mentioned it before (or not since its row was released).
    fn enter(&mut self, id: TxnId) -> TxnSlot {
        let (t, fresh) = self.txns.enter(id);
        if fresh {
            self.txns[t].begin_clock = self.clock;
            self.activate(t);
        }
        t
    }

    /// Files `t` in the active list, with an idle [`Running`] record.
    pub(crate) fn activate(&mut self, t: TxnSlot) {
        let at = self.active.len();
        self.txns[t].active_at = at as u32;
        self.active.push(t);
        if self.running.len() == at {
            self.running.push(Running::default());
        }
    }

    /// `t`'s running record.
    fn running_mut(&mut self, t: TxnSlot) -> &mut Running {
        let txn = &self.txns[t];
        debug_assert_eq!(txn.status, Status::Active);
        &mut self.running[txn.active_at as usize]
    }

    /// `t`'s running record, or `None` once it has ended.
    pub(crate) fn running_of(&self, t: &TxnState) -> Option<&Running> {
        (t.status == Status::Active).then(|| &self.running[t.active_at as usize])
    }

    /// `t`'s terminal event: it leaves the active list with `status`,
    /// its writes sealed onto its row, and its record goes idle. Returns
    /// where the record now is, for the handler to drain.
    fn end(&mut self, t: TxnSlot, status: Status) -> usize {
        let txn = &mut self.txns[t];
        txn.status = status;
        txn.terminal_clock = self.clock;
        let at = txn.active_at as usize;
        let writes = &mut self.running[at].writes;
        seal_writes(writes);
        txn.seal(writes);
        self.active.swap_remove(at);
        let idle = self.active.len();
        self.running.swap(at, idle);
        if let Some(&moved) = self.active.get(at) {
            self.txns[moved].active_at = at as u32;
        }
        idle
    }

    /// Empties the idle record at `idle` and hands it back an ended
    /// transaction's drained read buffers, unless any of its buffers
    /// grew beyond what a recycled one may keep.
    fn rest(&mut self, idle: usize, reads: Vec<BufferedRead>, pending: Vec<PendingRead>) {
        let record = &mut self.running[idle];
        record.writes = recycled(std::mem::take(&mut record.writes));
        record.reads = recycled(reads);
        record.pending_readers = recycled(pending);
    }

    fn on_write(&mut self, t: TxnSlot, o: ObjectId, seq: u32) {
        let txn = &self.txns[t];
        if txn.status != Status::Active {
            return; // a write after the terminal event: ill-formed, ignored
        }
        // Unsorted until the terminal event seals them; a run of writes
        // to one object stays one entry.
        let writes = &mut self.running[txn.active_at as usize].writes;
        match writes.last_mut() {
            Some(last) if last.0 == o => last.1 = last.1.max(seq),
            _ => writes.push((o, seq)),
        }
    }

    fn on_read(&mut self, t: TxnSlot, o: ObjectId, v: VersionId, via_predicate: bool) {
        if self.txns[t].status != Status::Active {
            return;
        }
        let foreign = !v.is_init() && v.txn != self.txns.key_of(t);
        let source = if !foreign {
            Source::Local
        } else if let Some(w) = self.txns.lookup(v.txn) {
            self.txns[w].refs += 1;
            Source::Held(w)
        } else {
            self.cold_seq(v.txn, o).map_or(Source::Stale, Source::Cold)
        };
        self.running_mut(t).reads.push(BufferedRead {
            object: o,
            version: v,
            via_predicate,
            source,
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
        self.commit_floor = gc::watermark(&self.active, &self.txns, self.clock);
        let idle = self.end(t, Status::Committed);
        self.committed += 1;

        let verdict_t0 = self.sampled_now.then(Instant::now);
        self.install_writes(t);
        // Both read buffers are drained back into the idle record: a
        // finished transaction keeps only its sealed writes.
        let mut reads = std::mem::take(&mut self.running[idle].reads);
        for br in reads.drain(..) {
            self.resolve_read(t, br);
        }
        let pending = self.resolve_pending(t, idle);
        self.rest(idle, reads, pending);
        self.apply_edge_plan(parked);
        self.gc.note_end(id, self.clock);

        let v = self.verdict(Some(id), &Fired::kinds_in(self.fired.mask & !before));
        adya_obs::histogram!("online.verdict_latency").record(started.elapsed().as_nanos() as u64);
        if let Some(t0) = verdict_t0 {
            adya_obs::histogram!("online.verdict_ns").record(t0.elapsed().as_nanos() as u64);
        }
        v
    }

    /// Installs `t`'s final versions in object-id order: appends the
    /// entry, adds the ww edge from the previous installer, and
    /// resolves readers anchored at the previous tip into rw edges. A
    /// cold previous version has left the graphs for good, so its ww
    /// edge, out of a closed transaction, would be dropped: it is not
    /// planned at all.
    fn install_writes(&mut self, t: TxnSlot) {
        for at in 0..self.txns[t].writes.len() {
            let o = self.txns[t].writes[at].object;
            let (slot, _) = self.objects.enter(o);
            let obj = &mut self.objects[slot];
            let prev = obj.entries.back();
            let resolved = std::mem::take(&mut obj.anchored);
            obj.entries.push_back(t);
            let pos = obj.position(obj.entries.len() - 1);
            let w = &mut self.txns[t].writes[at];
            (w.installed, w.pos) = (Some(slot), pos);
            if let Some(p) = prev {
                // Commit-order installs: ww edges ascend, so no write
                // cycle closes online (why `crate::lanes` has no G0 row).
                debug_assert!(self.txns[p].terminal_clock < self.txns[t].terminal_clock);
                self.edge(EdgeKind::Ww, p, t, o, None);
            }
            for &r in resolved.as_slice() {
                let anchors = &mut self.txns[r].anchors;
                let i = (anchors.iter()).position(|&a| a == slot);
                anchors.swap_remove(i.expect("an anchor is on its reader and its object"));
                if r != t {
                    self.edge(EdgeKind::Rw, r, t, o, None);
                }
            }
            self.objects[slot].anchored = resolved.drained();
        }
    }

    /// Resolves one buffered read of the just-committed reader `t`.
    fn resolve_read(&mut self, t: TxnSlot, br: BufferedRead) {
        let (o, v) = (br.object, br.version);
        let w = match br.source {
            Source::Held(w) => w,
            Source::Cold(final_seq) => return self.resolve_cold_read(t, br, final_seq),
            Source::Stale => {
                self.stale_refs += 1;
                return;
            }
            Source::Local => return self.resolve_local_read(t, br),
        };
        let writer = &mut self.txns[w];
        if writer.status == Status::Active {
            self.running_mut(w).pending_readers.push(PendingRead {
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
        self.unpin(w);
        self.resolve_ended(t, w, o, v, br.via_predicate);
    }

    /// Resolves committed reader `t`'s read of `v` of `o` once its
    /// writer `w`, still held, has ended: [judged](Self::judge) against
    /// `w`'s fate, and, if `w` committed the version and the read is no
    /// version-set entry, the wr edge and the anchor at it follow.
    fn resolve_ended(
        &mut self,
        t: TxnSlot,
        w: TxnSlot,
        o: ObjectId,
        v: VersionId,
        via_predicate: bool,
    ) {
        let writer = &self.txns[w];
        let (status, final_seq) = (writer.status, writer.write_of(o).map(|w| w.seq));
        let stands = self.judge(t, o, v, via_predicate, status, final_seq);
        if stands && status == Status::Committed && !via_predicate {
            self.edge(EdgeKind::Wr, w, t, o, Some(v));
            self.anchor_reader(t, o, w);
        }
    }

    /// The one judgement of committed reader `t`'s read of `v` of `o`
    /// once the writer's fate is known — the `status` it ended with,
    /// and the last seq it wrote to `o` (`None`: it never wrote `o`):
    /// G1a if it aborted; then a read of a version its writer never
    /// wrote is a stale tick; otherwise G1b, unless `v` is the final
    /// version. Returns whether the writer wrote `o`: the read stands.
    fn judge(
        &mut self,
        t: TxnSlot,
        o: ObjectId,
        v: VersionId,
        via_predicate: bool,
        status: Status,
        final_seq: Option<u32>,
    ) -> bool {
        let reader = self.txns.key_of(t);
        if status == Status::Aborted {
            self.fired.aborted_read(reader, o, v, via_predicate);
        }
        let Some(final_seq) = final_seq else {
            self.stale_refs += 1;
            return false;
        };
        if v.seq != final_seq {
            self.fired
                .intermediate_read(reader, o, v, final_seq, via_predicate);
        }
        true
    }

    /// Resolves a read of an own or initial version. An initial one
    /// anchors before its object's first version — or is retired, once
    /// the watermark passed that version's installer; an own one anchors
    /// at the own entry exactly like the batch checker's
    /// `order_anchor`, so a later overwrite emits t → successor. Neither
    /// is a read-dependency or checked for G1a/G1b, and a version-set
    /// entry carries no edge.
    fn resolve_local_read(&mut self, t: TxnSlot, br: BufferedRead) {
        if br.via_predicate {
            return;
        }
        let o = br.object;
        if !br.version.is_init() {
            self.anchor_reader(t, o, t);
            return;
        }
        if self.objects.base(o) > 0 {
            self.stale_refs += 1;
            return;
        }
        self.anchor_at_front(t, o);
    }

    /// Resolves a read of a version whose committed writer has left the
    /// checker, `final_seq` the last seq it wrote to the object: no G1a;
    /// G1b compares against `final_seq`. Its wr edge comes out of a
    /// closed transaction no graph holds, so is on no cycle and is not
    /// planned. The read anchors at the version while its cold entry is
    /// there, as any other read; once the watermark has retired it, the
    /// read is retired: a stale tick.
    fn resolve_cold_read(&mut self, t: TxnSlot, br: BufferedRead, final_seq: u32) {
        let (o, v, via) = (br.object, br.version, br.via_predicate);
        self.judge(t, o, v, via, Status::Committed, Some(final_seq));
        if via {
            return;
        }
        if self.objects.cold(o).is_some_and(|c| c.0 == v.txn) {
            self.anchor_at_front(t, o);
        } else {
            self.stale_refs += 1;
        }
    }

    /// Anchors committed reader `t` at the oldest version `o` still has
    /// — its initial version, or its cold entry: [`Self::anchor_before`]
    /// the first installer held. The object enters the table, and
    /// stays hot only while something holds it.
    fn anchor_at_front(&mut self, t: TxnSlot, o: ObjectId) {
        let (slot, _) = self.objects.enter(o);
        self.anchor_before(t, slot, 0);
        self.objects.settle(slot);
    }

    /// The final seq of the cold entry `w` left on `o` — the newest
    /// version, or one a later install superseded that the watermark has
    /// not retired — if `w` has left the checker.
    pub(crate) fn cold_seq(&self, w: TxnId, o: ObjectId) -> Option<u32> {
        if self.txns.lookup(w).is_some() {
            return None;
        }
        let cold = self.objects.cold(o);
        cold.filter(|&(writer, _)| writer == w).map(|(_, seq)| seq)
    }

    /// Anchors committed reader `t` at `writer`'s installed version of
    /// `o` ([`Self::anchor_before`] its successor). A `writer` that never
    /// wrote `o` — the stream's say-so, again — installed nothing to
    /// anchor at, and a version the watermark has retired is superseded
    /// before `t` began: a stale tick either way.
    fn anchor_reader(&mut self, t: TxnSlot, o: ObjectId, writer: TxnSlot) {
        let at = self.txns[writer]
            .write_of(o)
            .and_then(|w| Some((w.installed?, w.pos)));
        let at = at.and_then(|(slot, pos)| Some((slot, self.objects[slot].index_of(pos)?)));
        let Some((slot, i)) = at else {
            self.stale_refs += 1;
            return;
        };
        self.anchor_before(t, slot, i + 1);
    }

    /// Anchors committed reader `t` at the version of object `slot` whose
    /// successor, if any, is at index `succ_at` of its installers: emit
    /// the rw edge to that successor if one exists, otherwise register
    /// at the newest version to await one. A version superseded before
    /// `t` began is [retired](Self::retired): a stale tick.
    fn anchor_before(&mut self, t: TxnSlot, slot: ObjSlot, succ_at: usize) {
        let obj = &mut self.objects[slot];
        if let Some(succ) = obj.entries.get(succ_at) {
            if self.retired(t, succ) {
                self.stale_refs += 1;
            } else if succ != t {
                let o = self.objects.key_of(slot);
                self.edge(EdgeKind::Rw, t, succ, o, None);
            }
        } else {
            obj.anchored.push(t);
            self.txns[t].anchors.push(slot);
        }
    }

    /// Whether reader `t`'s read of a version whose successor `succ`
    /// installed is retired: `succ` committed before `t` began, so no
    /// snapshot `t` could have read from holds the version. Such a read
    /// plants no anti-dependency edge — it keeps its wr edge and its
    /// G1a/G1b checks — and ticks `stale_refs`; that is what lets a
    /// transaction the watermark has passed gain no in-edge
    /// (DESIGN.md, "Watermark GC"). Never with collection off.
    fn retired(&self, t: TxnSlot, succ: TxnSlot) -> bool {
        self.gc.config().enabled && self.txns[succ].terminal_clock < self.txns[t].begin_clock
    }

    /// Resolves the readers parked on writer `t`, which just ended —
    /// committed or aborted — as if `t` had ended before each reader
    /// committed, and hands back the drained buffer of `t`'s record at
    /// `idle`.
    fn resolve_pending(&mut self, t: TxnSlot, idle: usize) -> Vec<PendingRead> {
        let mut pending = std::mem::take(&mut self.running[idle].pending_readers);
        for pr in pending.drain(..) {
            self.parked -= 1;
            self.txns[pr.reader].awaiting -= 1;
            self.txns[t].refs -= 1;
            // A literal, not `VersionId::new`: the seq is whatever the
            // stream said, and `new` asserts it is at least 1.
            let read = VersionId {
                txn: self.txns.key_of(t),
                seq: pr.seq,
            };
            self.resolve_ended(pr.reader, t, pr.object, read, pr.via_predicate);
        }
        pending
    }

    fn on_abort(&mut self, t: TxnSlot) {
        if self.txns[t].status != Status::Active {
            return;
        }
        let idle = self.end(t, Status::Aborted);
        // Its own buffered reads die with it: release the writer pins.
        let mut reads = std::mem::take(&mut self.running[idle].reads);
        for br in reads.drain(..) {
            if let Source::Held(w) = br.source {
                self.txns[w].refs -= 1;
                self.unpin(w);
            }
        }
        // Committed readers that observed its versions read aborted
        // data: G1a now, G1b too if the version wasn't the last one.
        let pending = self.resolve_pending(t, idle);
        self.rest(idle, reads, pending);
        self.gc.note_end(self.txns.key_of(t), self.clock);
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
    ///
    /// An edge out of a transaction that is closed and that no live
    /// graph holds is dropped: it has no in-edge and can gain none, so
    /// the edge is on no cycle (DESIGN.md, "Watermark GC").
    fn edge(
        &mut self,
        kind: EdgeKind,
        from: TxnSlot,
        to: TxnSlot,
        object: ObjectId,
        read: Option<VersionId>,
    ) {
        let from_id = self.txns.key_of(from);
        if self.gc.config().enabled
            && gc::closed(&self.txns[from], self.commit_floor)
            && self.lanes.any_live()
            && !self.lanes.holds_node(from_id)
        {
            return;
        }
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
            from: from_id,
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

    /// A read's pin on writer `w` has gone: once none is left on a
    /// transaction a pass has passed, the next pass tries it again.
    fn unpin(&mut self, w: TxnSlot) {
        let t = &self.txns[w];
        if t.refs == 0 && t.passed {
            self.gc.recheck(self.txns.key_of(w));
        }
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
            running: &mut self.running,
            txns: &mut self.txns,
            objects: &mut self.objects,
            lanes: &mut self.lanes,
            prov: &mut self.prov,
        });
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
        let mut e = Enc::new();
        self.snapshot_into(&mut e);
        e.into_bytes()
    }

    /// Writes the [`snapshot`](OnlineChecker::snapshot) image into `e`,
    /// in place: through a [`ByteCount`](crate::wire::ByteCount), its
    /// length.
    pub fn snapshot_into<S: Sink>(&self, e: &mut Enc<S>) {
        snapshot::encode(self, e);
    }

    /// Revives a checker from [`snapshot`] bytes. The image is not
    /// trusted: beyond the checksum, every index, id and derived
    /// counter in it is checked against the rest, so a checker this
    /// returns cannot be made to panic by the image it came from.
    ///
    /// [`snapshot`]: OnlineChecker::snapshot
    pub fn restore(bytes: &[u8]) -> Result<OnlineChecker, SnapshotError> {
        snapshot::decode(bytes, None)
    }

    fn verdict(&self, txn: Option<TxnId>, new_fired: &[PhenomenonKind]) -> Verdict {
        let first = new_fired.first().copied();
        Verdict {
            txn,
            committed: self.committed,
            strongest_ansi: self.strongest_ansi(),
            fired: self.fired.kinds(),
            new_fired: new_fired.to_vec(),
            witness: first.and_then(|k| self.fired.witness_of(k).cloned()),
            witness_id: first.map(|k| self.fired.witness_id(k)),
            cycle: first.and_then(|k| self.fired.cycle_of(k).cloned()),
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
    use crate::keys::{Installers, ObjectState, Readers};
    use crate::testkit::{feed, r, rinit, w};

    #[test]
    fn a_checker_keeps_its_lane_table_off_the_stack() {
        // A server builds, restores and moves a checker on every
        // connection thread, and a thread's stack keeps the deepest
        // frame it ever used. With the lane table inline a checker was
        // 1 544 bytes and recovery's frames were over 4 kB each; boxed,
        // it is under 600. A new inline field must not undo that.
        let size = std::mem::size_of::<OnlineChecker>();
        assert!(size <= 640, "an OnlineChecker is {size} bytes");
    }

    #[test]
    fn rows_keep_no_room_a_finished_transaction_or_a_held_version_does_not_use() {
        use std::mem::size_of;
        // A finished transaction's row has no room for reads, an
        // object's none for a ring while it holds two versions or
        // fewer, nor for a buffer while two readers or fewer are
        // anchored. A slot's
        // niche makes an absent one cost nothing. Debug builds' slots
        // carry a generation tag.
        let tag = size_of::<TxnSlot>() - 4;
        assert_eq!(size_of::<TxnState>(), 80);
        assert_eq!(size_of::<Option<TxnSlot>>(), 4 + tag);
        assert_eq!(size_of::<WriteEntry>(), 16 + tag);
        assert_eq!(size_of::<RunningWrite>(), 8);
        assert_eq!(size_of::<Installers>(), 16 + 2 * tag);
        assert_eq!(size_of::<Readers>(), 16 + 2 * tag);
        assert_eq!(size_of::<ObjectState>(), 56 + 4 * tag);
        assert_eq!(size_of::<crate::provenance::ProvChain>(), 16);
        let mut held = Installers::default();
        let mut table = TxnTable::default();
        let slots: Vec<TxnSlot> = (0..4).map(|i| table.enter(TxnId(i)).0).collect();
        for &t in &slots[..2] {
            held.push_back(t);
        }
        assert!(matches!(held, Installers::Two(..)), "{held:?}");
        for &t in &slots[2..] {
            held.push_back(t);
        }
        assert_eq!(
            (held.len(), held.get(0), held.back()),
            (4, Some(slots[0]), Some(slots[3]))
        );
        assert_eq!(held.pop_front(), Some(slots[0]));
        assert_eq!(held.iter().collect::<Vec<_>>(), &slots[1..]);
    }

    #[test]
    fn a_burst_leaves_an_object_no_more_room_than_a_recycled_buffer() {
        // 100 000 committed readers anchor at an object's initial
        // version; one install resolves them all. Then 100 000 versions
        // of another object pile up behind one open transaction, and go
        // once it ends. Either object lives on, holding the newest
        // version, the first with room for at most `RECYCLED_CAPACITY`
        // entries, the second as a cold row (its writer has left too, so
        // nothing holds it) with no ring at all.
        const N: u32 = 100_000;
        let mut c = OnlineChecker::with_gc(GcConfig {
            enabled: false,
            interval: 1,
        });
        for t in 1..=N {
            feed(&mut c, &[rinit(t, 0), Event::Commit(TxnId(t))]);
        }
        let x = c.objects.lookup(ObjectId(0)).unwrap();
        assert_eq!(c.objects[x].anchored.as_slice().len(), N as usize);
        assert!(c.objects[x].anchored.room() >= N as usize);
        feed(&mut c, &[w(N + 1, 0, 1), Event::Commit(TxnId(N + 1))]);
        assert!(c.objects[x].anchored.as_slice().is_empty());
        assert!(c.objects[x].anchored.room() <= RECYCLED_CAPACITY);

        let mut c = OnlineChecker::with_gc(GcConfig {
            enabled: true,
            interval: u64::MAX, // one pass, at `finish`
        });
        c.ingest(&Event::Begin(TxnId(0)));
        for t in 1..=N {
            feed(&mut c, &[w(t, 1, 1), Event::Commit(TxnId(t))]);
        }
        let y = c.objects.lookup(ObjectId(1)).unwrap();
        assert_eq!(c.objects[y].entries.len(), N as usize);
        assert!(c.objects[y].entries.room() >= N as usize);
        c.finish(); // aborts T0, whose begin held every version
        assert_eq!(c.objects.cold(ObjectId(1)), Some((TxnId(N), 1)));
        assert_eq!(c.objects.base(ObjectId(1)), u64::from(N));
        assert_eq!(c.objects.lookup(ObjectId(1)), None);
    }

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
    fn a_read_of_a_version_superseded_before_its_reader_began_is_retired() {
        // T1 reads y-init, writes x and commits. T2 begins after that,
        // reads x-init — a version T1 superseded before T2 began, as a
        // lagging replica would serve — and writes y. Batch sees write
        // skew (rw T1 -> T2, rw T2 -> T1). Collecting, the checker
        // retires T2's read: a stale tick, no rw edge, no cycle. With
        // collection off nothing retires, and G2 fires as in batch.
        let events = [
            Event::Begin(TxnId(1)),
            rinit(1, 1),
            w(1, 0, 1),
            Event::Commit(TxnId(1)),
            Event::Begin(TxnId(2)),
            rinit(2, 0),
            w(2, 1, 1),
            Event::Commit(TxnId(2)),
        ];
        let mut c = OnlineChecker::new();
        feed(&mut c, &events);
        let end = c.finish();
        assert_eq!((end.stale_refs, end.fired.len()), (1, 0));
        let mut exact = OnlineChecker::with_gc(GcConfig {
            enabled: false,
            interval: 64,
        });
        feed(&mut exact, &events);
        let end = exact.finish();
        assert_eq!(end.stale_refs, 0);
        assert!(end.fired.contains(&PhenomenonKind::G2Item), "{end:?}");
        // Begun before T1 committed, the same read is no retired read.
        let mut c = OnlineChecker::new();
        feed(&mut c, &[Event::Begin(TxnId(2))]);
        feed(&mut c, &events);
        assert!(c.finish().fired.contains(&PhenomenonKind::G2Item));
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
        assert_eq!(c.objects.hot_slots(), 1);
        assert_eq!(c.objects.rows(), (1, true));

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
        let running = c.running_of(&c.txns[t2]).unwrap();
        assert_eq!(
            (running.writes.len(), c.txns[t2].writes.len()),
            (2 * N as usize, 0)
        );
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
