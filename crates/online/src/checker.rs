//! The incremental checker: the transaction and object tables, and
//! the event handlers that keep them — buffering reads until their
//! reader's fate is known, installing versions at commit, parking
//! reads on writers still running. A handler's findings leave it two
//! ways only: G1a/G1b latch directly, and every DSG edge goes through
//! [`OnlineChecker::edge`] onto the commit's plan, which the lane table
//! ([`crate::lanes`]) turns into cycle checks. Pruning is the
//! collector's ([`crate::gc`]), the byte image the snapshot codec's
//! ([`crate::snapshot`]).

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

use adya_core::{IsolationLevel, PhenomenonKind};
use adya_history::{Event, ObjectId, TxnId, VersionId};

use crate::gc::{self, Collector, GcConfig, Heap};
use crate::lanes::{EdgeKind, Lanes, PlannedEdge};
use crate::provenance::{ProvStep, Provenance};
use crate::snapshot::{self, SnapshotError};
use crate::verdict::{Fired, Verdict};

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
    /// Whether this read holds a `refs` pin on its writer.
    pub(crate) counted: bool,
    /// True when the writer was already pruned (or never seen) at
    /// ingest time; resolves to a `stale_refs` tick, never an edge.
    pub(crate) stale: bool,
}

/// A committed reader whose read of a still-active writer's version is
/// parked on that writer until the writer's terminal event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingRead {
    pub(crate) reader: TxnId,
    pub(crate) object: ObjectId,
    pub(crate) seq: u32,
    pub(crate) via_predicate: bool,
}

#[derive(Debug, Default)]
pub(crate) struct TxnState {
    pub(crate) status: Status,
    pub(crate) begin_clock: u64,
    pub(crate) terminal_clock: u64,
    pub(crate) reads: Vec<BufferedRead>,
    /// Last (= highest) write seq per object; kept after the terminal
    /// event for G1a/G1b checks against late-committing readers.
    pub(crate) writes: HashMap<ObjectId, u32>,
    /// Committed readers waiting for this (active) writer's fate.
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
}

#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) txn: TxnId,
    pub(crate) readers: Vec<TxnId>,
}

#[derive(Debug, Default)]
pub(crate) struct ObjectState {
    /// Number of versions pruned off the front of `entries`.
    pub(crate) base: usize,
    /// Committed versions in install (= commit) order.
    pub(crate) entries: VecDeque<Entry>,
    /// Absolute position (`base`-inclusive) of each installer.
    pub(crate) pos_of: HashMap<TxnId, usize>,
    /// Committed readers anchored before the first version.
    pub(crate) init_readers: Vec<TxnId>,
}

/// The streaming checker. See the crate docs for scope and semantics.
#[derive(Debug, Default)]
pub struct OnlineChecker {
    pub(crate) clock: u64,
    pub(crate) txns: HashMap<TxnId, TxnState>,
    pub(crate) active: HashSet<TxnId>,
    pub(crate) objects: HashMap<ObjectId, ObjectState>,
    /// The cycle graphs, one per edge filter.
    pub(crate) lanes: Lanes,
    pub(crate) fired: Fired,
    /// The concrete operations behind each live DSG edge, while
    /// provenance tracking is on.
    pub(crate) prov: Provenance,
    /// Telemetry sampling period: every Nth ingested event gets full
    /// span/phase attribution (apply → graph insert → verdict → GC).
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

    /// Whether edge provenance is being tracked.
    pub fn provenance_enabled(&self) -> bool {
        self.prov.enabled()
    }

    /// Turns sampled per-event telemetry on (`every` ≥ 1: every Nth
    /// event is attributed phase by phase — apply span, graph-insert
    /// and cycle-materialization histograms, verdict and GC child
    /// spans — into the global obs registry) or off (`every` = 0, the
    /// default). Sampling exists for the same reason provenance is
    /// opt-in: E17 holds the fully-on plane to ≤10% ingest overhead,
    /// and per-event spans alone would not fit that budget.
    pub fn set_telemetry_sampling(&mut self, every: u32) {
        self.telemetry_every = every;
    }

    /// The telemetry sampling period (0 = off).
    pub fn telemetry_sampling(&self) -> u32 {
        self.telemetry_every
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
        let _apply_span = self.sampled_now.then(|| adya_obs::span!("online.apply_ns"));
        let verdict = match event {
            Event::Begin(t) => {
                self.ensure_txn(*t);
                None
            }
            Event::Write(w) => {
                self.on_write(w.txn, w.object, w.seq);
                None
            }
            Event::Read(r) => {
                self.on_read(r.txn, r.object, r.version, false);
                None
            }
            Event::PredicateRead(p) => {
                for &(o, v) in &p.vset {
                    self.on_read(p.txn, o, v, true);
                }
                None
            }
            Event::Commit(t) => Some(self.on_commit(*t)),
            Event::Abort(t) => {
                self.on_abort(*t);
                None
            }
        };
        self.maybe_gc();
        self.lanes.sync_reorder_counter();
        verdict
    }

    /// Feeds a batch of events in order, returning the verdict of
    /// every commit in the batch. Emits the *identical* verdict stream
    /// that per-event [`ingest`] calls would: batching here buys the
    /// pipeline one application-stage call per batch (instead of one
    /// lock acquisition per event), and each commit inside the batch
    /// already applies its DSG edges through the amortized per-graph
    /// [`IncrementalDag::insert_edges`](adya_graph::IncrementalDag::insert_edges) path.
    ///
    /// [`ingest`]: OnlineChecker::ingest
    pub fn ingest_batch(&mut self, events: &[Event]) -> Vec<Verdict> {
        let mut out = Vec::new();
        for ev in events {
            if let Some(v) = self.ingest(ev) {
                out.push(v);
            }
        }
        out
    }

    /// Completes the stream: still-active transactions are aborted (in
    /// ascending id order — the paper's completion rule) and the final
    /// verdict over the whole stream is returned.
    pub fn finish(&mut self) -> Verdict {
        let mut open: Vec<TxnId> = self.active.iter().copied().collect();
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

    fn ensure_txn(&mut self, t: TxnId) {
        if self.txns.contains_key(&t) {
            return;
        }
        self.txns.insert(
            t,
            TxnState {
                begin_clock: self.clock,
                ..TxnState::default()
            },
        );
        self.active.insert(t);
    }

    fn on_write(&mut self, t: TxnId, o: ObjectId, seq: u32) {
        self.ensure_txn(t);
        let txn = self.txns.get_mut(&t).expect("just ensured");
        if txn.status != Status::Active {
            return; // write after terminal: ill-formed, ignore
        }
        let e = txn.writes.entry(o).or_insert(0);
        *e = (*e).max(seq);
    }

    fn on_read(&mut self, t: TxnId, o: ObjectId, v: VersionId, via_predicate: bool) {
        self.ensure_txn(t);
        if self.txns[&t].status != Status::Active {
            return;
        }
        let mut counted = false;
        let mut stale = false;
        if !v.is_init() && v.txn != t {
            match self.txns.get_mut(&v.txn) {
                Some(w) => {
                    w.refs += 1;
                    counted = true;
                }
                None => stale = true,
            }
            if counted {
                self.settle(v.txn); // a new pin unsettles a finished writer
            }
        }
        self.txns
            .get_mut(&t)
            .expect("just ensured")
            .reads
            .push(BufferedRead {
                object: o,
                version: v,
                via_predicate,
                counted,
                stale,
            });
    }

    fn on_commit(&mut self, t: TxnId) -> Verdict {
        let started = Instant::now();
        let before = self.fired.mask;
        self.ensure_txn(t);
        if self.txns[&t].status != Status::Active {
            return self.verdict(Some(t), &[]);
        }
        {
            let txn = self.txns.get_mut(&t).expect("ensured");
            txn.status = Status::Committed;
            txn.terminal_clock = self.clock;
        }
        self.active.remove(&t);
        self.committed += 1;

        let _verdict_span = self
            .sampled_now
            .then(|| adya_obs::span!("online.verdict_ns"));
        self.install_writes(t);
        let reads = std::mem::take(&mut self.txns.get_mut(&t).expect("ensured").reads);
        for br in reads {
            self.resolve_read(t, br);
        }
        let pending = std::mem::take(&mut self.txns.get_mut(&t).expect("ensured").pending_readers);
        for pr in pending {
            self.resolve_pending(t, pr);
        }
        self.settle(t);
        self.apply_edge_plan();

        let v = self.verdict(Some(t), &Fired::kinds_in(self.fired.mask & !before));
        adya_obs::histogram!("online.verdict_latency").record(started.elapsed().as_nanos() as u64);
        v
    }

    /// Installs `t`'s final versions in object-id order: appends the
    /// entry, adds the ww edge from the previous installer, and
    /// resolves readers anchored at the previous tip into rw edges.
    fn install_writes(&mut self, t: TxnId) {
        let mut objs: Vec<ObjectId> = self.txns[&t].writes.keys().copied().collect();
        objs.sort_unstable_by_key(|o| o.0);
        for o in objs {
            let clock = self.clock;
            let obj = self.objects.entry(o).or_default();
            let (prev, resolved) = match obj.entries.back_mut() {
                Some(last) => (Some(last.txn), std::mem::take(&mut last.readers)),
                None => (None, std::mem::take(&mut obj.init_readers)),
            };
            obj.entries.push_back(Entry {
                txn: t,
                readers: Vec::new(),
            });
            let pos = obj.base + obj.entries.len() - 1;
            obj.pos_of.insert(t, pos);
            if let Some(p) = prev {
                let w = self.txns.get_mut(&p).expect("installed entry implies live");
                w.unsuperseded -= 1;
                w.prune_after = w.prune_after.max(clock);
                self.settle(p);
                self.edge(EdgeKind::Ww, p, t, o, None);
            }
            for r in resolved {
                self.txns
                    .get_mut(&r)
                    .expect("registered reader is live")
                    .registered -= 1;
                self.settle(r);
                if r != t {
                    self.edge(EdgeKind::Rw, r, t, o, None);
                }
            }
            let me = self.txns.get_mut(&t).expect("committing txn");
            me.unsuperseded += 1;
            me.behind += u32::from(prev.is_some());
        }
    }

    /// Resolves one buffered read of the just-committed reader `t`.
    fn resolve_read(&mut self, t: TxnId, br: BufferedRead) {
        if br.stale {
            self.stale_refs += 1;
            return;
        }
        let (o, v) = (br.object, br.version);
        if v.is_init() {
            if br.via_predicate {
                return; // vset entries carry no edges
            }
            let obj = self.objects.entry(o).or_default();
            if obj.base > 0 {
                // The init version's successor was pruned; the rw edge
                // it would anchor is unknowable.
                self.stale_refs += 1;
                return;
            }
            match obj.entries.front().map(|e| e.txn) {
                Some(succ) => {
                    if succ != t {
                        self.edge(EdgeKind::Rw, t, succ, o, None);
                    }
                }
                None => {
                    obj.init_readers.push(t);
                    self.txns.get_mut(&t).expect("committing txn").registered += 1;
                }
            }
            return;
        }
        if v.txn == t {
            // Own read: no read-dependency, no G1a/G1b, but it anchors
            // at the own entry exactly like the batch checker's
            // `order_anchor`, so a later overwrite emits t → successor.
            if br.via_predicate {
                return;
            }
            self.anchor_reader(t, o, v.txn);
            return;
        }
        let status = match self.txns.get(&v.txn) {
            Some(w) => w.status,
            None => {
                self.stale_refs += 1; // writer pruned since ingest — defensive
                return;
            }
        };
        match status {
            Status::Active => {
                self.txns
                    .get_mut(&v.txn)
                    .expect("checked above")
                    .pending_readers
                    .push(PendingRead {
                        reader: t,
                        object: o,
                        seq: v.seq,
                        via_predicate: br.via_predicate,
                    });
                self.txns.get_mut(&t).expect("committing txn").awaiting += 1;
                // The `refs` pin stays held until the writer resolves.
            }
            Status::Aborted => {
                let w = self.txns.get_mut(&v.txn).expect("checked above");
                if br.counted {
                    w.refs -= 1;
                }
                let final_seq = w.writes.get(&o).copied();
                self.settle(v.txn);
                self.fired.aborted_read(t, o, v, br.via_predicate);
                match final_seq {
                    Some(fs) if fs != v.seq => {
                        self.fired.intermediate_read(t, o, v, fs, br.via_predicate)
                    }
                    Some(_) => {}
                    None => self.stale_refs += 1, // read of a never-written version
                }
            }
            Status::Committed => {
                let w = self.txns.get_mut(&v.txn).expect("checked above");
                if br.counted {
                    w.refs -= 1;
                }
                let final_seq = w.writes.get(&o).copied();
                self.settle(v.txn);
                let Some(final_seq) = final_seq else {
                    self.stale_refs += 1;
                    return;
                };
                if v.seq != final_seq {
                    self.fired
                        .intermediate_read(t, o, v, final_seq, br.via_predicate);
                }
                if br.via_predicate {
                    return;
                }
                self.edge(EdgeKind::Wr, v.txn, t, o, Some(v));
                self.anchor_reader(t, o, v.txn);
            }
        }
    }

    /// Anchors committed reader `t` at `writer`'s installed version of
    /// `o`: emit the rw edge to the successor if one exists, otherwise
    /// register at the entry to await one.
    fn anchor_reader(&mut self, t: TxnId, o: ObjectId, writer: TxnId) {
        let obj = self.objects.get_mut(&o).expect("writer installed on o");
        let pos = *obj.pos_of.get(&writer).expect("committed writer has entry");
        let idx = pos - obj.base;
        if idx + 1 < obj.entries.len() {
            let succ = obj.entries[idx + 1].txn;
            if succ != t {
                self.edge(EdgeKind::Rw, t, succ, o, None);
            }
        } else {
            obj.entries[idx].readers.push(t);
            self.txns.get_mut(&t).expect("committed reader").registered += 1;
        }
    }

    /// Resolves readers parked on writer `t`, which just committed.
    fn resolve_pending(&mut self, t: TxnId, pr: PendingRead) {
        self.txns
            .get_mut(&pr.reader)
            .expect("pending reader is pinned")
            .awaiting -= 1;
        {
            let w = self.txns.get_mut(&t).expect("committing txn");
            w.refs -= 1;
        }
        // As when the writer had committed before the reader: a read
        // of a version its writer never wrote resolves to a stale tick.
        let Some(&final_seq) = self.txns[&t].writes.get(&pr.object) else {
            self.stale_refs += 1;
            self.settle(pr.reader);
            return;
        };
        // A literal, not `VersionId::new`: the seq is whatever the stream
        // said, and `new` asserts it is at least 1.
        let read = VersionId {
            txn: t,
            seq: pr.seq,
        };
        if pr.seq != final_seq {
            self.fired
                .intermediate_read(pr.reader, pr.object, read, final_seq, pr.via_predicate);
        }
        if !pr.via_predicate {
            self.edge(EdgeKind::Wr, t, pr.reader, pr.object, Some(read));
            self.anchor_reader(pr.reader, pr.object, t);
        }
        self.settle(pr.reader);
    }

    fn on_abort(&mut self, t: TxnId) {
        self.ensure_txn(t);
        if self.txns[&t].status != Status::Active {
            return;
        }
        {
            let txn = self.txns.get_mut(&t).expect("ensured");
            txn.status = Status::Aborted;
            txn.terminal_clock = self.clock;
        }
        self.active.remove(&t);
        // Its own buffered reads die with it: release the writer pins.
        let reads = std::mem::take(&mut self.txns.get_mut(&t).expect("ensured").reads);
        for br in reads {
            if br.counted {
                self.txns
                    .get_mut(&br.version.txn)
                    .expect("pinned writer is live")
                    .refs -= 1;
                self.settle(br.version.txn);
            }
        }
        // Committed readers that observed its versions read aborted
        // data: G1a now, G1b too if the version wasn't the last one.
        let pending = std::mem::take(&mut self.txns.get_mut(&t).expect("ensured").pending_readers);
        for pr in pending {
            self.txns
                .get_mut(&pr.reader)
                .expect("pending reader")
                .awaiting -= 1;
            self.settle(pr.reader);
            self.txns.get_mut(&t).expect("ensured").refs -= 1;
            let v = VersionId {
                txn: t,
                seq: pr.seq,
            };
            self.fired
                .aborted_read(pr.reader, pr.object, v, pr.via_predicate);
            match self.txns[&t].writes.get(&pr.object).copied() {
                Some(fs) if fs != pr.seq => {
                    self.fired
                        .intermediate_read(pr.reader, pr.object, v, fs, pr.via_predicate)
                }
                Some(_) => {}
                None => self.stale_refs += 1, // read of a never-written version
            }
        }
        self.settle(t);
    }

    // ------------------------------------------------------------------
    // The edges seam
    // ------------------------------------------------------------------

    /// Queues one DSG edge discovered during commit resolution — the
    /// only way a handler says "these two transactions conflict". The
    /// plan is applied by [`Self::apply_edge_plan`] at the end of the
    /// commit, with results replayed in exactly this discovery order.
    fn edge(
        &mut self,
        kind: EdgeKind,
        from: TxnId,
        to: TxnId,
        object: ObjectId,
        read: Option<VersionId>,
    ) {
        self.plan.push(PlannedEdge {
            kind,
            from,
            to,
            object,
            read,
        });
    }

    /// Hands the commit's planned edges to the lane table (see
    /// [`Lanes::apply`]). The operation an edge cites is the version
    /// read, or else the final version its writer installed.
    fn apply_edge_plan(&mut self) {
        if self.plan.is_empty() {
            return;
        }
        let txns = &self.txns;
        let cite = |e: &PlannedEdge| {
            let version = e.read.or_else(|| {
                let writer = e.kind.writer(e.from, e.to);
                let seq = txns.get(&writer)?.writes.get(&e.object)?;
                Some(VersionId {
                    txn: writer,
                    seq: *seq,
                })
            })?;
            Some(ProvStep {
                kind: e.kind,
                object: e.object,
                version,
            })
        };
        self.lanes.apply(
            &self.plan,
            &mut self.fired,
            &mut self.prov,
            self.sampled_now,
            cite,
        );
        self.plan.clear();
    }

    // ------------------------------------------------------------------
    // Garbage collection (see `crate::gc`)
    // ------------------------------------------------------------------

    /// Tells the collector that one of the counters `id`'s
    /// prunability reads has moved (or that `id` is gone).
    fn settle(&mut self, id: TxnId) {
        self.gc.settle(id, self.txns.get(&id));
    }

    fn maybe_gc(&mut self) {
        if !self.gc.due() {
            return;
        }
        let _gc_span = (self.telemetry_every != 0).then(|| adya_obs::span!("online.gc_ns"));
        self.run_gc();
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

    // ------------------------------------------------------------------
    // Crash/restore snapshots (see `crate::snapshot`)
    // ------------------------------------------------------------------

    /// Freezes the checker's complete state — clocks, transaction and
    /// object tables, all three incremental graphs, latched phenomena
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
