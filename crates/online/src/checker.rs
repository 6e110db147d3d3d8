//! The incremental checker: event ingestion, incremental DSG
//! maintenance, commit-time verdicts and low-watermark GC.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::ops::Bound::{Excluded, Unbounded};
use std::time::Instant;

use adya_core::{IsolationLevel, PhenomenonKind};
use adya_graph::{DagParts, IncrementalDag, Insert, SlotParts};
use adya_history::{Event, ObjectId, TxnId, VersionId};
use adya_obs::json::write_escaped;

use crate::wire::{crc32, Dec, Enc, WireError};

/// Edge label in the incremental graphs: a tiny mask rather than a
/// full `DepKind`, because contraction (GC shortcut edges) must be
/// able to *combine* labels — a shortcut inherits "contains an
/// anti-dependency" from whichever side had one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct EdgeMask(u8);

impl EdgeMask {
    /// ww or wr — a dependency edge.
    const DEP: EdgeMask = EdgeMask(0);
    /// rw — an item anti-dependency edge (possibly via shortcuts).
    const ANTI_ITEM: EdgeMask = EdgeMask(1);

    fn combine(a: EdgeMask, b: EdgeMask) -> EdgeMask {
        EdgeMask(a.0 | b.0)
    }

    fn has_item_anti(self) -> bool {
        self.0 & 1 != 0
    }
}

/// Provenance step kinds (wire-stable codes).
const PROV_WW: u8 = 0;
const PROV_WR: u8 = 1;
const PROV_RW: u8 = 2;

/// Most inducing operations remembered per DSG edge. Contraction
/// concatenates chains, so a cap keeps shortcut provenance bounded.
const PROV_CAP: usize = 8;

/// One concrete operation that induced (part of) a DSG edge: the
/// conflict kind plus the object/version it happened on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProvStep {
    kind: u8,
    object: ObjectId,
    version: VersionId,
}

impl ProvStep {
    fn render(&self) -> String {
        let k = match self.kind {
            PROV_WW => "ww",
            PROV_WR => "wr",
            _ => "rw",
        };
        format!("{k} {}[{}]", self.object, self.version)
    }
}

/// A per-edge provenance chain. Nearly every edge is induced by one
/// operation, so the single-step case is stored inline — a heap
/// allocation per edge key showed up as the bulk of E16's hot-path
/// overhead. Chains only spill to a `Vec` when a second distinct
/// operation (or a contraction merge) lands on the same edge.
#[derive(Debug, Clone, PartialEq)]
enum ProvChain {
    One(ProvStep),
    Many(Vec<ProvStep>),
}

impl ProvChain {
    fn steps(&self) -> &[ProvStep] {
        match self {
            ProvChain::One(s) => std::slice::from_ref(s),
            ProvChain::Many(v) => v,
        }
    }

    /// Appends `st` if the chain has room and doesn't already hold it.
    fn push(&mut self, st: ProvStep) {
        match self {
            ProvChain::One(s) => {
                if *s != st {
                    *self = ProvChain::Many(vec![*s, st]);
                }
            }
            ProvChain::Many(v) => {
                if v.len() < PROV_CAP && !v.contains(&st) {
                    v.push(st);
                }
            }
        }
    }

    fn from_steps(steps: Vec<ProvStep>) -> ProvChain {
        match steps.as_slice() {
            [one] => ProvChain::One(*one),
            _ => ProvChain::Many(steps),
        }
    }
}

fn render_chain(chain: &[ProvStep]) -> String {
    let mut s = String::new();
    for (i, st) in chain.iter().enumerate() {
        if i > 0 {
            s.push_str("; ");
        }
        s.push_str(&st.render());
    }
    s
}

/// Multiplicative hasher for the provenance maps, whose keys are one
/// or two transaction ids — small, fixed-width, attacker-free. The
/// std SipHash showed up as a measurable share of E16's per-edge
/// overhead; this is the usual FxHash recipe.
#[derive(Debug, Default)]
struct ProvHasher(u64);

impl std::hash::Hasher for ProvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(v)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type ProvMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<ProvHasher>>;

/// One edge of a violating cycle with its provenance, as attached to a
/// [`Verdict`] when the phenomenon fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleEdgeProv {
    /// Depended-on transaction.
    pub from: TxnId,
    /// Depending transaction.
    pub to: TxnId,
    /// True when the edge carries an item anti-dependency (rw),
    /// possibly via GC contraction shortcuts.
    pub anti: bool,
    /// The concrete inducing operations, rendered `kind obj[version]`
    /// and `; `-joined; empty when provenance was disabled or the chain
    /// ran through pruned state.
    pub via: String,
}

/// Garbage-collection policy for the checker.
#[derive(Debug, Clone, Copy)]
pub struct GcConfig {
    /// Master switch; disabled means the checker keeps every
    /// transaction forever (exact batch behaviour, unbounded memory).
    pub enabled: bool,
    /// Run a collection pass every this-many ingested events.
    pub interval: u64,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            enabled: true,
            interval: 64,
        }
    }
}

/// The commit-time (or final) answer of the online checker.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The transaction whose commit produced this verdict; `None` for
    /// the final verdict from [`OnlineChecker::finish`].
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
    /// Transactions pruned by the GC so far.
    pub pruned_txns: u64,
    /// Reads that referenced an already-pruned (or never-seen) writer:
    /// when non-zero the verdict may be weaker than a batch check of
    /// the full history — flagged, never silent.
    pub stale_refs: u64,
    /// Transactions currently held in memory.
    pub live_txns: usize,
    /// True for the verdict returned by [`OnlineChecker::finish`].
    pub is_final: bool,
}

impl Verdict {
    /// True when none of `level`'s proscribed phenomena have fired.
    pub fn satisfies(&self, level: IsolationLevel) -> bool {
        level.admits(|k| self.fired.contains(&k))
    }

    /// Renders the verdict as a single-line JSON object (NDJSON-ready).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        match self.txn {
            Some(t) => {
                let _ = write!(s, "\"txn\": {}", t.0);
            }
            None => s.push_str("\"txn\": null"),
        }
        let _ = write!(s, ", \"final\": {}", self.is_final);
        let _ = write!(s, ", \"committed\": {}", self.committed);
        match self.strongest_ansi {
            Some(l) => {
                let _ = write!(s, ", \"strongest_ansi\": \"{l}\"");
            }
            None => s.push_str(", \"strongest_ansi\": null"),
        }
        for (key, kinds) in [("fired", &self.fired), ("new", &self.new_fired)] {
            let _ = write!(s, ", \"{key}\": [");
            for (i, k) in kinds.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{k}\"");
            }
            s.push(']');
        }
        for (key, text) in [("witness", &self.witness), ("witness_id", &self.witness_id)] {
            let _ = write!(s, ", \"{key}\": ");
            match text {
                Some(t) => {
                    s.push('"');
                    write_escaped(&mut s, t);
                    s.push('"');
                }
                None => s.push_str("null"),
            }
        }
        match &self.cycle {
            Some(c) => {
                s.push_str(", \"cycle\": [");
                for (i, e) in c.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(
                        s,
                        "{{\"from\": {}, \"to\": {}, \"label\": \"{}\", \"via\": \"",
                        e.from.0,
                        e.to.0,
                        if e.anti { "rw" } else { "ww/wr" },
                    );
                    write_escaped(&mut s, &e.via);
                    s.push_str("\"}");
                }
                s.push(']');
            }
            None => s.push_str(", \"cycle\": null"),
        }
        let _ = write!(
            s,
            ", \"pruned\": {}, \"stale_refs\": {}, \"live_txns\": {}}}",
            self.pruned_txns, self.stale_refs, self.live_txns
        );
        s
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Status {
    #[default]
    Active,
    Committed,
    Aborted,
}

/// A read buffered on its (still-active) reader until the reader's
/// terminal event decides whether it produces conflicts at all.
#[derive(Debug, Clone, Copy)]
struct BufferedRead {
    object: ObjectId,
    version: VersionId,
    via_predicate: bool,
    /// Whether this read holds a `refs` pin on its writer.
    counted: bool,
    /// True when the writer was already pruned (or never seen) at
    /// ingest time; resolves to a `stale_refs` tick, never an edge.
    stale: bool,
}

/// A committed reader whose read of a still-active writer's version is
/// parked on that writer until the writer's terminal event.
#[derive(Debug, Clone, Copy)]
struct PendingRead {
    reader: TxnId,
    object: ObjectId,
    seq: u32,
    via_predicate: bool,
}

#[derive(Debug, Default)]
struct TxnState {
    status: Status,
    begin_clock: u64,
    terminal_clock: u64,
    reads: Vec<BufferedRead>,
    /// Last (= highest) write seq per object; kept after the terminal
    /// event for G1a/G1b checks against late-committing readers.
    writes: HashMap<ObjectId, u32>,
    /// Committed readers waiting for this (active) writer's fate.
    pending_readers: Vec<PendingRead>,
    /// Installed versions not yet superseded by a later install.
    unsuperseded: u32,
    /// Buffered or pending reads by live transactions that reference
    /// this transaction as a writer.
    refs: u32,
    /// This (committed) transaction's own reads parked on still-active
    /// writers.
    awaiting: u32,
    /// How many version-order anchors this committed reader occupies,
    /// each of which will emit an rw edge when a successor installs.
    registered: u32,
    /// Clock of the latest install superseding one of this
    /// transaction's versions; prunable only once every active
    /// transaction began after it.
    prune_after: u64,
    /// Installed versions that are not yet the oldest surviving
    /// version of their object — the prefix rule as a counter. Derived
    /// from the object table (rebuilt by `restore`, never serialised).
    behind: u32,
}

/// The collector's candidate filter: `t` has had its terminal event
/// and nothing pins it — no buffered or parked read references it and
/// none of its own reads is parked or anchored.
fn unpinned(t: &TxnState) -> bool {
    t.status != Status::Active
        && t.refs == 0
        && t.awaiting == 0
        && t.registered == 0
        && t.pending_readers.is_empty()
}

/// The count conditions of prunability: [`unpinned`], every version
/// `t` installed has been superseded, and each is the oldest left of
/// its object. These are exactly the conditions that move by counter
/// updates, so [`OnlineChecker::settle`] tracks them incrementally;
/// what is left — the watermark and removability from the graphs —
/// is asked by `try_prune` on every visit.
fn settled(t: &TxnState) -> bool {
    unpinned(t) && t.unsuperseded == 0 && t.behind == 0
}

#[derive(Debug)]
struct Entry {
    txn: TxnId,
    readers: Vec<TxnId>,
}

#[derive(Debug, Default)]
struct ObjectState {
    /// Number of versions pruned off the front of `entries`.
    base: usize,
    /// Committed versions in install (= commit) order.
    entries: VecDeque<Entry>,
    /// Absolute position (`base`-inclusive) of each installer.
    pos_of: HashMap<TxnId, usize>,
    /// Committed readers anchored before the first version.
    init_readers: Vec<TxnId>,
}

/// Which phenomena have latched, with the first witness of each.
#[derive(Debug, Default)]
struct Fired {
    mask: u8,
    witnesses: Vec<(PhenomenonKind, String)>,
    /// Cycle provenance captured at first fire, per phenomenon.
    cycles: Vec<(PhenomenonKind, Vec<CycleEdgeProv>)>,
}

const ONLINE_KINDS: [PhenomenonKind; 6] = [
    PhenomenonKind::G0,
    PhenomenonKind::G1a,
    PhenomenonKind::G1b,
    PhenomenonKind::G1c,
    PhenomenonKind::G2Item,
    PhenomenonKind::G2,
];

fn kind_bit(k: PhenomenonKind) -> u8 {
    match k {
        PhenomenonKind::G0 => 1,
        PhenomenonKind::G1a => 2,
        PhenomenonKind::G1b => 4,
        PhenomenonKind::G1c => 8,
        PhenomenonKind::G2Item => 16,
        PhenomenonKind::G2 => 32,
        _ => 0,
    }
}

fn kind_from_bit(b: u8) -> Option<PhenomenonKind> {
    ONLINE_KINDS.iter().copied().find(|&k| kind_bit(k) == b)
}

impl Fired {
    fn has(&self, k: PhenomenonKind) -> bool {
        self.mask & kind_bit(k) != 0
    }

    fn set(&mut self, k: PhenomenonKind, witness: String) -> bool {
        if self.has(k) {
            return false;
        }
        self.mask |= kind_bit(k);
        self.witnesses.push((k, witness));
        true
    }

    fn set_cycle(&mut self, k: PhenomenonKind, cycle: Vec<CycleEdgeProv>) {
        if !cycle.is_empty() && !self.cycles.iter().any(|(ck, _)| *ck == k) {
            self.cycles.push((k, cycle));
        }
    }

    fn cycle_of(&self, k: PhenomenonKind) -> Option<&Vec<CycleEdgeProv>> {
        self.cycles.iter().find(|(ck, _)| *ck == k).map(|(_, c)| c)
    }

    fn kinds(&self) -> Vec<PhenomenonKind> {
        ONLINE_KINDS
            .iter()
            .copied()
            .filter(|&k| self.has(k))
            .collect()
    }
}

type Dag = IncrementalDag<TxnId, EdgeMask>;

/// One DSG edge discovered while resolving a commit, queued for
/// batched application to the cycle graphs (see
/// [`OnlineChecker::apply_edge_plan`]).
#[derive(Debug, Clone, Copy)]
enum PlannedEdge {
    /// Write dependency `from → to`: `to` overwrote `from`'s version
    /// of `object`.
    Ww {
        from: TxnId,
        to: TxnId,
        object: ObjectId,
    },
    /// Read dependency `from → to`: `to` read `version` of `object`
    /// written by `from`.
    Wr {
        from: TxnId,
        to: TxnId,
        object: ObjectId,
        version: VersionId,
    },
    /// Item anti-dependency `from → to`: `to` overwrote a version
    /// of `object` that `from` read.
    Anti {
        from: TxnId,
        to: TxnId,
        object: ObjectId,
    },
}

/// The streaming checker. See the crate docs for scope and semantics.
#[derive(Debug, Default)]
pub struct OnlineChecker {
    clock: u64,
    txns: HashMap<TxnId, TxnState>,
    active: HashSet<TxnId>,
    /// The GC's eligibility index: exactly the transactions for which
    /// [`settled`] holds, in id order. Derived state — kept current by
    /// [`Self::settle`] wherever a counter moves, rebuilt by
    /// [`Self::restore`], never serialised.
    ready: BTreeSet<TxnId>,
    /// Test reference: collection passes scan the whole transaction
    /// table for candidates instead of walking `ready`.
    #[cfg(any(test, debug_assertions))]
    gc_by_scan: bool,
    objects: HashMap<ObjectId, ObjectState>,
    /// ww edges only — a cycle here is G0. Dropped once G0 latches.
    ww: Option<Dag>,
    /// ww + wr — a cycle here is G1c. Dropped once G1c latches.
    dep: Option<Dag>,
    /// ww + wr + rw — a component with an internal anti edge is
    /// G2/G2-item. Dropped once both latch.
    full: Option<Dag>,
    fired: Fired,
    /// Per-edge provenance side map: the concrete operations behind
    /// each live DSG edge. Maintained only while `provenance` is on
    /// and at least one graph is still live; entries touching a pruned
    /// transaction are merged into contraction shortcuts, then purged.
    prov: ProvMap<(TxnId, TxnId), ProvChain>,
    /// Successors per source node of `prov` keys — lets a GC prune
    /// purge a node's entries in O(degree) instead of scanning the map.
    prov_out: ProvMap<TxnId, Vec<TxnId>>,
    /// Predecessors per target node of `prov` keys.
    prov_in: ProvMap<TxnId, Vec<TxnId>>,
    /// Master switch for edge provenance (off by default; see E16 for
    /// the measured overhead).
    provenance: bool,
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
    gc: GcConfig,
    committed: u64,
    pruned_txns: u64,
    stale_refs: u64,
    events_since_gc: u64,
    /// Reorder counts of already-dropped graphs.
    reorders_dropped: u64,
    reorders_reported: u64,
    /// The current commit's edge plan, in sequential discovery order.
    /// Always empty between events (so it never needs snapshotting);
    /// held on the checker only to reuse its allocation across
    /// commits.
    plan: Vec<PlannedEdge>,
    /// Per-graph batch buffers for [`Self::apply_edge_plan`], reused
    /// across commits like `plan`.
    batch_ww: Vec<(TxnId, TxnId, EdgeMask)>,
    batch_dep: Vec<(TxnId, TxnId, EdgeMask)>,
    batch_full: Vec<(TxnId, TxnId, EdgeMask)>,
}

impl OnlineChecker {
    /// A checker with default GC (enabled, interval 64).
    pub fn new() -> OnlineChecker {
        OnlineChecker::with_gc(GcConfig::default())
    }

    /// A checker with an explicit GC policy.
    pub fn with_gc(gc: GcConfig) -> OnlineChecker {
        OnlineChecker {
            ww: Some(IncrementalDag::new()),
            dep: Some(IncrementalDag::new()),
            full: Some(IncrementalDag::new()),
            gc,
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
        self.provenance = on;
        if !on {
            self.prov.clear();
            self.prov_out.clear();
            self.prov_in.clear();
        }
    }

    /// Whether edge provenance is being tracked.
    pub fn provenance_enabled(&self) -> bool {
        self.provenance
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
        self.clock - self.watermark()
    }

    /// The GC low watermark: the earliest begin of any active
    /// transaction, else the clock. Nothing that ended or was
    /// superseded after it may be pruned yet.
    fn watermark(&self) -> u64 {
        self.active
            .iter()
            .map(|t| self.txns[t].begin_clock)
            .min()
            .unwrap_or(self.clock)
    }

    /// Approximate heap footprint of the provenance side maps, in
    /// bytes (capacity-based, so it reflects reserved memory, not just
    /// live entries). Zero when provenance is off.
    pub fn provenance_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes =
            self.prov.capacity() * (size_of::<(TxnId, TxnId)>() + size_of::<ProvChain>());
        for c in self.prov.values() {
            if let ProvChain::Many(v) = c {
                bytes += v.capacity() * size_of::<ProvStep>();
            }
        }
        for side in [&self.prov_out, &self.prov_in] {
            bytes += side.capacity() * (size_of::<TxnId>() + size_of::<Vec<TxnId>>());
            for v in side.values() {
                bytes += v.capacity() * size_of::<TxnId>();
            }
        }
        bytes
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
        self.pruned_txns
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
        self.sync_reorder_counter();
        verdict
    }

    /// Feeds a batch of events in order, returning the verdict of
    /// every commit in the batch. Emits the *identical* verdict stream
    /// that per-event [`ingest`] calls would: batching here buys the
    /// pipeline one application-stage call per batch (instead of one
    /// lock acquisition per event), and each commit inside the batch
    /// already applies its DSG edges through the amortized per-graph
    /// [`IncrementalDag::insert_edges`] path.
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
        if self.gc.enabled {
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

        let new_bits = self.fired.mask & !before;
        let v = self.verdict(
            Some(t),
            &ONLINE_KINDS
                .iter()
                .copied()
                .filter(|&k| new_bits & kind_bit(k) != 0)
                .collect::<Vec<_>>(),
        );
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
                self.add_ww(p, t, o);
            }
            for r in resolved {
                self.txns
                    .get_mut(&r)
                    .expect("registered reader is live")
                    .registered -= 1;
                self.settle(r);
                if r != t {
                    self.add_anti(r, t, o);
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
                        self.add_anti(t, succ, o);
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
                self.fire_g1a(t, o, v, br.via_predicate);
                match final_seq {
                    Some(fs) if fs != v.seq => self.fire_g1b(t, o, v, fs, br.via_predicate),
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
                    self.fire_g1b(t, o, v, final_seq, br.via_predicate);
                }
                if br.via_predicate {
                    return;
                }
                self.add_wr(v.txn, t, o, v);
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
                self.add_anti(t, succ, o);
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
        let final_seq = self.txns[&t].writes[&pr.object];
        if pr.seq != final_seq {
            self.fire_g1b(
                pr.reader,
                pr.object,
                VersionId::new(t, pr.seq),
                final_seq,
                pr.via_predicate,
            );
        }
        if !pr.via_predicate {
            self.add_wr(t, pr.reader, pr.object, VersionId::new(t, pr.seq));
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
            let v = VersionId::new(t, pr.seq);
            self.fire_g1a(pr.reader, pr.object, v, pr.via_predicate);
            let final_seq = self.txns[&t].writes[&pr.object];
            if pr.seq != final_seq {
                self.fire_g1b(pr.reader, pr.object, v, final_seq, pr.via_predicate);
            }
        }
        self.settle(t);
    }

    // ------------------------------------------------------------------
    // Phenomena
    // ------------------------------------------------------------------

    fn fire_g1a(&mut self, reader: TxnId, o: ObjectId, v: VersionId, via_predicate: bool) {
        let via = if via_predicate {
            " (via predicate)"
        } else {
            ""
        };
        let w = format!(
            "T{} read aborted version {o}[{v}] of T{}{via}",
            reader.0, v.txn.0
        );
        self.fired.set(PhenomenonKind::G1a, w);
    }

    fn fire_g1b(
        &mut self,
        reader: TxnId,
        o: ObjectId,
        v: VersionId,
        final_seq: u32,
        via_predicate: bool,
    ) {
        let via = if via_predicate {
            " (via predicate)"
        } else {
            ""
        };
        let w = format!(
            "T{} read intermediate version {o}[{v}] of T{} (final seq {final_seq}){via}",
            reader.0, v.txn.0
        );
        self.fired.set(PhenomenonKind::G1b, w);
    }

    fn cycle_string(witness: &[(TxnId, TxnId, EdgeMask)]) -> String {
        let mut s = String::new();
        for (i, (a, b, m)) in witness.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let lbl = if m.has_item_anti() { "rw" } else { "ww/wr" };
            let _ = write!(s, "T{} -{lbl}-> T{}", a.0, b.0);
        }
        s
    }

    // ------------------------------------------------------------------
    // Incremental graph maintenance
    // ------------------------------------------------------------------

    /// Remembers one inducing operation for the edge `from -> to`.
    /// Callers gate on the provenance flag and on edge freshness (see
    /// [`Self::record_if_fresh`]); self-loops never get here because
    /// the graphs report them as duplicates.
    fn record_prov(&mut self, from: TxnId, to: TxnId, step: ProvStep) {
        match self.prov.entry((from, to)) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut().push(step),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.prov_out.entry(from).or_default().push(to);
                self.prov_in.entry(to).or_default().push(from);
                e.insert(ProvChain::One(step));
            }
        }
    }

    /// Inserts a provenance chain for a key known to be absent,
    /// keeping the per-node indexes in step.
    fn insert_prov_chain(&mut self, a: TxnId, b: TxnId, chain: ProvChain) {
        self.prov_out.entry(a).or_default().push(b);
        self.prov_in.entry(b).or_default().push(a);
        self.prov.insert((a, b), chain);
    }

    /// Purges every provenance entry touching `id` in O(degree),
    /// using the node indexes instead of a full-map scan.
    fn purge_prov_node(&mut self, id: TxnId) {
        for x in self.prov_out.remove(&id).unwrap_or_default() {
            self.prov.remove(&(id, x));
            if let Some(l) = self.prov_in.get_mut(&x) {
                l.retain(|&t| t != id);
            }
        }
        for x in self.prov_in.remove(&id).unwrap_or_default() {
            self.prov.remove(&(x, id));
            if let Some(l) = self.prov_out.get_mut(&x) {
                l.retain(|&t| t != id);
            }
        }
    }

    /// The provenance-annotated form of a just-detected witness cycle.
    fn cycle_prov(&self, witness: &[(TxnId, TxnId, EdgeMask)]) -> Vec<CycleEdgeProv> {
        if !self.provenance {
            return Vec::new();
        }
        witness
            .iter()
            .map(|&(a, b, m)| CycleEdgeProv {
                from: a,
                to: b,
                anti: m.has_item_anti(),
                via: self
                    .prov
                    .get(&(a, b))
                    .map(|c| render_chain(c.steps()))
                    .unwrap_or_default(),
            })
            .collect()
    }

    /// Queues a write dependency discovered during commit resolution.
    /// All three `add_*` methods only *plan* edges now; the batch is
    /// applied by [`Self::apply_edge_plan`] at the end of the commit,
    /// with results replayed in exactly this discovery order.
    fn add_ww(&mut self, from: TxnId, to: TxnId, object: ObjectId) {
        self.plan.push(PlannedEdge::Ww { from, to, object });
    }

    fn add_wr(&mut self, from: TxnId, to: TxnId, object: ObjectId, version: VersionId) {
        self.plan.push(PlannedEdge::Wr {
            from,
            to,
            object,
            version,
        });
    }

    fn add_anti(&mut self, from: TxnId, to: TxnId, object: ObjectId) {
        self.plan.push(PlannedEdge::Anti { from, to, object });
    }

    /// Applies the commit's planned edges: one [`IncrementalDag::
    /// insert_edges`] batch per live cycle graph — amortizing
    /// Pearce–Kelly traversal buffers across the whole commit instead
    /// of allocating per edge — followed by a walk over the per-edge
    /// results that replays provenance recording and phenomenon
    /// latching in exactly the order the per-edge path used.
    ///
    /// Equivalence with the historical edge-at-a-time path: batched
    /// insertion is state-identical per graph (see `insert_edges`),
    /// provenance/latch processing happens walk-side in plan order,
    /// and when a latch drops a graph mid-plan the rest of that
    /// graph's batch results are discarded — the sequential path would
    /// never have inserted those edges, and the extra inserts can't be
    /// observed because the graph is freed within the same event
    /// either way.
    fn apply_edge_plan(&mut self) {
        if self.plan.is_empty() {
            return;
        }
        let plan = std::mem::take(&mut self.plan);
        self.batch_ww.clear();
        self.batch_dep.clear();
        self.batch_full.clear();
        for pe in &plan {
            match *pe {
                PlannedEdge::Ww { from, to, .. } => {
                    self.batch_ww.push((from, to, EdgeMask::DEP));
                    self.batch_dep.push((from, to, EdgeMask::DEP));
                    self.batch_full.push((from, to, EdgeMask::DEP));
                }
                PlannedEdge::Wr { from, to, .. } => {
                    self.batch_dep.push((from, to, EdgeMask::DEP));
                    self.batch_full.push((from, to, EdgeMask::DEP));
                }
                PlannedEdge::Anti { from, to, .. } => {
                    self.batch_full.push((from, to, EdgeMask::ANTI_ITEM));
                }
            }
        }
        let insert_t0 = self.sampled_now.then(Instant::now);
        let res_ww = match self.ww.as_mut() {
            Some(g) => Some(g.insert_edges(&self.batch_ww)),
            None => None,
        };
        let res_dep = match self.dep.as_mut() {
            Some(g) => Some(g.insert_edges(&self.batch_dep)),
            None => None,
        };
        let res_full = match self.full.as_mut() {
            Some(g) => Some(g.insert_edges(&self.batch_full)),
            None => None,
        };
        if let Some(t0) = insert_t0 {
            adya_obs::histogram!("online.graph_insert_ns").record(t0.elapsed().as_nanos() as u64);
        }
        let (mut iw, mut id, mut ifl) = (0usize, 0usize, 0usize);
        let mut ww_live = res_ww.is_some();
        let mut dep_live = res_dep.is_some();
        let mut full_live = res_full.is_some();
        for pe in &plan {
            match *pe {
                PlannedEdge::Ww { from, to, object } => {
                    let mut step = if self.provenance {
                        self.txns
                            .get(&from)
                            .and_then(|t| t.writes.get(&object))
                            .map(|&seq| ProvStep {
                                kind: PROV_WW,
                                object,
                                version: VersionId::new(from, seq),
                            })
                    } else {
                        None
                    };
                    let r = res_ww.as_ref().map(|v| &v[iw]);
                    iw += 1;
                    if ww_live {
                        let r = r.expect("ww batch result exists while graph is live");
                        self.record_if_fresh(!matches!(r, Insert::Duplicate), from, to, &mut step);
                        if let Insert::CycleFormed(info) = r {
                            let t0 = Instant::now();
                            let w = format!("write cycle: {}", Self::cycle_string(&info.witness));
                            let cyc = self.cycle_prov(&info.witness);
                            if self.fired.set(PhenomenonKind::G0, w) {
                                self.fired.set_cycle(PhenomenonKind::G0, cyc);
                            }
                            self.drop_graph_ww();
                            ww_live = false;
                            adya_obs::histogram!("online.cycle_check_ns")
                                .record(t0.elapsed().as_nanos() as u64);
                        }
                    }
                    self.walk_dep(
                        res_dep.as_deref(),
                        &mut id,
                        &mut dep_live,
                        from,
                        to,
                        &mut step,
                    );
                    self.walk_full(
                        res_full.as_deref(),
                        &mut ifl,
                        &mut full_live,
                        from,
                        to,
                        EdgeMask::DEP,
                        &mut step,
                    );
                }
                PlannedEdge::Wr {
                    from,
                    to,
                    object,
                    version,
                } => {
                    let mut step = self.provenance.then_some(ProvStep {
                        kind: PROV_WR,
                        object,
                        version,
                    });
                    self.walk_dep(
                        res_dep.as_deref(),
                        &mut id,
                        &mut dep_live,
                        from,
                        to,
                        &mut step,
                    );
                    self.walk_full(
                        res_full.as_deref(),
                        &mut ifl,
                        &mut full_live,
                        from,
                        to,
                        EdgeMask::DEP,
                        &mut step,
                    );
                }
                PlannedEdge::Anti { from, to, object } => {
                    let mut step = if self.provenance {
                        self.txns
                            .get(&to)
                            .and_then(|t| t.writes.get(&object))
                            .map(|&seq| ProvStep {
                                kind: PROV_RW,
                                object,
                                version: VersionId::new(to, seq),
                            })
                    } else {
                        None
                    };
                    self.walk_full(
                        res_full.as_deref(),
                        &mut ifl,
                        &mut full_live,
                        from,
                        to,
                        EdgeMask::ANTI_ITEM,
                        &mut step,
                    );
                }
            }
        }
        self.plan = plan;
        self.plan.clear();
    }

    /// Replays one planned edge's dep-graph result: provenance first
    /// (matching the historical `add_dep_edge` order), then the G1c
    /// latch. `live` goes false once the graph is dropped mid-plan,
    /// after which the remaining batch results are skipped.
    #[allow(clippy::too_many_arguments)]
    fn walk_dep(
        &mut self,
        res: Option<&[Insert<TxnId, EdgeMask>]>,
        idx: &mut usize,
        live: &mut bool,
        from: TxnId,
        to: TxnId,
        step: &mut Option<ProvStep>,
    ) {
        let r = res.map(|v| &v[*idx]);
        *idx += 1;
        if !*live {
            return;
        }
        let r = r.expect("dep batch result exists while graph is live");
        self.record_if_fresh(!matches!(r, Insert::Duplicate), from, to, step);
        if let Insert::CycleFormed(info) = r {
            let t0 = Instant::now();
            let w = format!("dependency cycle: {}", Self::cycle_string(&info.witness));
            let cyc = self.cycle_prov(&info.witness);
            if self.fired.set(PhenomenonKind::G1c, w) {
                self.fired.set_cycle(PhenomenonKind::G1c, cyc);
            }
            self.drop_graph_dep();
            *live = false;
            adya_obs::histogram!("online.cycle_check_ns").record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Replays one planned edge's full-graph result: provenance, then
    /// the G2/G2-item latches (cycle with an anti edge, or an anti
    /// edge landing inside an existing component).
    #[allow(clippy::too_many_arguments)]
    fn walk_full(
        &mut self,
        res: Option<&[Insert<TxnId, EdgeMask>]>,
        idx: &mut usize,
        live: &mut bool,
        from: TxnId,
        to: TxnId,
        mask: EdgeMask,
        step: &mut Option<ProvStep>,
    ) {
        let r = res.map(|v| &v[*idx]);
        *idx += 1;
        if !*live {
            return;
        }
        let r = r.expect("full batch result exists while graph is live");
        self.record_if_fresh(!matches!(r, Insert::Duplicate), from, to, step);
        match r {
            Insert::CycleFormed(info) => {
                let t0 = Instant::now();
                let anti = info
                    .intra_edges
                    .iter()
                    .find(|(_, _, m)| m.has_item_anti())
                    .copied();
                if let Some((a, b, _)) = anti {
                    let w = format!(
                        "anti-dependency cycle through T{} -rw-> T{}: {}",
                        a.0,
                        b.0,
                        Self::cycle_string(&info.witness)
                    );
                    let cyc = self.cycle_prov(&info.witness);
                    if self.fired.set(PhenomenonKind::G2Item, w.clone()) {
                        self.fired.set_cycle(PhenomenonKind::G2Item, cyc.clone());
                    }
                    if self.fired.set(PhenomenonKind::G2, w) {
                        self.fired.set_cycle(PhenomenonKind::G2, cyc);
                    }
                    self.drop_graph_full_if_done();
                    if self.full.is_none() {
                        *live = false;
                    }
                }
                adya_obs::histogram!("online.cycle_check_ns")
                    .record(t0.elapsed().as_nanos() as u64);
            }
            Insert::IntraComponent if mask.has_item_anti() => {
                let w = format!(
                    "anti-dependency edge T{} -rw-> T{} inside a dependency cycle",
                    from.0, to.0
                );
                let cyc = self.cycle_prov(&[(from, to, mask)]);
                if self.fired.set(PhenomenonKind::G2Item, w.clone()) {
                    self.fired.set_cycle(PhenomenonKind::G2Item, cyc.clone());
                }
                if self.fired.set(PhenomenonKind::G2, w) {
                    self.fired.set_cycle(PhenomenonKind::G2, cyc);
                }
                self.drop_graph_full_if_done();
                if self.full.is_none() {
                    *live = false;
                }
            }
            _ => {}
        }
    }

    /// Consumes `step` into the provenance map if this insert was the
    /// edge's first appearance in a live graph. The freshness gate is
    /// what keeps provenance cheap: repeated conflicts on an existing
    /// edge skip the side-map entirely (first operation wins), and the
    /// graph's own dedup check already paid for the answer.
    fn record_if_fresh(
        &mut self,
        fresh: bool,
        from: TxnId,
        to: TxnId,
        step: &mut Option<ProvStep>,
    ) {
        if fresh {
            if let Some(st) = step.take() {
                self.record_prov(from, to, st);
            }
        }
    }

    fn drop_graph_ww(&mut self) {
        if let Some(g) = self.ww.take() {
            self.reorders_dropped += g.reorders();
        }
        self.drop_prov_if_unused();
    }

    fn drop_graph_dep(&mut self) {
        if let Some(g) = self.dep.take() {
            self.reorders_dropped += g.reorders();
        }
        self.drop_prov_if_unused();
    }

    fn drop_graph_full_if_done(&mut self) {
        if self.fired.has(PhenomenonKind::G2) && self.fired.has(PhenomenonKind::G2Item) {
            if let Some(g) = self.full.take() {
                self.reorders_dropped += g.reorders();
            }
            self.drop_prov_if_unused();
        }
    }

    /// Once every cycle graph has latched and been freed, no future
    /// cycle can fire, so the provenance side map is dead weight.
    fn drop_prov_if_unused(&mut self) {
        if self.ww.is_none() && self.dep.is_none() && self.full.is_none() {
            self.prov.clear();
            self.prov_out.clear();
            self.prov_in.clear();
        }
    }

    fn sync_reorder_counter(&mut self) {
        let total = self.reorders_dropped
            + self.ww.as_ref().map_or(0, |g| g.reorders())
            + self.dep.as_ref().map_or(0, |g| g.reorders())
            + self.full.as_ref().map_or(0, |g| g.reorders());
        if total > self.reorders_reported {
            adya_obs::counter!("online.pk_reorders").add(total - self.reorders_reported);
            self.reorders_reported = total;
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    fn maybe_gc(&mut self) {
        if !self.gc.enabled {
            return;
        }
        self.events_since_gc += 1;
        if self.events_since_gc < self.gc.interval {
            return;
        }
        self.events_since_gc = 0;
        let _gc_span = (self.telemetry_every != 0).then(|| adya_obs::span!("online.gc_ns"));
        self.run_gc();
    }

    /// Re-checks `id` against [`settled`] and files it in or out of
    /// `ready`. Called wherever one of the counters `settled` reads
    /// moves (or the transaction goes away), before the event ends —
    /// passes only run between events, so that is soon enough.
    fn settle(&mut self, id: TxnId) {
        if self.txns.get(&id).is_some_and(settled) {
            self.ready.insert(id);
        } else {
            self.ready.remove(&id);
        }
    }

    /// Prefix rule: only ever prune the oldest version of an object,
    /// so a surviving predecessor always implies its successor (the
    /// target of any future rw edge) survives. Read off the object
    /// table; `behind` is the same fact kept as a counter.
    fn heads_its_objects(&self, id: TxnId, t: &TxnState) -> bool {
        t.status != Status::Committed
            || t.writes.keys().all(|o| {
                let obj = &self.objects[o];
                obj.pos_of[&id] == obj.base
            })
    }

    /// The whole transaction table through the candidate filter: what
    /// a collector without an index starts every round with. The debug
    /// invariant check and the test reference collector are its only
    /// callers.
    #[cfg(any(test, debug_assertions))]
    fn unpinned_by_scan(&self) -> impl Iterator<Item = (TxnId, &TxnState)> {
        let all = self.txns.iter().map(|(&id, t)| (id, t));
        all.filter(|(_, t)| unpinned(t))
    }

    /// Makes collection passes run the reference collector, which
    /// keeps no index: every round scans the table for candidates and
    /// tries each. Exists so tests can hold the indexed collector to
    /// it byte for byte; debug and test builds only.
    #[cfg(any(test, debug_assertions))]
    #[doc(hidden)]
    pub fn set_gc_by_scan(&mut self, on: bool) {
        self.gc_by_scan = on;
    }

    #[cfg(any(test, debug_assertions))]
    fn run_gc_by_scan(&mut self) {
        let watermark = self.watermark();
        loop {
            let candidates: BTreeSet<TxnId> = self.unpinned_by_scan().map(|(id, _)| id).collect();
            let mut progress = false;
            for id in candidates {
                progress |= self.try_prune(id, watermark);
            }
            if !progress {
                break;
            }
        }
    }

    /// One collection: prune every settled transaction below the
    /// low watermark, repeating while progress is made (a prune can
    /// settle a transaction the round has already passed).
    fn run_gc(&mut self) {
        #[cfg(any(test, debug_assertions))]
        {
            // `ready` and `behind` against first principles: a counter
            // that moved without its settle() shows up here.
            let want: BTreeSet<TxnId> = self
                .unpinned_by_scan()
                .filter(|&(id, t)| t.unsuperseded == 0 && self.heads_its_objects(id, t))
                .map(|(id, _)| id)
                .collect();
            debug_assert_eq!(self.ready, want);
            if self.gc_by_scan {
                return self.run_gc_by_scan();
            }
        }
        if self.ready.is_empty() {
            return; // nothing settled: the pass costs nothing
        }
        let watermark = self.watermark();
        let mut visited = 0u64;
        loop {
            // A round walks `ready` in id order: pruning mutates the
            // incremental graphs (contraction shortcuts), so the visit
            // order must not depend on hash-map iteration order or two
            // runs of the same stream could diverge in graph internals
            // — and with them the snapshot bytes and witness paths.
            // The walk is live, not a copy: popping an object's oldest
            // version settles the owner of the next one, which this
            // round still visits if its id is yet to come and the next
            // round visits if not — where the reference collector,
            // scanning for candidates at the top of each round, meets it.
            let mut progress = false;
            let mut next = self.ready.first().copied();
            while let Some(id) = next {
                visited += 1;
                progress |= self.try_prune(id, watermark);
                next = self.ready.range((Excluded(id), Unbounded)).next().copied();
            }
            if !progress {
                break;
            }
        }
        adya_obs::counter!("online.gc_visited").add(visited);
    }

    fn try_prune(&mut self, id: TxnId, watermark: u64) -> bool {
        let t = &self.txns[&id];
        match t.status {
            Status::Active => return false,
            Status::Aborted => {
                if t.terminal_clock > watermark {
                    return false;
                }
            }
            Status::Committed => {
                if t.unsuperseded != 0 || t.prune_after > watermark {
                    return false;
                }
            }
        }
        if !self.heads_its_objects(id, t) {
            return false;
        }
        // Never disturb a condensed cycle component (those nodes are
        // the evidence for latched phenomena; the whole graph is freed
        // when its phenomenon latches).
        for g in [&mut self.ww, &mut self.dep, &mut self.full]
            .into_iter()
            .flatten()
        {
            if g.contains(id) && !g.is_removable(id) {
                return false;
            }
        }
        // Contraction shortcuts replace paths through `id`; each one
        // inherits the provenance chain of both halves so a later
        // cycle through the shortcut can still cite concrete
        // operations. Shortcut order is deterministic (adjacency
        // order), so the merged chains — and with them the snapshot
        // bytes — are too.
        let mut shortcuts: Vec<(TxnId, TxnId)> = Vec::new();
        for g in [&mut self.ww, &mut self.dep, &mut self.full]
            .into_iter()
            .flatten()
        {
            let ok = g.remove_node_contract_report(id, EdgeMask::combine, |a, b, _| {
                if !shortcuts.contains(&(a, b)) {
                    shortcuts.push((a, b));
                }
            });
            debug_assert!(ok, "removability checked above");
        }
        if self.provenance {
            for (a, b) in shortcuts {
                if self.prov.contains_key(&(a, b)) {
                    continue; // a direct edge already explains a -> b
                }
                let mut chain: Vec<ProvStep> = self
                    .prov
                    .get(&(a, id))
                    .map(|c| c.steps().to_vec())
                    .unwrap_or_default();
                if let Some(tail) = self.prov.get(&(id, b)) {
                    for st in tail.steps() {
                        if chain.len() >= PROV_CAP {
                            break;
                        }
                        if !chain.contains(st) {
                            chain.push(*st);
                        }
                    }
                }
                if !chain.is_empty() {
                    self.insert_prov_chain(a, b, ProvChain::from_steps(chain));
                }
            }
        }
        self.purge_prov_node(id);
        let t = self.txns.remove(&id).expect("candidate exists");
        self.settle(id);
        if t.status == Status::Committed {
            // Aborted writes were never installed; only committed ones
            // have entries to retire.
            for o in t.writes.keys() {
                let obj = self.objects.get_mut(o).expect("entry exists");
                let e = obj.entries.pop_front().expect("prefix rule");
                debug_assert_eq!(e.txn, id);
                debug_assert!(e.readers.is_empty(), "superseded entries have no readers");
                obj.base += 1;
                obj.pos_of.remove(&id);
                if let Some(next) = obj.entries.front().map(|e| e.txn) {
                    let heir = self
                        .txns
                        .get_mut(&next)
                        .expect("installed entry implies live");
                    heir.behind -= 1;
                    self.settle(next);
                }
            }
        }
        self.pruned_txns += 1;
        adya_obs::counter!("online.gc_pruned").inc();
        true
    }

    // ------------------------------------------------------------------
    // Crash/restore snapshots
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
        let mut e = Enc::new();
        e.u64(self.clock);
        e.bool(self.gc.enabled);
        e.u64(self.gc.interval);
        for v in [
            self.committed,
            self.pruned_txns,
            self.stale_refs,
            self.events_since_gc,
            self.reorders_dropped,
            self.reorders_reported,
        ] {
            e.u64(v);
        }
        e.u8(self.fired.mask);
        e.len(self.fired.witnesses.len());
        for (k, w) in &self.fired.witnesses {
            e.u8(kind_bit(*k));
            e.str(w);
        }
        e.len(self.fired.cycles.len());
        for (k, cyc) in &self.fired.cycles {
            e.u8(kind_bit(*k));
            e.len(cyc.len());
            for edge in cyc {
                e.u32(edge.from.0);
                e.u32(edge.to.0);
                e.bool(edge.anti);
                e.str(&edge.via);
            }
        }
        e.bool(self.provenance);
        let mut prov_keys: Vec<(TxnId, TxnId)> = self.prov.keys().copied().collect();
        prov_keys.sort_unstable();
        e.len(prov_keys.len());
        for key in prov_keys {
            e.u32(key.0 .0);
            e.u32(key.1 .0);
            let chain = self.prov[&key].steps();
            e.len(chain.len());
            for st in chain {
                e.u8(st.kind);
                e.u32(st.object.0);
                e.u32(st.version.txn.0);
                e.u32(st.version.seq);
            }
        }
        let mut txn_ids: Vec<TxnId> = self.txns.keys().copied().collect();
        txn_ids.sort_unstable();
        e.len(txn_ids.len());
        for id in txn_ids {
            let t = &self.txns[&id];
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
        let mut obj_ids: Vec<ObjectId> = self.objects.keys().copied().collect();
        obj_ids.sort_unstable();
        e.len(obj_ids.len());
        for id in obj_ids {
            let o = &self.objects[&id];
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
        for g in [&self.ww, &self.dep, &self.full] {
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

    /// Revives a checker from [`snapshot`] bytes.
    ///
    /// [`snapshot`]: OnlineChecker::snapshot
    pub fn restore(bytes: &[u8]) -> Result<OnlineChecker, SnapshotError> {
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
        let mut c = OnlineChecker {
            clock: d.u64()?,
            gc: GcConfig {
                enabled: d.bool()?,
                interval: d.u64()?,
            },
            ..OnlineChecker::default()
        };
        c.committed = d.u64()?;
        c.pruned_txns = d.u64()?;
        c.stale_refs = d.u64()?;
        c.events_since_gc = d.u64()?;
        c.reorders_dropped = d.u64()?;
        c.reorders_reported = d.u64()?;
        c.fired.mask = d.u8()?;
        let nw = d.len()?;
        for _ in 0..nw {
            let bit = d.u8()?;
            let k = kind_from_bit(bit)
                .ok_or_else(|| WireError::Malformed(format!("phenomenon bit {bit}")))?;
            c.fired.witnesses.push((k, d.str()?));
        }
        let nc = d.len()?;
        for _ in 0..nc {
            let bit = d.u8()?;
            let k = kind_from_bit(bit)
                .ok_or_else(|| WireError::Malformed(format!("cycle phenomenon bit {bit}")))?;
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
        c.provenance = d.bool()?;
        let np = d.len()?;
        for _ in 0..np {
            let a = TxnId(d.u32()?);
            let b = TxnId(d.u32()?);
            let n = d.len()?;
            let mut chain = Vec::with_capacity(n);
            for _ in 0..n {
                let kind = d.u8()?;
                if kind > PROV_RW {
                    return Err(WireError::Malformed(format!("prov step kind {kind}")).into());
                }
                chain.push(ProvStep {
                    kind,
                    object: ObjectId(d.u32()?),
                    version: VersionId {
                        txn: TxnId(d.u32()?),
                        seq: d.u32()?,
                    },
                });
            }
            // Rebuild the node indexes alongside the map itself; keys
            // in a well-formed image are unique, so a plain push is a
            // faithful reconstruction.
            c.prov_out.entry(a).or_default().push(b);
            c.prov_in.entry(b).or_default().push(a);
            c.prov.insert((a, b), ProvChain::from_steps(chain));
        }
        let nt = d.len()?;
        for _ in 0..nt {
            let id = TxnId(d.u32()?);
            let status = match d.u8()? {
                0 => Status::Active,
                1 => Status::Committed,
                2 => Status::Aborted,
                s => return Err(WireError::Malformed(format!("txn status {s}")).into()),
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
                    return Err(WireError::Malformed(format!("read flags {flags}")).into());
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
                behind: 0, // derived below, once the objects are read
            };
            if status == Status::Active {
                c.active.insert(id);
            }
            c.txns.insert(id, t);
        }
        let no = d.len()?;
        for _ in 0..no {
            let id = ObjectId(d.u32()?);
            let base = d.u64()? as usize;
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
                pos_of.insert(txn, base + i);
                entries.push_back(Entry { txn, readers });
            }
            let ni = d.len()?;
            let mut init_readers = Vec::with_capacity(ni);
            for _ in 0..ni {
                init_readers.push(TxnId(d.u32()?));
            }
            c.objects.insert(
                id,
                ObjectState {
                    base,
                    entries,
                    pos_of,
                    init_readers,
                },
            );
        }
        for slot in [&mut c.ww, &mut c.dep, &mut c.full] {
            *slot = if d.bool()? {
                Some(dec_dag(&mut d)?)
            } else {
                None
            };
        }
        if d.remaining() != 0 {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after snapshot",
                d.remaining()
            ))
            .into());
        }
        c.rebuild_gc_index();
        Ok(c)
    }

    /// Derives `behind` from the object table and `ready` from the
    /// transaction table: neither is part of the image.
    fn rebuild_gc_index(&mut self) {
        for obj in self.objects.values() {
            for e in obj.entries.iter().skip(1) {
                if let Some(t) = self.txns.get_mut(&e.txn) {
                    t.behind += 1;
                }
            }
        }
        let settled_ids = self.txns.iter().filter(|(_, t)| settled(t));
        self.ready = settled_ids.map(|(&id, _)| id).collect();
    }

    fn verdict(&self, txn: Option<TxnId>, new_fired: &[PhenomenonKind]) -> Verdict {
        let witness = new_fired.first().and_then(|k| {
            self.fired
                .witnesses
                .iter()
                .find(|(fk, _)| fk == k)
                .map(|(_, w)| w.clone())
        });
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
            pruned_txns: self.pruned_txns,
            stale_refs: self.stale_refs,
            live_txns: self.txns.len(),
            is_final: false,
        }
    }
}

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

fn dec_dag(d: &mut Dec<'_>) -> Result<Dag, WireError> {
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
                let label = EdgeMask(d.u8()?);
                list.push((slot, src, dst, label));
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
        let l = EdgeMask(d.u8()?);
        seen.push((a, b, l));
    }
    let next_ord = d.u64()?;
    let reorders = d.u64()?;
    let merges = d.u64()?;
    Ok(IncrementalDag::from_parts(DagParts {
        slots,
        index,
        free,
        seen,
        next_ord,
        reorders,
        merges,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_history::{ReadEvent, VersionKind, WriteEvent};

    fn w(t: u32, o: u32, seq: u32) -> Event {
        Event::Write(WriteEvent {
            txn: TxnId(t),
            object: ObjectId(o),
            seq,
            kind: VersionKind::Visible,
            value: None,
        })
    }

    fn r(t: u32, o: u32, writer: u32, seq: u32) -> Event {
        Event::Read(ReadEvent {
            txn: TxnId(t),
            object: ObjectId(o),
            version: VersionId::new(TxnId(writer), seq),
            through_cursor: false,
        })
    }

    fn rinit(t: u32, o: u32) -> Event {
        Event::Read(ReadEvent {
            txn: TxnId(t),
            object: ObjectId(o),
            version: VersionId::INIT,
            through_cursor: false,
        })
    }

    fn feed(c: &mut OnlineChecker, evs: &[Event]) -> Vec<Verdict> {
        evs.iter().filter_map(|e| c.ingest(e)).collect()
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
    fn gc_prunes_a_long_serial_stream_and_keeps_the_verdict() {
        let mut c = OnlineChecker::with_gc(GcConfig {
            enabled: true,
            interval: 1,
        });
        let mut peak = 0usize;
        for i in 1..=500u32 {
            c.ingest(&Event::Begin(TxnId(i)));
            if i > 1 {
                c.ingest(&r(i, 0, i - 1, 1));
            }
            c.ingest(&w(i, 0, 1));
            let v = c.ingest(&Event::Commit(TxnId(i))).unwrap();
            assert_eq!(v.strongest_ansi, Some(IsolationLevel::PL3));
            assert_eq!(v.stale_refs, 0);
            peak = peak.max(c.live_txns());
        }
        let end = c.finish();
        assert!(end.pruned_txns > 450, "pruned {}", end.pruned_txns);
        assert!(peak < 10, "memory not bounded: peak {peak} txns live");
        assert_eq!(end.strongest_ansi, Some(IsolationLevel::PL3));
        assert_eq!(end.stale_refs, 0);
    }

    #[test]
    fn parked_readers_settle_when_their_writer_ends() {
        // Committed readers parked on a still-active writer become
        // prunable the moment the writer commits or aborts, whether
        // the read was an item read or a predicate's version-set
        // entry. With a pass after every event, the `ready` invariant
        // check in `run_gc` sees each of those hand-overs.
        use adya_history::{PredicateId, PredicateReadEvent};
        let pread = |t: u32, o: u32, writer: u32| {
            Event::PredicateRead(PredicateReadEvent {
                txn: TxnId(t),
                predicate: PredicateId(0),
                vset: vec![(ObjectId(o), VersionId::new(TxnId(writer), 1))],
            })
        };
        for end in [Event::Commit(TxnId(1)), Event::Abort(TxnId(1))] {
            let mut c = OnlineChecker::with_gc(GcConfig {
                enabled: true,
                interval: 1,
            });
            feed(
                &mut c,
                &[
                    Event::Begin(TxnId(1)),
                    w(1, 0, 1),
                    Event::Begin(TxnId(2)),
                    pread(2, 0, 1),
                    Event::Commit(TxnId(2)),
                    Event::Begin(TxnId(3)),
                    r(3, 0, 1, 1),
                    Event::Commit(TxnId(3)),
                    Event::Begin(TxnId(4)),
                    r(4, 0, 1, 1), // still buffered when T1 ends: a pin
                ],
            );
            assert_eq!(c.pruned_txns(), 0, "both readers wait for T1");
            c.ingest(&end);
            // T2 goes either way; T3 only when T1 aborted (a commit
            // leaves it anchored at T1's version, awaiting an rw edge).
            let aborted = matches!(end, Event::Abort(_));
            assert_eq!(c.pruned_txns(), if aborted { 2 } else { 1 });
            // T4 goes, and with its pin released so does an aborted
            // T1 (a committed one holds the newest version of its key).
            c.ingest(&Event::Abort(TxnId(4)));
            assert_eq!(c.pruned_txns(), if aborted { 4 } else { 2 });
        }
    }

    #[test]
    fn gc_never_loses_a_cycle_through_a_pruned_interior_node() {
        // T3 -wr-> T1 -rw-> T2 with T1 prunable; a later path back from
        // T2 to T3 must still be reported as a cycle (contraction).
        let mut c = OnlineChecker::with_gc(GcConfig {
            enabled: true,
            interval: 1,
        });
        feed(
            &mut c,
            &[
                // T3 writes y and commits; T1 reads it, reads x-init,
                // and commits read-only.
                Event::Begin(TxnId(3)),
                w(3, 1, 1),
                Event::Begin(TxnId(5)),
                r(5, 1, 3, 1), // T5 buffers a dirty read of y3 (keeps T3 referenced)
                Event::Commit(TxnId(3)),
                Event::Begin(TxnId(1)),
                r(1, 1, 3, 1),
                rinit(1, 0),
                Event::Commit(TxnId(1)),
                // T2 overwrites x: rw T1 -> T2, then T1 becomes prunable.
                Event::Begin(TxnId(2)),
                w(2, 0, 1),
                Event::Commit(TxnId(2)),
                // Churn so GC definitely runs.
                Event::Begin(TxnId(9)),
                Event::Commit(TxnId(9)),
                // Close the loop: T5 read y3 before T3's commit?  No —
                // T5 reads T2's x (wr T2->T5) and writes y: rw T5->?
                r(5, 0, 2, 1),
                w(5, 1, 1),
                Event::Commit(TxnId(5)),
            ],
        );
        // Edges: wr T3->T1, rw T1->T2 (may be contracted into T3->T2
        // when T1 prunes), wr T3->T5, wr T2->T5, ww T3->T5 (y), and
        // T5's own-read anchoring. The cycle check here: T5 read y3
        // then overwrote y, and read x2 — rw edges close T2->T5 and
        // T5 anchored at y3 -> successor is T5 itself (skipped).
        // What must hold: the checker did prune T1 yet still knows
        // every dependency path that ran through it.
        let end = c.finish();
        assert!(end.pruned_txns > 0, "T1 should have been pruned");
        assert_eq!(end.stale_refs, 0);
    }

    #[test]
    fn violating_verdict_carries_cycle_provenance() {
        // Write skew: the G2-item verdict must name the rw edges and
        // the concrete overwriting versions behind them.
        let mut c = OnlineChecker::new();
        c.set_provenance(true);
        let vs = feed(
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
        let fire = vs
            .iter()
            .find(|v| !v.new_fired.is_empty())
            .expect("G2 fires at a commit");
        let cycle = fire.cycle.as_ref().expect("cycle provenance attached");
        assert_eq!(cycle.len(), 2, "{cycle:?}");
        assert!(cycle.iter().all(|e| e.anti), "{cycle:?}");
        assert!(
            cycle.iter().any(|e| e.via.contains("rw obj0[2]")),
            "{cycle:?}"
        );
        assert!(
            cycle.iter().any(|e| e.via.contains("rw obj1[1]")),
            "{cycle:?}"
        );
        let j = fire.to_json();
        assert!(j.contains("\"cycle\": [{"), "{j}");
        assert!(j.contains("\"label\": \"rw\""), "{j}");
    }

    #[test]
    fn provenance_off_yields_null_cycle() {
        // Off is the default; this pins that no cycle field appears.
        let mut c = OnlineChecker::new();
        let vs = feed(
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
        let fire = vs.iter().find(|v| !v.new_fired.is_empty()).unwrap();
        assert!(fire.cycle.is_none());
        assert!(fire.to_json().contains("\"cycle\": null"));
    }

    #[test]
    fn provenance_survives_gc_contraction() {
        // T1 -wr-> T2 -rw-> T3 with the interior read-only T2 pruned:
        // contraction leaves a shortcut T1 -> T3 whose provenance
        // chain concatenates both halves. A cycle closed through that
        // shortcut later must still cite the pruned transaction's
        // operations.
        let mut c = OnlineChecker::with_gc(GcConfig {
            enabled: true,
            interval: 1,
        });
        c.set_provenance(true);
        feed(
            &mut c,
            &[
                Event::Begin(TxnId(5)), // early reader, kept open
                rinit(5, 1),            // buffers y-init
                Event::Begin(TxnId(1)),
                w(1, 1, 1), // installs y[1]
                Event::Commit(TxnId(1)),
                Event::Begin(TxnId(2)),
                r(2, 1, 1, 1), // wr T1 -> T2; anchors at the y tip
                rinit(2, 0),   // anchors at x-init
                Event::Commit(TxnId(2)),
                Event::Begin(TxnId(3)),
                w(3, 0, 1), // installs x[3]: rw T2 -> T3
                Event::Commit(TxnId(3)),
                Event::Begin(TxnId(6)),
                w(6, 1, 1), // installs y[6]: releases T2's y anchor (rw T2 -> T6)
                Event::Commit(TxnId(6)),
                Event::Begin(TxnId(9)), // churn so the GC prunes T2
                Event::Commit(TxnId(9)),
            ],
        );
        assert!(c.pruned_txns() > 0, "T2 pruned");
        // Close the loop: T5 reads x[3:1] (wr T3 -> T5) and its parked
        // y-init read becomes rw T5 -> T1. With the shortcut
        // T1 -> T3 the full graph now has a cycle containing an anti
        // edge: G2-item.
        let vs = feed(&mut c, &[r(5, 0, 3, 1), Event::Commit(TxnId(5))]);
        let fire = vs
            .iter()
            .find(|v| v.new_fired.contains(&PhenomenonKind::G2Item))
            .expect("cycle through the shortcut fires G2-item");
        let cycle = fire.cycle.as_ref().expect("provenance attached");
        let shortcut = cycle
            .iter()
            .find(|e| e.from == TxnId(1) && e.to == TxnId(3))
            .expect("witness routes through the contraction shortcut");
        assert!(
            shortcut.via.contains("wr obj1[1]"),
            "pruned T2's read lost: {shortcut:?}"
        );
        assert!(
            shortcut.via.contains("rw obj0[3]"),
            "pruned T2's anti-dependency lost: {shortcut:?}"
        );
        assert_eq!(c.finish().stale_refs, 0);
    }

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

    /// A stream exercising every state the snapshot must carry:
    /// buffered and pending reads, aborts (G1a), intermediate reads
    /// (G1b), write cycles, anti-dependencies, and enough churn for
    /// the GC to prune and contract.
    fn eventful_stream() -> Vec<Event> {
        let mut evs = vec![
            Event::Begin(TxnId(1)),
            Event::Begin(TxnId(2)),
            w(1, 0, 1),
            w(2, 1, 1),
            r(2, 0, 1, 1),
            r(1, 1, 2, 1),
            Event::Commit(TxnId(1)),
            Event::Commit(TxnId(2)),
            Event::Begin(TxnId(3)),
            Event::Begin(TxnId(4)),
            rinit(3, 2),
            rinit(4, 3),
            w(3, 3, 1),
            w(4, 2, 1),
            Event::Commit(TxnId(3)),
            Event::Commit(TxnId(4)),
            Event::Begin(TxnId(5)),
            w(5, 0, 1),
            r(5, 0, 5, 1),
            Event::Abort(TxnId(5)),
        ];
        for i in 6..30u32 {
            evs.push(Event::Begin(TxnId(i)));
            evs.push(r(i, 4, i.saturating_sub(1).max(6), 1));
            evs.push(w(i, 4, 1));
            evs.push(Event::Commit(TxnId(i)));
        }
        evs
    }

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
