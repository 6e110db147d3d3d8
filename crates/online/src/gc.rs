//! Low-watermark garbage collection.
//!
//! The [`Collector`] owns the eligibility index (`ready`: exactly the
//! transactions whose count conditions for pruning hold), the
//! collection schedule and the pruning itself. The event handlers tell
//! it one thing — [`Collector::settle`], wherever a counter a
//! transaction's eligibility reads has moved — and ask one thing — a
//! pass when one is [`Collector::due`]. What a pass visits, in which
//! order, how a transaction leaves the tables, the graphs, the
//! provenance map and (behind a `StreamFeed`) its parser's counters,
//! and the index-free reference collector debug builds hold all of that
//! to, stay in here. So does the peel: the queue of committed
//! transactions in terminal-clock order, and the walk that takes those
//! the watermark has closed off the graphs while they are sources.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};

use adya_history::{ObjectId, TxnId};

use crate::checker::{shrink_if_sparse, ObjectTable, Status, TxnSlot, TxnState, TxnTable};
use crate::lanes::Lanes;
use crate::provenance::Provenance;

/// Garbage-collection policy for the checker.
#[derive(Debug, Clone, Copy)]
pub struct GcConfig {
    /// Master switch; disabled means the checker keeps every
    /// transaction forever and retires no read: a read of a version
    /// superseded before its reader began still plants its
    /// anti-dependency edge, and no graph is peeled (exact batch
    /// behaviour, unbounded memory).
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

/// The collector's candidate filter: `t` has had its terminal event
/// and nothing pins it — no buffered or parked read references it and
/// none of its own reads is parked or anchored. (Readers park only on
/// running writers.)
fn unpinned(t: &TxnState) -> bool {
    t.status != Status::Active && t.refs == 0 && t.awaiting == 0 && t.registered == 0
}

/// The count conditions of prunability: [`unpinned`], every version
/// `t` installed has been superseded, and each is the oldest left of
/// its object. These are exactly the conditions that move by counter
/// updates, so [`Collector::settle`] tracks them incrementally; what
/// is left — the watermark and removability from the graphs — is
/// asked by `try_prune` on every visit.
fn settled(t: &TxnState) -> bool {
    unpinned(t) && t.unsuperseded == 0 && t.behind == 0
}

/// The GC low watermark: the earliest begin of any active
/// transaction, else the clock. Nothing that ended or was
/// superseded after it may be pruned yet.
pub(crate) fn watermark(active: &[TxnSlot], txns: &TxnTable, clock: u64) -> u64 {
    let begins = active.iter().map(|&t| txns[t].begin_clock);
    begins.min().unwrap_or(clock)
}

/// Whether `t` is closed below `watermark`: it committed before every
/// transaction still running began, so it can gain no in-edge. A read
/// it parked would have been on a writer that began before its commit
/// and is running still; an anti-dependency edge into it needs a reader
/// that began before its commit, since a later one's read of a version
/// it superseded is retired; a contraction shortcut into it needs an
/// edge into it already (DESIGN.md, "Watermark GC").
pub(crate) fn closed(t: &TxnState, watermark: u64) -> bool {
    t.status == Status::Committed && t.terminal_clock < watermark
}

/// Prefix rule: only ever prune the oldest version of an object,
/// so a surviving predecessor always implies its successor (the
/// target of any future rw edge) survives. Read off the object
/// table; `behind` is the same fact kept as a counter.
fn heads_its_objects(objects: &ObjectTable, t: &TxnState) -> bool {
    t.status != Status::Committed
        || t.writes.iter().all(|w| {
            let obj = w.installed.expect("a commit installs every write");
            objects[obj].index_of(w.pos) == 0
        })
}

/// The whole transaction table through the candidate filter: what
/// a collector without an index starts every round with. The debug
/// invariant check and the test reference collector are its only
/// callers.
#[cfg(any(test, debug_assertions))]
fn unpinned_by_scan(txns: &TxnTable) -> impl Iterator<Item = (TxnId, TxnSlot, &TxnState)> {
    txns.iter().filter(|(_, _, t)| unpinned(t))
}

/// What a collection pass works on: the checker's tables, and the
/// graphs and provenance map a pruned transaction must also leave.
pub(crate) struct Heap<'a> {
    pub(crate) clock: u64,
    pub(crate) active: &'a [TxnSlot],
    pub(crate) txns: &'a mut TxnTable,
    pub(crate) objects: &'a mut ObjectTable,
    pub(crate) lanes: &'a mut Lanes,
    pub(crate) prov: &'a mut Provenance,
}

/// What a pruned transaction leaves for a parser to forget (see
/// [`Collector::track_writes`]).
#[derive(Debug, Default)]
struct Released {
    /// (transaction, object) of every write of the transactions pruned
    /// since the last drain. Empty between events.
    queue: Vec<(TxnId, ObjectId)>,
    /// Per held transaction, the objects it wrote after its terminal
    /// event and not before. Rare (an ill-formed stream), so no slot
    /// carries room for them; never serialised — `StreamFeed::restore`
    /// files them again from its parser's counters.
    strays: BTreeMap<TxnId, Vec<ObjectId>>,
}

/// The garbage collector's own state.
#[derive(Debug, Default)]
pub(crate) struct Collector {
    config: GcConfig,
    events_since_gc: u64,
    pruned_txns: u64,
    /// The eligibility index: exactly the transactions for which
    /// [`settled`] holds, in id order, each with its slot (being in
    /// here pins it: only [`Self::try_prune`] releases a transaction,
    /// and it takes it out first). Derived state — kept current by
    /// [`Self::settle`] wherever a counter moves, rebuilt on restore,
    /// never serialised.
    ready: BTreeMap<TxnId, TxnSlot>,
    /// The writes of the transactions pruned since the last drain, for
    /// a parser to forget — kept only once something drains them
    /// ([`Self::track_writes`]). `None`, the default, keeps nothing.
    released: Option<Released>,
    /// The peel's queue: (terminal clock, id) of the transactions
    /// committed while G2's graph is live that no pass has closed yet,
    /// in terminal-clock order. Derived state — fed by
    /// [`Self::note_commit`], rebuilt on restore
    /// ([`Self::rebuild_closing`]), never serialised.
    closing: VecDeque<(u64, TxnId)>,
    /// The peel's worklist, kept from pass to pass for its room.
    peel_stack: Vec<TxnId>,
    /// Test reference: collection passes scan the whole transaction
    /// table for candidates instead of walking `ready`.
    #[cfg(any(test, debug_assertions))]
    by_scan: bool,
}

impl Collector {
    /// A collector with this policy that has counted `events_since_gc`
    /// events since its last pass and pruned `pruned_txns` so far
    /// (zeros, unless restoring an image). The index starts empty; see
    /// [`Self::rebuild`].
    pub(crate) fn new(config: GcConfig, events_since_gc: u64, pruned_txns: u64) -> Collector {
        Collector {
            config,
            events_since_gc,
            pruned_txns,
            ..Collector::default()
        }
    }

    pub(crate) fn config(&self) -> GcConfig {
        self.config
    }

    pub(crate) fn events_since_gc(&self) -> u64 {
        self.events_since_gc
    }

    /// Transactions pruned so far.
    pub(crate) fn pruned_txns(&self) -> u64 {
        self.pruned_txns
    }

    /// From now on, hands every write of a pruned transaction to
    /// [`Self::drain_released`]: the objects it wrote while it ran
    /// (its `writes`) and those it wrote after its terminal event
    /// ([`Self::note_stray`]). That is how `StreamFeed`'s parser drops
    /// a transaction's counters with the transaction.
    pub(crate) fn track_writes(&mut self) {
        self.released.get_or_insert_with(Released::default);
    }

    /// Files `object` as written by the held transaction `id` beyond
    /// what its `writes` list — after its terminal event, a write the
    /// checker ignores but a parser counted. Nothing, unless
    /// [`Self::track_writes`] is on.
    pub(crate) fn note_stray(&mut self, id: TxnId, object: ObjectId) {
        if let Some(r) = &mut self.released {
            let strays = r.strays.entry(id).or_default();
            if !strays.contains(&object) {
                strays.push(object);
            }
        }
    }

    /// The (transaction, object) writes of the transactions pruned
    /// since the last call.
    #[inline]
    pub(crate) fn drain_released(&mut self) -> impl Iterator<Item = (TxnId, ObjectId)> + '_ {
        self.released.iter_mut().flat_map(|r| r.queue.drain(..))
    }

    /// See `OnlineChecker::set_gc_by_scan`.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn set_by_scan(&mut self, on: bool) {
        self.by_scan = on;
    }

    /// Re-checks `id` (at `slot`, in state `t`) against [`settled`] and
    /// files it in or out of `ready`. Called wherever one of the
    /// counters `settled` reads moves, before the event ends — passes
    /// only run between events, so that is soon enough. The row's
    /// [`TxnState::ready`] bit says whether `ready` holds it, so only a
    /// change of membership touches the map.
    pub(crate) fn settle(&mut self, id: TxnId, slot: TxnSlot, t: &mut TxnState) {
        let want = settled(t);
        if want == t.ready {
            return;
        }
        t.ready = want;
        if want {
            self.ready.insert(id, slot);
        } else {
            self.ready.remove(&id);
        }
    }

    /// Derives `ready`, and every row's bit, from the transaction table.
    pub(crate) fn rebuild(&mut self, txns: &mut TxnTable) {
        let settled_ids: Vec<(TxnId, TxnSlot)> = (txns.iter())
            .filter(|(_, _, t)| settled(t))
            .map(|(id, slot, _)| (id, slot))
            .collect();
        for &(_, slot) in &settled_ids {
            txns[slot].ready = true;
        }
        self.ready = settled_ids.into_iter().collect();
    }

    /// Files `id`, which committed at `terminal`, in the peel's queue —
    /// while collection is on and G2's graph is live (`peeling`).
    pub(crate) fn note_commit(&mut self, id: TxnId, terminal: u64, peeling: bool) {
        if self.config.enabled && peeling {
            self.closing.push_back((terminal, id));
        }
    }

    /// Derives the peel's queue from a restored image: the committed
    /// transactions the watermark has not passed, and those it has that
    /// a graph still holds. The uninterrupted queue holds the first and
    /// some of the second, and a pass does nothing with the rest: each
    /// is still not a source of the graphs (DESIGN.md, "Watermark GC").
    pub(crate) fn rebuild_closing(&mut self, txns: &TxnTable, lanes: &Lanes, watermark: u64) {
        self.closing.clear();
        if !self.config.enabled || !lanes.peeling() {
            return;
        }
        let mut queue: Vec<(u64, TxnId)> = (txns.iter())
            .filter(|&(id, _, t)| {
                t.status == Status::Committed
                    && (t.terminal_clock >= watermark || lanes.holds_node(id))
            })
            .map(|(id, _, t)| (t.terminal_clock, id))
            .collect();
        queue.sort_unstable();
        self.closing = queue.into();
    }

    /// Counts one ingested event; true when a collection pass is due.
    pub(crate) fn due(&mut self) -> bool {
        if !self.config.enabled {
            return false;
        }
        self.events_since_gc += 1;
        if self.events_since_gc < self.config.interval {
            return false;
        }
        self.events_since_gc = 0;
        true
    }

    #[cfg(any(test, debug_assertions))]
    fn run_by_scan(&mut self, h: &mut Heap<'_>, watermark: u64) {
        loop {
            let candidates: BTreeMap<TxnId, TxnSlot> = unpinned_by_scan(h.txns)
                .map(|(id, slot, _)| (id, slot))
                .collect();
            let mut progress = false;
            for (id, slot) in candidates {
                progress |= self.try_prune(id, slot, watermark, h);
            }
            if !progress {
                break;
            }
        }
    }

    /// One collection: peel the transactions the watermark has closed
    /// ([`Self::peel_closed`]), then prune every settled transaction
    /// below it, repeating while progress is made (a prune can settle a
    /// transaction the round has already passed). Then, if it pruned,
    /// the provenance orphans that named a pruned transaction go
    /// (`crate::provenance`).
    pub(crate) fn run(&mut self, h: &mut Heap<'_>) {
        let pruned = self.pruned_txns;
        let watermark = watermark(h.active, h.txns, h.clock);
        self.peel_closed(h, watermark);
        self.collect(h, watermark);
        if self.pruned_txns > pruned && h.prov.has_orphans() {
            let alive = |id| h.txns.lookup(id).is_some();
            h.prov.sweep_orphans(alive, |a, b| h.lanes.holds(a, b));
        }
    }

    /// Walks the queue up to `watermark`: each transaction it passes is
    /// closed, and goes with the out-neighbours it leaves sources
    /// ([`Self::cascade`]). While G2's graph is dropped the queue is
    /// neither fed nor walked, and gives its room back.
    fn peel_closed(&mut self, h: &mut Heap<'_>, watermark: u64) {
        if !h.lanes.peeling() {
            if self.closing.capacity() != 0 {
                self.closing = VecDeque::new();
            }
            return;
        }
        let (mut closed, mut visited, mut peeled) = (0u64, 0u64, 0u64);
        while let Some(&(terminal, id)) = self.closing.front() {
            if terminal >= watermark {
                break;
            }
            self.closing.pop_front();
            closed += 1;
            self.peel_stack.push(id);
            let (v, p) = self.cascade(h, watermark);
            (visited, peeled) = (visited + v, peeled + p);
        }
        shrink_if_sparse(&mut self.closing);
        if closed != 0 {
            adya_obs::counter!("online.gc_closed").add(closed);
            count_peel(visited, peeled);
        }
    }

    /// Pops the worklist empty: each closed transaction on it that the
    /// graphs hold as a source leaves them, and its out-neighbours go on
    /// the list. Returns (visits, peels).
    fn cascade(&mut self, h: &mut Heap<'_>, watermark: u64) -> (u64, u64) {
        let (mut visited, mut peeled) = (0, 0);
        while let Some(id) = self.peel_stack.pop() {
            visited += 1;
            let slot = h.txns.lookup(id);
            if slot.is_some_and(|s| closed(&h.txns[s], watermark))
                && h.lanes.peel(id, h.prov, &mut self.peel_stack)
            {
                peeled += 1;
            }
        }
        (visited, peeled)
    }

    fn collect(&mut self, h: &mut Heap<'_>, watermark: u64) {
        #[cfg(any(test, debug_assertions))]
        {
            // `ready` and `behind` against first principles: a counter
            // that moved without its settle() shows up here.
            let want: BTreeMap<TxnId, TxnSlot> = unpinned_by_scan(h.txns)
                .filter(|(_, _, t)| t.unsuperseded == 0 && heads_its_objects(h.objects, t))
                .map(|(id, slot, _)| (id, slot))
                .collect();
            debug_assert_eq!(self.ready, want);
            debug_assert!(
                (h.txns.iter()).all(|(id, _, t)| t.ready == self.ready.contains_key(&id)),
                "a row's ready bit disagrees with the index"
            );
            // Every chain is a live graph's edge, or an orphan of two
            // transactions still held.
            let alive = |id| h.txns.lookup(id).is_some();
            debug_assert!(
                h.prov
                    .edges()
                    .all(|(a, b)| h.lanes.holds(a, b)
                        || (h.prov.has_orphans() && alive(a) && alive(b))),
                "a provenance chain outlived its edge"
            );
            if self.by_scan {
                return self.run_by_scan(h, watermark);
            }
        }
        if self.ready.is_empty() {
            return; // nothing settled: the pass costs nothing
        }
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
            let mut next = self.ready.first_key_value().map(|(&id, &slot)| (id, slot));
            while let Some((id, slot)) = next {
                visited += 1;
                progress |= self.try_prune(id, slot, watermark, h);
                let rest = (Excluded(id), Unbounded);
                next = self.ready.range(rest).next().map(|(&id, &slot)| (id, slot));
            }
            if !progress {
                break;
            }
        }
        adya_obs::counter!("online.gc_visited").add(visited);
    }

    fn try_prune(&mut self, id: TxnId, slot: TxnSlot, watermark: u64, h: &mut Heap<'_>) -> bool {
        let t = &h.txns[slot];
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
        if !heads_its_objects(h.objects, t) || !h.lanes.removable(id) {
            return false;
        }
        h.lanes.contract(id, h.prov, &mut self.peel_stack);
        self.ready.remove(&id); // and `release` below clears its bit
        if t.status == Status::Committed {
            // Aborted writes were never installed; only committed ones
            // have entries to retire.
            for at in 0..h.txns[slot].writes.len() {
                let obj = h.txns[slot].writes[at].installed.expect("prefix rule");
                let obj = &mut h.objects[obj];
                let e = obj.entries.pop_front().expect("prefix rule");
                debug_assert_eq!(e, slot);
                obj.base += 1;
                if let Some(next) = obj.entries.front() {
                    h.txns[next].behind -= 1;
                    let id = h.txns.key_of(next);
                    self.settle(id, next, &mut h.txns[next]);
                }
            }
        }
        if let Some(r) = &mut self.released {
            let wrote = h.txns[slot].writes.iter().map(|w| w.object);
            r.queue.extend(wrote.map(|o| (id, o)));
            let strays = r.strays.remove(&id).unwrap_or_default();
            r.queue.extend(strays.into_iter().map(|o| (id, o)));
        }
        h.txns.release(slot);
        self.pruned_txns += 1;
        adya_obs::counter!("online.gc_pruned").inc();
        // A pruned source leaves its out-neighbours fewer in-edges, as a
        // peeled one does; one with an in-edge leaves them shortcuts.
        if h.lanes.peeling() {
            let (visited, peeled) = self.cascade(h, watermark);
            count_peel(visited, peeled);
        } else {
            self.peel_stack.clear();
        }
        true
    }
}

/// Publishes a peel's visits and peeled transactions.
fn count_peel(visited: u64, peeled: u64) {
    adya_obs::counter!("online.gc_peel_visited").add(visited);
    if peeled != 0 {
        adya_obs::counter!("online.gc_peeled").add(peeled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{feed, r, rinit, w};
    use crate::OnlineChecker;
    use adya_core::IsolationLevel;
    use adya_history::{Event, ObjectId, VersionId};

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
    fn the_peel_keeps_g2_to_what_the_watermark_has_not_passed() {
        // Insert-mostly: each transaction reads the last one's key and
        // writes a key of its own, which nobody overwrites, so no
        // transaction is ever pruned. Two stay open at a time. G2's
        // graph keeps only the transactions the watermark has not
        // passed, and those with an edge into them from one; without
        // collection it holds them all.
        let run = |gc: GcConfig| {
            let mut c = OnlineChecker::with_gc(gc);
            let mut peak = 0;
            c.ingest(&Event::Begin(TxnId(1)));
            c.ingest(&w(1, 1, 1));
            for i in 2..=500u32 {
                c.ingest(&Event::Begin(TxnId(i)));
                c.ingest(&r(i, i - 1, i - 1, 1));
                c.ingest(&w(i, i, 1));
                let v = c.ingest(&Event::Commit(TxnId(i - 1))).unwrap();
                assert_eq!((v.stale_refs, v.fired.len()), (0, 0));
                peak = peak.max(c.cycle_graphs()[1].unwrap().0);
            }
            c.ingest(&Event::Commit(TxnId(500)));
            let end = c.finish();
            assert_eq!(
                (end.stale_refs, end.fired.len(), end.pruned_txns),
                (0, 0, 0)
            );
            (peak, c.cycle_graphs()[1].unwrap().0)
        };
        let (peak, left) = run(GcConfig {
            enabled: true,
            interval: 1,
        });
        assert!(
            peak <= 4 && left <= 2,
            "G2 peaked at {peak} nodes, {left} left"
        );
        let (peak, _) = run(GcConfig {
            enabled: false,
            interval: 1,
        });
        assert!(peak >= 490, "without collection G2 held {peak} nodes");
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
        // T1 reads T3's y and x-init (wr T3 -> T1) and T2 overwrites x
        // (rw T1 -> T2). T5, open since before T3 committed, reads x2,
        // overwrites y and commits: rw T1 -> T5 releases T1's last
        // anchor, so T1 is pruned with its paths contracted into
        // T3 -> T2 and T3 -> T5, and no read is left stale.
        let mut c = OnlineChecker::with_gc(GcConfig {
            enabled: true,
            interval: 1,
        });
        feed(
            &mut c,
            &[
                Event::Begin(TxnId(3)),
                w(3, 1, 1),
                Event::Begin(TxnId(5)),
                r(5, 1, 3, 1),
                Event::Commit(TxnId(3)),
                Event::Begin(TxnId(1)),
                r(1, 1, 3, 1),
                rinit(1, 0),
                Event::Commit(TxnId(1)),
                Event::Begin(TxnId(2)),
                w(2, 0, 1),
                Event::Commit(TxnId(2)),
                Event::Begin(TxnId(9)),
                Event::Commit(TxnId(9)),
                r(5, 0, 2, 1),
                w(5, 1, 1),
                Event::Commit(TxnId(5)),
            ],
        );
        assert!(
            c.txns.lookup(TxnId(1)).is_none(),
            "T1 should have been pruned"
        );
        assert_eq!(c.finish().stale_refs, 0);
    }
}
