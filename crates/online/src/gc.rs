//! Low-watermark garbage collection.
//!
//! The [`Collector`] owns one queue — every transaction that has ended,
//! in terminal-clock order — the collection schedule and the release
//! rule. The event handlers tell it two things: that a transaction
//! ended ([`Collector::note_end`]) and that a pin on one the queue has
//! passed is gone ([`Collector::recheck`]); and ask one: a pass when one
//! is [`Collector::due`]. A pass walks the queue up to the watermark.
//! Each transaction it passes has its superseded versions retired, is
//! peeled off the cycle graphs while it is a source (with the cascade),
//! and leaves the tables once the release rule ([`may_leave`]) holds,
//! its newest versions left on their objects as cold entries. Behind a
//! `StreamFeed`, the collector also lists the ids it released, and the
//! feed's parser forgets every counter of each one; the collector knows
//! nothing of those counters. What a pass visits, in which order, and
//! the debug-build check of the whole rule against the tables stay in
//! here (DESIGN.md, "Watermark GC").

use std::collections::VecDeque;

use adya_history::TxnId;

use crate::checker::{shrink_if_sparse, Running, Source, Status, TxnSlot, TxnState, TxnTable};
use crate::keys::Keys;
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

/// The GC low watermark: the earliest begin of any active
/// transaction, else the clock. Nothing that ended after it may leave
/// yet.
pub(crate) fn watermark(active: &[TxnSlot], txns: &TxnTable, clock: u64) -> u64 {
    let begins = active.iter().map(|&t| txns[t].begin_clock);
    begins.min().unwrap_or(clock)
}

/// Whether `t` is closed below `watermark`: it committed before every
/// transaction still running began, so it can gain no in-edge. A read
/// it parked would have been on a writer that began before its commit
/// and is running still; an anti-dependency edge into it needs a reader
/// that began before its commit, since a later one's read of a version
/// it superseded is retired (DESIGN.md, "Watermark GC").
pub(crate) fn closed(t: &TxnState, watermark: u64) -> bool {
    t.status == Status::Committed && t.terminal_clock < watermark
}

/// Whether the watermark has passed `t`: it is closed, or it aborted at
/// or before the watermark.
fn past(t: &TxnState, watermark: u64) -> bool {
    closed(t, watermark) || (t.status == Status::Aborted && t.terminal_clock <= watermark)
}

/// The release rule, spelled once: `t`, which has ended and which the
/// watermark has passed (`passed`), leaves the tables once no live graph
/// holds it (`held`) and none of its own reads is parked; if it
/// aborted, once no read of its versions pins it either (their G1a
/// checks need the row). A running reader of a committed `t`'s versions
/// takes what its commit asks of the row, the final seq, onto its read
/// ([`Source::Cold`]). Each version a committed `t` installed is then
/// retired or the oldest its object holds, and stays as a cold entry,
/// and its anchors go with it, since an rw edge out of a closed
/// transaction is on no cycle.
fn may_leave(t: &TxnState, passed: bool, held: bool) -> bool {
    let pinned = t.status == Status::Aborted && t.refs != 0;
    passed && !held && !pinned && t.awaiting == 0
}

/// What a collection pass works on: the checker's tables, and the
/// graphs and provenance map a peeled transaction must also leave.
pub(crate) struct Heap<'a> {
    pub(crate) clock: u64,
    pub(crate) active: &'a [TxnSlot],
    pub(crate) running: &'a mut [Running],
    pub(crate) txns: &'a mut TxnTable,
    pub(crate) objects: &'a mut Keys,
    pub(crate) lanes: &'a mut Lanes,
    pub(crate) prov: &'a mut Provenance,
}

/// The garbage collector's own state.
#[derive(Debug, Default)]
pub(crate) struct Collector {
    config: GcConfig,
    events_since_gc: u64,
    pruned_txns: u64,
    /// The ids of the transactions released since the last drain, for
    /// a parser to forget — kept only once something drains them
    /// ([`Self::track_releases`]). `None`, the default, keeps nothing.
    released: Option<Vec<TxnId>>,
    /// The queue: (terminal clock, id) of every transaction that has
    /// ended and that no pass has passed yet, in terminal-clock order.
    /// Derived state — fed by [`Self::note_end`], rebuilt on restore
    /// ([`Self::rebuild`]), never serialised.
    closing: VecDeque<(u64, TxnId)>,
    /// Passed transactions the next pass tries again: the last pin on
    /// one went. Derived, like the queue.
    recheck: Vec<TxnId>,
    /// The pass's worklists, kept from pass to pass for their room.
    peel_stack: Vec<TxnId>,
    candidates: Vec<TxnId>,
}

impl Collector {
    /// A collector with this policy that has counted `events_since_gc`
    /// events since its last pass and released `pruned_txns` so far
    /// (zeros, unless restoring an image). The queue starts empty; see
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

    /// Transactions released so far.
    pub(crate) fn pruned_txns(&self) -> u64 {
        self.pruned_txns
    }

    /// From now on, hands the id of every released transaction to
    /// [`Self::drain_released`]. That is how `StreamFeed`'s parser drops
    /// a transaction's counters with the transaction.
    pub(crate) fn track_releases(&mut self) {
        self.released.get_or_insert_with(Vec::new);
    }

    /// The ids of the transactions released since the last call.
    #[inline]
    pub(crate) fn drain_released(&mut self) -> impl Iterator<Item = TxnId> + '_ {
        self.released.iter_mut().flat_map(|r| r.drain(..))
    }

    /// Files `id`, which ended at `terminal`, at the back of the queue —
    /// terminal events come in clock order — while collection is on.
    pub(crate) fn note_end(&mut self, id: TxnId, terminal: u64) {
        if self.config.enabled {
            self.closing.push_back((terminal, id));
        }
    }

    /// The last pin on `id`, which a pass has passed, is gone: the next
    /// pass tries it again.
    pub(crate) fn recheck(&mut self, id: TxnId) {
        self.recheck.push(id);
    }

    /// Derives the queue from a restored image: every transaction that
    /// has ended, none passed. The next pass passes again those the
    /// uninterrupted run had passed — retiring and peeling nothing new
    /// (DESIGN.md, "Watermark GC") — and releases those it would have.
    pub(crate) fn rebuild(&mut self, txns: &TxnTable) {
        self.closing.clear();
        self.recheck.clear();
        if !self.config.enabled {
            return;
        }
        let mut queue: Vec<(u64, TxnId)> = (txns.iter())
            .filter(|(_, _, t)| t.status != Status::Active)
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

    /// One collection: pass every transaction the queue holds below the
    /// watermark ([`Self::pass`]), then try the release rule on each
    /// transaction whose standing a pass, a peel or a pin may have
    /// changed. Then, if one left, the provenance orphans that named it
    /// go (`crate::provenance`).
    pub(crate) fn run(&mut self, h: &mut Heap<'_>) {
        let released = self.pruned_txns;
        let watermark = watermark(h.active, h.txns, h.clock);
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.append(&mut self.recheck);
        // A latch or a shed let these nodes go without a peel: the
        // passed ones are candidates now, the rest will be when the
        // pass passes them. (One lookup each, which the edge insert that
        // brought the node in paid for.)
        let txns = &*h.txns;
        h.lanes.take_let_go(&mut candidates, |id| {
            txns.lookup(id).is_some_and(|s| txns[s].passed)
        });
        self.pass(h, watermark, &mut candidates);
        let visited = candidates.len() as u64;
        for id in candidates.drain(..) {
            self.try_release(id, h);
        }
        self.candidates = candidates;
        adya_obs::counter!("online.gc_visited").add(visited);
        if self.pruned_txns > released && h.prov.has_orphans() {
            let alive = |id| h.txns.lookup(id).is_some();
            h.prov.sweep_orphans(alive, |a, b| h.lanes.holds(a, b));
        }
        #[cfg(any(test, debug_assertions))]
        check_the_rule(h, watermark);
    }

    /// Walks the queue up to `watermark`: each transaction it passes is
    /// a candidate, and if it committed, the versions it superseded are
    /// retired ([`Self::retire`]) and it goes off the graphs with the
    /// out-neighbours it leaves sources ([`Self::cascade`]) while G2's
    /// graph is live.
    fn pass(&mut self, h: &mut Heap<'_>, watermark: u64, candidates: &mut Vec<TxnId>) {
        let (mut passed, mut visited, mut peeled) = (0u64, 0u64, 0u64);
        while let Some(&(terminal, id)) = self.closing.front() {
            let slot = h.txns.lookup(id).expect("a queued transaction is held");
            if !past(&h.txns[slot], watermark) {
                debug_assert!(terminal >= watermark);
                break;
            }
            self.closing.pop_front();
            passed += 1;
            h.txns[slot].passed = true;
            candidates.push(id);
            if h.txns[slot].status != Status::Committed {
                continue;
            }
            self.retire(h, slot, candidates);
            if h.lanes.peeling() {
                self.peel_stack.push(id);
                let (v, p) = self.cascade(h, watermark, candidates);
                (visited, peeled) = (visited + v, peeled + p);
            }
        }
        shrink_if_sparse(&mut self.closing);
        if passed != 0 {
            adya_obs::counter!("online.gc_closed").add(passed);
            adya_obs::counter!("online.gc_peel_visited").add(visited);
            if peeled != 0 {
                adya_obs::counter!("online.gc_peeled").add(peeled);
            }
        }
    }

    /// The watermark has passed the committed transaction at `slot`:
    /// every version it superseded, and every older one, is retired —
    /// taken off the front of its object, its writer's entry marked
    /// retired, and the writer a candidate again. A cold entry it
    /// superseded goes too.
    fn retire(&mut self, h: &mut Heap<'_>, slot: TxnSlot, candidates: &mut Vec<TxnId>) {
        for at in 0..h.txns[slot].writes.len() {
            let w = h.txns[slot].writes[at];
            let Some(o) = w.installed else {
                continue;
            };
            let Some(superseded) = h.objects[o].index_of(w.pos) else {
                continue;
            };
            let object = h.objects.key_of(o);
            h.objects[o].cold = None;
            for _ in 0..superseded {
                let obj = &mut h.objects[o];
                let owner = obj.entries.pop_front().expect("an older version");
                obj.base += 1;
                let t = &mut h.txns[owner];
                let at = t.writes.binary_search_by_key(&object, |w| w.object);
                t.writes[at.expect("an installer wrote its object")].installed = None;
                if t.passed {
                    candidates.push(h.txns.key_of(owner));
                }
            }
        }
    }

    /// Pops the worklist empty: each closed transaction on it that the
    /// graphs hold as a source leaves them — a candidate, once passed —
    /// and its out-neighbours go on the list. Returns (visits, peels).
    fn cascade(
        &mut self,
        h: &mut Heap<'_>,
        watermark: u64,
        candidates: &mut Vec<TxnId>,
    ) -> (u64, u64) {
        let (mut visited, mut peeled) = (0, 0);
        while let Some(id) = self.peel_stack.pop() {
            visited += 1;
            let Some(slot) = h.txns.lookup(id) else {
                continue;
            };
            if closed(&h.txns[slot], watermark) && h.lanes.peel(id, h.prov, &mut self.peel_stack) {
                peeled += 1;
                if h.txns[slot].passed {
                    candidates.push(id);
                }
            }
        }
        (visited, peeled)
    }

    /// Releases `id` if it is still held and [`may_leave`] says it may:
    /// its versions stay on their objects as cold entries, its
    /// anchors leave its objects' reader lists, the running reads of its
    /// versions take its final seqs, its id goes on the list a feed
    /// drains, and its row goes.
    fn try_release(&mut self, id: TxnId, h: &mut Heap<'_>) {
        let Some(slot) = h.txns.lookup(id) else {
            return; // a candidate twice over
        };
        let t = &h.txns[slot];
        if !may_leave(t, t.passed, h.lanes.holds_node(id)) {
            return;
        }
        for w in &t.writes {
            if let Some(o) = w.installed {
                let obj = &mut h.objects[o];
                let front = obj.entries.pop_front();
                debug_assert_eq!(front, Some(slot), "a passed version is the oldest held");
                obj.base += 1;
                obj.cold = Some((id, w.seq));
                h.objects.settle(o);
            }
        }
        for &o in &t.anchors {
            h.objects[o].anchored.remove_one(slot);
            h.objects.settle(o);
        }
        if t.refs != 0 {
            // Running readers of its versions take its final seq of the
            // object, or a stale tick for one it never wrote.
            let reads = h.running[..h.active.len()]
                .iter_mut()
                .flat_map(|r| &mut r.reads);
            for r in reads.filter(|r| r.source == Source::Held(slot)) {
                r.source = t
                    .write_of(r.object)
                    .map_or(Source::Stale, |w| Source::Cold(w.seq));
            }
        }
        if let Some(r) = &mut self.released {
            r.push(id);
        }
        h.txns.release(slot);
        self.pruned_txns += 1;
        adya_obs::counter!("online.gc_pruned").inc();
    }
}

/// The release rule from first principles, after every pass in debug
/// builds: a scan of the transaction table finds none the watermark has
/// passed that the queue has not, none the rule would release, no
/// closed source left in a graph being peeled, and no retired version
/// left on an object — one whose successor, or a cold entry's, is
/// closed (closure follows commit order, so the successor is the one to
/// ask). A pass, a peel, a pop or a release that went missing shows up
/// here.
#[cfg(any(test, debug_assertions))]
fn check_the_rule(h: &Heap<'_>, watermark: u64) {
    for (id, _, t) in h.txns.iter() {
        let held = h.lanes.holds_node(id);
        let passed = past(t, watermark);
        assert_eq!(t.passed, passed, "{id}: passed by the watermark");
        assert!(!may_leave(t, passed, held), "{id} should have left");
        assert!(
            !(closed(t, watermark) && h.lanes.peeling() && h.lanes.peelable(id)),
            "{id} is a closed source still in a graph"
        );
        for w in &t.writes {
            let Some(o) = w.installed else {
                continue;
            };
            let obj = &h.objects[o];
            let i = obj.index_of(w.pos).expect("an installed version is held");
            let next = obj.entries.get(i + 1);
            let cold = i == 0 && obj.cold.is_some();
            assert!(
                !next.is_some_and(|n| closed(&h.txns[n], watermark)),
                "{id}'s version of {} is retired",
                w.object
            );
            assert!(
                !(cold && closed(t, watermark)),
                "{} keeps a cold entry {id} retired",
                w.object
            );
        }
    }
    // Every chain is a live graph's edge, or an orphan of two
    // transactions still held.
    let alive = |id| h.txns.lookup(id).is_some();
    assert!(
        h.prov
            .edges()
            .all(|(a, b)| h.lanes.holds(a, b) || (h.prov.has_orphans() && alive(a) && alive(b))),
        "a provenance chain outlived its edge"
    );
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
        // writes a key of its own, which nobody overwrites, so every
        // version stays the newest of its key. Two stay open at a time.
        // G2's graph keeps only the transactions the watermark has not
        // passed, and those with an edge into them from one, and the
        // tables only those and the running ones: the rest leave, their
        // versions cold. Without collection both hold them all.
        let run = |gc: GcConfig| {
            let mut c = OnlineChecker::with_gc(gc);
            let (mut peak, mut rows) = (0, 0);
            c.ingest(&Event::Begin(TxnId(1)));
            c.ingest(&w(1, 1, 1));
            for i in 2..=500u32 {
                c.ingest(&Event::Begin(TxnId(i)));
                c.ingest(&r(i, i - 1, i - 1, 1));
                c.ingest(&w(i, i, 1));
                let v = c.ingest(&Event::Commit(TxnId(i - 1))).unwrap();
                assert_eq!((v.stale_refs, v.fired.len()), (0, 0));
                peak = peak.max(c.cycle_graphs()[1].unwrap().0);
                rows = rows.max(c.live_txns());
            }
            c.ingest(&Event::Commit(TxnId(500)));
            let end = c.finish();
            assert_eq!((end.stale_refs, end.fired.len()), (0, 0));
            (peak, rows, c.cycle_graphs()[1].unwrap().0)
        };
        let (peak, rows, left) = run(GcConfig {
            enabled: true,
            interval: 1,
        });
        assert!(
            peak <= 4 && left <= 2 && rows <= 6,
            "G2 peaked at {peak} nodes, {left} left; {rows} rows held"
        );
        let (peak, rows, _) = run(GcConfig {
            enabled: false,
            interval: 1,
        });
        assert!(
            peak >= 490 && rows >= 490,
            "without collection G2 held {peak} nodes, the tables {rows} rows"
        );
    }

    #[test]
    fn an_aborted_row_a_later_reader_pins_leaves_when_the_reader_ends() {
        // T1 aborts; T2, begun after that, reads T1's version. Once T9,
        // open from the start, ends, the watermark passes T1 while T2's
        // pin holds it — T2's commit needs the row for its G1a check —
        // and T1 leaves at the first pass after T2 ends.
        let mut c = OnlineChecker::with_gc(GcConfig {
            enabled: true,
            interval: 1,
        });
        feed(
            &mut c,
            &[
                Event::Begin(TxnId(9)),
                Event::Begin(TxnId(1)),
                w(1, 0, 1),
                Event::Abort(TxnId(1)),
                Event::Begin(TxnId(2)),
                r(2, 0, 1, 1),
                Event::Commit(TxnId(9)),
            ],
        );
        let t1 = c.txns.lookup(TxnId(1)).expect("pinned by T2's read");
        assert!(c.txns[t1].passed);
        let v = c.ingest(&Event::Commit(TxnId(2))).unwrap();
        assert_eq!(v.new_fired, [adya_core::PhenomenonKind::G1a]);
        c.ingest(&Event::Begin(TxnId(3)));
        assert!(c.txns.lookup(TxnId(1)).is_none(), "T1 left");
    }

    /// `new_fired` of the last verdict `evs` give, with collection every
    /// `interval` events, and with collection off.
    fn last_new_fired(evs: &[Event], interval: u64) -> [Vec<adya_core::PhenomenonKind>; 2] {
        [true, false].map(|enabled| {
            let mut c = OnlineChecker::with_gc(GcConfig { enabled, interval });
            let v = feed(&mut c, evs).pop().expect("a verdict");
            assert!(!enabled || c.pruned_txns() > 0, "a pass ran and released");
            v.new_fired
        })
    }

    #[test]
    fn a_retired_read_keeps_its_g1b_check_when_its_writer_leaves() {
        // T1 writes x twice and commits; T2 overwrites x and commits;
        // T3, begun after that, reads T1's first x — a retired read — and
        // stays open while the fillers run a pass (interval 64) that
        // passes T1, retires its version and releases it. T3's read took
        // T1's final seq of x as T1 left, so T3's commit fires G1b, as
        // the exact checker does.
        let mut evs = vec![
            Event::Begin(TxnId(1)),
            w(1, 0, 1),
            w(1, 0, 2),
            Event::Commit(TxnId(1)),
            Event::Begin(TxnId(2)),
            w(2, 0, 1),
            Event::Commit(TxnId(2)),
            Event::Begin(TxnId(3)),
            r(3, 0, 1, 1),
        ];
        for i in 10..34 {
            evs.extend([Event::Begin(TxnId(i)), w(i, 1, 1), Event::Commit(TxnId(i))]);
        }
        evs.push(Event::Commit(TxnId(3)));
        let g1b = vec![adya_core::PhenomenonKind::G1b];
        assert_eq!(last_new_fired(&evs, 64), [g1b.clone(), g1b]);

        // The same read made after T1 left: T9, open since before T2
        // committed, keeps T2 unpassed, so T1's version is a superseded
        // cold entry when T3 reads it; T9's commit lets the watermark
        // pass T2, which retires the entry before T3 commits.
        let evs = [
            Event::Begin(TxnId(1)),
            w(1, 0, 1),
            w(1, 0, 2),
            Event::Commit(TxnId(1)),
            Event::Begin(TxnId(9)),
            Event::Begin(TxnId(2)),
            w(2, 0, 1),
            Event::Commit(TxnId(2)),
            Event::Begin(TxnId(3)),
            r(3, 0, 1, 1),
            Event::Commit(TxnId(9)),
            Event::Begin(TxnId(4)),
            Event::Commit(TxnId(3)),
        ];
        let g1b = vec![adya_core::PhenomenonKind::G1b];
        assert_eq!(last_new_fired(&evs, 1), [g1b.clone(), g1b]);
    }

    #[test]
    fn parked_readers_settle_when_their_writer_ends() {
        // Committed readers parked on a still-active writer become
        // free to leave the moment the writer commits or aborts, whether
        // the read was an item read or a predicate's version-set
        // entry. With a pass after every event, the release rule's
        // check sees each of those hand-overs.
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
            // plants T1 -wr-> T3, and T3 stays in G2's graph until T1,
            // once the watermark passes it, is peeled and T3 with it).
            let aborted = matches!(end, Event::Abort(_));
            assert_eq!(c.pruned_txns(), if aborted { 2 } else { 1 });
            // T4 goes, and with its pin released so does T1 — a
            // committed one leaving its version as a cold entry, and
            // T3's anchor there going with T3.
            c.ingest(&Event::Abort(TxnId(4)));
            assert_eq!(c.pruned_txns(), 4);
            let cold = (!aborted).then_some((TxnId(1), 1));
            assert_eq!(c.objects.cold(ObjectId(0)), cold);
            assert_eq!(c.objects.lookup(ObjectId(0)), None, "nothing holds x");
        }
    }

    #[test]
    fn an_interior_node_leaves_once_its_in_neighbours_have() {
        // T1 reads T3's y and x-init (wr T3 -> T1) and T2 overwrites x
        // (rw T1 -> T2). T5, open since before T3 committed, holds the
        // watermark below them all; it reads x2, overwrites y (rw
        // T1 -> T5) and commits. Then all are closed: T3 leaves the
        // graphs as a source, T1 after it, and their rows go, with no
        // read left stale.
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
        assert!(c.txns.lookup(TxnId(1)).is_none(), "T1 should have left");
        assert_eq!(c.finish().stale_refs, 0);
    }
}
