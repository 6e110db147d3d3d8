//! Edge provenance: the concrete operations behind each live DSG edge,
//! so a violating verdict can cite them.
//!
//! [`Provenance`] owns the per-edge chain map; callers record, purge
//! and ask for a cycle's citations — they never see the chain
//! representation or the hasher.
//!
//! **Every chain is an edge of a live graph, or an orphan.** A chain is
//! filed only for an edge fresh in some lane's graph, and a node leaves
//! a graph only as a source the peel takes with its edges — which
//! [`crate::lanes::Lanes::peel`] walks anyway — so those edges' chains
//! are all the chains that name it, and the map keeps no index of its
//! own. A latch that drops one graph while the other lives leaves
//! *orphans*: chains of the dropped graph's edges that the other does
//! not hold. They stay (a later edge on the same pair extends its
//! chain, and images carry them) until an endpoint leaves the checker:
//! the collector sweeps them at the end of every pass that released a
//! transaction ([`Provenance::sweep_orphans`]). When no graph holds an
//! edge at all the map is cleared. Debug builds assert the invariant at
//! every collection pass.

use std::collections::hash_map::Entry;

use adya_history::{IdMap, ObjectId, TxnId, VersionId};

use crate::lanes::{EdgeKind, EdgeMask};
use crate::verdict::CycleEdgeProv;

/// Most inducing operations remembered per DSG edge: a pair of
/// transactions can conflict on any number of objects.
const PROV_CAP: usize = 8;

/// One concrete operation that induced (part of) a DSG edge: the
/// conflict kind plus the object/version it happened on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ProvStep {
    pub(crate) kind: EdgeKind,
    pub(crate) object: ObjectId,
    pub(crate) version: VersionId,
}

impl ProvStep {
    fn render(&self) -> String {
        format!("{} {}[{}]", self.kind.name(), self.object, self.version)
    }
}

/// A per-edge provenance chain. Nearly every edge is induced by one
/// operation, so the single-step case is stored inline — a heap
/// allocation per edge key showed up as the bulk of E16's hot-path
/// overhead. Chains only spill to a `Vec` when a second distinct
/// operation lands on the same edge, and the
/// `Vec` is boxed: the enum then fits in a step's 16 bytes, its tag in
/// the niche of [`EdgeKind`], so a map entry is 24 bytes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ProvChain {
    One(ProvStep),
    #[allow(clippy::box_collection)]
    Many(Box<Vec<ProvStep>>),
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
                    *self = ProvChain::Many(Box::new(vec![*s, st]));
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
            _ => ProvChain::Many(Box::new(steps)),
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

/// The provenance side map. Maintained only while tracking is on and
/// at least one cycle graph is still live; the entries of a peeled
/// transaction's edges are purged with it.
#[derive(Debug, Default)]
pub(crate) struct Provenance {
    /// Master switch (off by default; see E16 for the measured
    /// overhead).
    on: bool,
    chains: IdMap<(TxnId, TxnId), ProvChain>,
    /// Whether some chain may be an orphan (see the module docs).
    orphans: bool,
    /// The most `chains.capacity()` has reported: the room of its table.
    /// hashbrown reports less while removals leave tombstones, and keeps
    /// a table's buckets until it is dropped.
    room: usize,
}

/// Bytes a `HashMap` with room for `capacity` entries has allocated for
/// entries of `size` bytes aligned to `align`: hashbrown's buckets — a
/// power of two, 8/7 of the capacity from 8 buckets on —, one control
/// byte per bucket and one trailing 16-byte control group.
fn table_bytes(capacity: usize, size: usize, align: usize) -> usize {
    const GROUP: usize = 16;
    if capacity == 0 {
        return 0;
    }
    let buckets = if capacity < 8 {
        (capacity + 1).next_power_of_two()
    } else {
        (capacity / 7 * 8).next_power_of_two()
    };
    (buckets * size).next_multiple_of(GROUP.max(align)) + buckets + GROUP
}

impl Provenance {
    /// Whether edge provenance is being tracked.
    pub(crate) fn enabled(&self) -> bool {
        self.on
    }

    /// Turns tracking on or off; turning it off forgets every chain.
    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.on = on;
        if !on {
            self.clear();
        }
    }

    /// Forgets every chain (tracking stays as it was).
    pub(crate) fn clear(&mut self) {
        self.chains.clear();
        self.orphans = false;
    }

    /// Notes whether a chain is left whose edge no live graph holds —
    /// `held` says which a graph does: after a latch dropped one graph
    /// while the other lives, and on restore.
    pub(crate) fn note_orphans(&mut self, held: impl Fn(TxnId, TxnId) -> bool) {
        self.orphans = self.chains.keys().any(|&(a, b)| !held(a, b));
    }

    /// Whether some chain may be an orphan.
    pub(crate) fn has_orphans(&self) -> bool {
        self.orphans
    }

    /// The end of a collection pass that released a transaction: every
    /// orphan (a chain whose edge `held` says no live graph holds) that
    /// names a transaction no longer `alive` goes. The other chains are
    /// a live graph's, whose peeled nodes' chains went with their edges.
    /// One walk of the map, while orphans are left.
    pub(crate) fn sweep_orphans(
        &mut self,
        alive: impl Fn(TxnId) -> bool,
        held: impl Fn(TxnId, TxnId) -> bool,
    ) {
        let mut left = false;
        self.chains.retain(|&(a, b), _| {
            if held(a, b) {
                return true;
            }
            let keep = alive(a) && alive(b);
            left |= keep;
            keep
        });
        self.orphans = left;
    }

    /// Remembers one inducing operation for the edge `from -> to`.
    /// Callers gate on [`Self::enabled`] and on edge freshness;
    /// self-loops never get here because the graphs report them as
    /// duplicates.
    pub(crate) fn record(&mut self, from: TxnId, to: TxnId, step: ProvStep) {
        match self.chains.entry((from, to)) {
            Entry::Occupied(e) => e.into_mut().push(step),
            Entry::Vacant(e) => {
                e.insert(ProvChain::One(step));
                self.room = self.room.max(self.chains.capacity());
            }
        }
    }

    /// Files `steps` as the whole chain of `a -> b`. False, with
    /// nothing changed, when the edge already has a chain.
    pub(crate) fn insert(&mut self, a: TxnId, b: TxnId, steps: Vec<ProvStep>) -> bool {
        let Entry::Vacant(e) = self.chains.entry((a, b)) else {
            return false;
        };
        e.insert(ProvChain::from_steps(steps));
        self.room = self.room.max(self.chains.capacity());
        true
    }

    /// Forgets the chains of `edges`: a peeled transaction's, which no
    /// cycle can cite again.
    pub(crate) fn purge(&mut self, edges: &[(TxnId, TxnId)]) {
        for edge in edges {
            self.chains.remove(edge);
        }
    }

    /// The provenance-annotated form of a just-detected witness cycle;
    /// empty when tracking is off.
    pub(crate) fn cycle(&self, witness: &[(TxnId, TxnId, EdgeMask)]) -> Vec<CycleEdgeProv> {
        if !self.on {
            return Vec::new();
        }
        witness
            .iter()
            .map(|&(a, b, m)| CycleEdgeProv {
                from: a,
                to: b,
                anti: m.has_item_anti(),
                via: self
                    .chains
                    .get(&(a, b))
                    .map(|c| render_chain(c.steps()))
                    .unwrap_or_default(),
            })
            .collect()
    }

    /// The edges that have a chain, in no particular order.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (TxnId, TxnId)> + '_ {
        self.chains.keys().copied()
    }

    /// Every chain, in key order (what the snapshot image carries).
    pub(crate) fn sorted(&self) -> Vec<((TxnId, TxnId), &[ProvStep])> {
        let mut all: Vec<_> = self.chains.iter().map(|(&k, c)| (k, c.steps())).collect();
        all.sort_unstable_by_key(|&(k, _)| k);
        all
    }

    /// Heap bytes allocated: the map's table as hashbrown lays it out
    /// (so reserved room, not just live entries) and the spilled
    /// chains' boxes and buffers.
    pub(crate) fn bytes(&self) -> usize {
        type Entry = ((TxnId, TxnId), ProvChain);
        let table = table_bytes(
            self.room,
            std::mem::size_of::<Entry>(),
            std::mem::align_of::<Entry>(),
        );
        let spilled = self.chains.values().map(|c| match c {
            ProvChain::One(_) => 0,
            ProvChain::Many(v) => {
                std::mem::size_of::<Vec<ProvStep>>()
                    + v.capacity() * std::mem::size_of::<ProvStep>()
            }
        });
        table + spilled.sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::table_bytes;
    use crate::testkit::{feed, r, rinit, w};
    use crate::{GcConfig, OnlineChecker};
    use adya_core::PhenomenonKind;
    use adya_history::{Event, TxnId};

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
    fn table_bytes_follow_hashbrowns_layout() {
        // Capacity → buckets: 3 → 4, 7 → 8, 14 → 16, 28 → 32.
        assert_eq!(table_bytes(0, 32, 8), 0);
        assert_eq!(table_bytes(3, 32, 8), 4 * 32 + 4 + 16);
        assert_eq!(table_bytes(7, 12, 4), 96 + 8 + 16);
        assert_eq!(table_bytes(14, 12, 4), 192 + 16 + 16);
        assert_eq!(table_bytes(28, 32, 8), 32 * 32 + 32 + 16);
        let mut m: std::collections::HashMap<u64, [u64; 3]> = Default::default();
        for i in 0..1000 {
            m.insert(i, [i; 3]);
        }
        // 1000 entries sit in 2048 buckets, which report room for 1792.
        assert_eq!(m.capacity(), 1792);
        assert_eq!(table_bytes(m.capacity(), 32, 8), 2048 * 33 + 16);

        // Removals leave tombstones, and `capacity()` counts them out;
        // the table keeps its buckets, and `bytes` counts them.
        let mut prov = super::Provenance::default();
        prov.set_enabled(true);
        let step = |t| super::ProvStep {
            kind: crate::lanes::EdgeKind::Ww,
            object: adya_history::ObjectId(0),
            version: adya_history::VersionId::new(TxnId(t), 1),
        };
        for t in 0..1792 {
            prov.record(TxnId(t), TxnId(t + 1), step(t));
        }
        let full = prov.bytes();
        assert_eq!(full, 2048 * (24 + 1) + 16);
        let gone: Vec<_> = (0..1000).map(|t| (TxnId(t), TxnId(t + 1))).collect();
        prov.purge(&gone);
        assert!(prov.chains.capacity() < 1792);
        assert_eq!(prov.bytes(), full);
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
    fn a_transaction_the_watermark_has_not_passed_stays_to_be_cited() {
        // T1 -wr-> T2 -rw-> T3 with T2 read-only. T5, open from the
        // start, holds the watermark below them all, so T2 stays in the
        // graphs — a transaction leaves them only as a closed source, and
        // no path through one is ever cut. A cycle closed through T2
        // later cites T2's own operations.
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
                Event::Begin(TxnId(9)),
                Event::Commit(TxnId(9)),
            ],
        );
        assert_eq!(c.pruned_txns(), 0, "the watermark has passed nothing");
        // Close the loop: T5 reads x[3:1] (wr T3 -> T5) and its parked
        // y-init read becomes rw T5 -> T1: a cycle through T2 holding
        // an anti edge, G2-item.
        let vs = feed(&mut c, &[r(5, 0, 3, 1), Event::Commit(TxnId(5))]);
        let fire = vs
            .iter()
            .find(|v| v.new_fired.contains(&PhenomenonKind::G2Item))
            .expect("the cycle through T2 fires G2-item");
        let cycle = fire.cycle.as_ref().expect("provenance attached");
        let via = |a, b| {
            let e = cycle
                .iter()
                .find(|e| e.from == TxnId(a) && e.to == TxnId(b));
            e.map(|e| e.via.clone()).unwrap_or_default()
        };
        assert_eq!(via(1, 2), "wr obj1[1]", "{cycle:?}");
        assert_eq!(via(2, 3), "rw obj0[3]", "{cycle:?}");
        assert_eq!(c.finish().stale_refs, 0);
    }
}
