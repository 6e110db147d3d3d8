//! Edge provenance: the concrete operations behind each live DSG edge,
//! so a violating verdict can cite them.
//!
//! [`Provenance`] owns the per-edge chain map and the two per-node
//! side indexes that let a prune purge a node's entries in O(degree);
//! callers record, contract, purge and ask for a cycle's citations —
//! they never see the indexes, the chain representation or the hasher.

use std::collections::hash_map::Entry;

use adya_history::{IdMap, ObjectId, TxnId, VersionId};

use crate::lanes::{EdgeKind, EdgeMask};
use crate::verdict::CycleEdgeProv;

/// Most inducing operations remembered per DSG edge. Contraction
/// concatenates chains, so a cap keeps shortcut provenance bounded.
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

/// The provenance side map. Maintained only while tracking is on and
/// at least one cycle graph is still live; entries touching a pruned
/// transaction are merged into contraction shortcuts, then purged.
#[derive(Debug, Default)]
pub(crate) struct Provenance {
    /// Master switch (off by default; see E16 for the measured
    /// overhead).
    on: bool,
    chains: IdMap<(TxnId, TxnId), ProvChain>,
    /// Successors per source node of `chains` keys — lets a GC prune
    /// purge a node's entries in O(degree) instead of scanning the map.
    prov_out: IdMap<TxnId, Vec<TxnId>>,
    /// Predecessors per target node of `chains` keys.
    prov_in: IdMap<TxnId, Vec<TxnId>>,
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
        self.prov_out.clear();
        self.prov_in.clear();
    }

    /// Remembers one inducing operation for the edge `from -> to`.
    /// Callers gate on [`Self::enabled`] and on edge freshness;
    /// self-loops never get here because the graphs report them as
    /// duplicates.
    pub(crate) fn record(&mut self, from: TxnId, to: TxnId, step: ProvStep) {
        match self.chains.entry((from, to)) {
            Entry::Occupied(e) => e.into_mut().push(step),
            Entry::Vacant(e) => {
                self.prov_out.entry(from).or_default().push(to);
                self.prov_in.entry(to).or_default().push(from);
                e.insert(ProvChain::One(step));
            }
        }
    }

    /// Files `steps` as the whole chain of `a -> b`, keeping the
    /// per-node indexes in step. False, with nothing changed, when the
    /// edge already has a chain.
    pub(crate) fn insert(&mut self, a: TxnId, b: TxnId, steps: Vec<ProvStep>) -> bool {
        let Entry::Vacant(e) = self.chains.entry((a, b)) else {
            return false;
        };
        self.prov_out.entry(a).or_default().push(b);
        self.prov_in.entry(b).or_default().push(a);
        e.insert(ProvChain::from_steps(steps));
        true
    }

    /// `id` is being pruned and the graphs replaced the paths through
    /// it by `shortcuts`: each shortcut inherits the chain of both
    /// halves, so a later cycle through it can still cite concrete
    /// operations, and then every entry touching `id` goes. Shortcut
    /// order is deterministic (adjacency order), so the merged chains
    /// — and with them the snapshot bytes — are too.
    pub(crate) fn contract(&mut self, id: TxnId, shortcuts: &[(TxnId, TxnId)]) {
        if self.on {
            for &(a, b) in shortcuts {
                if self.chains.contains_key(&(a, b)) {
                    continue; // a direct edge already explains a -> b
                }
                let mut chain: Vec<ProvStep> = self
                    .chains
                    .get(&(a, id))
                    .map(|c| c.steps().to_vec())
                    .unwrap_or_default();
                if let Some(tail) = self.chains.get(&(id, b)) {
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
                    self.insert(a, b, chain);
                }
            }
        }
        self.purge(id);
    }

    /// Purges every entry touching `id` in O(degree), using the node
    /// indexes instead of a full-map scan.
    fn purge(&mut self, id: TxnId) {
        for x in self.prov_out.remove(&id).unwrap_or_default() {
            self.chains.remove(&(id, x));
            if let Some(l) = self.prov_in.get_mut(&x) {
                l.retain(|&t| t != id);
            }
        }
        for x in self.prov_in.remove(&id).unwrap_or_default() {
            self.chains.remove(&(x, id));
            if let Some(l) = self.prov_out.get_mut(&x) {
                l.retain(|&t| t != id);
            }
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

    /// Approximate heap footprint in bytes (capacity-based, so it
    /// reflects reserved memory, not just live entries).
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes =
            self.chains.capacity() * (size_of::<(TxnId, TxnId)>() + size_of::<ProvChain>());
        for c in self.chains.values() {
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
}

#[cfg(test)]
mod tests {
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
}
