//! The cycle graphs as one table.
//!
//! The paper states G0, G1c and G2 as one condition — the DSG contains
//! a directed cycle — over three sets of edges (§4.4–4.5, Figure 6):
//!
//! | lane | edges admitted | the paper's wording                               | latches      |
//! |------|----------------|---------------------------------------------------|--------------|
//! | 0    | ww, wr         | G1c: a cycle consisting entirely of dependency edges | G1c        |
//! | 1    | ww, wr, rw     | G2: a cycle with one or more anti-dependency edges | G2-item, G2 |
//!
//! G0 (ww edges alone) has no row: commit-order installs make every ww
//! edge ascend, so no write cycle closes online (DESIGN.md, "The lane table").
//! For the same reason G1c's graph holds nothing while no read is parked
//! on a running writer: only a parked read plants a ww/wr edge that runs
//! back in commit order, so the graph is shed between events while none
//! is, and a commit that began with none sits its plan out (DESIGN.md,
//! "Why G1c's graph is empty while nothing is parked").
//!
//! [`LANES`] is that table; a [`Lane`] is one row's incremental graph
//! with its reused results buffer, dropped once its phenomenon latches.
//! [`Lanes::apply`] inserts a commit's planned edges into every live
//! lane that admits them and replays the results through the one rule.
//! A new edge kind is a row of [`EdgeKind`]; a new filter is a row of
//! [`LANES`].

use std::fmt::Write as _;
use std::time::Instant;

use adya_core::PhenomenonKind;
use adya_graph::{IncrementalDag, Insert};
use adya_history::TxnId;

use crate::checker::recycled;
use crate::provenance::{ProvStep, Provenance};
use crate::verdict::{edge_label, Fired};

/// Edge label in the incremental graphs: whether the edge is an item
/// anti-dependency — all a cycle rule asks of it (`LANES`' `needs_anti`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct EdgeMask(pub(crate) u8);

impl EdgeMask {
    /// ww or wr — a dependency edge.
    const DEP: EdgeMask = EdgeMask(0);
    /// rw — an item anti-dependency edge.
    const ANTI_ITEM: EdgeMask = EdgeMask(1);

    /// The label with snapshot byte `bits`.
    pub(crate) fn from_bits(bits: u8) -> Option<EdgeMask> {
        (bits <= EdgeMask::ANTI_ITEM.0).then_some(EdgeMask(bits))
    }

    pub(crate) fn has_item_anti(self) -> bool {
        self.0 & 1 != 0
    }
}

/// The kind of direct conflict behind a planned edge (Figure 2's item
/// rows). Everything that varies by kind is read off this enum: the
/// graph label, the wire code in snapshot images, the name in
/// provenance text — and [`LANES`] names the kinds each lane admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EdgeKind {
    /// Write dependency: `to` overwrote `from`'s version.
    Ww,
    /// Read dependency: `to` read a version `from` wrote.
    Wr,
    /// Item anti-dependency: `to` overwrote a version `from` read.
    Rw,
}

impl EdgeKind {
    const ALL: [EdgeKind; 3] = [EdgeKind::Ww, EdgeKind::Wr, EdgeKind::Rw];

    /// The label the edge carries in the graphs.
    pub(crate) fn mask(self) -> EdgeMask {
        match self {
            EdgeKind::Ww | EdgeKind::Wr => EdgeMask::DEP,
            EdgeKind::Rw => EdgeMask::ANTI_ITEM,
        }
    }

    /// Wire-stable code (0/1/2) of a provenance step in the image.
    pub(crate) fn code(self) -> u8 {
        self as u8
    }

    /// The kind with wire code `c`.
    pub(crate) fn from_code(c: u8) -> Option<EdgeKind> {
        EdgeKind::ALL.get(usize::from(c)).copied()
    }

    /// `ww` / `wr` / `rw`, as provenance chains spell it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EdgeKind::Ww => "ww",
            EdgeKind::Wr => "wr",
            EdgeKind::Rw => "rw",
        }
    }

    /// Which endpoint wrote the version the conflict is about: the
    /// overwritten or read version is `from`'s, the overwriting one
    /// `to`'s.
    pub(crate) fn writer<T>(self, from: T, to: T) -> T {
        match self {
            EdgeKind::Ww | EdgeKind::Wr => from,
            EdgeKind::Rw => to,
        }
    }
}

/// One DSG edge discovered while resolving a commit, queued for
/// application to the cycle graphs (see [`Lanes::apply`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlannedEdge {
    pub(crate) kind: EdgeKind,
    /// Depended-on transaction.
    pub(crate) from: TxnId,
    /// Depending transaction.
    pub(crate) to: TxnId,
    /// The operation behind the edge, for the provenance map: the
    /// version read, or else the final version [`EdgeKind::writer`]
    /// installed on the object. `None` when nobody will ask.
    pub(crate) cites: Option<ProvStep>,
}

pub(crate) type Dag = IncrementalDag<TxnId, EdgeMask>;

/// One row of the lane table: an edge filter and what a cycle among
/// the admitted edges means.
#[derive(Debug)]
struct LaneSpec {
    /// The edge kinds this lane's graph holds.
    admits: &'static [EdgeKind],
    /// Whether the cycle must hold an anti-dependency edge to count.
    needs_anti: bool,
    /// What a (qualifying) cycle latches.
    fires: &'static [PhenomenonKind],
    /// How the witness text names the cycle.
    what: &'static str,
    /// Whether a cycle among these edges needs a read parked on a
    /// running writer: while none is, the lane's graph is kept empty
    /// ([`Lanes::shed`]) and a commit that began with none plants
    /// nothing in it ([`Lanes::apply`]).
    parked_only: bool,
}

/// The two filters, in replay order.
const LANES: [LaneSpec; 2] = [
    LaneSpec {
        admits: &[EdgeKind::Ww, EdgeKind::Wr],
        needs_anti: false,
        fires: &[PhenomenonKind::G1c],
        what: "dependency cycle",
        parked_only: true,
    },
    LaneSpec {
        admits: &[EdgeKind::Ww, EdgeKind::Wr, EdgeKind::Rw],
        needs_anti: true,
        fires: &[PhenomenonKind::G2Item, PhenomenonKind::G2],
        what: "anti-dependency cycle",
        parked_only: false,
    },
];

/// One cycle graph: dropped (`dag` is `None`) once its row's phenomena
/// have latched, since no later cycle could say anything new.
#[derive(Debug)]
struct Lane {
    spec: &'static LaneSpec,
    dag: Option<Dag>,
    /// The current plan's insert results, one per admitted edge; kept
    /// from commit to commit for its room.
    results: Vec<Insert<TxnId, EdgeMask>>,
    /// How many of `results` the replay has consumed.
    replayed: usize,
}

fn cycle_string(witness: &[(TxnId, TxnId, EdgeMask)]) -> String {
    let mut s = String::new();
    for (i, (a, b, m)) in witness.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let lbl = edge_label(m.has_item_anti());
        let _ = write!(s, "T{} -{lbl}-> T{}", a.0, b.0);
    }
    s
}

impl LaneSpec {
    /// Whether the lane takes a commit's plan, given whether a read was
    /// parked as the commit began.
    fn takes(&self, parked: bool) -> bool {
        parked || !self.parked_only
    }

    /// The one rule: did inserting `edge` with result `r` put a cycle
    /// — one holding an anti-dependency edge, if the row asks for it —
    /// among this lane's edges? Returns the witness text and the edges
    /// to cite. For the anti row a qualifying cycle appears either as a
    /// fresh component with an anti edge inside, or as an anti edge
    /// landing inside a component that dependency edges had closed.
    /// The anti edge a fresh component's text names is its least by
    /// (from, to): the order of `intra_edges` follows slot numbers,
    /// which depend on what collection removed before.
    #[allow(clippy::type_complexity)]
    fn offence(
        &self,
        r: &Insert<TxnId, EdgeMask>,
        edge: &PlannedEdge,
    ) -> Option<(String, Vec<(TxnId, TxnId, EdgeMask)>)> {
        let what = self.what;
        match r {
            Insert::CycleFormed(info) if !self.needs_anti => Some((
                format!("{what}: {}", cycle_string(&info.witness)),
                info.witness.clone(),
            )),
            Insert::CycleFormed(info) => {
                let (a, b, _) = (info.intra_edges.iter())
                    .filter(|e| e.2.has_item_anti())
                    .min_by_key(|&&(a, b, _)| (a, b))?;
                Some((
                    format!(
                        "{what} through T{} -rw-> T{}: {}",
                        a.0,
                        b.0,
                        cycle_string(&info.witness)
                    ),
                    info.witness.clone(),
                ))
            }
            Insert::IntraComponent if self.needs_anti && edge.kind.mask().has_item_anti() => {
                Some((
                    format!(
                        "anti-dependency edge T{} -rw-> T{} inside a dependency cycle",
                        edge.from.0, edge.to.0
                    ),
                    vec![(edge.from, edge.to, edge.kind.mask())],
                ))
            }
            _ => None,
        }
    }
}

/// The lane table's state: the two graphs plus the Pearce–Kelly
/// reorder counts of those already dropped.
#[derive(Debug)]
pub(crate) struct Lanes {
    lanes: [Lane; 2],
    /// Reorder counts of already-dropped (or shed) graphs.
    reorders_dropped: u64,
    reorders_reported: u64,
    /// Test reference: `parked_only` lanes take every plan and are
    /// never shed. Only debug and test builds can set it.
    eager: bool,
    /// The nodes of the graphs a drop or a shed let go while G2's graph
    /// was gone — nodes that left without a peel (see
    /// [`Self::take_let_go`]).
    let_go: Vec<TxnId>,
    /// A peeled node's edges, for the provenance map; kept from peel to
    /// peel for their room.
    touching: Vec<(TxnId, TxnId)>,
}

impl Default for Lanes {
    /// Every lane live and empty.
    fn default() -> Lanes {
        let lane = |spec| Lane {
            spec,
            dag: Some(IncrementalDag::new()),
            results: Vec::new(),
            replayed: 0,
        };
        Lanes {
            lanes: [lane(&LANES[0]), lane(&LANES[1])],
            reorders_dropped: 0,
            reorders_reported: 0,
            eager: false,
            let_go: Vec::new(),
            touching: Vec::new(),
        }
    }
}

impl Lanes {
    /// Each lane's graph, in table order, for a snapshot image to fill
    /// in place: `None` once dropped.
    pub(crate) fn dags_mut(&mut self) -> impl Iterator<Item = &mut Option<Dag>> {
        self.lanes.iter_mut().map(|l| &mut l.dag)
    }

    /// Sets the two reorder counters a snapshot image carries; see
    /// [`Self::reorder_counters`].
    pub(crate) fn set_reorder_counters(&mut self, dropped: u64, reported: u64) {
        self.reorders_dropped = dropped;
        self.reorders_reported = reported;
    }

    /// See `OnlineChecker::set_g1c_eager`.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn set_eager(&mut self, on: bool) {
        self.eager = on;
    }

    /// Called between events with whether any read is parked on a
    /// running writer: while none is, every `parked_only` lane's graph
    /// is emptied, its reorders counted as a latch counts a dropped
    /// graph's. No cycle such a lane can still find runs through a
    /// transaction that has committed by now (DESIGN.md, "Why G1c's
    /// graph is empty while nothing is parked"). If that leaves no
    /// graph holding an edge, no chain in the provenance map can be
    /// cited again, and it is cleared as a drop of the last lane clears
    /// it.
    pub(crate) fn shed(&mut self, parked: bool, prov: &mut Provenance) {
        if parked || self.eager {
            return;
        }
        let mut shed = false;
        let peeling = self.peeling();
        for lane in self.lanes.iter_mut().filter(|l| l.spec.parked_only) {
            if let Some(g) = lane.dag.as_mut().filter(|g| g.node_count() > 0) {
                let g = std::mem::replace(g, Dag::new());
                self.reorders_dropped += g.reorders();
                if !peeling {
                    self.let_go.extend(g.nodes());
                }
                shed = true;
            }
        }
        // G2's graph holds every edge G1c's does, so while it is live
        // the shed leaves every chain an edge of a live graph.
        if shed && self.dags().flatten().all(|g| g.edge_count() == 0) {
            prov.clear();
        }
    }

    /// Whether a live graph holds an edge `from -> to`, of either label.
    pub(crate) fn holds(&self, from: TxnId, to: TxnId) -> bool {
        let labels = [EdgeMask::DEP, EdgeMask::ANTI_ITEM];
        (self.dags().flatten()).any(|g| labels.iter().any(|&l| g.has_edge(from, to, l)))
    }

    /// Whether any lane still has a graph to find a cycle in.
    pub(crate) fn any_live(&self) -> bool {
        self.lanes.iter().any(|l| l.dag.is_some())
    }

    /// Each lane's graph, in table order (`None` once dropped).
    pub(crate) fn dags(&self) -> impl Iterator<Item = Option<&Dag>> {
        self.lanes.iter().map(|l| l.dag.as_ref())
    }

    /// Nodes and edges of each lane's graph, in table order (`None`
    /// once dropped).
    pub(crate) fn sizes(&self) -> [Option<(usize, usize)>; 2] {
        let mut dags = self.dags();
        std::array::from_fn(|_| {
            let g = dags.next().flatten()?;
            Some((g.node_count(), g.edge_count()))
        })
    }

    /// `(reorders of dropped graphs, reorders already reported)`.
    pub(crate) fn reorder_counters(&self) -> (u64, u64) {
        (self.reorders_dropped, self.reorders_reported)
    }

    fn live(&mut self) -> impl Iterator<Item = &mut Dag> {
        self.lanes.iter_mut().filter_map(|l| l.dag.as_mut())
    }

    /// Applies a commit's planned edges. `parked` says whether any read
    /// was parked on a running writer when the commit began; if none
    /// was, every `parked_only` lane (G1c's) sits the plan out — its
    /// graph is empty ([`Self::shed`]), and none of the plan's edges can
    /// be on a cycle it will ever find (DESIGN.md, "Why G1c's graph is
    /// empty while nothing is parked").
    ///
    /// Every other live lane inserts the edges it admits into buffers
    /// it keeps from commit to commit (its own, and the graph's
    /// Pearce–Kelly traversal buffers), so a commit allocates for
    /// neither. Then a walk over the per-edge results replays
    /// provenance recording and phenomenon latching in exactly the
    /// order an edge-at-a-time path would: edge by edge in plan order,
    /// and for each edge lane by lane in table order.
    ///
    /// Equivalence with that path: a graph's state after the inserts
    /// does not depend on what the other graphs did in between, and
    /// when a latch drops a lane mid-plan the rest of its results are
    /// discarded — the sequential path would never have inserted those
    /// edges, and the extra inserts can't be observed because the
    /// graph is freed within the same event either way.
    pub(crate) fn apply(
        &mut self,
        plan: &[PlannedEdge],
        parked: bool,
        fired: &mut Fired,
        prov: &mut Provenance,
        sampled: bool,
    ) {
        let parked = parked || self.eager;
        let insert_t0 = sampled.then(Instant::now);
        for lane in &mut self.lanes {
            lane.results.clear();
            lane.replayed = 0;
            if let Some(g) = lane.dag.as_mut().filter(|_| lane.spec.takes(parked)) {
                let admitted = plan.iter().filter(|e| lane.spec.admits.contains(&e.kind));
                lane.results
                    .extend(admitted.map(|e| g.add_edge(e.from, e.to, e.kind.mask())));
            }
        }
        if let Some(t0) = insert_t0 {
            adya_obs::histogram!("online.graph_insert_ns").record(t0.elapsed().as_nanos() as u64);
        }
        for edge in plan {
            let mut step = edge.cites.filter(|_| prov.enabled());
            for i in 0..self.lanes.len() {
                let lane = &mut self.lanes[i];
                // A lane that sat this plan out or was dropped during it
                // has nothing to say; its remaining results are never read.
                let admitted = lane.spec.takes(parked) && lane.spec.admits.contains(&edge.kind);
                if lane.dag.is_none() || !admitted {
                    continue;
                }
                let r = std::mem::replace(&mut lane.results[lane.replayed], Insert::Duplicate);
                lane.replayed += 1;
                self.replay(i, &r, edge, &mut step, fired, prov);
            }
        }
    }

    /// Replays one planned edge's result in one lane: provenance first
    /// — the first lane in which the edge is fresh takes the step, so
    /// repeated conflicts on an existing edge skip the side map
    /// entirely, and the graph's own dedup check already paid for the
    /// answer — then the lane's latch.
    fn replay(
        &mut self,
        lane: usize,
        r: &Insert<TxnId, EdgeMask>,
        edge: &PlannedEdge,
        step: &mut Option<ProvStep>,
        fired: &mut Fired,
        prov: &mut Provenance,
    ) {
        if !matches!(r, Insert::Duplicate) {
            if let Some(st) = step.take() {
                prov.record(edge.from, edge.to, st);
            }
        }
        let spec = self.lanes[lane].spec;
        // Only a fresh component is timed: that is where a witness
        // path gets materialized.
        let t0 = matches!(r, Insert::CycleFormed(_)).then(Instant::now);
        if let Some((witness, cited)) = spec.offence(r, edge) {
            let cycle = prov.cycle(&cited);
            for &k in spec.fires {
                if fired.set(k, witness.clone()) {
                    fired.set_cycle(k, cycle.clone());
                }
            }
            self.drop_lane(lane, prov);
        }
        if let Some(t0) = t0 {
            adya_obs::histogram!("online.cycle_check_ns").record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Frees a latched lane's graph. Once every lane is gone no future
    /// cycle can fire, so the provenance side map is dead weight; while
    /// one lives, the dropped graph's chains that it does not hold are
    /// orphans (`crate::provenance`).
    fn drop_lane(&mut self, lane: usize, prov: &mut Provenance) {
        if let Some(g) = self.lanes[lane].dag.take() {
            self.reorders_dropped += g.reorders();
            if !self.peeling() {
                self.let_go.extend(g.nodes());
            }
        }
        if self.any_live() {
            prov.note_orphans(|a, b| self.holds(a, b));
        } else {
            prov.clear();
        }
    }

    /// Publishes Pearce–Kelly reorders not yet counted in the registry.
    pub(crate) fn sync_reorder_counter(&mut self) {
        let live: u64 = self.dags().flatten().map(|g| g.reorders()).sum();
        let total = self.reorders_dropped + live;
        if total > self.reorders_reported {
            adya_obs::counter!("online.pk_reorders").add(total - self.reorders_reported);
            self.reorders_reported = total;
        }
    }

    /// Whether some live graph holds `id`.
    pub(crate) fn holds_node(&self, id: TxnId) -> bool {
        self.dags().flatten().any(|g| g.contains(id))
    }

    /// Whether the peel runs: while G2's graph is live. It takes every
    /// plan and holds every edge G1c's does, so a source of G2's graph
    /// is one of G1c's too, and a latch or shed of G1c's graph lets go of
    /// no node G2's does not hold (DESIGN.md, "Watermark GC").
    pub(crate) fn peeling(&self) -> bool {
        (self.lanes.iter()).any(|l| !l.spec.parked_only && l.dag.is_some())
    }

    /// Appends to `into`, in id order, those for which `keep` holds of
    /// the nodes a latch or a shed let go since the last call: G2's
    /// graph's when it went, and G1c's each time it went while G2's was
    /// gone. Only those leave a graph other than by [`Self::peel`].
    pub(crate) fn take_let_go(&mut self, into: &mut Vec<TxnId>, keep: impl Fn(TxnId) -> bool) {
        self.let_go.sort_unstable();
        into.extend(self.let_go.drain(..).filter(|&id| keep(id)));
        self.let_go = recycled(std::mem::take(&mut self.let_go));
    }

    /// Whether some live graph holds `id` and each that does holds it
    /// as a source ([`IncrementalDag::is_source`]).
    pub(crate) fn peelable(&self, id: TxnId) -> bool {
        let mut holders = self.dags().flatten().filter(|g| g.contains(id)).peekable();
        holders.peek().is_some() && holders.all(|g| g.is_source(id))
    }

    /// Peels `id`: if it is [peelable](Self::peelable), takes it out of
    /// every live graph with its edges, whose chains go with it
    /// ([`Provenance::purge`]), appends its out-neighbours to `outs`,
    /// one per out-edge of each graph, for the peel to look at, and
    /// returns true. A source lies on no path, so no path is lost.
    pub(crate) fn peel(&mut self, id: TxnId, prov: &mut Provenance, outs: &mut Vec<TxnId>) -> bool {
        if !self.peelable(id) {
            return false;
        }
        let mut touching = std::mem::take(&mut self.touching);
        let on = prov.enabled();
        for g in self.live() {
            for (a, b, _) in g.edges_of(id) {
                outs.push(b);
                if on {
                    touching.push((a, b));
                }
            }
            g.remove_node(id);
        }
        prov.purge(&touching);
        touching.clear();
        self.touching = touching;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_history::{ObjectId, VersionId};
    use PhenomenonKind::{G1c, G2Item, G2};

    fn edge(kind: EdgeKind, from: u32, to: u32, object: u32) -> PlannedEdge {
        PlannedEdge {
            kind,
            from: TxnId(from),
            to: TxnId(to),
            cites: Some(ProvStep {
                kind,
                object: ObjectId(object),
                version: VersionId::new(kind.writer(TxnId(from), TxnId(to)), 1),
            }),
        }
    }

    /// What one plan must leave behind.
    struct Case {
        name: &'static str,
        /// Applied first, as an earlier commit's plan.
        setup: Vec<PlannedEdge>,
        plan: Vec<PlannedEdge>,
        /// Everything latched afterwards; for what the plan (not the
        /// setup) latched, the witness text and the `via` chain of each
        /// cycle edge, in witness order.
        fired: Vec<PhenomenonKind>,
        witnesses: Vec<(PhenomenonKind, &'static str, Vec<&'static str>)>,
        live: [bool; 2],
        /// The provenance chain of each edge named, rendered, after
        /// the plan (empty once no lane is live: the map is cleared).
        via: Vec<((u32, u32), &'static str)>,
    }

    /// The lane table held to the hand-written replays it replaced
    /// (one walk per row; the G0 row is gone, see the module docs): per
    /// plan, the latched set, the witness text and citations, which
    /// lanes are still live and the provenance chain per edge.
    #[test]
    fn replay_latches_drops_and_cites_like_the_three_walks_did() {
        use EdgeKind::{Rw, Wr, Ww};
        const DEP_CYCLE: &str = "dependency cycle: T2 -ww/wr-> T1, T1 -ww/wr-> T2";
        let cases = [
            Case {
                name: "wr closes a dep cycle",
                setup: vec![edge(Ww, 1, 2, 0)],
                plan: vec![edge(Wr, 2, 1, 1)],
                // Among all edges the same cycle holds no anti edge.
                fired: vec![G1c],
                witnesses: vec![(G1c, DEP_CYCLE, vec!["wr obj1[2]", "ww obj0[1]"])],
                live: [false, true],
                via: vec![((1, 2), "ww obj0[1]"), ((2, 1), "wr obj1[2]")],
            },
            Case {
                name: "rw closes a full cycle",
                setup: vec![edge(Wr, 1, 2, 0)],
                plan: vec![edge(Rw, 2, 1, 1)],
                fired: vec![G2Item, G2],
                // An rw edge cites the overwriting version: `to`'s.
                witnesses: vec![(
                    G2,
                    "anti-dependency cycle through T2 -rw-> T1: T2 -rw-> T1, T1 -ww/wr-> T2",
                    vec!["rw obj1[1]", "wr obj0[1]"],
                )],
                live: [true, false],
                // G2's graph went with the latch; its rw chain stays, an
                // orphan, until one of its endpoints leaves the tables.
                via: vec![((2, 1), "rw obj1[1]"), ((1, 2), "wr obj0[1]")],
            },
            Case {
                name: "rw lands intra-component",
                setup: vec![edge(Ww, 1, 2, 0), edge(Wr, 2, 1, 1)],
                plan: vec![edge(Rw, 1, 2, 2)],
                fired: vec![G1c, G2Item, G2],
                // Fresh under its own label: recorded beside the ww
                // step the edge already had, and cited before the last
                // lane drops and takes the side map with it.
                witnesses: vec![(
                    G2Item,
                    "anti-dependency edge T1 -rw-> T2 inside a dependency cycle",
                    vec!["ww obj0[1]; rw obj2[2]"],
                )],
                live: [false, false],
                via: vec![((1, 2), ""), ((2, 1), "")],
            },
            Case {
                name: "the 2nd edge latches G1c, the 3rd is a fresh ww edge",
                setup: vec![edge(Ww, 1, 2, 0)],
                plan: vec![edge(Ww, 3, 4, 1), edge(Wr, 2, 1, 2), edge(Ww, 5, 6, 3)],
                fired: vec![G1c],
                witnesses: vec![(G1c, DEP_CYCLE, vec!["wr obj2[2]", "ww obj0[1]"])],
                live: [false, true],
                // Lane 0 is gone by the third edge; the lane still live
                // is where it is fresh, and takes its step.
                via: vec![((3, 4), "ww obj1[3]"), ((5, 6), "ww obj3[5]")],
            },
            Case {
                name: "a duplicate edge, then the same pair as an anti-dependency",
                setup: vec![edge(Ww, 1, 2, 0)],
                // Known everywhere: the first step wins. The rw edge is
                // fresh in the one lane that admits it.
                plan: vec![edge(Ww, 1, 2, 1), edge(Rw, 1, 2, 2)],
                fired: vec![],
                witnesses: vec![],
                live: [true, true],
                via: vec![((1, 2), "ww obj0[1]; rw obj2[2]")],
            },
        ];
        for case in cases {
            let name = case.name;
            let mut lanes = Lanes::default();
            let mut fired = Fired::default();
            let mut prov = Provenance::default();
            prov.set_enabled(true);
            // A read parked throughout: every lane takes every plan.
            lanes.apply(&case.setup, true, &mut fired, &mut prov, false);
            lanes.apply(&case.plan, true, &mut fired, &mut prov, false);
            assert_eq!(fired.kinds(), case.fired, "{name}: latched");
            for (k, text, via) in case.witnesses {
                assert_eq!(
                    fired.witness_of(k).map(String::as_str),
                    Some(text),
                    "{name}"
                );
                let cycle = fired.cycle_of(k).expect("provenance is on");
                let cited: Vec<&str> = cycle.iter().map(|e| e.via.as_str()).collect();
                assert_eq!(cited, via, "{name}: citations");
            }
            let live: Vec<bool> = lanes.dags().map(|g| g.is_some()).collect();
            assert_eq!(live, case.live, "{name}: live lanes");
            for ((a, b), text) in case.via {
                let cited = prov.cycle(&[(TxnId(a), TxnId(b), EdgeMask::DEP)]);
                assert_eq!(cited[0].via, text, "{name}: chain of T{a} -> T{b}");
            }
        }
    }

    /// While no read is parked G1c's graph is shed, its reorders
    /// counted as dropped, and a plan of a commit that began with none
    /// parked goes into G2's graph alone — which takes each fresh
    /// edge's provenance step.
    #[test]
    fn with_nothing_parked_the_g1c_graph_is_shed_and_sits_plans_out() {
        use EdgeKind::{Rw, Ww};
        let mut lanes = Lanes::default();
        let mut fired = Fired::default();
        let mut prov = Provenance::default();
        prov.set_enabled(true);
        // T1 enters the graphs after T2, so 1 -> 2 costs a reorder.
        let parked_plan = [edge(Ww, 2, 3, 0), edge(Ww, 1, 2, 1)];
        lanes.apply(&parked_plan, true, &mut fired, &mut prov, false);
        lanes.shed(true, &mut prov);
        assert_eq!(lanes.sizes(), [Some((3, 2)), Some((3, 2))]);
        let reorders = lanes.lanes[0].dag.as_ref().unwrap().reorders();
        assert_eq!(reorders, 1);

        lanes.shed(false, &mut prov);
        assert_eq!(lanes.sizes(), [Some((0, 0)), Some((3, 2))]);
        assert_eq!(lanes.reorder_counters().0, reorders);

        let plan = [edge(Ww, 3, 4, 2), edge(Rw, 4, 5, 3)];
        lanes.apply(&plan, false, &mut fired, &mut prov, false);
        assert_eq!(lanes.sizes(), [Some((0, 0)), Some((5, 4))]);
        let via = |a, b| {
            prov.cycle(&[(TxnId(a), TxnId(b), EdgeMask::DEP)])[0]
                .via
                .clone()
        };
        assert_eq!(
            (via(3, 4), via(4, 5)),
            ("ww obj2[3]".into(), "rw obj3[5]".into())
        );
        assert!(fired.kinds().is_empty());

        // Eager, the reference the checker's tests hold this to.
        lanes.set_eager(true);
        lanes.apply(&[edge(Ww, 5, 6, 4)], false, &mut fired, &mut prov, false);
        lanes.shed(false, &mut prov);
        assert_eq!(lanes.sizes(), [Some((2, 1)), Some((6, 5))]);
    }
}
