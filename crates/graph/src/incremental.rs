//! Incremental directed-graph maintenance for online checking.
//!
//! [`IncrementalDag`] keeps a topological order over a growing labelled
//! digraph using the Pearce–Kelly algorithm: inserting an edge that
//! already respects the order is O(1); an order violation triggers a
//! bounded double DFS that either re-orders the affected region or
//! proves a cycle. Cycles are *condensed* — the strongly connected
//! component is merged into one representative via union-find — so the
//! structure stays a DAG of components and later insertions keep
//! working. Nodes whose component is still a singleton can be removed
//! again, which is what lets an online checker garbage-collect
//! transactions that can no longer participate in a new cycle.
//!
//! The batch [`DiGraph`](crate::DiGraph) is deliberately append-only;
//! this type exists for the streaming checker, where both incremental
//! cycle detection and node removal are required.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// One recorded edge, kept with its *original* endpoints so witnesses
/// can name real nodes even after components merge. With `u32` keys
/// and a one-byte label it is 16 bytes: the slot is a `u32`, which is
/// why a graph refuses a slot number beyond `u32::MAX`.
#[derive(Debug, Clone, Copy)]
struct Edge<K, L> {
    /// Slot of the other endpoint at insertion time (resolved through
    /// union-find on traversal).
    slot: u32,
    /// Original source key.
    src: K,
    /// Original destination key.
    dst: K,
    /// Edge label.
    label: L,
}

/// 64 bytes with 16-byte edges: slot numbers are `u32`s, and a freed
/// slot is one with no members rather than a flag of its own.
#[derive(Debug)]
struct Slot<K, L> {
    /// Union-find parent (self when representative).
    parent: u32,
    /// Representative-only: number of original nodes condensed here
    /// (a merged-away slot keeps its last count). Zero once freed —
    /// the slot is live exactly while this is not zero.
    members: u32,
    /// Representative-only: topological order value.
    ord: u64,
    /// Representative-only: outgoing edges of the whole component.
    out: Vec<Edge<K, L>>,
    /// Representative-only: incoming edges of the whole component.
    inc: Vec<Edge<K, L>>,
}

/// Result of [`IncrementalDag::add_edge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Insert<K, L> {
    /// The edge respects the current order.
    Added,
    /// The exact `(from, to, label)` edge was already present (or was
    /// a self-loop); nothing changed. Lets callers skip per-edge
    /// bookkeeping — e.g. provenance recording — on the hot path.
    Duplicate,
    /// The edge violated the order; the affected region was re-ordered
    /// (Pearce–Kelly) and the graph is still acyclic.
    Reordered,
    /// Both endpoints already belong to the same condensed component:
    /// the edge lies on a cycle.
    IntraComponent,
    /// The edge closed a new cycle; the component was condensed.
    CycleFormed(SccInfo<K, L>),
}

/// Witness information for a freshly condensed component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccInfo<K, L> {
    /// A concrete cycle as `(src, dst, label)` edges: the inserted
    /// edge first, then a path from its head back to its tail.
    pub witness: Vec<(K, K, L)>,
    /// Every edge now internal to the merged component (including the
    /// inserted one) — the material for classifying the cycle.
    pub intra_edges: Vec<(K, K, L)>,
}

/// One edge of a [`DagParts`] snapshot: `(endpoint slot, src, dst,
/// label)`, mirroring the internal adjacency representation. Edge
/// *order* within a list is significant — traversals walk lists in
/// order, so restoring edges out of order would change later witness
/// paths.
pub type EdgeParts<K, L> = (usize, K, K, L);

/// The exact internal state of one slot, flattened for
/// [`IncrementalDag::to_parts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotParts<K, L> {
    /// Union-find parent (self when representative).
    pub parent: usize,
    /// False once freed.
    pub live: bool,
    /// Topological order value (representative-only).
    pub ord: u64,
    /// Condensed member count (representative-only).
    pub members: u32,
    /// Outgoing edges, in recorded order.
    pub out: Vec<EdgeParts<K, L>>,
    /// Incoming edges, in recorded order.
    pub inc: Vec<EdgeParts<K, L>>,
}

/// One slot of an [`IncrementalDag`]'s table as [`SlotParts`] states
/// it, read in place rather than copied out
/// ([`IncrementalDag::slot_views`]).
#[derive(Debug, Clone, Copy)]
pub struct SlotView<'a, K, L>(&'a Slot<K, L>);

impl<'a, K: Copy, L: Copy> SlotView<'a, K, L> {
    /// [`SlotParts::parent`].
    pub fn parent(self) -> usize {
        self.0.parent as usize
    }

    /// [`SlotParts::live`].
    pub fn live(self) -> bool {
        self.0.members != 0
    }

    /// [`SlotParts::ord`].
    pub fn ord(self) -> u64 {
        self.0.ord
    }

    /// [`SlotParts::members`]. A freed slot was a singleton when it
    /// was removed.
    pub fn members(self) -> u32 {
        self.0.members.max(1)
    }

    /// [`SlotParts::out`].
    pub fn out(self) -> impl ExactSizeIterator<Item = EdgeParts<K, L>> + 'a {
        flat(&self.0.out)
    }

    /// [`SlotParts::inc`].
    pub fn inc(self) -> impl ExactSizeIterator<Item = EdgeParts<K, L>> + 'a {
        flat(&self.0.inc)
    }

    /// The slot, copied out.
    pub fn to_parts(self) -> SlotParts<K, L> {
        SlotParts {
            parent: self.parent(),
            live: self.live(),
            ord: self.ord(),
            members: self.members(),
            out: self.out().collect(),
            inc: self.inc().collect(),
        }
    }
}

fn flat<K: Copy, L: Copy>(
    es: &[Edge<K, L>],
) -> impl ExactSizeIterator<Item = EdgeParts<K, L>> + '_ {
    es.iter().map(|e| (e.slot as usize, e.src, e.dst, e.label))
}

/// A flattened, plain-data image of an [`IncrementalDag`]'s *exact*
/// state — slot table, union-find structure, free list, dedup set and
/// counters — produced by [`IncrementalDag::to_parts`] and consumed by
/// [`IncrementalDag::from_parts`].
///
/// The round trip is exact: a restored graph answers every future
/// operation identically to the original, which is what lets the
/// online checker snapshot mid-stream and resume after a crash with a
/// byte-identical verdict stream. Hash-map-backed fields (`index`,
/// `seen`) are emitted in sorted order so two snapshots of equal
/// states are structurally equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagParts<K, L> {
    /// Slot table, including freed slots (indices are significant).
    pub slots: Vec<SlotParts<K, L>>,
    /// Key → slot mapping, sorted by key.
    pub index: Vec<(K, usize)>,
    /// The freed slots, ascending. A graph never hands one out again
    /// (see [`IncrementalDag::add_node`]); the list states them so that
    /// [`validate`](Self::validate) can check the slot table against it.
    pub free: Vec<usize>,
    /// Distinct recorded edges, sorted.
    pub seen: Vec<(K, K, L)>,
    /// Next topological order value to hand out.
    pub next_ord: u64,
    /// Pearce–Kelly re-ordering count.
    pub reorders: u64,
    /// Component condensation count.
    pub merges: u64,
}

impl<K, L> DagParts<K, L>
where
    K: Copy + Eq + Hash,
    L: Copy + Eq + Hash,
{
    /// Checks that these parts are a state an [`IncrementalDag`] can be
    /// in, so that parts decoded from bytes nobody vouches for can be
    /// handed to [`IncrementalDag::from_parts`]: a `u32` numbers the
    /// slots, and every slot number is in range; keys and live slots
    /// pair off one to one and the free list is exactly the dead slots,
    /// each left as a removal leaves it (its own parent, one member, no
    /// edges), while a live slot has members;
    /// union-find parents lead to a root, and a root's member count is
    /// the number of keys under it; adjacency lists sit on roots only,
    /// agree with each other and
    /// with `seen` edge for edge, and name their endpoints' own slots;
    /// roots' order values are distinct, below `next_ord`, and ascend
    /// along every edge between two components. One pass over the
    /// parts; the error says which rule broke.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.slots.len();
        if n as u64 > 1 << 32 {
            return Err(format!("{n} slots, more than a u32 numbers"));
        }
        let mut index: HashMap<K, usize> = HashMap::with_capacity(self.index.len());
        let mut keyed = vec![false; n];
        for &(k, s) in &self.index {
            if !self.slots.get(s).is_some_and(|slot| slot.live) {
                return Err(format!("index names slot {s}, which is not a live slot"));
            }
            if std::mem::replace(&mut keyed[s], true) || index.insert(k, s).is_some() {
                return Err(format!("index names a key or slot {s} twice"));
            }
        }
        let live = self.slots.iter().filter(|s| s.live).count();
        if live != index.len() {
            return Err(format!("{live} live slots for {} keys", index.len()));
        }
        let mut freed = vec![false; n];
        for &s in &self.free {
            if self.slots.get(s).is_none_or(|slot| slot.live) {
                return Err(format!(
                    "free list names slot {s}, which is not a dead slot"
                ));
            }
            if std::mem::replace(&mut freed[s], true) {
                return Err(format!("free list names slot {s} twice"));
            }
        }
        if self.free.len() != n - live {
            return Err(format!("{} dead slots, {} free", n - live, self.free.len()));
        }
        for (s, slot) in self.slots.iter().enumerate() {
            if slot.live && slot.members == 0 {
                return Err(format!("slot {s} is live without members"));
            }
            if !slot.live && (slot.parent != s || slot.members != 1) {
                return Err(format!("slot {s} is not left as a removal leaves it"));
            }
        }

        // Union-find: resolve every live slot's root, refusing parent
        // chains that leave the live slots or never reach a root.
        const UNKNOWN: usize = usize::MAX;
        const ON_PATH: usize = usize::MAX - 1;
        let mut root = vec![UNKNOWN; n];
        let mut path = Vec::new();
        for start in (0..n).filter(|&s| self.slots[s].live) {
            let mut s = start;
            let r = loop {
                match root[s] {
                    UNKNOWN => {}
                    ON_PATH => return Err(format!("slot {s}'s parents form a loop")),
                    r => break r,
                }
                let p = self.slots[s].parent;
                if p == s {
                    break s;
                }
                if !self.slots.get(p).is_some_and(|slot| slot.live) {
                    return Err(format!("slot {s}'s parent {p} is not a live slot"));
                }
                root[s] = ON_PATH;
                path.push(s);
                s = p;
            };
            root[s] = r;
            for s in path.drain(..) {
                root[s] = r;
            }
        }
        let mut members = vec![0u64; n];
        for s in (0..n).filter(|&s| self.slots[s].live) {
            members[root[s]] += 1;
        }
        let mut ords = HashSet::with_capacity(live);
        for (s, slot) in self.slots.iter().enumerate() {
            if slot.live && root[s] == s {
                if u64::from(slot.members) != members[s] {
                    return Err(format!(
                        "slot {s} claims {} members, has {}",
                        slot.members, members[s]
                    ));
                }
                if slot.ord >= self.next_ord || !ords.insert(slot.ord) {
                    return Err(format!("slot {s}'s order value {} is taken", slot.ord));
                }
            } else if !slot.out.is_empty() || !slot.inc.is_empty() {
                return Err(format!("slot {s} is no component root but holds edges"));
            }
        }

        // Each recorded edge sits once in its source component's `out`
        // and once in its target component's `inc`: tick both off.
        const IN_OUT: u8 = 1;
        const IN_INC: u8 = 2;
        let mut seen: HashMap<(K, K, L), u8> = HashMap::with_capacity(self.seen.len());
        for &edge in &self.seen {
            if seen.insert(edge, 0).is_some() {
                return Err("an edge is recorded twice".to_string());
            }
        }
        let mut listed = [0usize; 2];
        for (r, slot) in self.slots.iter().enumerate() {
            for (list, edges) in [(IN_OUT, &slot.out), (IN_INC, &slot.inc)] {
                for &(far, src, dst, label) in edges {
                    let (Some(&s), Some(&d)) = (index.get(&src), index.get(&dst)) else {
                        return Err(format!("slot {r} holds an edge of a missing key"));
                    };
                    let (near, want_far) = if list == IN_OUT { (s, d) } else { (d, s) };
                    if src == dst || root[near] != r || far != want_far {
                        return Err(format!("slot {r} holds an edge that is not its own"));
                    }
                    if root[s] != root[d] && self.slots[root[s]].ord >= self.slots[root[d]].ord {
                        return Err(format!("an edge of slot {r} runs against the order"));
                    }
                    match seen.get_mut(&(src, dst, label)) {
                        Some(ticks) if *ticks & list == 0 => *ticks |= list,
                        _ => return Err(format!("slot {r} holds an unrecorded or repeated edge")),
                    }
                    listed[usize::from(list == IN_INC)] += 1;
                }
            }
        }
        if listed != [seen.len(); 2] {
            return Err("a recorded edge is missing from an adjacency list".to_string());
        }
        Ok(())
    }
}

/// Reusable traversal buffers for the Pearce–Kelly DFS passes. Held by
/// the graph so the hot insert path allocates nothing once the buffers
/// have grown to the working-set size. Pure scratch: every field is cleared
/// before use, so it carries no state between inserts and is excluded
/// from [`DagParts`] snapshots.
#[derive(Debug)]
struct Scratch<K, L> {
    /// DFS worklist (shared by the forward and backward passes).
    stack: Vec<usize>,
    /// Forward-reachable components (discovery order).
    fwd: Vec<usize>,
    /// Forward-reachable components (membership test).
    fwd_set: HashSet<usize>,
    /// DFS tree edge into each forward-discovered component.
    parent_edge: HashMap<usize, Edge<K, L>>,
    /// Backward-reachable components (discovery order).
    back: Vec<usize>,
    /// Backward-reachable components (membership test).
    back_set: HashSet<usize>,
    /// Order values being redistributed.
    pool: Vec<u64>,
    /// Per-node adjacency copy for the visit loop (edges are `Copy`, so
    /// refilling this is a memcpy, not a clone of fresh allocations).
    edges: Vec<Edge<K, L>>,
}

// Manual impl: the derived one would demand `K: Default + L: Default`
// bounds the buffers do not actually need.
impl<K, L> Default for Scratch<K, L> {
    fn default() -> Self {
        Scratch {
            stack: Vec::new(),
            fwd: Vec::new(),
            fwd_set: HashSet::new(),
            parent_edge: HashMap::new(),
            back: Vec::new(),
            back_set: HashSet::new(),
            pool: Vec::new(),
            edges: Vec::new(),
        }
    }
}

impl<K, L> Scratch<K, L> {
    fn reset(&mut self) {
        self.stack.clear();
        self.fwd.clear();
        self.fwd_set.clear();
        self.parent_edge.clear();
        self.back.clear();
        self.back_set.clear();
        self.pool.clear();
        self.edges.clear();
    }
}

/// `s` as an [`Edge`] holds it. A graph refuses a slot beyond
/// `u32::MAX`: it would need that many nodes live at once.
fn slot_number(s: usize) -> u32 {
    u32::try_from(s).expect("an IncrementalDag numbers its slots in a u32")
}

/// Appends `e` to an adjacency list. Most nodes keep one or two edges
/// each way, so a list's first allocation is room for exactly two;
/// after that it grows as `Vec` does.
fn push_edge<K, L>(list: &mut Vec<Edge<K, L>>, e: Edge<K, L>) {
    if list.capacity() == 0 {
        list.reserve_exact(2);
    }
    list.push(e);
}

/// Most entries a table keeps room for once removals have left it
/// sparse: a burst of nodes must not leave a graph holding its room for
/// good. The rule is the online checker's for a recycled buffer — a
/// table that holds less than a quarter of its room gives all but twice
/// what it holds back, down to this many.
const RECYCLED_CAPACITY: usize = 64;

/// Whether a table holding `len` entries in room for `room` is that
/// sparse.
fn sparse(len: usize, room: usize) -> bool {
    room > RECYCLED_CAPACITY && len < room / 4
}

/// A labelled digraph maintaining a topological order incrementally,
/// condensing cycles, and supporting removal of singleton nodes.
#[derive(Debug, Default)]
pub struct IncrementalDag<K, L> {
    /// In the order their nodes were added (see
    /// [`add_node`](Self::add_node)).
    slots: Vec<Slot<K, L>>,
    index: HashMap<K, u32>,
    seen: HashSet<(K, K, L)>,
    next_ord: u64,
    reorders: u64,
    merges: u64,
    scratch: Scratch<K, L>,
}

impl<K, L> IncrementalDag<K, L>
where
    K: Copy + Eq + Hash,
    L: Copy + Eq + Hash,
{
    /// Creates an empty graph.
    pub fn new() -> Self {
        IncrementalDag {
            slots: Vec::new(),
            index: HashMap::new(),
            seen: HashSet::new(),
            next_ord: 0,
            reorders: 0,
            merges: 0,
            scratch: Scratch::default(),
        }
    }

    /// Number of live original nodes.
    pub fn node_count(&self) -> usize {
        self.index.len()
    }

    /// Number of distinct recorded edges.
    pub fn edge_count(&self) -> usize {
        self.seen.len()
    }

    /// How many Pearce–Kelly re-orderings have run.
    pub fn reorders(&self) -> u64 {
        self.reorders
    }

    /// How many component condensations have run.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// True if `k` is present.
    pub fn contains(&self, k: K) -> bool {
        self.index.contains_key(&k)
    }

    /// The live original nodes, in no particular order.
    pub fn nodes(&self) -> impl Iterator<Item = K> + '_ {
        self.index.keys().copied()
    }

    /// True if the edge `from → to` labelled `label` is recorded.
    pub fn has_edge(&self, from: K, to: K, label: L) -> bool {
        self.seen.contains(&(from, to, label))
    }

    /// The recorded edges with `k` as an endpoint, as `(src, dst,
    /// label)`: its out-edges in adjacency order, then its in-edges.
    /// Empty when `k` is absent. While `k` is a singleton component
    /// these are its own lists, each edge once — what
    /// [`remove_node`](Self::remove_node) takes out; inside a condensed
    /// component they are the component's, where an edge between two
    /// members sits in both.
    pub fn edges_of(&self, k: K) -> impl Iterator<Item = (K, K, L)> + '_ {
        let mut s = self.index.get(&k).map_or(usize::MAX, |&s| s as usize);
        while let Some(slot) = self.slots.get(s).filter(|slot| slot.parent as usize != s) {
            s = slot.parent as usize;
        }
        let slot = self.slots.get(s);
        let out = slot.into_iter().flat_map(|slot| slot.out.iter());
        let inc = slot.into_iter().flat_map(|slot| slot.inc.iter());
        out.chain(inc)
            .filter(move |e| e.src == k || e.dst == k)
            .map(|e| (e.src, e.dst, e.label))
    }

    /// Adds `k` as an isolated node (idempotent); returns its slot.
    ///
    /// A new node takes a slot at the end of the table, never a freed
    /// one, and compaction keeps the live slots in their order: slot
    /// order is the order the nodes came in, whatever was removed in
    /// between. Where the graph walks slots in order — merging a
    /// component's members, rebuilding the order after a merge — the
    /// lists it builds, and so every later witness, do not depend on
    /// which nodes were removed or when.
    pub fn add_node(&mut self, k: K) -> usize {
        if let Some(&s) = self.index.get(&k) {
            return s as usize;
        }
        let ord = self.next_ord;
        self.next_ord += 1;
        // A slot no edge could name is refused.
        let s = slot_number(self.slots.len());
        self.slots.push(Slot {
            parent: s,
            members: 1,
            ord,
            out: Vec::new(),
            inc: Vec::new(),
        });
        self.index.insert(k, s);
        s as usize
    }

    fn find(&mut self, mut s: usize) -> usize {
        while self.slots[s].parent as usize != s {
            let p = self.slots[s].parent as usize;
            self.slots[s].parent = self.slots[p].parent;
            s = self.slots[s].parent as usize;
        }
        s
    }

    /// True when `k` is present, still a singleton component, and no
    /// edge comes into it: [`remove_node`](Self::remove_node) takes no
    /// path through it away, so no cycle still to close loses one.
    pub fn is_source(&self, k: K) -> bool {
        self.index.get(&k).is_some_and(|&s| {
            let slot = &self.slots[s as usize];
            slot.parent == s && slot.members == 1 && slot.inc.is_empty()
        })
    }

    /// Removes a singleton node and every edge touching it. Returns
    /// false (and does nothing) if the node sits inside a condensed
    /// component. Once removals leave the graph's tables holding less
    /// than a quarter of their room, they give the rest back: the key
    /// and edge sets shrink, and the slot table is renumbered without
    /// its freed slots (keeping the live ones in their order). The
    /// freed slot's lists go with it; no later node takes the slot.
    pub fn remove_node(&mut self, k: K) -> bool {
        let Some(&s) = self.index.get(&k) else {
            return true;
        };
        let s = s as usize;
        if self.find(s) != s || self.slots[s].members != 1 {
            return false;
        }
        let out = std::mem::take(&mut self.slots[s].out);
        let inc = std::mem::take(&mut self.slots[s].inc);
        for e in &out {
            self.seen.remove(&(e.src, e.dst, e.label));
            let t = self.find(e.slot as usize);
            if t != s {
                self.slots[t]
                    .inc
                    .retain(|r| !(r.src == e.src && r.dst == e.dst && r.label == e.label));
            }
        }
        for e in &inc {
            self.seen.remove(&(e.src, e.dst, e.label));
            let t = self.find(e.slot as usize);
            if t != s {
                self.slots[t]
                    .out
                    .retain(|r| !(r.src == e.src && r.dst == e.dst && r.label == e.label));
            }
        }
        self.index.remove(&k);
        self.slots[s].members = 0;
        self.shrink_if_sparse();
        true
    }

    /// Gives back the room of tables removals have left sparse.
    fn shrink_if_sparse(&mut self) {
        let (nodes, edges) = (self.index.len(), self.seen.len());
        if sparse(nodes, self.slots.len()) {
            self.compact();
        }
        if sparse(nodes, self.index.capacity()) {
            self.index.shrink_to(RECYCLED_CAPACITY.max(2 * nodes));
        }
        if sparse(edges, self.seen.capacity()) {
            self.seen.shrink_to(RECYCLED_CAPACITY.max(2 * edges));
        }
    }

    /// Renumbers the live slots `0..` in their present order and drops
    /// the freed ones. Every slot number the graph
    /// holds — a parent, an edge's far endpoint, a key's slot — names a
    /// live slot, so each is rewritten through the same map.
    fn compact(&mut self) {
        let mut renumbered = vec![u32::MAX; self.slots.len()];
        let mut next = 0u32;
        for (s, slot) in self.slots.iter().enumerate() {
            if slot.members != 0 {
                renumbered[s] = next;
                next += 1;
            }
        }
        let live = next as usize;
        let mut slots = Vec::with_capacity(RECYCLED_CAPACITY.max(2 * live));
        for mut slot in std::mem::take(&mut self.slots) {
            if slot.members == 0 {
                continue;
            }
            slot.parent = renumbered[slot.parent as usize];
            for e in slot.out.iter_mut().chain(slot.inc.iter_mut()) {
                e.slot = renumbered[e.slot as usize];
            }
            slots.push(slot);
        }
        for s in self.index.values_mut() {
            *s = renumbered[*s as usize];
        }
        self.slots = slots;
    }

    /// Inserts the edge `from → to` (adding missing nodes), maintaining
    /// the topological order. Self-edges and duplicates are ignored.
    pub fn add_edge(&mut self, from: K, to: K, label: L) -> Insert<K, L> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let r = self.add_edge_in(&mut scratch, from, to, label);
        self.scratch = scratch;
        r
    }

    fn add_edge_in(
        &mut self,
        scratch: &mut Scratch<K, L>,
        from: K,
        to: K,
        label: L,
    ) -> Insert<K, L> {
        if from == to || !self.seen.insert((from, to, label)) {
            return Insert::Duplicate;
        }
        let su = self.add_node(from);
        let sv = self.add_node(to);
        let fu = self.find(su);
        let fv = self.find(sv);
        if fu == fv {
            self.record(fu, fv, su, sv, from, to, label);
            return Insert::IntraComponent;
        }
        if self.slots[fu].ord < self.slots[fv].ord {
            self.record(fu, fv, su, sv, from, to, label);
            return Insert::Added;
        }
        // Order violation: bounded forward DFS from fv among
        // components with ord < ord[fu], watching for fu.
        scratch.reset();
        let limit = self.slots[fu].ord;
        scratch.fwd.push(fv);
        scratch.fwd_set.insert(fv);
        scratch.stack.push(fv);
        let mut cycle = false;
        while let Some(x) = scratch.stack.pop() {
            scratch.edges.clear();
            scratch.edges.extend_from_slice(&self.slots[x].out);
            for i in 0..scratch.edges.len() {
                let e = scratch.edges[i];
                let t = self.find(e.slot as usize);
                if t == x {
                    continue;
                }
                if t == fu {
                    scratch.parent_edge.entry(fu).or_insert(e);
                    cycle = true;
                    continue;
                }
                if self.slots[t].ord < limit && scratch.fwd_set.insert(t) {
                    scratch.parent_edge.insert(t, e);
                    scratch.fwd.push(t);
                    scratch.stack.push(t);
                }
            }
        }
        if cycle {
            let info = self.condense(
                fu,
                fv,
                &scratch.fwd_set,
                &scratch.parent_edge,
                from,
                to,
                label,
                su,
                sv,
            );
            return Insert::CycleFormed(info);
        }
        // No cycle: Pearce–Kelly re-order of the affected region.
        let floor = self.slots[fv].ord;
        scratch.back.push(fu);
        scratch.back_set.insert(fu);
        scratch.stack.push(fu);
        while let Some(x) = scratch.stack.pop() {
            scratch.edges.clear();
            scratch.edges.extend_from_slice(&self.slots[x].inc);
            for i in 0..scratch.edges.len() {
                let e = scratch.edges[i];
                let t = self.find(e.slot as usize);
                if t != x && self.slots[t].ord > floor && scratch.back_set.insert(t) {
                    scratch.back.push(t);
                    scratch.stack.push(t);
                }
            }
        }
        for &x in scratch.fwd.iter().chain(scratch.back.iter()) {
            scratch.pool.push(self.slots[x].ord);
        }
        scratch.pool.sort_unstable();
        scratch.back.sort_unstable_by_key(|&x| self.slots[x].ord);
        scratch.fwd.sort_unstable_by_key(|&x| self.slots[x].ord);
        for (&x, &o) in scratch
            .back
            .iter()
            .chain(scratch.fwd.iter())
            .zip(scratch.pool.iter())
        {
            self.slots[x].ord = o;
        }
        self.reorders += 1;
        self.record(fu, fv, su, sv, from, to, label);
        Insert::Reordered
    }

    /// Records the edge on the representatives' adjacency lists.
    #[allow(clippy::too_many_arguments)]
    fn record(&mut self, fu: usize, fv: usize, su: usize, sv: usize, from: K, to: K, label: L) {
        let edge = |slot| Edge {
            slot: slot_number(slot),
            src: from,
            dst: to,
            label,
        };
        push_edge(&mut self.slots[fu].out, edge(sv));
        push_edge(&mut self.slots[fv].inc, edge(su));
    }

    /// Merges the components on a path `fv ⇒ fu` (plus the endpoints)
    /// into one, records the closing edge, rebuilds the global order,
    /// and reports witness + intra-component edges.
    #[allow(clippy::too_many_arguments)]
    fn condense(
        &mut self,
        fu: usize,
        fv: usize,
        fwd_set: &HashSet<usize>,
        parent_edge: &HashMap<usize, Edge<K, L>>,
        from: K,
        to: K,
        label: L,
        su: usize,
        sv: usize,
    ) -> SccInfo<K, L> {
        // Witness: the inserted edge, then the discovered path fv ⇒ fu.
        let mut path: Vec<(K, K, L)> = Vec::new();
        let mut cur = fu;
        while cur != fv {
            let e = parent_edge[&cur];
            path.push((e.src, e.dst, e.label));
            cur = self.find(self.index[&e.src] as usize);
        }
        path.reverse();
        let mut witness = vec![(from, to, label)];
        witness.extend(path);

        // Members: components on some fv ⇒ fu path = backward DFS from
        // fu restricted to the forward set.
        let mut members: HashSet<usize> = HashSet::from([fu, fv]);
        let mut stack = vec![fu];
        while let Some(x) = stack.pop() {
            let edges = self.slots[x].inc.clone();
            for e in edges {
                let t = self.find(e.slot as usize);
                if fwd_set.contains(&t) && members.insert(t) {
                    stack.push(t);
                }
            }
        }
        // Union into fu. Members are merged in slot order — the order
        // their nodes came in (see `add_node`) — so the resulting
        // adjacency lists depend neither on hash-set iteration order
        // nor on which nodes were removed before: the checker's verdict
        // stream (and its crash/restore snapshots) must be identical
        // across process instances and collection schedules.
        let mut members: Vec<usize> = members.into_iter().collect();
        members.sort_unstable();
        let mut out = std::mem::take(&mut self.slots[fu].out);
        let mut inc = std::mem::take(&mut self.slots[fu].inc);
        let mut total = self.slots[fu].members;
        for &m in &members {
            if m == fu {
                continue;
            }
            self.slots[m].parent = slot_number(fu);
            out.append(&mut self.slots[m].out);
            inc.append(&mut self.slots[m].inc);
            total += self.slots[m].members;
        }
        self.slots[fu].out = out;
        self.slots[fu].inc = inc;
        self.slots[fu].members = total;
        self.record(fu, fu, su, sv, from, to, label);
        self.merges += 1;
        self.rebuild_order();

        let intra = self.slots[fu]
            .out
            .clone()
            .into_iter()
            .filter(|e| self.find(e.slot as usize) == fu)
            .map(|e| (e.src, e.dst, e.label))
            .collect();
        SccInfo {
            witness,
            intra_edges: intra,
        }
    }

    /// Recomputes a full topological order of the condensation (used
    /// after a merge, which is rare: each merge latches a phenomenon).
    fn rebuild_order(&mut self) {
        let reps: Vec<usize> = {
            let slots: Vec<u32> = self.index.values().copied().collect();
            let mut set = HashSet::new();
            for s in slots {
                set.insert(self.find(s as usize));
            }
            // Sorted so the rebuilt order is a pure function of the
            // graph, not of hash-set iteration order (determinism
            // contract: identical op sequences must produce identical
            // orders in any process, including one restored from a
            // snapshot).
            let mut v: Vec<usize> = set.into_iter().collect();
            v.sort_unstable();
            v
        };
        // Iterative DFS post-order over the condensation.
        let mut state: HashMap<usize, u8> = HashMap::new(); // 1 = open, 2 = done
        let mut post: Vec<usize> = Vec::new();
        for &r in &reps {
            if state.contains_key(&r) {
                continue;
            }
            let mut stack = vec![(r, false)];
            while let Some((x, expanded)) = stack.pop() {
                if expanded {
                    state.insert(x, 2);
                    post.push(x);
                    continue;
                }
                match state.get(&x) {
                    Some(_) => continue,
                    None => {
                        state.insert(x, 1);
                        stack.push((x, true));
                        let edges = self.slots[x].out.clone();
                        for e in edges {
                            let t = self.find(e.slot as usize);
                            if t != x && !state.contains_key(&t) {
                                stack.push((t, false));
                            }
                        }
                    }
                }
            }
        }
        // Reverse post-order = topological order.
        let n = post.len() as u64;
        for (i, &x) in post.iter().rev().enumerate() {
            self.slots[x].ord = i as u64;
        }
        self.next_ord = n;
    }
}

impl<K, L> IncrementalDag<K, L>
where
    K: Copy + Eq + Hash + Ord,
    L: Copy + Eq + Hash + Ord,
{
    /// Flattens the graph's exact internal state into a [`DagParts`]
    /// image (see its docs for the round-trip guarantee).
    pub fn to_parts(&self) -> DagParts<K, L> {
        DagParts {
            slots: self.slot_views().map(SlotView::to_parts).collect(),
            index: self.sorted_index(),
            free: self.free_slots().collect(),
            seen: self.sorted_edges(),
            next_ord: self.next_ord,
            reorders: self.reorders,
            merges: self.merges,
        }
    }

    /// [`DagParts::slots`], borrowed: the slot table in order.
    pub fn slot_views(&self) -> impl ExactSizeIterator<Item = SlotView<'_, K, L>> {
        self.slots.iter().map(SlotView)
    }

    /// [`DagParts::index`]: key → slot, sorted by key.
    pub fn sorted_index(&self) -> Vec<(K, usize)> {
        let mut index: Vec<(K, usize)> =
            self.index.iter().map(|(&k, &s)| (k, s as usize)).collect();
        index.sort_unstable();
        index
    }

    /// [`DagParts::free`]: the freed slots, ascending.
    pub fn free_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.slot_views()
            .enumerate()
            .filter(|(_, slot)| !slot.live())
            .map(|(s, _)| s)
    }

    /// [`DagParts::seen`]: the distinct recorded edges, sorted.
    pub fn sorted_edges(&self) -> Vec<(K, K, L)> {
        let mut seen: Vec<(K, K, L)> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        seen
    }

    /// [`DagParts::next_ord`]: the next topological order value.
    pub fn next_ord(&self) -> u64 {
        self.next_ord
    }

    /// Reconstructs a graph from a [`to_parts`] image — one that
    /// [`DagParts::validate`] accepts.
    ///
    /// [`to_parts`]: IncrementalDag::to_parts
    pub fn from_parts(parts: DagParts<K, L>) -> Self {
        let unflat = |es: Vec<EdgeParts<K, L>>| -> Vec<Edge<K, L>> {
            es.into_iter()
                .map(|(slot, src, dst, label)| Edge {
                    slot: slot_number(slot),
                    src,
                    dst,
                    label,
                })
                .collect()
        };
        IncrementalDag {
            slots: parts
                .slots
                .into_iter()
                .map(|s| Slot {
                    parent: slot_number(s.parent),
                    members: if s.live { s.members } else { 0 },
                    ord: s.ord,
                    out: unflat(s.out),
                    inc: unflat(s.inc),
                })
                .collect(),
            index: (parts.index.into_iter())
                .map(|(k, s)| (k, slot_number(s)))
                .collect(),
            seen: parts.seen.into_iter().collect(),
            next_ord: parts.next_ord,
            reorders: parts.reorders,
            merges: parts.merges,
            scratch: Scratch::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_inserts_stay_cheap() {
        let mut g: IncrementalDag<u32, char> = IncrementalDag::new();
        for i in 0..100u32 {
            assert_eq!(g.add_edge(i, i + 1, 'd'), Insert::Added);
        }
        assert_eq!(g.reorders(), 0);
        assert_eq!(g.node_count(), 101);
    }

    #[test]
    fn an_edge_is_16_bytes_a_slot_64_and_a_list_starts_with_room_for_two() {
        assert_eq!(std::mem::size_of::<Edge<u32, u8>>(), 16);
        assert_eq!(std::mem::size_of::<Slot<u32, u8>>(), 64);
        let mut g: IncrementalDag<u32, u8> = IncrementalDag::new();
        g.add_edge(1, 2, 0);
        let caps = |g: &IncrementalDag<u32, u8>, k: u32| {
            let s = &g.slots[g.index[&k] as usize];
            (s.out.capacity(), s.inc.capacity())
        };
        assert_eq!((caps(&g, 1), caps(&g, 2)), ((2, 0), (0, 2)));
        g.add_edge(1, 3, 0);
        g.add_edge(1, 4, 0);
        assert_eq!(caps(&g, 1).0, 4, "then it grows as Vec does");
    }

    #[test]
    fn edges_of_a_node_are_its_own_lists_and_has_edge_reads_the_record() {
        let mut g: IncrementalDag<u32, u8> = IncrementalDag::new();
        g.add_edge(1, 2, 0);
        g.add_edge(2, 3, 1);
        g.add_edge(4, 2, 0);
        g.add_edge(2, 3, 0);
        let of = |g: &IncrementalDag<u32, u8>, k| g.edges_of(k).collect::<Vec<_>>();
        assert_eq!(of(&g, 2), [(2, 3, 1), (2, 3, 0), (1, 2, 0), (4, 2, 0)]);
        assert_eq!(of(&g, 9), []);
        assert!(g.has_edge(2, 3, 1) && !g.has_edge(3, 2, 1) && !g.has_edge(1, 2, 1));
        // Inside a component the lists are the root's: still only the
        // edges that touch the node, an internal one from both lists.
        g.add_edge(3, 1, 0);
        assert_eq!(of(&g, 4), [(4, 2, 0)]);
        let mut three = of(&g, 3);
        three.sort_unstable();
        three.dedup();
        assert_eq!(three, [(2, 3, 0), (2, 3, 1), (3, 1, 0)]);
    }

    #[test]
    fn back_edge_reorders_without_cycle() {
        let mut g: IncrementalDag<u32, char> = IncrementalDag::new();
        g.add_node(1);
        g.add_node(2); // 1 before 2 in insertion order
        assert_eq!(g.add_edge(2, 1, 'd'), Insert::Reordered);
        assert_eq!(g.reorders(), 1);
        // Order now respects 2 -> 1, so a second aligned edge is free.
        assert_eq!(g.add_edge(2, 1, 'e'), Insert::Added);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut g: IncrementalDag<u32, char> = IncrementalDag::new();
        assert_eq!(g.add_edge(1, 2, 'd'), Insert::Added);
        assert_eq!(g.add_edge(1, 2, 'd'), Insert::Duplicate);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn two_cycle_condenses_with_witness() {
        let mut g: IncrementalDag<u32, char> = IncrementalDag::new();
        g.add_edge(1, 2, 'a');
        match g.add_edge(2, 1, 'b') {
            Insert::CycleFormed(info) => {
                assert_eq!(info.witness[0], (2, 1, 'b'));
                assert!(info.witness.contains(&(1, 2, 'a')));
                assert_eq!(info.intra_edges.len(), 2);
            }
            other => panic!("expected cycle, got {other:?}"),
        }
        // Later edges between the merged nodes are intra-component.
        assert_eq!(g.add_edge(1, 2, 'c'), Insert::IntraComponent);
    }

    #[test]
    fn long_cycle_witness_walks_the_path() {
        let mut g: IncrementalDag<u32, char> = IncrementalDag::new();
        g.add_edge(1, 2, 'a');
        g.add_edge(2, 3, 'a');
        g.add_edge(3, 4, 'a');
        match g.add_edge(4, 1, 'z') {
            Insert::CycleFormed(info) => {
                assert_eq!(info.witness.len(), 4);
                assert_eq!(info.witness[0], (4, 1, 'z'));
                assert_eq!(info.intra_edges.len(), 4);
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn graph_keeps_working_after_a_merge() {
        let mut g: IncrementalDag<u32, char> = IncrementalDag::new();
        g.add_edge(1, 2, 'a');
        g.add_edge(2, 1, 'a');
        // New nodes around the component still topo-sort and detect
        // later cycles through the component.
        assert!(matches!(
            g.add_edge(0, 1, 'a'),
            Insert::Added | Insert::Reordered
        ));
        assert!(matches!(
            g.add_edge(2, 3, 'a'),
            Insert::Added | Insert::Reordered
        ));
        match g.add_edge(3, 0, 'a') {
            Insert::CycleFormed(info) => {
                assert!(info.intra_edges.iter().any(|&(s, d, _)| s == 3 && d == 0));
            }
            other => panic!("expected cycle through the component, got {other:?}"),
        }
    }

    #[test]
    fn remove_singleton_and_reuse() {
        let mut g: IncrementalDag<u32, char> = IncrementalDag::new();
        g.add_edge(1, 2, 'a');
        g.add_edge(2, 3, 'a');
        assert!(g.remove_node(1));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        // 1 can come back as a fresh node with no stale edges, and it
        // participates in new cycles like any other node.
        g.add_node(1);
        assert_eq!(g.add_edge(3, 1, 'a'), Insert::Added);
        assert!(matches!(g.add_edge(1, 2, 'b'), Insert::CycleFormed(_)));
    }

    #[test]
    fn removal_refuses_condensed_nodes() {
        let mut g: IncrementalDag<u32, char> = IncrementalDag::new();
        g.add_edge(1, 2, 'a');
        g.add_edge(2, 1, 'a');
        assert!(!g.remove_node(1));
        assert!(g.contains(1));
    }

    #[test]
    fn a_peeled_burst_gives_its_room_back() {
        // A chain of 100 001 nodes, peeled from the front — each node a
        // source as it goes — down to its last 16: what is left has
        // room for about what it holds, and carries on as a graph.
        const N: u32 = 100_000;
        let mut g: IncrementalDag<u32, u8> = IncrementalDag::new();
        for i in 0..N {
            g.add_edge(i, i + 1, 0);
        }
        let room = |g: &IncrementalDag<u32, u8>| {
            [g.slots.capacity(), g.index.capacity(), g.seen.capacity()]
        };
        assert!(room(&g)[0] > N as usize && room(&g)[1] > N as usize);
        for i in 0..N - 15 {
            assert!(g.is_source(i) && !g.is_source(i + 1), "node {i}");
            assert!(g.remove_node(i));
        }
        assert_eq!((g.node_count(), g.edge_count()), (16, 15));
        let left = room(&g);
        assert!(
            left.iter().all(|&r| r <= 4 * RECYCLED_CAPACITY),
            "room left: {left:?}"
        );
        assert_eq!(g.to_parts().validate(), Ok(()));
        assert!(g.contains(N - 15) && g.has_edge(N - 1, N, 0));
        assert!(matches!(g.add_edge(N, N - 15, 0), Insert::CycleFormed(_)));
    }

    #[test]
    fn compaction_keeps_components_and_answers_like_the_sparse_graph() {
        // A condensed component and a chain behind it; removals that
        // renumber the slots leave a graph that answers every later
        // insert as one that was never compacted does.
        let build = || {
            let mut g: IncrementalDag<u32, u8> = IncrementalDag::new();
            g.add_edge(1000, 1001, 0);
            g.add_edge(1001, 1000, 1);
            for i in 0..300u32 {
                g.add_edge(i, i + 1, 0);
            }
            g.add_edge(300, 1000, 0);
            g
        };
        let mut g = build();
        let slots = g.slots.len();
        for i in 0..290u32 {
            assert!(g.remove_node(i));
        }
        assert!(
            g.slots.len() < slots / 4,
            "{} of {slots} slots",
            g.slots.len()
        );
        let dead = g.slots.iter().filter(|s| s.members == 0).count();
        assert_eq!(dead, g.slots.len() - g.node_count());
        assert_eq!(g.to_parts().validate(), Ok(()));
        assert!(!g.is_source(1000) && !g.is_source(1001));
        // The same graph, its slots left sparse.
        let mut sparse = build();
        for i in 0..290u32 {
            let s = sparse.index[&i] as usize;
            let mut out = std::mem::take(&mut sparse.slots[s].out);
            for e in out.drain(..) {
                sparse.seen.remove(&(e.src, e.dst, e.label));
                let t = sparse.find(e.slot as usize);
                sparse.slots[t].inc.retain(|r| r.src != e.src);
            }
            sparse.index.remove(&i);
            sparse.slots[s].members = 0;
        }
        for (a, b) in [(295, 1001), (1001, 296), (5, 299), (299, 5), (2000, 298)] {
            assert_eq!(g.add_edge(a, b, 0), sparse.add_edge(a, b, 0), "{a} -> {b}");
        }
        assert_eq!(g.node_count(), sparse.node_count());
        assert_eq!(g.edge_count(), sparse.edge_count());
    }

    #[test]
    fn a_merge_walks_members_in_the_order_they_came_whatever_was_removed() {
        // Nodes 1..=4 come in that order; 0 and 9 come first and are
        // removed again, at different times in the two graphs. The
        // cycle 3 -> 1 -> 2 -> 4 -> 3 then merges four components, and
        // the merged out-list — which the checker's witness reads —
        // is the same in both.
        let cycle = |g: &mut IncrementalDag<u32, u8>| {
            g.add_edge(1, 2, 0);
            g.add_edge(2, 4, 1);
            g.add_edge(4, 3, 2);
            g.add_edge(1, 4, 3);
            match g.add_edge(3, 1, 4) {
                Insert::CycleFormed(info) => info.intra_edges,
                other => panic!("expected a cycle, got {other:?}"),
            }
        };
        let mut early: IncrementalDag<u32, u8> = IncrementalDag::new();
        early.add_edge(0, 9, 0);
        assert!(early.remove_node(0) && early.remove_node(9));
        let mut late: IncrementalDag<u32, u8> = IncrementalDag::new();
        late.add_edge(0, 9, 0);
        let mut never: IncrementalDag<u32, u8> = IncrementalDag::new();
        let (a, b, c) = (cycle(&mut early), cycle(&mut late), cycle(&mut never));
        assert!(late.remove_node(0) && late.remove_node(9));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn parts_round_trip_is_exact() {
        // Build a graph that has seen it all: plain inserts, a
        // reorder, a condensation, and a removal (so the free list is
        // non-empty) — then flatten, restore, and check that both
        // copies answer an identical stream of future operations
        // identically.
        let mut g: IncrementalDag<u32, u8> = IncrementalDag::new();
        g.add_edge(1, 2, 0);
        g.add_edge(3, 4, 0);
        g.add_node(5);
        g.add_edge(4, 1, 1); // reorder
        g.add_edge(2, 3, 0);
        assert!(matches!(
            g.add_edge(1, 3, 1),
            Insert::IntraComponent | Insert::CycleFormed(_)
        ));
        let _ = g.add_edge(2, 1, 2); // condense (or intra if already merged)
        assert!(g.remove_node(5));
        let parts = g.to_parts();
        let mut h = IncrementalDag::from_parts(parts.clone());
        assert_eq!(h.to_parts(), parts, "restore must reproduce the image");
        for (a, b, l) in [(6, 1, 0u8), (2, 6, 1), (6, 7, 0), (7, 6, 2), (4, 2, 0)] {
            assert_eq!(
                g.add_edge(a, b, l),
                h.add_edge(a, b, l),
                "ops diverged at {a}->{b}"
            );
        }
        assert_eq!(
            g.to_parts(),
            h.to_parts(),
            "states diverged after identical ops"
        );
    }

    #[test]
    fn validate_refuses_parts_no_graph_can_be_in() {
        // The round-trip test's graph: a condensed component, a
        // reorder behind it and a freed slot.
        let mut g: IncrementalDag<u32, u8> = IncrementalDag::new();
        g.add_edge(1, 2, 0);
        g.add_edge(3, 4, 0);
        g.add_node(5);
        g.add_edge(4, 1, 1);
        g.add_edge(2, 3, 0);
        g.add_edge(2, 1, 2);
        g.add_edge(6, 1, 0);
        assert!(g.remove_node(5));
        let good = g.to_parts();
        assert_eq!(good.validate(), Ok(()));
        let root = good.slots.iter().position(|s| s.members > 1).unwrap();
        let dead = good.free[0];
        // (parts, the condensed component's root, a dead slot)
        type Damage = fn(&mut DagParts<u32, u8>, usize, usize);
        let damage: [(&str, Damage); 11] = [
            ("a slot number out of range", |p, _, _| p.index[0].1 = 99),
            ("a key twice", |p, _, _| p.index[1].0 = p.index[0].0),
            ("a live slot on the free list", |p, root, _| {
                p.free[0] = root
            }),
            ("a dead slot that is nobody's", |p, _, _| p.free.clear()),
            ("a parent loop", |p, root, _| {
                let child = (0..p.slots.len())
                    .find(|&s| s != root && p.slots[s].parent == root)
                    .unwrap();
                p.slots[root].parent = child;
            }),
            ("a parent that is dead", |p, root, dead| {
                p.slots[root].parent = dead
            }),
            ("a wrong member count", |p, root, _| {
                p.slots[root].members = 1
            }),
            ("an edge against the order", |p, root, _| {
                p.slots[root].ord = 0
            }),
            ("an edge `seen` does not know", |p, _, _| {
                p.seen.pop();
            }),
            (
                "a freed slot that is not its own parent",
                |p, root, dead| p.slots[dead].parent = root,
            ),
            ("a freed slot with no members", |p, _, dead| {
                p.slots[dead].members = 0
            }),
        ];
        for (what, break_it) in damage {
            let mut bad = good.clone();
            break_it(&mut bad, root, dead);
            assert!(bad.validate().is_err(), "accepted {what}");
        }
    }

    #[test]
    fn dense_random_inserts_never_lose_cycles() {
        // A deterministic pseudo-random stress: every edge either keeps
        // the DAG acyclic or condenses; afterwards every condensed pair
        // reports IntraComponent consistently.
        let mut g: IncrementalDag<u32, u8> = IncrementalDag::new();
        let mut x = 0x9e3779b9u64;
        let mut cycles = 0u32;
        for _ in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((x >> 33) % 20) as u32;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = ((x >> 33) % 20) as u32;
            if a == b {
                continue;
            }
            if let Insert::CycleFormed(_) = g.add_edge(a, b, (x % 3) as u8) {
                cycles += 1;
            }
        }
        assert!(cycles > 0, "stress should hit at least one cycle");
        assert!(g.node_count() <= 20);
    }
}
