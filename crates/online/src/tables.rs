//! The checker's storage: values in fixed-size [`Chunks`], handed out
//! as [`Slot`]s by a [`Slab`]; a [`Table`] that finds a transaction's
//! slot by hashing its id; and the [`OpenIndex`] that finds a name or
//! an object's row. Objects are not found by hash on a parser-fed
//! stream: their rows are indexed by the id itself (`crate::keys`).
//!
//! **Chunks.** Nothing here is ever copied whole: a store grows by one
//! chunk of at most [`CHUNK_BYTES`] at a time, so the largest single
//! allocation an event can cause is one chunk — or the list of chunks,
//! 24 bytes each, once a store holds more than ≈ 680 of them. Only the
//! first chunk grows by doubling, so a small
//! store (a session of 256 keys) pays for what it holds, not for a
//! chunk.
//!
//! **Ids.** Transaction and object ids arrive from outside — a stream
//! file, the wire, a peer of `adya-serve` — so a table's hash is keyed,
//! and an id's magnitude never sizes anything: a slab grows with the
//! number of values alive at once, and a released slot goes on a free
//! list to be handed out again with whatever heap capacity its value
//! kept.
//!
//! A transaction id is hashed once, where an event enters the checker
//! ([`Table::enter`] / [`Table::lookup`] in `OnlineChecker::ingest`);
//! everything the handlers, the collector and the snapshot codec hold
//! after that is the slot, and following it is two array indexes.
//!
//! **The slot rule.** A slot names a *held* value: it may be kept only
//! where the one place that releases the value takes it out first — for
//! a transaction, the collector's release (`gc::Collector::try_release`)
//! takes its version off its object's list, its anchors out of their
//! objects' reader lists and its slot out of the running reads of it,
//! and a parked read (`awaiting`) or, for an aborted writer, a read
//! pin (`refs`) or membership in the active list holds it back; an
//! object's hot row is released only once no version and no anchor
//! names it (`keys::Keys::settle`). A slot never orders anything (walks
//! that need an order use the ids or the clock: the collector's
//! terminal-clock queue, `finish()`'s aborts, install order) and never
//! reaches an image, a verdict or another crate. Debug builds hunt
//! violations: every slot carries the generation of the cell it was
//! issued for, a release bumps the cell's generation, and every
//! dereference compares the two.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::marker::PhantomData;
use std::num::NonZeroU32;
use std::ops::{Index, IndexMut};

/// The most bytes one chunk holds: 16 KiB, 1 024 object rows. Small
/// enough that allocating one is no pause, large enough that the list
/// of chunks stays short (a few kB at a million keys).
pub(crate) const CHUNK_BYTES: usize = 16 << 10;

/// log2 of the values a chunk of `T`s holds: the largest power of two
/// whose values fit in [`CHUNK_BYTES`], at least one.
const fn chunk_shift(size: usize) -> u32 {
    let per = match CHUNK_BYTES.checked_div(size) {
        Some(per) => per,
        None => CHUNK_BYTES,
    };
    if per <= 1 {
        0
    } else {
        usize::BITS - 1 - per.leading_zeros()
    }
}

/// A growable array in fixed-size chunks: pushing never moves what is
/// already in it, and no allocation is larger than one chunk.
#[derive(Debug)]
pub(crate) struct Chunks<T> {
    chunks: Vec<Vec<T>>,
}

impl<T> Default for Chunks<T> {
    fn default() -> Self {
        Chunks { chunks: Vec::new() }
    }
}

impl<T> Chunks<T> {
    const SHIFT: u32 = chunk_shift(std::mem::size_of::<T>());
    const PER: usize = 1 << Self::SHIFT;

    pub(crate) fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| ((self.chunks.len() - 1) << Self::SHIFT) + c.len())
    }

    /// Appends `v`; returns its index.
    pub(crate) fn push(&mut self, v: T) -> usize {
        let at = self.len();
        match self.chunks.last_mut() {
            Some(c) if c.len() < Self::PER => {
                // Only the first chunk is ever short of room: it grows
                // by doubling, up to a chunk.
                if c.len() == c.capacity() {
                    c.reserve_exact(c.capacity().clamp(4, Self::PER - c.len()));
                }
                c.push(v);
            }
            last => {
                let room = if last.is_none() { 0 } else { Self::PER };
                let mut c = Vec::with_capacity(room);
                c.push(v);
                self.chunks.push(c);
            }
        }
        at
    }

    #[cfg(test)]
    fn get(&self, i: usize) -> Option<&T> {
        self.chunks
            .get(i >> Self::SHIFT)
            .and_then(|c| c.get(i & (Self::PER - 1)))
    }
}

impl<T> Index<usize> for Chunks<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.chunks[i >> Self::SHIFT][i & (Self::PER - 1)]
    }
}

impl<T> IndexMut<usize> for Chunks<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i >> Self::SHIFT][i & (Self::PER - 1)]
    }
}

/// An open-addressed index of `u32` values (linear probing, at most
/// three quarters full), found by a hash the caller computes and told
/// apart by a comparison the caller makes: it holds no key of its own,
/// so a name or an id is stored once, where its owner keeps it. Each
/// slot has a tag byte — seven bits of the hash, never zero — beside
/// it, so a probe asks the caller about a value only when the tags
/// match: 5 bytes a slot.
#[derive(Debug, Default, Clone)]
pub(crate) struct OpenIndex {
    /// 0 for an empty slot.
    tags: Vec<u8>,
    values: Vec<u32>,
    len: usize,
}

fn tag(h: u64) -> u8 {
    (h >> 57) as u8 | 0x80
}

impl OpenIndex {
    /// The value whose hash is `h` and for which `is(value)` holds.
    pub(crate) fn find(&self, h: u64, is: impl Fn(u32) -> bool) -> Option<u32> {
        let mask = self.tags.len().checked_sub(1)?;
        let (want, mut i) = (tag(h), h as usize & mask);
        loop {
            match self.tags[i] {
                0 => return None,
                t if t == want && is(self.values[i]) => return Some(self.values[i]),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Adds `value`, whose hash is `h` and which is not in the index;
    /// growing rehashes every value through `hash`.
    pub(crate) fn insert(&mut self, h: u64, value: u32, hash: impl Fn(u32) -> u64) {
        if 4 * (self.len + 1) > 3 * self.tags.len() {
            self.grow((2 * self.tags.len()).max(8), hash);
        }
        self.place(h, value);
        self.len += 1;
    }

    /// Makes room for `n` values in an index that holds none yet, so
    /// that inserting them does not rehash.
    pub(crate) fn reserve(&mut self, n: usize) {
        debug_assert_eq!(self.len, 0, "nothing to rehash");
        if 4 * n > 3 * self.tags.len() {
            let slots = (4 * n / 3 + 1).next_power_of_two();
            (self.tags, self.values) = (vec![0; slots], vec![0; slots]);
        }
    }

    fn grow(&mut self, slots: usize, hash: impl Fn(u32) -> u64) {
        let tags = std::mem::replace(&mut self.tags, vec![0; slots]);
        let values = std::mem::replace(&mut self.values, vec![0; slots]);
        for (_, v) in tags.into_iter().zip(values).filter(|&(t, _)| t != 0) {
            self.place(hash(v), v);
        }
    }

    fn place(&mut self, h: u64, value: u32) {
        let mask = self.tags.len() - 1;
        let mut i = h as usize & mask;
        while self.tags[i] != 0 {
            i = (i + 1) & mask;
        }
        (self.tags[i], self.values[i]) = (tag(h), value);
    }

    /// Slots probed past the home slot, summed over every value: how
    /// much the hash collides (tests only).
    #[cfg(test)]
    pub(crate) fn displacement(&self, hash: impl Fn(u32) -> u64) -> usize {
        let mask = self.tags.len().wrapping_sub(1);
        (0..self.tags.len())
            .filter(|&i| self.tags[i] != 0)
            .map(|i| i.wrapping_sub(hash(self.values[i]) as usize) & mask)
            .sum()
    }
}

/// A value that can be handed to a new owner: back to its `Default`
/// state in everything but the heap capacity it holds.
pub(crate) trait Recycle: Default {
    fn recycle(&mut self);
}

/// Where a value keyed by `K` lives in its [`Slab`]: the cell's
/// index plus one, so zero is a niche and an `Option<Slot>` costs no
/// more than a slot (4 bytes in release builds).
pub(crate) struct Slot<K> {
    ix: NonZeroU32,
    #[cfg(debug_assertions)]
    gen: u32,
    key: PhantomData<fn() -> K>,
}

impl<K> Clone for Slot<K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K> Copy for Slot<K> {}

impl<K> PartialEq for Slot<K> {
    fn eq(&self, other: &Self) -> bool {
        self.ix == other.ix
    }
}

impl<K> Eq for Slot<K> {}

impl<K> std::fmt::Debug for Slot<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.at())
    }
}

impl<K> Slot<K> {
    /// The index of the cell the slot names.
    fn at(self) -> usize {
        self.ix.get() as usize - 1
    }
}

#[derive(Debug)]
struct Cell<K, V> {
    key: K,
    #[cfg(debug_assertions)]
    gen: u32,
    value: V,
}

/// Values keyed by `K` in chunked cells, each named by its [`Slot`]; a
/// released cell is handed out again.
#[derive(Debug)]
pub(crate) struct Slab<K, V> {
    cells: Chunks<Cell<K, V>>,
    free: Vec<u32>,
}

impl<K, V> Default for Slab<K, V> {
    /// Empty, with nothing allocated.
    fn default() -> Self {
        Slab {
            cells: Chunks::default(),
            free: Vec::new(),
        }
    }
}

impl<K: Copy, V: Default> Slab<K, V> {
    fn slot(&self, ix: u32) -> Slot<K> {
        Slot {
            ix: NonZeroU32::MIN.saturating_add(ix),
            #[cfg(debug_assertions)]
            gen: self.cells[ix as usize].gen,
            key: PhantomData,
        }
    }

    fn cell(&self, slot: Slot<K>) -> &Cell<K, V> {
        let cell = &self.cells[slot.at()];
        #[cfg(debug_assertions)]
        assert_eq!(cell.gen, slot.gen, "{slot:?} outlived the value it named");
        cell
    }

    /// Slots the slab has ever made room for: the most values that were
    /// in it at once, whatever their keys.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.cells.len()
    }

    /// A slot holding a default value for `key`.
    pub(crate) fn insert(&mut self, key: K) -> Slot<K> {
        let ix = match self.free.pop() {
            Some(ix) => {
                self.cells[ix as usize].key = key;
                ix
            }
            None => {
                let ix = u32::try_from(self.cells.len())
                    .ok()
                    .filter(|&ix| ix < u32::MAX)
                    .expect("fewer than 2^32 - 1 values alive at once");
                self.cells.push(Cell {
                    key,
                    #[cfg(debug_assertions)]
                    gen: 0,
                    value: V::default(),
                });
                ix
            }
        };
        self.slot(ix)
    }

    /// The key `slot` was issued for.
    pub(crate) fn key_of(&self, slot: Slot<K>) -> K {
        self.cell(slot).key
    }
}

impl<K: Copy, V: Recycle> Slab<K, V> {
    /// Takes the value at `slot` out of the slab. Nothing may name the
    /// slot afterwards (the slot rule); the next [`Self::insert`] may be
    /// handed it, value recycled.
    pub(crate) fn release(&mut self, slot: Slot<K>) {
        let cell = &mut self.cells[slot.at()];
        #[cfg(debug_assertions)]
        {
            assert_eq!(cell.gen, slot.gen, "{slot:?} released twice");
            cell.gen = cell.gen.wrapping_add(1);
        }
        cell.value.recycle();
        self.free.push(slot.at() as u32);
    }
}

impl<K: Copy, V: Default> Index<Slot<K>> for Slab<K, V> {
    type Output = V;

    fn index(&self, slot: Slot<K>) -> &V {
        &self.cell(slot).value
    }
}

impl<K: Copy, V: Default> IndexMut<Slot<K>> for Slab<K, V> {
    fn index_mut(&mut self, slot: Slot<K>) -> &mut V {
        let cell = &mut self.cells[slot.at()];
        #[cfg(debug_assertions)]
        assert_eq!(cell.gen, slot.gen, "{slot:?} outlived the value it named");
        &mut cell.value
    }
}

/// A [`Slab`] whose values are found by hashing their id. See the
/// module docs.
#[derive(Debug)]
pub(crate) struct Table<K, V> {
    index: HashMap<K, u32>,
    slab: Slab<K, V>,
}

impl<K, V> Default for Table<K, V> {
    /// Empty, with nothing allocated.
    fn default() -> Self {
        Table {
            index: HashMap::new(),
            slab: Slab::default(),
        }
    }
}

impl<K: Copy + Eq + Hash, V: Default> Table<K, V> {
    /// Values in the table.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Slots the slab has ever made room for.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slab.slots()
    }

    /// The slot of `key`, if it is in the table.
    pub(crate) fn lookup(&self, key: K) -> Option<Slot<K>> {
        self.index.get(&key).map(|&ix| self.slab.slot(ix))
    }

    /// The slot of `key`, which gets a default value first if it has
    /// none; the flag says whether it did.
    pub(crate) fn enter(&mut self, key: K) -> (Slot<K>, bool) {
        match self.index.entry(key) {
            Entry::Occupied(e) => (self.slab.slot(*e.get()), false),
            Entry::Vacant(e) => {
                let slot = self.slab.insert(key);
                e.insert(slot.at() as u32);
                (slot, true)
            }
        }
    }

    /// The key `slot` was issued for.
    pub(crate) fn key_of(&self, slot: Slot<K>) -> K {
        self.slab.key_of(slot)
    }

    /// Every value with its key and slot, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, Slot<K>, &V)> {
        self.index.iter().map(|(&key, &ix)| {
            let slot = self.slab.slot(ix);
            (key, slot, &self.slab[slot])
        })
    }
}

impl<K: Copy + Eq + Hash, V: Recycle> Table<K, V> {
    /// Takes the value at `slot` out of the table. Nothing may name the
    /// slot afterwards (the slot rule); the next [`Self::enter`] of a
    /// new key may be handed it, value recycled.
    pub(crate) fn release(&mut self, slot: Slot<K>) {
        self.index.remove(&self.slab.key_of(slot));
        self.slab.release(slot);
    }
}

impl<K: Copy + Eq + Hash, V: Default> Index<Slot<K>> for Table<K, V> {
    type Output = V;

    fn index(&self, slot: Slot<K>) -> &V {
        &self.slab[slot]
    }
}

impl<K: Copy + Eq + Hash, V: Default> IndexMut<Slot<K>> for Table<K, V> {
    fn index_mut(&mut self, slot: Slot<K>) -> &mut V {
        &mut self.slab[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Bag(Vec<u32>);

    impl Recycle for Bag {
        fn recycle(&mut self) {
            self.0.clear();
        }
    }

    #[test]
    fn a_released_slot_is_reissued_recycled_and_ids_never_size_the_slab() {
        let mut t: Table<u32, Bag> = Table::default();
        let (a, fresh) = t.enter(u32::MAX);
        assert!(fresh);
        t[a].0.extend([1, 2, 3]);
        assert_eq!(t.enter(u32::MAX), (a, false));
        let (b, _) = t.enter(7);
        assert_eq!((t.len(), t.slots()), (2, 2));
        assert_eq!((t.key_of(a), t.key_of(b)), (u32::MAX, 7));

        let kept = t[a].0.capacity();
        t.release(a);
        assert_eq!(t.lookup(u32::MAX), None);
        let (c, fresh) = t.enter(1 << 31);
        assert!(fresh);
        assert_eq!(c, a, "the free slot is handed out again");
        assert!(t[c].0.is_empty() && t[c].0.capacity() == kept);
        assert_eq!((t.len(), t.slots()), (2, 2));
        let mut keys: Vec<u32> = t.iter().map(|(key, _, _)| key).collect();
        keys.sort_unstable();
        assert_eq!(keys, [7, 1 << 31]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outlived")]
    fn a_slot_kept_past_its_release_is_caught() {
        let mut t: Table<u32, Bag> = Table::default();
        let (a, _) = t.enter(1);
        t.release(a);
        t.enter(2); // reuses the cell
        let _ = &t[a];
    }

    #[test]
    fn chunks_never_move_what_they_hold_and_grow_a_chunk_at_a_time() {
        let mut c: Chunks<u64> = Chunks::default();
        let per = Chunks::<u64>::PER;
        assert_eq!(per * 8, CHUNK_BYTES);
        for i in 0..3 * per + 5 {
            assert_eq!(c.push(i as u64), i);
        }
        let first = &c[0] as *const u64;
        c.push(0);
        assert_eq!(first, &c[0] as *const u64, "the first chunk stays put");
        assert_eq!(c.len(), 3 * per + 6);
        assert_eq!((c[per], c[3 * per + 4]), (per as u64, 3 * per as u64 + 4));
        assert_eq!(c.get(3 * per + 6), None);
        assert!(c.chunks.iter().all(|k| k.capacity() == per));
        // A small store pays for what it holds.
        let mut small: Chunks<u64> = Chunks::default();
        for i in 0..5 {
            small.push(i);
        }
        assert!(small.chunks[0].capacity() <= 8);
        assert_eq!(chunk_shift(24 << 10), 0);
    }

    #[test]
    fn the_open_index_finds_what_it_holds_through_collisions_and_growth() {
        let keys: Vec<u64> = (0..1_000).map(|i| i * 7_919).collect();
        let mut ix = OpenIndex::default();
        let hash = |v: u32| keys[v as usize] % 61; // heavy collisions
        for v in 0..keys.len() as u32 {
            assert_eq!(ix.find(hash(v), |w| w == v), None);
            ix.insert(hash(v), v, hash);
        }
        for v in 0..keys.len() as u32 {
            assert_eq!(
                ix.find(hash(v), |w| keys[w as usize] == keys[v as usize]),
                Some(v)
            );
        }
        assert_eq!(ix.find(5, |_| false), None);
        assert!(ix.displacement(hash) > 0);
    }
}
