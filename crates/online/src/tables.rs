//! Slot-indexed tables: the one place that knows a transaction (or an
//! object) is found by hash.
//!
//! A [`Table`] is an id → [`Slot`] map in front of a slab of values.
//! Ids arrive from outside — a stream file, the wire, a peer of
//! `adya-serve` — so the map keeps the standard keyed hasher, and an
//! id's magnitude never sizes anything: the slab grows with the number
//! of values alive at once, and a released slot goes on a free list to
//! be handed out again with whatever heap capacity its value kept.
//!
//! The id is hashed once, where an event enters the checker
//! ([`Table::enter`] / [`Table::lookup`] in `OnlineChecker::ingest`);
//! everything the handlers, the collector and the snapshot codec hold
//! after that is the slot, and following it is a `Vec` index.
//!
//! **The slot rule.** A slot names a *held* value: it may be kept only
//! where the one place that releases the value takes it out first — for
//! a transaction, the collector's release (`gc::Collector::try_release`)
//! takes its version off its object's list, its anchors out of their
//! objects' reader lists and its slot out of the running reads of it,
//! and a parked read (`awaiting`) or, for an aborted writer, a read
//! pin (`refs`) or membership in the active list holds it back. A slot
//! never orders anything (walks that need an order use the ids or the
//! clock: the collector's terminal-clock queue, `finish()`'s aborts,
//! install order) and never reaches an image, a verdict or another
//! crate. Debug builds hunt violations: every slot carries the
//! generation of the cell it was issued for, a release bumps the cell's
//! generation, and every dereference compares the two.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::marker::PhantomData;
use std::num::NonZeroU32;
use std::ops::{Index, IndexMut};

/// A value that can be handed to a new owner: back to its `Default`
/// state in everything but the heap capacity it holds.
pub(crate) trait Recycle: Default {
    fn recycle(&mut self);
}

/// Where a value keyed by `K` lives in its [`Table`]: the cell's
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

#[derive(Debug)]
struct Cell<K, V> {
    key: K,
    #[cfg(debug_assertions)]
    gen: u32,
    value: V,
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct Table<K, V> {
    index: HashMap<K, u32>,
    cells: Vec<Cell<K, V>>,
    free: Vec<u32>,
}

impl<K, V> Default for Table<K, V> {
    /// Empty, with nothing allocated.
    fn default() -> Self {
        Table {
            index: HashMap::new(),
            cells: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<K> Slot<K> {
    /// The index of the cell the slot names.
    fn at(self) -> usize {
        self.ix.get() as usize - 1
    }
}

impl<K: Copy + Eq + Hash, V: Default> Table<K, V> {
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

    /// Values in the table.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Slots the slab has ever made room for: the most values that were
    /// in the table at once, whatever their ids.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.cells.len()
    }

    /// The slot of `key`, if it is in the table.
    pub(crate) fn lookup(&self, key: K) -> Option<Slot<K>> {
        self.index.get(&key).map(|&ix| self.slot(ix))
    }

    /// The slot of `key`, which gets a default value first if it has
    /// none; the flag says whether it did.
    pub(crate) fn enter(&mut self, key: K) -> (Slot<K>, bool) {
        let (ix, fresh) = match self.index.entry(key) {
            Entry::Occupied(e) => (*e.get(), false),
            Entry::Vacant(e) => {
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
                (*e.insert(ix), true)
            }
        };
        (self.slot(ix), fresh)
    }

    /// The key `slot` was issued for.
    pub(crate) fn key_of(&self, slot: Slot<K>) -> K {
        self.cell(slot).key
    }

    /// Every value with its key and slot, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, Slot<K>, &V)> {
        self.index.iter().map(|(&key, &ix)| {
            let slot = self.slot(ix);
            (key, slot, &self.cells[ix as usize].value)
        })
    }
}

impl<K: Copy + Eq + Hash, V: Recycle> Table<K, V> {
    /// Takes the value at `slot` out of the table. Nothing may name the
    /// slot afterwards (the slot rule); the next [`Self::enter`] of a
    /// new key may be handed it, value recycled.
    pub(crate) fn release(&mut self, slot: Slot<K>) {
        let key = self.key_of(slot);
        self.index.remove(&key);
        let cell = &mut self.cells[slot.at()];
        cell.value.recycle();
        #[cfg(debug_assertions)]
        {
            cell.gen = cell.gen.wrapping_add(1);
        }
        self.free.push(slot.at() as u32);
    }
}

impl<K: Copy + Eq + Hash, V: Default> Index<Slot<K>> for Table<K, V> {
    type Output = V;

    fn index(&self, slot: Slot<K>) -> &V {
        &self.cell(slot).value
    }
}

impl<K: Copy + Eq + Hash, V: Default> IndexMut<Slot<K>> for Table<K, V> {
    fn index_mut(&mut self, slot: Slot<K>) -> &mut V {
        let cell = &mut self.cells[slot.at()];
        #[cfg(debug_assertions)]
        assert_eq!(cell.gen, slot.gen, "{slot:?} outlived the value it named");
        &mut cell.value
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
}
