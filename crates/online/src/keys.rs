//! The key table: one row per object the checker has seen, in
//! fixed-size chunks, indexed by the object's id.
//!
//! `StreamParser` numbers names densely, in the order a stream first
//! mentions them, and the checker numbers a row for each object at the
//! first event that mentions it — so on a parser-fed stream row `r` is
//! `ObjectId(r)`, and finding a row is an array index. An id that does
//! not come next (a binary log written by something else, an engine's
//! keys, a hostile peer) switches the table, once, to *renumbered*
//! rows: rows keep their arrival order, and an [`OpenIndex`] over a
//! keyed hash of the id maps it to its row. Either way an id's magnitude sizes
//! nothing; a row costs the same 16 bytes (20 with its id, renumbered).
//!
//! A row is *cold* — its newest version's writer and final seq, and the
//! count of versions taken off its front — or *empty*, unless something
//! holds the object: a version whose installer the checker still holds,
//! or a committed reader anchored at its newest version. Then it is
//! *hot*: its [`ObjectState`] sits in a [`Slab`] cell, and the row
//! names the cell's slot, which the installers' write entries and the
//! readers' anchors keep. Whoever takes the last of those away calls
//! [`Keys::settle`], which turns the row cold again and frees the cell.
//! A row stays *unseen* — not in the table, as far as the image and the
//! handlers are concerned — until a handler enters it (an install, or a
//! read that must anchor).

use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::hash::BuildHasher;
use std::ops::{Index, IndexMut};

use adya_history::{ObjectId, TxnId};

use crate::checker::{shrink_if_sparse, ObjSlot, TxnSlot, RECYCLED_CAPACITY};
use crate::tables::{Chunks, OpenIndex, Recycle, Slab};

/// An object's row: 16 bytes.
#[derive(Debug, Clone, Copy, Default)]
enum Row {
    /// Mentioned by an event, not in the table.
    #[default]
    Unseen,
    /// In the table, holding nothing, no version taken off its front.
    Empty,
    /// The newest version's writer has left the checker: the version
    /// stays as this *cold entry* — (writer, final seq), all a later
    /// read of it needs for its G1a/G1b checks and to anchor at it —
    /// and `base` versions have been taken off the object's front.
    Cold { writer: TxnId, seq: u32, base: u32 },
    /// Something holds the object: its state is in this cell.
    Hot(ObjSlot),
}

/// Rows in arrival order, and where each id's is.
#[derive(Debug, Default)]
struct Renumbered {
    hasher: RandomState,
    index: OpenIndex,
    /// `ids[r]`: row `r`'s id.
    ids: Chunks<ObjectId>,
}

impl Renumbered {
    fn find(&self, o: ObjectId) -> Option<usize> {
        let row = self
            .index
            .find(self.hasher.hash_one(o), |r| self.ids[r as usize] == o);
        row.map(|r| r as usize)
    }

    fn insert(&mut self, o: ObjectId, row: usize) {
        let Renumbered { hasher, index, ids } = self;
        debug_assert_eq!(ids.len(), row);
        ids.push(o);
        index.insert(hasher.hash_one(o), row as u32, |r| {
            hasher.hash_one(ids[r as usize])
        });
    }
}

/// What the image reads off one object.
pub(crate) struct KeyView<'a> {
    pub(crate) id: ObjectId,
    pub(crate) base: u64,
    /// The cold entry: the newest version's, or one a later install
    /// superseded.
    pub(crate) cold: Option<(TxnId, u32)>,
    pub(crate) hot: Option<&'a ObjectState>,
}

/// The objects the checker holds. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct Keys {
    rows: Chunks<Row>,
    /// `None` while row `r` is `ObjectId(r)`.
    renumbered: Option<Box<Renumbered>>,
    hot: Slab<ObjectId, ObjectState>,
    /// Rows in the table: all but the unseen.
    len: usize,
}

impl Keys {
    /// Objects in the table.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn find(&self, o: ObjectId) -> Option<usize> {
        match &self.renumbered {
            None => Some(o.0 as usize).filter(|&r| r < self.rows.len()),
            Some(n) => n.find(o),
        }
    }

    /// The row of `o`, numbered now if no event mentioned it before.
    pub(crate) fn number(&mut self, o: ObjectId) -> usize {
        if let Some(r) = self.find(o) {
            return r;
        }
        let row = self.rows.len();
        if self.renumbered.is_none() && o.0 as usize != row {
            self.renumber();
        }
        self.rows.push(Row::Unseen);
        if let Some(n) = &mut self.renumbered {
            n.insert(o, row);
        }
        row
    }

    /// Numbers ids `0..n`, which a parser has named: rows for them stay
    /// indexed by id whatever order an image lists them in.
    pub(crate) fn number_dense(&mut self, n: usize) {
        if self.renumbered.is_none() {
            while self.rows.len() < n {
                self.rows.push(Row::Unseen);
            }
        }
    }

    /// From identity rows to renumbered ones: each row so far keeps its
    /// number, now through the index.
    #[cold]
    fn renumber(&mut self) {
        let mut n = Box::<Renumbered>::default();
        let rows = self.rows.len();
        n.index.reserve(rows);
        for r in 0..rows {
            n.insert(ObjectId(r as u32), r);
        }
        self.renumbered = Some(n);
    }

    /// The slot of `o`'s state while something holds it (tests only).
    #[cfg(test)]
    pub(crate) fn lookup(&self, o: ObjectId) -> Option<ObjSlot> {
        match self.rows[self.find(o)?] {
            Row::Hot(slot) => Some(slot),
            _ => None,
        }
    }

    /// `o`'s state, which enters the table now if it is not in it; the
    /// flag says whether it did. The caller [settles](Self::settle) the
    /// slot once it is done with it, unless it leaves a hold on it.
    pub(crate) fn enter(&mut self, o: ObjectId) -> (ObjSlot, bool) {
        let r = self.number(o);
        let row = self.rows[r];
        if let Row::Hot(slot) = row {
            return (slot, false);
        }
        let slot = self.hot.insert(o);
        if let Row::Cold { writer, seq, base } = row {
            let st = &mut self.hot[slot];
            st.base = base.into();
            st.cold = Some((writer, seq));
        }
        self.rows[r] = Row::Hot(slot);
        let fresh = matches!(row, Row::Unseen);
        self.len += usize::from(fresh);
        (slot, fresh)
    }

    /// Turns `slot`'s row cold (or empty) and frees the cell, if
    /// nothing holds the object any more: no installer, no anchored
    /// reader — and a `base` a cold row has room for.
    pub(crate) fn settle(&mut self, slot: ObjSlot) {
        let st = &self.hot[slot];
        if st.entries.len() != 0 || !st.anchored.as_slice().is_empty() {
            return;
        }
        let row = match (st.cold, u32::try_from(st.base)) {
            (Some((writer, seq)), Ok(base)) => Row::Cold { writer, seq, base },
            (None, Ok(0)) => Row::Empty,
            _ => return,
        };
        let r = self
            .find(self.hot.key_of(slot))
            .expect("a hot object has a row");
        self.rows[r] = row;
        self.hot.release(slot);
    }

    /// `o`'s cold entry, if it holds one: the newest version's, or one a
    /// later install superseded that the watermark has not retired.
    pub(crate) fn cold(&self, o: ObjectId) -> Option<(TxnId, u32)> {
        match self.rows[self.find(o)?] {
            Row::Cold { writer, seq, .. } => Some((writer, seq)),
            Row::Hot(slot) => self.hot[slot].cold,
            Row::Unseen | Row::Empty => None,
        }
    }

    /// Versions taken off the front of `o`.
    pub(crate) fn base(&self, o: ObjectId) -> u64 {
        match self.find(o).map(|r| self.rows[r]) {
            Some(Row::Cold { base, .. }) => base.into(),
            Some(Row::Hot(slot)) => self.hot[slot].base,
            _ => 0,
        }
    }

    /// The object `slot` holds the state of.
    pub(crate) fn key_of(&self, slot: ObjSlot) -> ObjectId {
        self.hot.key_of(slot)
    }

    fn view(&self, r: usize) -> Option<KeyView<'_>> {
        let id = match &self.renumbered {
            None => ObjectId(r as u32),
            Some(n) => n.ids[r],
        };
        let (base, cold, hot) = match self.rows[r] {
            Row::Unseen => return None,
            Row::Empty => (0, None, None),
            Row::Cold { writer, seq, base } => (base.into(), Some((writer, seq)), None),
            Row::Hot(slot) => {
                let st = &self.hot[slot];
                (st.base, st.cold, Some(st))
            }
        };
        Some(KeyView {
            id,
            base,
            cold,
            hot,
        })
    }

    /// Every object in the table, in id order: a walk of the rows — or,
    /// renumbered, of the rows sorted by id.
    pub(crate) fn in_id_order(&self) -> impl Iterator<Item = KeyView<'_>> {
        let (dense, sorted) = match &self.renumbered {
            None => (0..self.rows.len(), Vec::new()),
            Some(n) => {
                let mut rows: Vec<usize> = (0..self.rows.len()).collect();
                rows.sort_unstable_by_key(|&r| n.ids[r]);
                (0..0, rows)
            }
        };
        dense.chain(sorted).filter_map(|r| self.view(r))
    }

    /// Every object something holds, with its slot, in no particular
    /// order.
    pub(crate) fn hot(&self) -> impl Iterator<Item = (ObjSlot, &ObjectState)> {
        (0..self.rows.len()).filter_map(|r| match self.rows[r] {
            Row::Hot(slot) => Some((slot, &self.hot[slot])),
            _ => None,
        })
    }

    /// Cells the hot slab has ever made room for (tests only).
    #[cfg(test)]
    pub(crate) fn hot_slots(&self) -> usize {
        self.hot.slots()
    }

    /// Rows numbered, and whether by id (tests only).
    #[cfg(test)]
    pub(crate) fn rows(&self) -> (usize, bool) {
        (self.rows.len(), self.renumbered.is_none())
    }
}

impl Index<ObjSlot> for Keys {
    type Output = ObjectState;

    fn index(&self, slot: ObjSlot) -> &ObjectState {
        &self.hot[slot]
    }
}

impl IndexMut<ObjSlot> for Keys {
    fn index_mut(&mut self, slot: ObjSlot) -> &mut ObjectState {
        &mut self.hot[slot]
    }
}

/// The installers of an object's versions still held, oldest first.
/// Nearly every object has one or two, kept inline; a third moves them
/// all into a ring on the heap, which stays: an object that had three
/// is a hot one, which will again. The ring shrinks as a recycled
/// buffer does, once it holds less than a quarter of its room, so a
/// burst of versions behind one open transaction leaves no more than
/// [`RECYCLED_CAPACITY`] behind it.
#[derive(Debug, Default)]
pub(crate) enum Installers {
    #[default]
    Empty,
    One(TxnSlot),
    Two(TxnSlot, TxnSlot),
    // Boxed, so the enum is 16 bytes rather than a `VecDeque`'s 32.
    #[allow(clippy::box_collection)]
    Many(Box<VecDeque<TxnSlot>>),
}

impl Installers {
    pub(crate) fn len(&self) -> usize {
        match self {
            Installers::Empty => 0,
            Installers::One(_) => 1,
            Installers::Two(..) => 2,
            Installers::Many(q) => q.len(),
        }
    }

    /// The installer of the `i`-th version held.
    pub(crate) fn get(&self, i: usize) -> Option<TxnSlot> {
        match (self, i) {
            (Installers::One(a) | Installers::Two(a, _), 0) | (Installers::Two(_, a), 1) => {
                Some(*a)
            }
            (Installers::Many(q), i) => q.get(i).copied(),
            _ => None,
        }
    }

    pub(crate) fn back(&self) -> Option<TxnSlot> {
        self.get(self.len().wrapping_sub(1))
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = TxnSlot> + '_ {
        (0..self.len()).filter_map(|i| self.get(i))
    }

    pub(crate) fn push_back(&mut self, t: TxnSlot) {
        *self = match std::mem::take(self) {
            Installers::Empty => Installers::One(t),
            Installers::One(a) => Installers::Two(a, t),
            Installers::Two(a, b) => Installers::Many(Box::new(VecDeque::from([a, b, t]))),
            Installers::Many(mut q) => {
                q.push_back(t);
                Installers::Many(q)
            }
        };
    }

    pub(crate) fn pop_front(&mut self) -> Option<TxnSlot> {
        let (first, rest) = match std::mem::take(self) {
            Installers::Empty => return None,
            Installers::One(a) => (a, Installers::Empty),
            Installers::Two(a, b) => (a, Installers::One(b)),
            Installers::Many(mut q) => {
                let first = q.pop_front()?;
                shrink_if_sparse(&mut q);
                (first, Installers::Many(q))
            }
        };
        *self = rest;
        Some(first)
    }

    /// Room for installers the ring has; zero while they are inline.
    #[cfg(test)]
    pub(crate) fn room(&self) -> usize {
        match self {
            Installers::Many(q) => q.capacity(),
            _ => 0,
        }
    }
}

/// The committed readers anchored at an object's newest version. Most
/// objects have none, one or two, kept inline; a third moves them into
/// a buffer on the heap, which installing the next version drains and
/// keeps as a recycled buffer is kept.
#[derive(Debug, Default)]
pub(crate) enum Readers {
    #[default]
    Empty,
    One(TxnSlot),
    Two([TxnSlot; 2]),
    // Boxed, so the enum is 16 bytes rather than a `Vec`'s 24 plus a tag.
    #[allow(clippy::box_collection)]
    Many(Box<Vec<TxnSlot>>),
}

impl Readers {
    pub(crate) fn as_slice(&self) -> &[TxnSlot] {
        match self {
            Readers::Empty => &[],
            Readers::One(r) => std::slice::from_ref(r),
            Readers::Two(rs) => rs,
            Readers::Many(v) => v,
        }
    }

    pub(crate) fn push(&mut self, r: TxnSlot) {
        match self {
            Readers::Empty => *self = Readers::One(r),
            Readers::One(a) => *self = Readers::Two([*a, r]),
            Readers::Two([a, b]) => *self = Readers::Many(Box::new(vec![*a, *b, r])),
            Readers::Many(v) => v.push(r),
        }
    }

    /// Takes one of `r`'s anchors out, keeping the others in order.
    pub(crate) fn remove_one(&mut self, r: TxnSlot) {
        let at = self.as_slice().iter().position(|&x| x == r);
        let at = at.expect("an anchor is on its reader and its object");
        match self {
            Readers::Empty => {}
            Readers::One(_) => *self = Readers::Empty,
            Readers::Two(rs) => *self = Readers::One(rs[1 - at]),
            Readers::Many(v) => {
                v.remove(at);
            }
        }
    }

    /// Empties the list. A buffer stays, for a hot object's next
    /// readers, only while it has room for [`RECYCLED_CAPACITY`] or
    /// fewer: a burst of readers must not leave its room on the object
    /// for as long as the object lives.
    pub(crate) fn drained(self) -> Readers {
        match self {
            Readers::Many(mut v) if v.capacity() <= RECYCLED_CAPACITY => {
                v.clear();
                Readers::Many(v)
            }
            _ => Readers::Empty,
        }
    }

    /// Room for readers the buffer has; zero while they are inline.
    #[cfg(test)]
    pub(crate) fn room(&self) -> usize {
        match self {
            Readers::Many(v) => v.capacity(),
            _ => 0,
        }
    }
}

/// An object something holds — a hot row's state: 56 bytes in release
/// builds, in a slab cell of 64.
///
/// **Positions are taken mod 2³².** A version's position is `base` plus
/// its index in `entries`; a [`WriteEntry`](crate::checker::WriteEntry) keeps it as a `u32`, and
/// [`Self::index_of`] subtracts `base` mod 2³². That gives the index
/// back exactly, because an object never holds 2³² versions at once:
/// each held version pins a distinct transaction row (a transaction
/// installs one version per object), and rows are numbered by a `u32`.
/// `base` itself stays a `u64`, because the image carries it.
#[derive(Debug, Default)]
pub(crate) struct ObjectState {
    /// Number of versions taken off the front of `entries`: retired, or
    /// left cold by their writer.
    pub(crate) base: u64,
    /// The installers of the committed versions, in install (= commit)
    /// order. An installer's [`WriteEntry::pos`](crate::checker::WriteEntry::pos) is its place here.
    pub(crate) entries: Installers,
    /// Committed readers anchored at the newest version — or, while
    /// there is none, before the first. (A superseded version anchors
    /// nobody: installing its successor resolved them all.)
    pub(crate) anchored: Readers,
    /// The *cold entry*: (writer, final seq) of a version whose writer
    /// has left the checker — all a later read of it needs for its
    /// G1a/G1b checks and to anchor at it, as on a cold [`Row`]. While
    /// `entries` is empty it is the newest version; while an installer
    /// is held it is the version the first one superseded, older than
    /// every version held, until the watermark retires it: a reader
    /// that began before the successor committed may still read it.
    pub(crate) cold: Option<(TxnId, u32)>,
}

impl Recycle for ObjectState {
    /// A fresh state, but for the room of a ring or a reader buffer no
    /// larger than a recycled one: the next object to turn hot in this
    /// cell may be a hot one again.
    fn recycle(&mut self) {
        let entries = match std::mem::take(&mut self.entries) {
            Installers::Many(mut q) if q.capacity() <= RECYCLED_CAPACITY => {
                q.clear();
                Installers::Many(q)
            }
            _ => Installers::Empty,
        };
        let anchored = std::mem::take(&mut self.anchored).drained();
        *self = ObjectState {
            entries,
            anchored,
            ..ObjectState::default()
        };
    }
}

impl ObjectState {
    /// The position, mod 2³², of the version at index `i` of `entries`.
    pub(crate) fn position(&self, i: usize) -> u32 {
        self.base.wrapping_add(i as u64) as u32
    }

    /// The index in `entries` of the version at position `pos`, while
    /// it is held there.
    pub(crate) fn index_of(&self, pos: u32) -> Option<usize> {
        let i = pos.wrapping_sub(self.base as u32) as usize;
        (i < self.entries.len()).then_some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (id, base, cold entry) of an object.
    type Listed = (u32, u64, Option<(TxnId, u32)>);

    /// What the image reads off every object, in the order it lists
    /// them.
    fn listed(keys: &Keys) -> Vec<Listed> {
        keys.in_id_order()
            .map(|k| (k.id.0, k.base, k.cold))
            .collect()
    }

    #[test]
    fn a_row_is_sixteen_bytes_and_a_cold_key_holds_no_state() {
        assert_eq!(std::mem::size_of::<Row>(), 16);
        let mut keys = Keys::default();
        let (slot, fresh) = keys.enter(ObjectId(0));
        assert!(fresh);
        keys[slot].base = 3;
        keys[slot].cold = Some((TxnId(7), 2));
        keys.settle(slot);
        assert_eq!(keys.lookup(ObjectId(0)), None, "cold: the cell is free");
        assert_eq!(keys.cold(ObjectId(0)), Some((TxnId(7), 2)));
        assert_eq!(keys.base(ObjectId(0)), 3);
        // Entering it again finds the cold entry where it was, in the
        // cell the first state left.
        let (again, fresh) = keys.enter(ObjectId(0));
        assert!(!fresh);
        assert_eq!(keys[again].cold, Some((TxnId(7), 2)));
        assert_eq!((keys.hot_slots(), keys.len()), (1, 1));
        // A base a cold row has no room for keeps the state hot.
        keys[again].base = u64::from(u32::MAX) + 1;
        keys.settle(again);
        assert_eq!(keys.lookup(ObjectId(0)), Some(again));
        assert_eq!(
            listed(&keys),
            [(0, u64::from(u32::MAX) + 1, Some((TxnId(7), 2)))]
        );
    }

    #[test]
    fn ids_out_of_order_are_renumbered_and_listed_as_in_order() {
        // The same objects, one table seeing them as a parser issues
        // them, the other the largest id first: same listing.
        const BIG: ObjectId = ObjectId(u32::MAX - 1);
        let fill = |order: &[ObjectId]| {
            let mut keys = Keys::default();
            for &o in order {
                keys.number(o);
            }
            for (i, o) in [ObjectId(2), BIG, ObjectId(0)].into_iter().enumerate() {
                let (slot, _) = keys.enter(o);
                keys[slot].base = i as u64 + 1;
                keys[slot].cold = Some((TxnId(i as u32 + 1), 1));
                keys.settle(slot);
            }
            keys
        };
        let dense = fill(&[ObjectId(0), ObjectId(1), ObjectId(2)]);
        assert_eq!(dense.rows(), (4, false), "BIG is not the next id");
        let sparse = fill(&[BIG, ObjectId(1), ObjectId(0), ObjectId(2)]);
        assert_eq!(sparse.rows(), (4, false));
        let want = [
            (0, 3, Some((TxnId(3), 1))),
            (2, 1, Some((TxnId(1), 1))),
            (BIG.0, 2, Some((TxnId(2), 1))),
        ];
        assert_eq!(listed(&dense), want);
        assert_eq!(listed(&sparse), want);
        assert_eq!(sparse.cold(ObjectId(1)), None, "mentioned, never entered");
        assert_eq!(sparse.cold(ObjectId(5)), None, "never mentioned");

        let mut parser_fed = Keys::default();
        parser_fed.number_dense(3);
        parser_fed.number(ObjectId(3));
        assert_eq!(parser_fed.rows(), (4, true));
    }
}
