//! The lock-free bounded ring behind [`StampRing`](crate::StampRing):
//! an array of slots, each `W` payload words guarded by a sequence word
//! (a seqlock per slot).
//!
//! Writers claim a ticket with one `fetch_add` and publish with a
//! release store of the sequence; a reader that observes a torn slot
//! (sequence changed across its copy, or an in-progress odd value)
//! skips it. No `unsafe`, no mutex, no allocation on the record path.
//! The ring overwrites its oldest records; what rotated out is
//! counted so exporters can say "N dropped" instead of silently
//! truncating.
//!
//! Invariant the protocol rests on: a slot's payload words are written
//! only between the compare-exchange that makes its sequence odd and
//! the release store that makes it even again, by the one writer whose
//! compare-exchange succeeded. A reader therefore holds an untorn copy
//! exactly when it saw the same even, nonzero sequence before and
//! after copying the words.

use std::sync::atomic::{AtomicU64, Ordering};

struct Slot<const W: usize> {
    /// 0 = never written; odd = write in progress; even, nonzero =
    /// `(ticket + 1) << 1` of the resident record.
    seq: AtomicU64,
    data: [AtomicU64; W],
}

/// A bounded multi-writer ring of `W`-word records.
pub struct SeqRing<const W: usize> {
    slots: Box<[Slot<W>]>,
    head: AtomicU64,
    /// `head` at the last [`reset`](SeqRing::reset): what came before
    /// was emptied, not dropped.
    base: AtomicU64,
    /// Writes abandoned because another writer held the slot (the ring
    /// wrapped within one in-flight write) — drops, not corruption.
    contended: AtomicU64,
}

impl<const W: usize> std::fmt::Debug for SeqRing<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqRing")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl<const W: usize> SeqRing<W> {
    /// A ring retaining at most `capacity` records (at least one).
    pub fn new(capacity: usize) -> SeqRing<W> {
        SeqRing {
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    data: [const { AtomicU64::new(0) }; W],
                })
                .collect(),
            head: AtomicU64::new(0),
            base: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Total records ever deposited (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records no longer retrievable: overwritten by the capacity
    /// bound or abandoned to a contended slot since the last reset.
    pub fn dropped(&self) -> u64 {
        // Saturating: a reset between the two loads moves `base` past
        // the `head` read here.
        let since_reset = self
            .recorded()
            .saturating_sub(self.base.load(Ordering::Relaxed));
        since_reset.saturating_sub(self.slots.len() as u64) + self.contended.load(Ordering::Relaxed)
    }

    /// Deposits one record. Lock-free; on the rare slot contention
    /// (the ring wrapped around faster than one write completed) the
    /// record is dropped and counted, never torn.
    pub fn record(&self, words: [u64; W]) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let stable = (ticket + 1) << 1;
        let cur = slot.seq.load(Ordering::Acquire);
        if cur & 1 == 1
            || slot
                .seq
                .compare_exchange(cur, stable | 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.contended.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for (cell, word) in slot.data.iter().zip(words) {
            cell.store(word, Ordering::Relaxed);
        }
        slot.seq.store(stable, Ordering::Release);
    }

    /// Copies out every retained record as `(ticket, words)`, oldest
    /// first. A slot torn by a concurrent overwrite is skipped (the
    /// next collect counts it as dropped).
    pub fn collect(&self) -> Vec<(u64, [u64; W])> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue;
            }
            let words: [u64; W] = std::array::from_fn(|i| slot.data[i].load(Ordering::Relaxed));
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue; // overwritten mid-copy
            }
            out.push(((s1 >> 1) - 1, words));
        }
        out.sort_unstable_by_key(|(ticket, _)| *ticket);
        out
    }

    /// Empties the ring in place (tickets keep counting, so they never
    /// repeat across a reset).
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Release);
        }
        self.base.store(self.recorded(), Ordering::Relaxed);
        self.contended.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keeps_newest_and_counts_drops<const W: usize>() {
        let ring = SeqRing::<W>::new(4);
        for i in 0..10u64 {
            ring.record([i; W]);
        }
        let got = ring.collect();
        assert_eq!(
            got,
            (6..10u64).map(|i| (i, [i; W])).collect::<Vec<_>>(),
            "W = {W}"
        );
        assert_eq!((ring.recorded(), ring.dropped()), (10, 6));
        ring.reset();
        assert!(ring.collect().is_empty());
        ring.record([77; W]);
        assert_eq!(ring.collect(), vec![(10, [77; W])], "tickets keep counting");
        assert_eq!(ring.dropped(), 0, "emptied is not dropped");
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops_at_both_widths() {
        keeps_newest_and_counts_drops::<3>();
        keeps_newest_and_counts_drops::<5>();
    }

    #[test]
    fn zero_capacity_is_clamped_to_one_slot() {
        let ring = SeqRing::<3>::new(0);
        ring.record([1, 2, 3]);
        ring.record([4, 5, 6]);
        assert_eq!(ring.collect(), vec![(1, [4, 5, 6])]);
    }
}
