//! Bounded lock-free SPSC rings of sequenced events — the first stage
//! of the parallel ingest pipeline.
//!
//! An [`EventRing`] carries `(seq, Event)` pairs from an event
//! producer (an engine's recorder tap) to the pipeline's sequencer
//! without taking any lock: one atomic head, one atomic tail, a fixed
//! slot array. The design is the single-producer/single-consumer
//! classic — the same atomic-index style as `adya_obs`'s `SeqRing`
//! seqlock, but move-based because events are owned, not `Copy`.
//!
//! **SPSC contract.** At most one thread pushes and at most one thread
//! pops at any instant. The push side in this repo is serialized by
//! the recorder mutex (taps run under it), and the pop side is the
//! single sequencer thread, so the contract holds by construction;
//! the handles are `!Clone` to keep it that way. Release stores on
//! the published index pair with acquire loads on the other side, so
//! a popped event's contents always happen-after its push.
//!
//! Backpressure: a full ring makes [`RingProducer::push`] spin-yield
//! until the consumer frees a slot (counted in
//! `pipeline.backpressure_waits`), which stalls the producing engine
//! thread — exactly the flow control a bounded pipeline wants.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use adya_history::Event;

/// One ring slot: an event paired with its rebased recorder sequence.
type Slot = UnsafeCell<MaybeUninit<(u64, Event)>>;

struct RingInner {
    /// Slot storage; slot `i % capacity` holds the item with logical
    /// index `i`. A slot is initialized iff `head <= i < tail`.
    slots: Box<[Slot]>,
    /// Logical index of the next item to pop (monotonic, not wrapped).
    head: AtomicUsize,
    /// Logical index of the next item to push (monotonic, not wrapped).
    tail: AtomicUsize,
    /// Producer is done; no further pushes will happen.
    closed: AtomicBool,
}

// SAFETY: the slots are only ever touched by the single producer
// (writing slot `tail` before publishing `tail + 1`) and the single
// consumer (reading slot `head` before publishing `head + 1`); the
// acquire/release index handoff makes those accesses data-race-free.
// The SPSC discipline itself is enforced by the `!Clone` handle split
// in `EventRing::with_capacity`.
unsafe impl Sync for RingInner {}
unsafe impl Send for RingInner {}

/// Factory for one SPSC ring; see the module docs.
pub struct EventRing;

impl EventRing {
    /// Creates a ring holding up to `capacity` events (minimum 1) and
    /// returns its two endpoint handles.
    pub fn with_capacity(capacity: usize) -> (RingProducer, RingConsumer) {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let inner = Arc::new(RingInner {
            slots,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        });
        (
            RingProducer {
                inner: Arc::clone(&inner),
            },
            RingConsumer { inner },
        )
    }
}

/// Push endpoint of one [`EventRing`]. Not cloneable: exactly one
/// producer may exist.
pub struct RingProducer {
    inner: Arc<RingInner>,
}

impl RingProducer {
    /// Attempts to push without blocking; hands the item back when the
    /// ring is full.
    pub fn try_push(&self, seq: u64, ev: Event) -> Result<(), (u64, Event)> {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        let head = self.inner.head.load(Ordering::Acquire);
        if tail - head == self.inner.slots.len() {
            return Err((seq, ev));
        }
        let slot = &self.inner.slots[tail % self.inner.slots.len()];
        // SAFETY: `head <= tail < head + capacity` means this slot is
        // free (the consumer has moved out any previous occupant), and
        // only this producer writes slots at `tail`.
        unsafe { (*slot.get()).write((seq, ev)) };
        self.inner.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Pushes, spin-yielding under backpressure until the consumer
    /// frees a slot. Each wait round is counted in
    /// `pipeline.backpressure_waits`.
    pub fn push(&self, seq: u64, ev: Event) {
        let mut item = (seq, ev);
        loop {
            match self.try_push(item.0, item.1) {
                Ok(()) => return,
                Err(back) => {
                    item = back;
                    adya_obs::counter!("pipeline.backpressure_waits").inc();
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Marks the stream complete. The consumer drains what remains and
    /// then sees [`RingConsumer::is_drained`].
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Release);
    }

    /// A detached close-only handle for this ring, so a driver can end
    /// the stream while the producer endpoint lives on inside a tap
    /// closure it cannot reach.
    pub fn closer(&self) -> RingCloser {
        RingCloser {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for RingProducer {
    fn drop(&mut self) {
        self.close();
    }
}

/// Close-only handle to a ring (see [`RingProducer::closer`]). Safe to
/// clone and share: closing touches only the `closed` flag.
#[derive(Clone)]
pub struct RingCloser {
    inner: Arc<RingInner>,
}

impl RingCloser {
    /// Marks the stream complete, like [`RingProducer::close`].
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Release);
    }
}

/// Pop endpoint of one [`EventRing`]. Not cloneable: exactly one
/// consumer may exist.
pub struct RingConsumer {
    inner: Arc<RingInner>,
}

impl RingConsumer {
    /// Pops the oldest event, or `None` when the ring is currently
    /// empty (which does not imply the stream is over — see
    /// [`is_drained`]).
    ///
    /// [`is_drained`]: RingConsumer::is_drained
    pub fn try_pop(&self) -> Option<(u64, Event)> {
        let head = self.inner.head.load(Ordering::Relaxed);
        let tail = self.inner.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.inner.slots[head % self.inner.slots.len()];
        // SAFETY: `head < tail` means this slot was initialized by the
        // producer and published by its release store on `tail`; only
        // this consumer reads slots at `head`, and advancing `head`
        // below transfers the slot back to the producer empty.
        let item = unsafe { (*slot.get()).assume_init_read() };
        self.inner.head.store(head + 1, Ordering::Release);
        Some(item)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        let head = self.inner.head.load(Ordering::Relaxed);
        let tail = self.inner.tail.load(Ordering::Acquire);
        tail - head
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the producer closed the ring *and* every buffered
    /// event has been popped: the stream is complete.
    pub fn is_drained(&self) -> bool {
        // Closed must be read first: a racing producer could push then
        // close between the two loads, but never the reverse, so
        // "closed, then observed empty" is conclusive.
        self.inner.closed.load(Ordering::Acquire) && self.is_empty()
    }
}

impl Drop for RingConsumer {
    fn drop(&mut self) {
        // Move out any still-initialized slots so their events drop.
        while self.try_pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_history::TxnId;

    fn ev(n: u32) -> Event {
        Event::Begin(TxnId(n))
    }

    #[test]
    fn fifo_order_and_capacity() {
        let (p, c) = EventRing::with_capacity(2);
        p.try_push(0, ev(0)).unwrap();
        p.try_push(1, ev(1)).unwrap();
        assert!(p.try_push(2, ev(2)).is_err(), "full ring rejects");
        assert_eq!(c.try_pop().unwrap().0, 0);
        p.try_push(2, ev(2)).unwrap();
        assert_eq!(c.try_pop().unwrap().0, 1);
        assert_eq!(c.try_pop().unwrap().0, 2);
        assert!(c.try_pop().is_none());
    }

    #[test]
    fn drained_only_after_close_and_empty() {
        let (p, c) = EventRing::with_capacity(4);
        p.try_push(0, ev(0)).unwrap();
        assert!(!c.is_drained());
        p.close();
        assert!(!c.is_drained(), "still holds an event");
        assert_eq!(c.try_pop().unwrap().0, 0);
        assert!(c.is_drained());
    }

    #[test]
    fn dropping_producer_closes() {
        let (p, c) = EventRing::with_capacity(4);
        p.try_push(0, ev(0)).unwrap();
        drop(p);
        assert_eq!(c.try_pop().unwrap().0, 0);
        assert!(c.is_drained());
    }

    #[test]
    fn threaded_handoff_preserves_order() {
        // A small capacity forces wrap-around and backpressure many
        // times over; the consumer must still see 0..n in order.
        let (p, c) = EventRing::with_capacity(8);
        let n = 10_000u64;
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                p.push(i, ev(i as u32));
            }
        });
        let mut next = 0u64;
        while next < n {
            if let Some((seq, e)) = c.try_pop() {
                assert_eq!(seq, next);
                assert_eq!(e, ev(next as u32));
                next += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert!(c.is_drained());
    }
}
