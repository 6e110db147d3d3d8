//! Bounded queues of sequenced events — the first stage of the
//! parallel ingest pipeline.
//!
//! An [`EventRing`] carries `(seq, Event)` pairs from an event producer
//! (the thread driving the pipeline) to the pipeline's sequencer. It is a
//! `std::sync::mpsc::sync_channel` under the names the pipeline and the
//! ledger use: a measured push+pop costs about what the hand-rolled
//! lock-free ring it replaced did, without a slot protocol of our own.
//!
//! Backpressure: a push into a full queue counts one
//! `pipeline.backpressure_waits` and blocks until the consumer frees a
//! slot, which stalls the producing thread — exactly the flow
//! control a bounded pipeline wants.
//!
//! The stream ends when its producer is dropped: the consumer drains
//! what is buffered, then [`RingConsumer::pop`] returns `None`. A
//! producer whose consumer is gone stops: its pushes return at once
//! and the events go nowhere.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};

use adya_history::Event;

/// Factory for one bounded event queue; see the module docs.
pub struct EventRing;

impl EventRing {
    /// Creates a queue holding up to `capacity` events (minimum 1) and
    /// returns its two endpoint handles.
    pub fn with_capacity(capacity: usize) -> (RingProducer, RingConsumer) {
        let (tx, rx) = sync_channel(capacity.max(1));
        (RingProducer { tx }, RingConsumer { rx })
    }
}

/// Push endpoint of one [`EventRing`]. Dropping it ends the stream.
pub struct RingProducer {
    tx: SyncSender<(u64, Event)>,
}

impl RingProducer {
    /// Pushes, blocking under backpressure until the consumer frees a
    /// slot (counted once per push in `pipeline.backpressure_waits`).
    /// Returns at once, dropping the event, when the consumer is gone.
    pub fn push(&self, seq: u64, ev: Event) {
        if let Err(TrySendError::Full(item)) = self.tx.try_send((seq, ev)) {
            adya_obs::counter!("pipeline.backpressure_waits").inc();
            let _ = self.tx.send(item);
        }
    }
}

/// Pop endpoint of one [`EventRing`].
pub struct RingConsumer {
    rx: Receiver<(u64, Event)>,
}

impl RingConsumer {
    /// Pops the oldest event, or `None` when the queue is currently
    /// empty (which does not imply the stream is over).
    pub fn try_pop(&self) -> Option<(u64, Event)> {
        self.rx.try_recv().ok()
    }

    /// Pops the oldest event, blocking until one arrives; `None` once
    /// the producer is dropped and every buffered event has been
    /// popped: the stream is complete.
    pub fn pop(&self) -> Option<(u64, Event)> {
        self.rx.recv().ok()
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
    fn fifo_order_and_end_of_stream() {
        let (p, c) = EventRing::with_capacity(2);
        p.push(0, ev(0));
        p.push(1, ev(1));
        assert_eq!(c.try_pop().unwrap().0, 0);
        p.push(2, ev(2));
        assert_eq!(c.pop().unwrap().0, 1);
        assert!(c.try_pop().is_some());
        assert!(c.try_pop().is_none(), "empty, but the producer lives");
        p.push(3, ev(3));
        drop(p);
        assert_eq!(c.pop().unwrap().0, 3, "buffered events stay");
        assert!(c.pop().is_none(), "dropped producer + drained = ended");
    }

    #[test]
    fn push_returns_once_the_consumer_is_gone() {
        // The pipeline's tap pushes under the recorder lock; a push that
        // waited on a dead consumer would wedge every engine thread.
        let (p, c) = EventRing::with_capacity(4);
        drop(c);
        for i in 0..5 {
            p.push(i, ev(i as u32));
        }
    }

    #[test]
    fn threaded_handoff_preserves_order() {
        // A small capacity forces backpressure many times over; the
        // consumer must still see 0..n in order, then the end.
        let (p, c) = EventRing::with_capacity(8);
        let n = 10_000u64;
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                p.push(i, ev(i as u32));
            }
        });
        for next in 0..n {
            let (seq, e) = c.pop().expect("stream ended early");
            assert_eq!(seq, next);
            assert_eq!(e, ev(next as u32));
        }
        assert!(c.pop().is_none());
        producer.join().unwrap();
    }
}
