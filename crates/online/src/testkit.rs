//! Event builders and streams shared by the unit tests of this
//! crate's modules.

use adya_history::{Event, ObjectId, ReadEvent, TxnId, VersionId, VersionKind, WriteEvent};

use crate::{OnlineChecker, Verdict};

pub(crate) fn w(t: u32, o: u32, seq: u32) -> Event {
    Event::Write(WriteEvent {
        txn: TxnId(t),
        object: ObjectId(o),
        seq,
        kind: VersionKind::Visible,
        value: None,
    })
}

pub(crate) fn r(t: u32, o: u32, writer: u32, seq: u32) -> Event {
    Event::Read(ReadEvent {
        txn: TxnId(t),
        object: ObjectId(o),
        version: VersionId::new(TxnId(writer), seq),
        through_cursor: false,
    })
}

pub(crate) fn rinit(t: u32, o: u32) -> Event {
    Event::Read(ReadEvent {
        txn: TxnId(t),
        object: ObjectId(o),
        version: VersionId::INIT,
        through_cursor: false,
    })
}

pub(crate) fn feed(c: &mut OnlineChecker, evs: &[Event]) -> Vec<Verdict> {
    evs.iter().filter_map(|e| c.ingest(e)).collect()
}

/// A stream exercising every state the snapshot must carry:
/// buffered and pending reads, aborts (G1a), intermediate reads
/// (G1b), write cycles, anti-dependencies, and enough churn for
/// the GC to retire versions and release rows.
pub(crate) fn eventful_stream() -> Vec<Event> {
    let mut evs = vec![
        Event::Begin(TxnId(1)),
        Event::Begin(TxnId(2)),
        w(1, 0, 1),
        w(2, 1, 1),
        r(2, 0, 1, 1),
        r(1, 1, 2, 1),
        Event::Commit(TxnId(1)),
        Event::Commit(TxnId(2)),
        Event::Begin(TxnId(3)),
        Event::Begin(TxnId(4)),
        rinit(3, 2),
        rinit(4, 3),
        w(3, 3, 1),
        w(4, 2, 1),
        Event::Commit(TxnId(3)),
        Event::Commit(TxnId(4)),
        Event::Begin(TxnId(5)),
        w(5, 0, 1),
        r(5, 0, 5, 1),
        Event::Abort(TxnId(5)),
    ];
    for i in 6..30u32 {
        evs.push(Event::Begin(TxnId(i)));
        evs.push(r(i, 4, i.saturating_sub(1).max(6), 1));
        evs.push(w(i, 4, 1));
        evs.push(Event::Commit(TxnId(i)));
    }
    evs
}
