//! The events that make up a history (§4.2).

use std::fmt;

use crate::ids::{ObjectId, PredicateId, TxnId, VersionId};
use crate::value::{Value, VersionKind};

/// A write `w_i(x_{i:m})`: transaction `txn` creates version `seq` of
/// `object`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteEvent {
    /// Writing transaction.
    pub txn: TxnId,
    /// Object written.
    pub object: ObjectId,
    /// 1-based per-(txn, object) modification counter (`m` in
    /// `x_{i:m}`).
    pub seq: u32,
    /// `Visible` for updates/inserts, `Dead` for deletes.
    pub kind: VersionKind,
    /// Optional payload (the `v` in `w_i(x_i, v)`).
    pub value: Option<Value>,
}

impl WriteEvent {
    /// The id of the version this write creates.
    pub fn version(&self) -> VersionId {
        VersionId::new(self.txn, self.seq)
    }
}

/// An item read `r_j(x_{i:m})`: `txn` observes version `version` of
/// `object`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadEvent {
    /// Reading transaction.
    pub txn: TxnId,
    /// Object read.
    pub object: ObjectId,
    /// Version observed (may belong to an uncommitted or aborted
    /// writer; the *checker* decides whether that is a phenomenon).
    pub version: VersionId,
    /// True when the read went through a cursor (used by the Cursor
    /// Stability extension level PL-CS; plain reads leave this false).
    pub through_cursor: bool,
}

/// A predicate-based read `r_i(P: Vset(P))` (§4.3.1).
///
/// The version set conceptually selects a version of *every* tuple in
/// `P`'s relations. Storing that literally would be enormous (it
/// includes unborn versions of tuples that are never inserted), so the
/// event stores the explicit entries and the containing [`History`]
/// resolves any unlisted object of those relations to its unborn
/// initial version — exactly the paper's own convention of only
/// showing visible versions in examples.
///
/// [`History`]: crate::History
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateReadEvent {
    /// Reading transaction.
    pub txn: TxnId,
    /// The predicate being evaluated.
    pub predicate: PredicateId,
    /// Explicit version-set entries, at most one per object.
    pub vset: Vec<(ObjectId, VersionId)>,
}

/// One event of a history.
///
/// The paper's histories are partial orders; this crate represents a
/// total order consistent with that partial order (the paper itself
/// presents every example that way, and any partial-order history can
/// be linearized without changing its DSG).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Optional explicit transaction start (needed by Snapshot
    /// Isolation's time-precedes order; inferred as the first event
    /// otherwise).
    Begin(TxnId),
    /// `w_i(x_{i:m}[, v])`.
    Write(WriteEvent),
    /// `r_j(x_{i:m})`.
    Read(ReadEvent),
    /// `r_i(P: Vset(P))`.
    PredicateRead(PredicateReadEvent),
    /// `c_i`.
    Commit(TxnId),
    /// `a_i`.
    Abort(TxnId),
}

impl Event {
    /// The transaction this event belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            Event::Begin(t) | Event::Commit(t) | Event::Abort(t) => *t,
            Event::Write(w) => w.txn,
            Event::Read(r) => r.txn,
            Event::PredicateRead(p) => p.txn,
        }
    }

    /// True for `Commit` and `Abort`.
    pub fn is_terminal(&self) -> bool {
        matches!(self, Event::Commit(_) | Event::Abort(_))
    }

    /// The write payload, if this is a write.
    pub fn as_write(&self) -> Option<&WriteEvent> {
        match self {
            Event::Write(w) => Some(w),
            _ => None,
        }
    }

    /// The read payload, if this is an item read.
    pub fn as_read(&self) -> Option<&ReadEvent> {
        match self {
            Event::Read(r) => Some(r),
            _ => None,
        }
    }

    /// The predicate-read payload, if this is a predicate read.
    pub fn as_predicate_read(&self) -> Option<&PredicateReadEvent> {
        match self {
            Event::PredicateRead(p) => Some(p),
            _ => None,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Begin(t) => write!(f, "b{}", Sub(*t)),
            Event::Commit(t) => write!(f, "c{}", Sub(*t)),
            Event::Abort(t) => write!(f, "a{}", Sub(*t)),
            Event::Write(w) => {
                write!(f, "w{}({}{}", Sub(w.txn), w.object, VSuffix(w.version()))?;
                match (&w.kind, &w.value) {
                    (VersionKind::Dead, _) => write!(f, ", dead)"),
                    (_, Some(v)) => write!(f, ", {v})"),
                    _ => write!(f, ")"),
                }
            }
            Event::Read(r) => {
                let c = if r.through_cursor { "rc" } else { "r" };
                write!(f, "{c}{}({}{})", Sub(r.txn), r.object, VSuffix(r.version))
            }
            Event::PredicateRead(p) => {
                write!(f, "r{}({}:", Sub(p.txn), p.predicate)?;
                for (i, (o, v)) in p.vset.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, " {o}{}", VSuffix(*v))?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Formats a transaction id as the paper's subscript (just the number).
struct Sub(TxnId);

impl fmt::Display for Sub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_init() {
            write!(f, "init")
        } else {
            write!(f, "{}", self.0 .0)
        }
    }
}

/// Formats a version id as the paper's `x_i` / `x_{i:m}` suffix.
struct VSuffix(VersionId);

impl fmt::Display for VSuffix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_txn_extraction() {
        let t = TxnId(4);
        assert_eq!(Event::Begin(t).txn(), t);
        assert_eq!(Event::Commit(t).txn(), t);
        assert_eq!(Event::Abort(t).txn(), t);
        let w = Event::Write(WriteEvent {
            txn: t,
            object: ObjectId(0),
            seq: 1,
            kind: VersionKind::Visible,
            value: None,
        });
        assert_eq!(w.txn(), t);
        assert!(w.as_write().is_some());
        assert!(w.as_read().is_none());
    }

    #[test]
    fn terminal_detection() {
        assert!(Event::Commit(TxnId(1)).is_terminal());
        assert!(Event::Abort(TxnId(1)).is_terminal());
        assert!(!Event::Begin(TxnId(1)).is_terminal());
    }

    #[test]
    fn write_version_id() {
        let w = WriteEvent {
            txn: TxnId(3),
            object: ObjectId(7),
            seq: 2,
            kind: VersionKind::Visible,
            value: Some(Value::Int(9)),
        };
        assert_eq!(w.version(), VersionId::new(TxnId(3), 2));
    }

    #[test]
    fn display_forms() {
        let w = Event::Write(WriteEvent {
            txn: TxnId(1),
            object: ObjectId(0),
            seq: 1,
            kind: VersionKind::Visible,
            value: Some(Value::Int(2)),
        });
        assert_eq!(w.to_string(), "w1(obj0[1], 2)");
        let d = Event::Write(WriteEvent {
            txn: TxnId(2),
            object: ObjectId(0),
            seq: 1,
            kind: VersionKind::Dead,
            value: None,
        });
        assert_eq!(d.to_string(), "w2(obj0[2], dead)");
        let r = Event::Read(ReadEvent {
            txn: TxnId(2),
            object: ObjectId(0),
            version: VersionId::new(TxnId(1), 1),
            through_cursor: false,
        });
        assert_eq!(r.to_string(), "r2(obj0[1])");
    }
}
