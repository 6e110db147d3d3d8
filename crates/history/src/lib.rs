//! The multi-version transaction-history model of Adya, Liskov and
//! O'Neil, "Generalized Isolation Level Definitions" (ICDE 2000), §4.
//!
//! A [`History`] captures an execution of a database system: a sequence
//! of read/write/commit/abort events over versioned objects, plus a
//! *version order* — a total order over the committed versions of each
//! object. Objects live in relations; predicate-based reads observe a
//! *version set* containing one version of every tuple in the
//! predicate's relations (§4.3), which is how the model accounts for
//! phantoms without reference to locks.
//!
//! Key modelling choices, straight from the paper:
//!
//! * Every object conceptually receives an initial **unborn** version
//!   from the special initialization transaction `Tinit`; inserting a
//!   tuple writes its first **visible** version and deleting it writes a
//!   final **dead** version. Unborn and dead versions never match a
//!   predicate.
//! * The version order of an object may differ from the order of write
//!   or commit events (needed for optimistic and multi-version
//!   implementations — history `H_write_order` of §4.2).
//! * Histories must be *complete*: every transaction ends in a commit
//!   or an abort ([`HistoryBuilder::build_completed`] appends the
//!   missing aborts, mirroring the paper's completion rule).
//!
//! The checker for the isolation levels themselves lives in
//! `adya-core`; this crate only defines what a history *is* and
//! validates the well-formedness conditions of §4.2.
//!
//! # Example
//!
//! History H1′ of the paper (§3) — `T2` reads `T1`'s uncommitted
//! writes, which locking forbids but the generalized definitions admit:
//!
//! ```
//! use adya_history::{HistoryBuilder, Value};
//!
//! let mut b = HistoryBuilder::new();
//! let (t1, t2) = (b.txn(1), b.txn(2));
//! let x = b.preloaded_object("x", Value::Int(5));
//! let y = b.preloaded_object("y", Value::Int(5));
//! b.read_init(t1, x); // r1(x,5)
//! b.write(t1, x, Value::Int(1)); // w1(x1,1)
//! b.read_init(t1, y);
//! b.write(t1, y, Value::Int(9));
//! b.read(t2, x, t1); // r2(x1) — dirty read
//! b.read(t2, y, t1);
//! b.commit(t1);
//! b.commit(t2);
//! let h = b.build().unwrap();
//! assert_eq!(h.committed_txns().count(), 2);
//! ```

#![warn(missing_docs)]

mod builder;
mod error;
mod event;
mod history;
mod ids;
mod lexer;
mod parser;
mod txn;
mod value;

pub use builder::HistoryBuilder;
pub use error::HistoryError;
pub use event::{Event, PredicateReadEvent, ReadEvent, WriteEvent};
pub use history::{History, HistoryParts, ObjectInfo, PredicateInfo, RelationInfo};
pub use ids::{IdHasher, IdMap, ObjectId, PredicateId, RelationId, TxnId, VersionId};
pub use lexer::{lex, split_version_target, LexError, Token, VersionRef};
pub use parser::{parse_history, parse_history_completed, ParseError};
pub use txn::{RequestedLevel, TxnInfo, TxnStatus};
pub use value::{Row, Value, VersionKind};
