//! Transactional storage substrate with pluggable concurrency control,
//! recording complete Adya histories.
//!
//! The paper argues that its generalized isolation definitions admit
//! locking, optimistic *and* multi-version implementations alike. This
//! crate makes that argument executable by providing one storage model
//! and five concurrency-control schemes behind a common [`Engine`]
//! trait. The private `store` module is the model — the transaction
//! lifecycle, row incarnations, how a predicate read is recorded, the
//! version orders handed over at `finalize` — and each scheme's file
//! holds its three decisions: which version a read selects, when an
//! operation blocks, when a transaction aborts.
//!
//! * [`LockingEngine`] — two-phase locking with the exact lock-scope
//!   configurations of Figure 1 (short/long, read/write,
//!   item/predicate), one constructor per row: Degree 0, READ
//!   UNCOMMITTED, READ COMMITTED, REPEATABLE READ, SERIALIZABLE.
//! * [`OccEngine`] — Kung–Robinson style optimistic concurrency
//!   control: reads against the committed state, buffered writes,
//!   backward validation at commit (with predicate-aware validation to
//!   catch phantoms).
//! * [`SgtEngine`] — a serialization-graph-testing certifier that
//!   tracks the paper's own conflict edges online and aborts
//!   transactions whose operations would close a proscribed cycle. It
//!   permits dirty reads during execution (the mobile/disconnected
//!   scenario of §3) while still committing only PL-3 histories — the
//!   star witness that P1/P2 over-reject.
//! * [`MvccEngine`] — multi-version concurrency control in two
//!   flavours: Snapshot Isolation (snapshot reads,
//!   first-committer-wins) and multi-version read committed.
//! * [`MvtoEngine`] — multiversion timestamp ordering: versions are
//!   ordered by begin timestamps rather than commit order, producing
//!   the `H_write_order`-style histories that motivate the model's
//!   explicit version orders (§4.2).
//!
//! Every operation is recorded through a [`Recorder`] that assembles a
//! validated [`adya_history::History`]; the engines never talk to the
//! checker, so running a workload and checking the resulting history
//! is a genuine end-to-end experiment.
//!
//! ```
//! use adya_engine::{Engine, LockingEngine, LockConfig, Key, Value};
//!
//! let eng = LockingEngine::new(LockConfig::serializable());
//! let t = eng.catalog().table("acct");
//! let t1 = eng.begin();
//! eng.write(t1, t, Key(1), Value::Int(100)).unwrap();
//! eng.commit(t1).unwrap();
//! let t2 = eng.begin();
//! assert_eq!(eng.read(t2, t, Key(1)).unwrap(), Some(Value::Int(100)));
//! eng.commit(t2).unwrap();
//! let history = eng.finalize();
//! assert_eq!(history.committed_txns().count(), 2);
//! ```

#![warn(missing_docs)]

mod engine;
mod lock;
mod locking;
mod mvcc;
mod mvto;
mod occ;
mod recorder;
mod ring;
mod sgt;
mod store;
mod types;

pub use engine::Engine;
pub use lock::{LockMode, LockRequest};
pub use locking::{LockConfig, LockDuration, LockingEngine};
pub use mvcc::{MvccEngine, MvccMode};
pub use mvto::MvtoEngine;
pub use occ::OccEngine;
pub use recorder::{EventTap, Recorder};
pub use ring::{EventRing, RingConsumer, RingProducer};
pub use sgt::{CertifyLevel, SgtEngine};
pub use types::{AbortReason, Catalog, EngineError, Key, OpResult, TableId, TablePred};

/// Re-exported types shared with the history model.
pub use adya_history::{Row, TxnId, Value};
