//! Streaming incremental isolation checking.
//!
//! The batch checker in `adya-core` needs a complete, finalized
//! [`History`](adya_history::History) before it can say anything. This
//! crate checks isolation *while the history is still happening*: an
//! [`OnlineChecker`] ingests [`Event`](adya_history::Event)s one at a
//! time, maintains the Direct Serialization Graph incrementally with
//! Pearce–Kelly topological-order maintenance (falling back to a
//! targeted component search only on an order violation), and emits a
//! [`Verdict`] at every commit: the strongest ANSI-chain level (PL-1,
//! PL-2, PL-2.99, PL-3) the committed prefix still satisfies, plus the
//! offending phenomenon and a witness when a new one fires.
//!
//! A low-watermark garbage collector keeps memory bounded on unbounded
//! streams. A read of a version superseded before its reader began is
//! *retired*: it plants no anti-dependency edge (no snapshot-isolation,
//! read-committed, 2PL or OCC reader makes one), so a transaction
//! committed before every running one began — *closed* — can gain no
//! in-edge: once it is a source of the cycle graphs it leaves them (the
//! peel), the versions it superseded retire, and once no graph holds it
//! its row leaves the tables. What a later read of its versions still
//! needs — the writer and its final seq, for the G1a/G1b checks and to
//! anchor at the version — stays on each object as a *cold entry*. A
//! node only ever leaves a graph as a source, so no future cycle is
//! lost. Retired reads, and reads that reference a never-seen writer,
//! are counted in [`Verdict::stale_refs`] — verdicts are flagged, never
//! silently weakened; with collection off nothing retires. Text input
//! goes through a [`StreamFeed`], whose parser forgets a transaction's
//! write counters when the collector releases it (a read of its
//! newest version names the cold entry's seq), so parser state is
//! bounded by the rows held too.
//!
//! Scope and fidelity relative to the batch checker:
//!
//! * Versions are installed at commit time in commit order, so the
//!   online DSG matches the batch DSG for histories whose version
//!   order is the default (commit order of final writes). Engines that
//!   install explicit out-of-commit-order version orders (MVTO/MVCC
//!   time-travel) may diverge; the batch checker remains the arbiter
//!   there.
//! * Predicate-read version sets feed G1a/G1b detection but produce no
//!   predicate dependency edges (match tables don't exist online), so
//!   the ANSI chain is checked with item conflicts plus predicate
//!   aborted/intermediate reads.
//!
//! Crash recovery: events can be persisted in a checksummed binary log
//! ([`encode_record`]) whose reader distinguishes a torn tail (the
//! writer died mid-append; truncate and resume) from mid-file
//! corruption, and the checker itself can be frozen to bytes with
//! [`OnlineChecker::snapshot`] and revived with
//! [`OnlineChecker::restore`] — the restored checker continues the
//! stream with verdicts byte-identical to an uninterrupted run.
//!
//! Inside, the checker is eight private modules, each the single owner
//! of what it names (DESIGN.md, "Streaming checker: modules and owners"):
//! `tables` — chunked storage and slots, the one place a transaction is
//! found by hash (once per id an event names), and the open-addressed
//! index names and renumbered objects are found through; `keys` — the
//! object table: a 16-byte row per object id, hot state only while
//! something holds the object; `checker` — the transaction states and
//! the event handlers, which hold slots and report a conflict only by
//! queueing a planned edge;
//! `lanes` — the edge kinds and the lane table: one incremental graph
//! per edge filter (ww + wr; ww + wr + rw) under one cycle rule: the
//! paper's G1c / G2 (G0 cannot close online); `provenance` — the operations
//! behind each live edge; `gc` — the terminal-clock queue, the
//! collection pass, the peel and the release rule; `snapshot` — the
//! checker image and the checks an image must pass before it is a
//! checker;
//! `verdict` — [`Verdict`], its JSON and the latched phenomena.
//!
//! ```
//! use adya_history::{Event, ReadEvent, TxnId, ObjectId, VersionId};
//! use adya_online::OnlineChecker;
//!
//! let mut c = OnlineChecker::new();
//! let (t1, t2, x) = (TxnId(1), TxnId(2), ObjectId(0));
//! c.ingest(&Event::Begin(t1));
//! c.ingest(&Event::Write(adya_history::WriteEvent {
//!     txn: t1, object: x, seq: 1,
//!     kind: adya_history::VersionKind::Visible, value: None,
//! }));
//! c.ingest(&Event::Begin(t2));
//! // Dirty read of T1's version…
//! c.ingest(&Event::Read(ReadEvent {
//!     txn: t2, object: x, version: VersionId::new(t1, 1), through_cursor: false,
//! }));
//! let v2 = c.ingest(&Event::Commit(t2)).unwrap();
//! assert!(v2.fired.is_empty()); // writer still running: verdict defers
//! // …and the writer aborts: aborted read, G1a.
//! c.ingest(&Event::Abort(t1));
//! let end = c.finish();
//! assert_eq!(end.fired, vec![adya_core::PhenomenonKind::G1a]);
//! ```

#![warn(missing_docs)]

mod checker;
mod feed;
mod gc;
mod keys;
mod lanes;
pub mod monitor;
pub mod pipeline;
mod provenance;
mod snapshot;
mod tables;
#[cfg(test)]
mod testkit;
mod verdict;
pub mod wire;

pub use checker::OnlineChecker;
pub use feed::{
    check_token, encode_log, encode_record, EventLogReader, LogError, StreamFeed, StreamParser,
    LOG_MAGIC,
};
pub use gc::GcConfig;
pub use monitor::{CheckerMonitor, Exemplar, HealthPolicy};
pub use pipeline::{EventPipeline, PipelineConfig, PipelineStats};
pub use snapshot::SnapshotError;
pub use verdict::{CycleEdgeProv, Verdict, VerdictFact};
