//! `adya-serve`: a durable, multi-tenant checker-as-a-service.
//!
//! This crate hosts many concurrent [`OnlineChecker`] *sessions*
//! behind one TCP server, std only, thread-per-connection. Each
//! session pairs a checker with a durable event log — segment files
//! rotated on a record cadence, compacted
//! against periodic snapshots of the post-GC checker state — so that
//! killing the server at any instant and restarting it recovers every
//! session from snapshot + log tail with a **byte-identical resumed
//! verdict stream**: the client re-sends what the server never logged,
//! the server re-sends what the client never read, and the
//! concatenation equals the uninterrupted run.
//!
//! The wire protocol is the existing NDJSON event/verdict framing from
//! `adya-check --stream`, extended with a small session-control
//! vocabulary ([`proto`]): `hello` to create, `resume` to re-attach
//! (with the client's verdict count for exactly-once replay), `close`
//! to finish, plus structured errors and `closing` frames. The obs
//! plane rides on the same port: a connection whose first line is an
//! HTTP request gets `/metrics` (with per-session SLI labels) or the
//! fleet `/health` document instead.
//!
//! Replication ([`replica`]): a leader ships every durable log byte to
//! follower nodes over the same NDJSON protocol (`repl_hello` /
//! `replicate` / `append` / `put` / `remove` / `repl_flush`→`ack`), so
//! a follower's data directory is byte-identical and recovery works on
//! it unchanged. A follower promoted by operator `promote` frame — or
//! by client failover after leader death — resumes every session with
//! the same byte-identical verdict stream a local restart would.
//!
//! Module map:
//! - [`dir`] — the session directory: file-name grammar, the three
//!   mutations (each synced and replicated by construction), mirror healing.
//! - [`log`] — cadence policy over it: rotation, snapshots,
//!   compaction, recovery replay and repair.
//! - [`session`] — one checker session and its durability ordering.
//! - [`verdict_log`] — a session's verdicts: count, replay window,
//!   trim rule and place in the snapshot.
//! - [`Server`] — the accept loop, connection protocol, obs plane.
//! - [`proto`] — control-frame parsing and rendering.
//! - [`replica`] — replication hub (leader side), follower sink, lag
//!   accounting.
//! - [`shutdown`] — process-wide SIGINT/SIGTERM latch for graceful
//!   drains.
//!
//! [`OnlineChecker`]: adya_online::OnlineChecker

pub mod dir;
pub mod log;
pub mod proto;
pub mod replica;
pub mod session;
pub mod shutdown;
pub mod verdict_log;

mod server;

pub use dir::{FileName, FsyncPolicy, SessionDir};
pub use log::{LogConfig, RecoverError, Recovered, SessionLog};
pub use proto::ClientFrame;
pub use replica::{LogPublisher, ReplConfig, ReplicaSink, ReplicationHub};
pub use server::{ServeConfig, Server};
pub use session::{ApplyError, ResumeError, Session, SessionConfig};
pub use verdict_log::{Replay, VerdictLog};
