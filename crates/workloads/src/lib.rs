//! Workloads, drivers and random-history generation for the
//! reproduction experiments.
//!
//! Three layers:
//!
//! * [`Program`] — a small deterministic transaction language
//!   (register machine over integer rows) that drivers can interleave
//!   step by step;
//! * [`run_deterministic`] — a seeded driver that interleaves many
//!   programs against any [`adya_engine::Engine`], handling blocking,
//!   deadlock victims and restarts under an explicit [`RetryPolicy`]
//!   (bounded restarts, seeded backoff jitter, per-transaction
//!   operation deadlines), and reporting [`RunStats`];
//! * generators — the paper-motivated workloads (bank transfers with
//!   the `x + y = 10`-style invariant of §3, the employee/Sales
//!   phantom scenario of §5.4, hotspot counters, zipfian mixes) plus a
//!   [`histgen`] module that samples random *histories* directly for
//!   permissiveness experiments and property tests.
//!
//! [`schemes`] is the roster: every engine configuration paired with
//! the level it promises — the one list tests and experiment binaries
//! iterate.
//!
//! Plus one transport piece: [`ServeClient`], a crash-resumable TCP
//! client for the `adya-serve` session protocol, reusing the same
//! [`RetryPolicy`] backoff machinery for reconnects — and, beside it,
//! the [`harness`] that spawns and probes a real server process for
//! the tests and experiments that need one.

#![warn(missing_docs)]

mod client;
mod concurrent;
mod driver;
mod generators;
pub mod harness;
pub mod histgen;
mod program;
mod retry;
mod schemes;
mod zipf;

pub use client::{ClientError, ServeClient};
pub use concurrent::{run_concurrent, ConcurrentConfig};
pub use driver::{run_deterministic, DriverConfig, RunStats, SessionOutcome};
pub use generators::{
    bank_workload, hotspot_workload, mixed_workload, phantom_workload, BankConfig, HotspotConfig,
    MixedConfig, PhantomConfig,
};
pub use program::{Expr, PredSpec, Program, Step, Stepped};
pub use retry::{GiveUpCause, RetryPolicy, RetrySession};
pub use schemes::{families, schemes, Scheme};
pub use zipf::Zipf;
