//! Deterministic fault injection for the transactional engines.
//!
//! The paper's phenomena (G0, G1a/b/c, G2) are defined over *whatever
//! history the system actually produced*, which makes them the right
//! oracle for fault testing: an engine that advertises PL-3 must keep
//! producing PL-3 histories under spurious blocks, forced aborts,
//! scheduling delays and mid-commit crashes — not just on clean runs.
//! (Lock-based level definitions cannot even be stated for such runs;
//! see §2 of the paper.)
//!
//! Two pieces:
//!
//! * [`FaultPlane`] — a seed-driven schedule deciding, for the k-th
//!   operation at each injection [`Site`], whether to inject a fault.
//!   Decisions are a pure function of `(seed, site, k)`, so a run is
//!   reproducible from its seed alone (under the threaded driver the
//!   *assignment* of k-values to threads follows the actual
//!   interleaving; the per-site schedule itself never changes).
//! * [`FaultyEngine`] — an [`Engine`](adya_engine::Engine) decorator
//!   wrapping any real engine and consulting the plane at every trait
//!   call site. Injected faults speak the engine's own error
//!   vocabulary: artificial [`Blocked`](adya_engine::EngineError::Blocked)
//!   returns (with no holders — transient, not a lock queue), forced
//!   [`Aborted`](adya_engine::EngineError::Aborted) with
//!   [`AbortReason::Injected`](adya_engine::AbortReason::Injected), busy
//!   delays that perturb thread interleavings, and *crash points*: at
//!   a scheduled commit the engine "loses" every in-flight transaction
//!   at once — committed data stays durable, live transactions are
//!   aborted and poisoned — and the driver must recover by retrying.
//!
//! The decorated engine still records a complete, well-formed history
//! through the inner engine's recorder, so the checkers (batch or
//! online) judge exactly what happened under the faults.

#![warn(missing_docs)]

mod engine;
mod plane;
mod tap;

pub use engine::FaultyEngine;
pub use plane::{Decision, FaultConfig, FaultPlane, FaultStats, Site, SITES};
pub use tap::{TapCrashConfig, TapCrashPlane};
