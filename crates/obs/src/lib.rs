//! `adya-obs`: a zero-dependency observability substrate for the
//! Adya checker, the concurrency-control engines, and the bench
//! binaries.
//!
//! Two primitives:
//!
//! - **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) — lock-free
//!   atomics on the hot path, suitable for engine inner loops;
//!   [`SpanTimer`] times a region into a histogram, used for the
//!   checker's per-phase timings.
//! - **Stage stamps** ([`TracePlane`], [`Traced`]) — the one
//!   per-event plane: a sampled event is stamped at each pipeline
//!   [`Stage`] it crosses, `/trace` and streaming `--trace-out` render
//!   the stamps ([`trace_document`]), and `adya-check trace-merge`
//!   joins them across nodes ([`merge_segments`]).
//!
//! Metrics live in a [`Registry`]. Library code records against the
//! process-wide [`global()`] registry through the `counter!` /
//! `gauge!` / `histogram!` macros, which cache the metric handle in a
//! per-call-site static so steady-state recording never touches the
//! registry lock. Frontends call [`Registry::snapshot`]
//! (or [`Registry::to_json`]) to export, and [`Registry::reset`] to
//! take per-run deltas; reset zeroes metrics in place so cached
//! handles stay valid. A [`TracePlane`] is owned by the server or
//! stream that stamps it; only its per-stage latency histograms go to
//! the global registry.
//!
//! The HTTP endpoint ([`ObsServer`], `/metrics`, `/health`, `/trace`)
//! runs on [`Listener`], the one accept loop in the workspace, which
//! `adya-serve` shares: a thread blocked in `accept` that takes each
//! connection as it arrives and is woken for shutdown by a connection
//! of its own, so no poll timer sits in front of a scrape or a client.
//!
//! JSON export is hand-rolled ([`json::JsonWriter`], and over it the
//! one Chrome trace-event writer, [`ChromeTrace`]) — the sanctioned
//! dependency set has no serializer and the shapes here are small.

#![warn(missing_docs)]

pub mod chrome;
pub mod http;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use chrome::{Arg, ChromeTrace};
pub use http::{write_line, Listener, ObsServer, Response};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{labeled, Registry, Snapshot, SpanTimer};
pub use trace::{
    fmt_trace_id, merge_segments, parse_segment, parse_trace_id, stable_id, trace_document,
    trace_id, witness_id, Stage, Stamp, TracePlane, TraceSegment, Traced,
};

use std::sync::OnceLock;

/// The process-wide registry used by the `counter!`/`gauge!`/
/// `histogram!` macros and by all built-in instrumentation.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Returns the global counter named `$name`, caching the handle in a
/// per-call-site static so repeated hits are a single atomic load
/// plus the recording op.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Returns the global gauge named `$name` (cached per call site).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Returns the global histogram named `$name` (cached per call site).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_hit_the_global_registry() {
        super::global().reset();
        counter!("lib.test.hits").inc();
        counter!("lib.test.hits").inc();
        gauge!("lib.test.depth").set(3);
        histogram!("lib.test.span_ns").record(4);
        let snap = super::global().snapshot();
        assert_eq!(snap.counter("lib.test.hits"), 2);
        assert_eq!(snap.gauge("lib.test.depth"), 3);
        assert_eq!(snap.histogram("lib.test.span_ns").unwrap().count, 1);
    }
}
