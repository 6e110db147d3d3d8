//! `adya-obs`: a zero-dependency observability substrate for the
//! Adya checker, the concurrency-control engines, and the bench
//! binaries.
//!
//! Three primitives, one registry:
//!
//! - **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) — lock-free
//!   atomics on the hot path, suitable for engine inner loops.
//! - **Spans** ([`SpanTimer`], [`span!`]) — RAII timers that feed
//!   latency histograms, used for the checker's per-phase timings.
//! - **Journal** ([`Journal`], [`Event`]) — a bounded ring of
//!   structured events for "what happened, in order" debugging.
//!
//! Everything lives in a [`Registry`]. Library code records against
//! the process-wide [`global()`] registry through the `counter!` /
//! `gauge!` / `histogram!` / `span!` macros, which cache the metric
//! handle in a per-call-site static so steady-state recording never
//! touches the registry lock. Frontends call [`Registry::snapshot`]
//! (or [`Registry::to_json`]) to export, and [`Registry::reset`] to
//! take per-run deltas; reset zeroes metrics in place so cached
//! handles stay valid.
//!
//! JSON export is hand-rolled ([`json::JsonWriter`], and over it the
//! one Chrome trace-event writer, [`ChromeTrace`]) — the sanctioned
//! dependency set has no serializer and the shapes here are small.

#![warn(missing_docs)]

pub mod chrome;
pub mod http;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod ring;
pub mod spans;
pub mod trace;

pub use chrome::{Arg, ChromeTrace};
pub use http::{Listener, ObsServer, Response};
pub use journal::{Event, Field, Journal};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{labeled, Registry, Snapshot, SpanTimer, WideSpan};
pub use spans::{chrome_trace, spans_json, stable_id, witness_id, SpanRecord, SpanRing};
pub use trace::{
    attach_provenance, fmt_trace_id, merge_segments, parse_segment, parse_trace_id, trace_id,
    Stage, Stamp, StampRing, TracePlane, TraceSegment, Traced,
};

use std::sync::OnceLock;

/// The process-wide registry used by the `counter!`/`gauge!`/
/// `histogram!`/`span!` macros and by all built-in instrumentation.
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

/// Opens a structured span named `$name` against the global registry,
/// returning the RAII guard. The span becomes the parent of any span
/// opened on the same thread before the guard drops; on drop it lands
/// in the global span ring as a wide event and records its duration
/// into the histogram of the same name. The interned name id and
/// histogram handle are cached per call site.
///
/// ```
/// {
///     let _ev = adya_obs::span!("doc.outer_ns");
///     let _child = adya_obs::span!("doc.inner_ns");
/// }
/// let spans = adya_obs::global().span_records();
/// let outer = spans.iter().find(|s| s.name == "doc.outer_ns").unwrap();
/// let inner = spans.iter().find(|s| s.name == "doc.inner_ns").unwrap();
/// assert_eq!(inner.parent, outer.id);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static CACHED: ::std::sync::OnceLock<(u32, ::std::sync::Arc<$crate::Histogram>)> =
            ::std::sync::OnceLock::new();
        let (__name_id, __hist) = CACHED.get_or_init(|| {
            let r = $crate::global();
            (r.span_name_id($name), r.histogram($name))
        });
        $crate::global().wide_span_cached(*__name_id, ::std::sync::Arc::clone(__hist))
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
