//! The metrics registry: named counters/gauges/histograms, with
//! snapshot and JSON export.
//!
//! Registration (name → metric) takes a short lock; recording through
//! a returned handle is lock-free. Instrumented call sites cache the
//! `Arc` handle (see the `counter!`/`gauge!`/`histogram!` macros), so
//! the registry lock is touched once per call site per process.
//! `reset` zeroes metrics *in place*, keeping every cached handle
//! valid — that is what makes cheap per-run deltas possible in the
//! bench binaries.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::json::JsonWriter;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// A named collection of metrics.
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Returns (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Returns (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Returns (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Starts a span: a timer that records its elapsed nanoseconds
    /// into histogram `name` when dropped (or at [`SpanTimer::stop`]).
    pub fn span(&self, name: &str) -> SpanTimer {
        SpanTimer {
            hist: self.histogram(name),
            start: Instant::now(),
            armed: true,
        }
    }

    /// Times `f`, recording elapsed nanoseconds into histogram `name`,
    /// and passes its result through.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name);
        f()
    }

    /// Zeroes every metric in place. Cached handles stay valid; names
    /// stay registered.
    pub fn reset(&self) {
        for c in self.counters.lock().values() {
            c.reset();
        }
        for g in self.gauges.lock().values() {
            g.reset();
        }
        for h in self.histograms.lock().values() {
            h.reset();
        }
    }

    /// Copies out every metric value.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Renders the full registry as a JSON object (see
    /// [`Snapshot::to_json`]).
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// RAII timer returned by [`Registry::span`].
pub struct SpanTimer {
    hist: Arc<Histogram>,
    start: Instant,
    armed: bool,
}

impl SpanTimer {
    /// Stops the span now, recording its duration; returns the
    /// elapsed nanoseconds.
    pub fn stop(mut self) -> u64 {
        let ns = self.start.elapsed().as_nanos() as u64;
        self.hist.record(ns);
        self.armed = false;
        ns
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if self.armed {
            self.hist.record(self.start.elapsed().as_nanos() as u64);
        }
    }
}

/// Escapes a Prometheus HELP text (`\` and newline).
fn esc_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a Prometheus label value (`\`, `"` and newline).
fn esc_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Builds a labelled metric name, `base{k="v",...}`, with label values
/// escaped per the exposition spec. Register the result like any other
/// name; [`Snapshot::to_prometheus`] renders it as a labelled series
/// of the `base` family. Callers with a dynamic label set (one series
/// per checker session, say) hold the returned handle rather than
/// going through the call-site-cached `counter!`/`gauge!` macros.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    let mut s = String::from(base);
    s.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{}\"", esc_label(v));
    }
    s.push('}');
    s
}

/// A point-in-time copy of a registry's metrics.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram statistics by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value by name (0 when never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name (0 when never registered).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram statistics by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Writes this snapshot as the value of `key` into `w` (or as a
    /// bare object when `key` is `None`). Keys are sorted, so output
    /// is deterministic up to timing values.
    pub fn write_json(&self, w: &mut JsonWriter, key: Option<&str>) {
        w.open_object(key);
        w.open_object(Some("counters"));
        for (name, v) in &self.counters {
            w.u64_field(name, *v);
        }
        w.close_object();
        w.open_object(Some("gauges"));
        for (name, v) in &self.gauges {
            w.i64_field(name, *v);
        }
        w.close_object();
        w.open_object(Some("histograms"));
        for (name, h) in &self.histograms {
            w.open_object(Some(name));
            w.u64_field("count", h.count);
            w.u64_field("sum", h.sum);
            w.u64_field("min", h.min);
            w.u64_field("max", h.max);
            w.u64_field("p50", h.p50);
            w.u64_field("p90", h.p90);
            w.u64_field("p99", h.p99);
            w.close_object();
        }
        w.close_object();
        w.close_object();
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): a paired `# HELP` / `# TYPE` header per metric
    /// family, names sanitized (`.` and any other non-`[a-zA-Z0-9_:]`
    /// become `_`). Counters map to `counter`, gauges to `gauge`,
    /// histograms to a `summary` with quantile labels plus
    /// `_sum`/`_count`. Label values are escaped per the exposition
    /// spec (`\\`, `\"`, `\n`).
    ///
    /// A registered name of the form `base{key="value"}` (see
    /// [`labeled`](crate::labeled())) renders as a labelled series of
    /// the `base` family: only `base` is sanitized, the label block
    /// passes through verbatim, and adjacent series of the same family
    /// share one HELP/TYPE header — how the serve fleet exposes
    /// per-session SLIs.
    pub fn to_prometheus(&self) -> String {
        self.to_prometheus_labeled(&[])
    }

    /// [`Snapshot::to_prometheus`] with `extra` labels injected into
    /// *every* sample line (prepended to any per-series label block).
    /// This is how a fleet node stamps its identity — `node`, `role` —
    /// onto an exposition so multi-node scrapes stay distinguishable.
    /// Passing an empty slice is byte-identical to `to_prometheus`.
    pub fn to_prometheus_labeled(&self, extra: &[(&str, &str)]) -> String {
        fn sanitize(name: &str) -> String {
            let mut s: String = name
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect();
            if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                s.insert(0, '_');
            }
            s
        }
        /// Splits `base{k="v"}` into (`base`, Some(`k="v"`)).
        fn split_labels(name: &str) -> (&str, Option<&str>) {
            match name.find('{') {
                Some(i) if name.ends_with('}') => (&name[..i], Some(&name[i + 1..name.len() - 1])),
                _ => (name, None),
            }
        }
        fn header(out: &mut String, last: &mut String, n: &str, source: &str, kind: &str) {
            if *last == n {
                return; // same family: one header covers all series
            }
            let source = split_labels(source).0;
            let _ = writeln!(out, "# HELP {n} adya metric {}", esc_help(source));
            let _ = writeln!(out, "# TYPE {n} {kind}");
            *last = n.to_string();
        }
        // The injected label block, rendered once: `node="a",role="x"`.
        let mut injected = String::new();
        for (i, (k, v)) in extra.iter().enumerate() {
            if i > 0 {
                injected.push(',');
            }
            let _ = write!(injected, "{k}=\"{}\"", esc_label(v));
        }
        // Joins the injected block with a series' own label block.
        let block = |own: Option<&str>| -> String {
            match (injected.is_empty(), own) {
                (true, None) => String::new(),
                (true, Some(l)) => format!("{{{l}}}"),
                (false, None) => format!("{{{injected}}}"),
                (false, Some(l)) => format!("{{{injected},{l}}}"),
            }
        };
        let mut out = String::new();
        let mut last = String::new();
        for (name, v) in &self.counters {
            let (base, labels) = split_labels(name);
            let n = sanitize(base);
            header(&mut out, &mut last, &n, name, "counter");
            let _ = writeln!(out, "{n}{} {v}", block(labels));
        }
        for (name, v) in &self.gauges {
            let (base, labels) = split_labels(name);
            let n = sanitize(base);
            header(&mut out, &mut last, &n, name, "gauge");
            let _ = writeln!(out, "{n}{} {v}", block(labels));
        }
        for (name, h) in &self.histograms {
            let (base, labels) = split_labels(name);
            let n = sanitize(base);
            header(&mut out, &mut last, &n, name, "summary");
            let mut prefix = labels.map(|l| format!("{l},")).unwrap_or_default();
            if !injected.is_empty() {
                prefix = format!("{injected},{prefix}");
            }
            for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                let _ = writeln!(out, "{n}{{{prefix}quantile=\"{}\"}} {v}", esc_label(q));
            }
            let _ = writeln!(out, "{n}_sum{} {}", block(labels), h.sum);
            let _ = writeln!(out, "{n}_count{} {}", block(labels), h.count);
        }
        out
    }

    /// Renders the snapshot as a standalone JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w, None);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_and_reset_in_place() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counter("x"), 2);
        r.reset();
        assert_eq!(r.snapshot().counter("x"), 0);
        a.inc();
        assert_eq!(r.snapshot().counter("x"), 1, "handle survives reset");
    }

    #[test]
    fn spans_record_into_histograms() {
        let r = Registry::new();
        {
            let _s = r.span("work_ns");
        }
        let ns = r.span("work_ns").stop();
        let snap = r.snapshot();
        let h = snap.histogram("work_ns").unwrap();
        assert_eq!(h.count, 2);
        assert!(h.sum >= ns);
        assert_eq!(r.time("work_ns", || 41 + 1), 42);
        assert_eq!(r.snapshot().histogram("work_ns").unwrap().count, 3);
    }

    #[test]
    fn json_shape_is_wellformed_and_sorted() {
        let r = Registry::new();
        r.counter("b.second").add(2);
        r.counter("a.first").inc();
        r.gauge("g").set(-5);
        r.histogram("h").record(7);
        r.counter("c.\"quoted\"").inc();
        let s = r.to_json();
        assert!(s.contains("\"a.first\": 1"));
        assert!(s.contains("\"b.second\": 2"));
        assert!(s.find("a.first").unwrap() < s.find("b.second").unwrap());
        assert!(s.contains("\"g\": -5"));
        assert!(s.contains("\"count\": 1"));
        assert!(s.contains("\"c.\\\"quoted\\\"\": 1"), "{s}");
        let unescaped_quotes = s
            .replace("\\\\", "")
            .replace("\\\"", "")
            .matches('"')
            .count();
        assert_eq!(unescaped_quotes % 2, 0, "balanced quotes:\n{s}");
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn prometheus_exposition_is_wellformed() {
        let r = Registry::new();
        r.counter("checker.dsg.nodes").add(3);
        r.gauge("online.live-txns").set(-1);
        r.histogram("checker.phase.total_ns").record(10);
        r.histogram("checker.phase.total_ns").record(30);
        let s = r.snapshot().to_prometheus();
        assert!(s.contains("# TYPE checker_dsg_nodes counter\n"), "{s}");
        assert!(s.contains("checker_dsg_nodes 3\n"), "{s}");
        assert!(s.contains("# TYPE online_live_txns gauge\n"), "{s}");
        assert!(s.contains("online_live_txns -1\n"), "{s}");
        assert!(s.contains("# TYPE checker_phase_total_ns summary\n"), "{s}");
        assert!(
            s.contains("checker_phase_total_ns{quantile=\"0.5\"}"),
            "{s}"
        );
        assert!(s.contains("checker_phase_total_ns_sum 40\n"), "{s}");
        assert!(s.contains("checker_phase_total_ns_count 2\n"), "{s}");
        // Every non-comment line is `name[{labels}] value`.
        for line in s.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty() && value.parse::<i64>().is_ok(), "{line}");
        }
        // JSON and text renderings are untouched by the new format.
        assert!(r.to_json().contains("\"checker.dsg.nodes\": 3"));
    }

    #[test]
    fn labeled_series_share_a_family_header() {
        let r = Registry::new();
        r.counter(&labeled("serve.events", &[("session", "a")]))
            .add(3);
        r.counter(&labeled("serve.events", &[("session", "b")]))
            .add(5);
        r.gauge(&labeled("sli.lag", &[("session", "a\"x")])).set(7);
        r.histogram(&labeled("serve.ingest_ns", &[("session", "a")]))
            .record(9);
        let s = r.snapshot().to_prometheus();
        assert!(s.contains("serve_events{session=\"a\"} 3\n"), "{s}");
        assert!(s.contains("serve_events{session=\"b\"} 5\n"), "{s}");
        assert_eq!(
            s.matches("# TYPE serve_events counter").count(),
            1,
            "one header for the family:\n{s}"
        );
        // Label values are escaped, not sanitized into the name.
        assert!(s.contains("sli_lag{session=\"a\\\"x\"} 7\n"), "{s}");
        // Summary series merge the quantile label into the label set.
        assert!(
            s.contains("serve_ingest_ns{session=\"a\",quantile=\"0.5\"} 9\n"),
            "{s}"
        );
        assert!(s.contains("serve_ingest_ns_sum{session=\"a\"} 9\n"), "{s}");
        assert!(
            s.contains("serve_ingest_ns_count{session=\"a\"} 1\n"),
            "{s}"
        );
    }

    #[test]
    fn snapshot_lookups_default_to_zero() {
        let r = Registry::new();
        let snap = r.snapshot();
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("missing"), 0);
        assert!(snap.histogram("missing").is_none());
    }
}
