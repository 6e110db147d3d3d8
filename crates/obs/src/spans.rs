//! Structured spans: timed regions with parent/child context, stored
//! in a lock-free bounded ring as *wide events* — one record per span
//! carrying everything known about it (identity, parentage, name,
//! monotonic start, duration, recording thread).
//!
//! This is the live-telemetry complement to the aggregate
//! [`Histogram`](crate::Histogram)s: a [`WideSpan`](crate::WideSpan)
//! guard still feeds
//! the latency histogram of the same name (so p50/p99 SLIs come for
//! free), but it *also* deposits a [`SpanRecord`] into the owning
//! registry's [`SpanRing`], from which `/trace` endpoints and
//! rotating trace segments are rendered without ever touching the
//! recording threads.
//!
//! Design constraints, in order:
//!
//! 1. **Recording must be lock-free.** The ring is a
//!    [`SeqRing`]: no `unsafe`, no mutex, no
//!    allocation on the hot path; torn slots are skipped by readers.
//! 2. **Bounded memory.** The ring overwrites the oldest spans; the
//!    overwritten count is exported so exporters can say "N spans
//!    rotated out" instead of silently truncating.
//! 3. **Cheap names.** Span names are `&'static str` interned once
//!    into a small registry-owned table; records store the 32-bit
//!    name index, so a record is five words.
//!
//! Parent/child context is a thread-local: entering a span makes it
//! the parent of spans opened on the same thread until it drops. The
//! `span!` macro caches the interned name and histogram handle per
//! call site, so steady-state recording is two clock reads, a handful
//! of relaxed atomics, and one histogram record.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::ring::SeqRing;

/// Default span-ring capacity (records retained before overwrite).
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// One completed span, resolved for export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Ring ticket (monotonic per registry; survives overwrites).
    pub seq: u64,
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Parent span id (0 when the span was a root).
    pub parent: u64,
    /// Interned span name.
    pub name: &'static str,
    /// Start, nanoseconds since the registry epoch.
    pub t0_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small dense id of the recording thread.
    pub tid: u64,
}

/// The lock-free bounded span ring: a typed view over a five-word
/// [`SeqRing`] — (id, parent, name|tid, t0, dur) per record.
#[derive(Debug)]
pub struct SpanRing {
    ring: SeqRing<5>,
}

impl SpanRing {
    /// A ring retaining at most `capacity` spans.
    pub fn new(capacity: usize) -> SpanRing {
        SpanRing {
            ring: SeqRing::new(capacity),
        }
    }

    /// Total spans ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Spans no longer retrievable: overwritten by the capacity bound
    /// or abandoned to a contended slot.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Deposits one record. Lock-free; on the rare slot contention
    /// (the ring wrapped around faster than one write completed) the
    /// record is dropped and counted, never torn.
    pub fn record(&self, id: u64, parent: u64, name_id: u32, tid: u64, t0_ns: u64, dur_ns: u64) {
        let name_tid = (u64::from(name_id) << 32) | (tid & 0xffff_ffff);
        self.ring.record([id, parent, name_tid, t0_ns, dur_ns]);
    }

    /// Copies out every retained span, oldest first. `names` is the
    /// registry's interned name table; a record whose slot was torn by
    /// a concurrent overwrite is skipped (it will have been recounted
    /// as dropped by the next collect).
    pub fn collect(&self, names: &[&'static str]) -> Vec<SpanRecord> {
        self.ring
            .collect()
            .into_iter()
            .map(|(seq, [id, parent, name_tid, t0_ns, dur_ns])| SpanRecord {
                seq,
                id,
                parent,
                name: names.get((name_tid >> 32) as usize).copied().unwrap_or("?"),
                tid: name_tid & 0xffff_ffff,
                t0_ns,
                dur_ns,
            })
            .collect()
    }

    /// Empties the ring in place (tickets keep counting, so `seq`
    /// values never repeat across a reset).
    pub fn reset(&self) {
        self.ring.reset();
    }
}

/// Process-unique span ids; 0 is reserved for "no parent".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Small dense thread ids for trace lanes.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    static THREAD_TID: Cell<u64> = const { Cell::new(0) };
}

/// The current thread's dense trace id (assigned on first use).
pub fn current_tid() -> u64 {
    THREAD_TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// Allocates a fresh span id and pushes it as the thread's current
/// span, returning `(id, parent)`. Callers must pair with
/// [`pop_span`]; [`WideSpan`] does both.
pub(crate) fn push_span() -> (u64, u64) {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT_SPAN.with(|c| c.replace(id));
    (id, parent)
}

pub(crate) fn pop_span(parent: u64) {
    CURRENT_SPAN.with(|c| c.set(parent));
}

/// Renders span records as Chrome trace-event JSON (`"X"` complete
/// events, microsecond timestamps), openable in Perfetto or
/// `chrome://tracing`. `dropped` is reported in metadata so rotated
/// spans are visible as a count, not an absence.
pub fn chrome_trace(records: &[SpanRecord], dropped: u64) -> String {
    use crate::chrome::{Arg, ChromeTrace};
    let mut t = ChromeTrace::new();
    let process = format!("adya telemetry ({dropped} spans rotated out)");
    t.metadata((1, 0), "process_name", ("name", Arg::Str(&process)));
    for r in records {
        t.complete(
            (1, r.tid),
            None,
            r.name,
            (r.t0_ns / 1000) as i64,
            (r.dur_ns / 1000).max(1) as i64,
            &[
                ("id", Arg::Num(r.id)),
                ("parent", Arg::Num(r.parent)),
                ("seq", Arg::Num(r.seq)),
            ],
        );
    }
    t.finish()
}

/// Renders span records as wide-event NDJSON-in-an-array: one JSON
/// object per span with every known field, for log pipelines that
/// prefer self-describing events over trace viewers.
pub fn spans_json(records: &[SpanRecord], dropped: u64) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{");
    let _ = write!(s, "\"dropped\": {dropped}, \"spans\": [");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{{\"seq\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \
             \"t0_ns\": {}, \"dur_ns\": {}, \"tid\": {}}}",
            r.seq,
            r.id,
            r.parent,
            crate::json::esc(r.name),
            r.t0_ns,
            r.dur_ns,
            r.tid
        );
    }
    s.push_str("]}");
    s
}

/// A short stable fingerprint of arbitrary text (64-bit FNV-1a folded
/// to 32 bits, rendered `w` + 8 hex digits). Used as the *witness id*
/// linking a fired phenomenon across planes: the streaming verdict,
/// the `/health` anomaly exemplar and the forensic witness all derive
/// their id from the same canonical cycle text, so equal ids mean the
/// same cited evidence.
pub fn stable_id(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("w{:08x}", (h ^ (h >> 32)) as u32)
}

/// Canonical witness id for a phenomenon over a DSG cycle: the node
/// sequence is rotated to begin at the smallest transaction id (a
/// cycle has no distinguished start, and the online and forensic
/// checkers discover the same cycle from different entry points),
/// rendered `KIND:T<a>>T<b>>…`, and folded through [`stable_id`].
/// Both `adya-online` verdict exemplars and `adya-forensics`
/// witnesses derive their ids here, so a fired G1c/G2 links straight
/// to its forensic witness when both saw the same cycle. Falls back
/// to hashing `KIND:<detail>` for the cycle-less phenomena.
pub fn witness_id(kind: &str, cycle_txns: &[u64], detail: &str) -> String {
    use std::fmt::Write as _;
    if cycle_txns.is_empty() {
        return stable_id(&format!("{kind}:{detail}"));
    }
    let pivot = cycle_txns
        .iter()
        .enumerate()
        .min_by_key(|(_, &t)| t)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut sig = format!("{kind}:");
    for i in 0..cycle_txns.len() {
        if i > 0 {
            sig.push('>');
        }
        let _ = write!(sig, "T{}", cycle_txns[(pivot + i) % cycle_txns.len()]);
    }
    stable_id(&sig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let ring = SpanRing::new(4);
        for i in 0..10u64 {
            ring.record(i + 1, 0, 0, 1, i * 100, 10);
        }
        let names = ["work"];
        let got = ring.collect(&names);
        assert_eq!(got.len(), 4);
        assert_eq!(got.first().unwrap().seq, 6);
        assert_eq!(got.last().unwrap().seq, 9);
        assert_eq!(got.last().unwrap().id, 10);
        assert_eq!(got.last().unwrap().name, "work");
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.recorded(), 10);
        ring.reset();
        assert!(ring.collect(&names).is_empty());
    }

    #[test]
    fn chrome_trace_and_wide_json_shapes() {
        let recs = vec![SpanRecord {
            seq: 0,
            id: 7,
            parent: 0,
            name: "ingest \"q\"",
            t0_ns: 2000,
            dur_ns: 1500,
            tid: 3,
        }];
        let t = chrome_trace(&recs, 2);
        assert!(crate::json::parse(&t).is_ok(), "{t}");
        assert!(t.contains("\"ph\": \"X\""));
        assert!(t.contains("\"ts\": 2"));
        assert!(t.contains("2 spans rotated out"));
        assert!(t.contains("ingest \\\"q\\\""), "{t}");
        let j = spans_json(&recs, 2);
        assert!(j.contains("\"dropped\": 2"));
        assert!(j.contains("\"dur_ns\": 1500"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn witness_ids_are_rotation_invariant() {
        // The same cycle entered at different nodes yields one id…
        let a = witness_id("G1c", &[3, 1, 2], "");
        let b = witness_id("G1c", &[1, 2, 3], "");
        let c = witness_id("G1c", &[2, 3, 1], "");
        assert_eq!(a, b);
        assert_eq!(b, c);
        // …but a different cycle or kind does not.
        assert_ne!(a, witness_id("G1c", &[1, 3, 2], ""));
        assert_ne!(a, witness_id("G2", &[1, 2, 3], ""));
        // Cycle-less phenomena hash the detail text.
        assert_eq!(
            witness_id("G1a", &[], "T2 read aborted x[1]"),
            stable_id("G1a:T2 read aborted x[1]")
        );
    }

    #[test]
    fn stable_ids_are_deterministic_and_distinct() {
        let a = stable_id("G1c:T1>T2");
        assert_eq!(a, stable_id("G1c:T1>T2"));
        assert_ne!(a, stable_id("G1c:T1>T3"));
        assert!(a.starts_with('w') && a.len() == 9, "{a}");
    }
}
