//! In-memory span recording for the traced pass, and the counting
//! allocator behind the allocation metrics.
//!
//! Spans are recorded by the harness around its calls into each
//! crate's public functions — nothing inside the crates changes. They
//! stay in memory until the pass ends, then become a Chrome
//! trace-event file plus a self-time table (a span's duration minus
//! what its child spans cover).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Records spans when on; every call is a cheap no-op when off, so the
/// traced and untraced in-process passes run the same code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` and returns its duration in nanoseconds (0 when
    /// tracing is off).
    pub fn exit(&mut self, id: SpanId) -> u64 {
        let Some(id) = id.0 else { return 0 };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        end - s.start_ns
    }

    /// Adds a closed child of the innermost open span that ended just
    /// now and lasted `dur_ns` — for time a layer measured itself (the
    /// checker's own GC span) and the harness only learns as a total.
    pub fn child_ending_now(&mut self, name: &'static str, dur_ns: u64) {
        if !self.on || dur_ns == 0 {
            return;
        }
        let end_ns = self.now_ns();
        let parent = self.stack.last().copied();
        // Never reach back before the parent began.
        let floor = parent.map_or(0, |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(dur_ns).max(floor),
            end_ns,
            parent,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = table.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
        }
        table
    }

    /// Chrome trace-event JSON (open in Perfetto / `chrome://tracing`).
    pub fn chrome_json(&self, workload: &str) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{\"traceEvents\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
            );
        }
        let _ = write!(
            s,
            "\n], \"displayTimeUnit\": \"ns\", \"otherData\": {{\"workload\": \"{}\"}}}}\n",
            crate::json::escape(workload)
        );
        s
    }
}

/// Runs `pass` untraced, traced, untraced, traced. Returns every
/// pass's payload in that order, the last traced pass's tracer, and the
/// tracing overhead in percent: best traced wall against best untraced
/// wall, so one disturbed pass on a shared box does not set the figure.
/// `pass` returns its own wall time in nanoseconds with its payload.
pub fn alternate<T>(
    mut pass: impl FnMut(&mut Tracer) -> Result<(u64, T), String>,
) -> Result<(Vec<T>, Tracer, f64), String> {
    let mut payloads = Vec::with_capacity(4);
    let (mut plain_ns, mut traced_ns) = (u64::MAX, u64::MAX);
    let mut tracer = Tracer::off();
    for _ in 0..2 {
        let (ns, payload) = pass(&mut Tracer::off())?;
        plain_ns = plain_ns.min(ns);
        payloads.push(payload);
        tracer = Tracer::on();
        let (ns, payload) = pass(&mut tracer)?;
        traced_ns = traced_ns.min(ns);
        payloads.push(payload);
    }
    let overhead = 100.0 * (traced_ns as f64 - plain_ns as f64) / plain_ns.max(1) as f64;
    Ok((payloads, tracer, overhead))
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two relaxed counters in front. Installed
/// for the whole harness process; the programs under test are separate
/// binaries and never see it.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics that touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` since process start. Differences
/// are exact only while a single thread is allocating.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on();
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        // Room for the reported child between `inner` and now.
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.child_ending_now("reported", 500_000);
        t.exit(outer);
        let table = t.self_times();
        let (o, i, r) = (table["outer"], table["inner"], table["reported"]);
        assert_eq!((o.count, i.count, r.count), (1, 1, 1));
        assert_eq!(i.self_ns, i.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns - r.total_ns);
        // Self times of all spans add up to the root's duration.
        assert_eq!(o.self_ns + i.self_ns + r.self_ns, o.total_ns);
        assert!(crate::json::parse(&t.chrome_json("w")).is_ok());
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("x");
        assert_eq!(t.exit(id), 0);
        t.child_ending_now("y", 5);
        assert!(t.spans().is_empty());
    }
}
