//! What one session snapshot allocates: its image, once; what one
//! recovery reads: its open segment, once; and what one resume
//! allocates: its reply, once. An `adya-serve` `Session` shaped
//! like the ledger's memory pass (256 keys, eight open, 1 250 events,
//! one transaction a line), clean and dirty, takes one
//! `Session::snapshot()` here, and a counting allocator reads what that
//! call asked the heap for: in total at most 1.5× the image's bytes, and
//! no single allocation larger than the image. Here that is 1.13×
//! (clean) and 1.17× (dirty), the largest allocation the image itself.
//! The build that nested the parser's and the checker's images inside a
//! doubling payload and copied it once more to seal it asked for 5.9×
//! and 6.2×, its largest allocation 1.3× and 1.4× the image — and a
//! connection thread's allocator arena keeps that high-water mark as
//! resident memory.
//!
//! The same session is killed, and its `Session::recover` counted: no
//! allocation as large as its open segment, which recovery reads once,
//! the header and the records after the snapshot's offset. Here the
//! largest is the snapshot image it reads, 19 147 B (clean) and
//! 19 729 B (dirty) beside a 25 872 B and a 25 876 B segment, and the
//! whole recovery asks for ≈ 106 and ≈ 102 kB. The build that healed
//! the directory before recovering it read the open segment whole
//! first: its largest allocation was the segment, and it asked for
//! ≈ 132 and ≈ 129 kB (release builds both).
//!
//! The recovered session then takes one
//! `Session::resume(0)` over its whole replay window: at most 1.5× the
//! reply's bytes in total, in a handful of allocations — the reply, its
//! ack, and the witness ids of the few lines that fired something new.
//! Here that is 1.00× in 4 allocations (clean) and 1.02× in 28 (dirty).
//! The build that rendered every missing verdict into a `String` of its
//! own, then copied them into a reply that grew by doubling, asked for
//! 4.8× and 5.1× in 219 and 390 allocations.
//!
//! Alone in this file — so alone in its process — because it installs
//! a counting `#[global_allocator]`; its counters are per thread, so
//! the tests here do not count each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adya::serve::{dir, FileName, Session, SessionConfig};
use adya_faults::{TapCrashConfig, TapCrashPlane};

mod common;
use common::{sliding_window_events, stream_notation, SlidingWindow};

struct Counting;

thread_local! {
    // `const`-initialised and without a destructor: reading them never
    // allocates, so the allocator may.
    /// Bytes asked for, by allocations and reallocations alike.
    static BYTES: Cell<usize> = const { Cell::new(0) };
    /// The largest single allocation (or reallocation).
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Allocations and reallocations.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    BYTES.with(|b| b.set(b.get() + size));
    LARGEST.with(|l| l.set(l.get().max(size)));
    CALLS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every call goes straight to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The bytes asked for, the largest allocation and the number of
/// allocations since the last call.
fn take() -> (usize, usize, usize) {
    (
        BYTES.with(|b| b.replace(0)),
        LARGEST.with(|l| l.replace(0)),
        CALLS.with(|c| c.replace(0)),
    )
}

/// At most this many bytes asked for per byte of image.
const PER_IMAGE_BYTE: f64 = 1.5;

fn one_snapshot_allocates_its_image_once(dirty: bool) {
    let shape = SlidingWindow {
        keys: 256,
        slide: 1 << 40,
        open: 8,
        dirty,
    };
    let tap = TapCrashPlane::new(TapCrashConfig::default());
    let data = common::data_dir(&format!("snapshot-alloc-{dirty}"));
    let mut s = Session::create(&data, "s", SessionConfig::default(), None).expect("create");
    let text = stream_notation(&sliding_window_events(shape, 11, 1_250));
    for line in text.lines() {
        s.apply_line(line, &tap).expect("apply a line");
    }
    take();
    s.snapshot().expect("snapshot");
    let (bytes, largest, _) = take();
    let snap = data
        .join("s")
        .join(FileName::Snapshot(s.records()).to_string());
    let image = std::fs::metadata(&snap).expect("the snapshot landed").len() as usize;
    eprintln!(
        "dirty {dirty}: a {image} B image; the snapshot asked for {bytes} B ({:.2}×), \
         the largest allocation {largest} B ({:.2}×)",
        bytes as f64 / image as f64,
        largest as f64 / image as f64
    );
    assert!(
        bytes as f64 <= PER_IMAGE_BYTE * image as f64,
        "{bytes} B asked for around a {image} B image"
    );
    assert_eq!(largest, image, "the largest allocation is not the image");
    drop(s);
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn a_clean_sessions_snapshot_allocates_its_image_once() {
    one_snapshot_allocates_its_image_once(false);
}

#[test]
fn a_dirty_sessions_snapshot_allocates_its_image_once() {
    one_snapshot_allocates_its_image_once(true);
}

/// At most this many allocations in one resume, besides those of its
/// lines' witness ids: the reply, and the ack with its escaped fields.
const RESUME_ALLOCS: usize = 8;

/// At most this many allocations more for each line that fired a kind
/// first — at most six in a session's life —, whose witness id is
/// derived once to measure the line and once to write it, each time in
/// a few (four here, more for a longer cycle).
const WITNESS_ID_ALLOCS: usize = 16;

fn one_resume_allocates_its_reply_once(dirty: bool) {
    let shape = SlidingWindow {
        keys: 256,
        slide: 1 << 40,
        open: 8,
        dirty,
    };
    let tap = TapCrashPlane::new(TapCrashConfig::default());
    let data = common::data_dir(&format!("resume-alloc-{dirty}"));
    let mut s = Session::create(&data, "s", SessionConfig::default(), None).expect("create");
    let text = stream_notation(&sliding_window_events(shape, 11, 1_250));
    let mut sent = Vec::new();
    for line in text.lines() {
        let out = s.apply_line(line, &tap).expect("apply a line");
        sent.extend(out.into_iter().map(|(_, line)| line));
    }
    drop(s); // a kill
    let files = dir::list(&data.join("s")).expect("list the session");
    let len = |want: fn(&FileName) -> bool| files.iter().find(|(f, _)| want(f)).unwrap().1;
    let segment = len(|f| matches!(f, FileName::Segment(0))) as usize;
    let image = len(|f| matches!(f, FileName::Snapshot(_))) as usize;
    take();
    let mut s = Session::recover(&data, "s", SessionConfig::default(), None).expect("recover");
    let (bytes, largest, _) = take();
    eprintln!(
        "dirty {dirty}: recovering a {segment} B open segment and a {image} B snapshot asked \
         for {bytes} B, the largest allocation {largest} B"
    );
    assert!(
        largest < segment,
        "a {largest} B allocation: recovery read the {segment} B open segment whole"
    );
    assert_eq!(s.verdict_log().base(), 0, "the window holds every verdict");
    take();
    let (_, count, reply) = s.resume(0).expect("resume");
    let (bytes, largest, allocs) = take();
    assert_eq!(count as usize, sent.len());
    assert_eq!(reply, sent, "the reply re-sends every verdict line");
    let len = reply.text().len();
    let firsts = sent.iter().filter(|l| !l.contains(r#""new": []"#)).count();
    eprintln!(
        "dirty {dirty}: a {len} B reply of {} lines, {firsts} of them firing a kind first; \
         the resume asked for {bytes} B ({:.2}×) in {allocs} allocations, the largest {largest} B",
        reply.len(),
        bytes as f64 / len as f64
    );
    assert!(
        bytes as f64 <= PER_IMAGE_BYTE * len as f64,
        "{bytes} B asked for around a {len} B reply"
    );
    assert!(
        allocs <= RESUME_ALLOCS + WITNESS_ID_ALLOCS * firsts,
        "{allocs} allocations for a reply of {} lines",
        reply.len()
    );
    drop(s);
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn a_clean_sessions_resume_allocates_its_reply_once() {
    one_resume_allocates_its_reply_once(false);
}

#[test]
fn a_dirty_sessions_resume_allocates_its_reply_once() {
    one_resume_allocates_its_reply_once(true);
}
