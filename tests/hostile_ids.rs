//! The largest object id there is, `ObjectId(4 294 967 294)`, at the
//! three boundaries where ids that no parser issued reach the checker:
//! a binary event log, a checker image, and a session's log on
//! recovery. The checker numbers its own rows (DESIGN.md, "Object
//! table"), so the id sizes nothing: the largest allocation each
//! boundary makes is a few kilobytes, not one in proportion to the id.
//! Alone in this file — so alone in its process — because it installs
//! a counting `#[global_allocator]`; its counter is per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adya::history::{Event, ObjectId, ReadEvent, TxnId, VersionId, VersionKind, WriteEvent};
use adya::online::{encode_log, EventLogReader, GcConfig, OnlineChecker, StreamFeed};
use adya::serve::{LogConfig, RecoverError, SessionLog};

mod common;

struct Counting;

thread_local! {
    // `const`-initialised and without a destructor: reading it never
    // allocates, so the allocator may.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call goes straight to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(new_size)));
        // SAFETY: the caller's contract, passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The largest allocation `f` makes.
fn largest<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// No allocation a boundary makes for a handful of events may come
/// near the id: a few kilobytes at most.
const SMALL: usize = 8 << 10;

const BIG: ObjectId = ObjectId(u32::MAX - 1);

fn w(txn: u32, object: ObjectId, seq: u32) -> Event {
    Event::Write(WriteEvent {
        txn: TxnId(txn),
        object,
        seq,
        kind: VersionKind::Visible,
        value: None,
    })
}

/// T1 writes the big object twice and object 0 once; T2 reads the big
/// object's first version (G1b) and object 0, and overwrites the first.
fn events() -> Vec<Event> {
    let r = |txn, object, seq| {
        Event::Read(ReadEvent {
            txn: TxnId(txn),
            object,
            version: VersionId::new(TxnId(1), seq),
            through_cursor: false,
        })
    };
    vec![
        Event::Begin(TxnId(1)),
        w(1, BIG, 1),
        w(1, ObjectId(0), 1),
        w(1, BIG, 2),
        Event::Commit(TxnId(1)),
        Event::Begin(TxnId(2)),
        r(2, BIG, 1),
        r(2, ObjectId(0), 1),
        w(2, BIG, 1),
        Event::Commit(TxnId(2)),
    ]
}

#[test]
fn a_binary_log_naming_the_largest_id_costs_what_a_small_one_does() {
    let log = encode_log(&events());
    let ((verdicts, image), most) = largest(|| {
        let mut c = OnlineChecker::with_gc(GcConfig {
            enabled: true,
            interval: 1,
        });
        let mut reader = EventLogReader::open(&log).expect("a log");
        let mut verdicts = Vec::new();
        while let Some(ev) = reader.next() {
            verdicts.extend(c.ingest(&ev.expect("an intact record")));
        }
        verdicts.push(c.finish());
        (verdicts, c.snapshot())
    });
    assert!(most <= SMALL, "{most} B in one allocation");
    let witness = verdicts[1].witness.as_deref().unwrap_or_default();
    assert!(witness.contains("obj4294967294[1]"), "{witness}");

    // The image names it, and restores, to the same bytes, as cheaply.
    let (revived, most) = largest(|| OnlineChecker::restore(&image));
    assert!(most <= SMALL, "{most} B in one allocation");
    assert_eq!(revived.expect("its own image").snapshot(), image);
}

#[test]
fn a_checker_image_naming_an_id_its_parser_never_interned_is_refused() {
    // A feed's image of the same stream, but for one write to the big
    // object, which its parser never named.
    let mut feed = StreamFeed::new(OnlineChecker::new());
    for tok in "b1 w1(x,1) c1 b2 r2(x1)".split_whitespace() {
        let ev = feed.parse(tok).expect("a token");
        feed.ingest(&ev);
    }
    let parser = feed.parser().snapshot();
    let mut c = OnlineChecker::restore(&feed.checker().snapshot()).expect("an image");
    c.ingest(&w(3, BIG, 1));
    c.ingest(&Event::Commit(TxnId(3)));
    let image = c.snapshot();
    let (restored, most) = largest(|| StreamFeed::restore(&parser, &image));
    let err = restored.expect_err("the parser names one object");
    assert!(
        err.to_string()
            .contains("object 4294967294 is beyond the 1 names interned"),
        "{err}"
    );
    assert!(most <= SMALL, "{most} B in one allocation");
    // The feed's own image, which names only what its parser does,
    // restores beside it.
    assert!(StreamFeed::restore(&parser, &feed.checker().snapshot()).is_ok());
}

#[test]
fn a_session_log_record_naming_an_object_never_interned_is_refused() {
    let dir = common::data_dir("hostile-ids-session");
    std::fs::create_dir_all(&dir).unwrap();
    let session = dir.join("s");
    let mut log = SessionLog::create(&session, LogConfig::default(), None).expect("a log");
    log.append_names(["x"].into_iter()).expect("names");
    for ev in [Event::Begin(TxnId(1)), w(1, ObjectId(0), 1), w(1, BIG, 1)] {
        log.append(&ev).expect("an append");
    }
    drop(log);
    let (recovered, most) = largest(|| {
        SessionLog::recover(
            &session,
            LogConfig::default(),
            GcConfig::default(),
            false,
            None,
        )
    });
    match recovered {
        Err(RecoverError::Corrupt(msg)) => assert!(
            msg.contains("record 2 names obj4294967294, which no name log interned"),
            "{msg}"
        ),
        Err(e) => panic!("{e}"),
        Ok(_) => panic!("a record naming an object never interned was replayed"),
    }
    assert!(most <= SMALL, "{most} B in one allocation");
    let _ = std::fs::remove_dir_all(&dir);
}
