//! Concurrency stress: many scoped threads hammering shared metric
//! handles while a reader thread takes snapshots.
//! Counters must not lose increments, histograms must not lose
//! samples, and concurrent snapshots must never observe impossible
//! states (count inflated beyond what was recorded). The stamp plane
//! gets the same treatment: writers past its bound, a reader collecting.

use adya_obs::trace::{Stage, Stamp, DEFAULT_STAMP_CAPACITY};
use adya_obs::{Registry, TracePlane};

const THREADS: usize = 8;
const ITERS: u64 = 10_000;

#[test]
fn counters_and_histograms_survive_contention() {
    let reg = Registry::new();
    let hits = reg.counter("stress.hits");
    let depth = reg.gauge("stress.depth");
    let lat = reg.histogram("stress.lat_ns");

    crossbeam::thread::scope(|s| {
        for t in 0..THREADS {
            let hits = reg.counter("stress.hits");
            let depth = &depth;
            let lat = &lat;
            s.spawn(move |_| {
                for i in 0..ITERS {
                    hits.inc();
                    depth.add(1);
                    depth.add(-1);
                    lat.record(t as u64 * ITERS + i);
                }
            });
        }
        // A concurrent reader: snapshots must stay internally sane.
        s.spawn(|_| {
            for _ in 0..100 {
                let snap = reg.snapshot();
                assert!(snap.counter("stress.hits") <= THREADS as u64 * ITERS);
                if let Some(h) = snap.histogram("stress.lat_ns") {
                    assert!(h.count <= THREADS as u64 * ITERS);
                    assert!(h.min <= h.max);
                }
                std::thread::yield_now();
            }
        });
    })
    .expect("no panics in stress threads");

    let snap = reg.snapshot();
    assert_eq!(snap.counter("stress.hits"), THREADS as u64 * ITERS);
    assert_eq!(hits.get(), THREADS as u64 * ITERS);
    assert_eq!(snap.gauge("stress.depth"), 0);
    let h = snap.histogram("stress.lat_ns").expect("recorded");
    assert_eq!(h.count, THREADS as u64 * ITERS);
    assert_eq!(h.min, 0);
    assert_eq!(h.max, THREADS as u64 * ITERS - 1);
    // Sum of 0..N-1 = N(N-1)/2.
    let n = THREADS as u64 * ITERS;
    assert_eq!(h.sum, n * (n - 1) / 2);
}

#[test]
fn reset_during_recording_never_corrupts() {
    // Reset racing with writers: totals afterwards are unpredictable,
    // but nothing must panic and a final quiesced reset must zero out.
    let reg = Registry::new();
    crossbeam::thread::scope(|s| {
        for _ in 0..4 {
            let reg = &reg;
            s.spawn(move |_| {
                for v in 0..2_000u64 {
                    reg.counter("reset.c").inc();
                    reg.histogram("reset.h").record(v);
                }
            });
        }
        let reg = &reg;
        s.spawn(move |_| {
            for _ in 0..50 {
                reg.reset();
                std::thread::yield_now();
            }
        });
    })
    .expect("no panics");
    reg.reset();
    let snap = reg.snapshot();
    assert_eq!(snap.counter("reset.c"), 0);
    assert_eq!(snap.histogram("reset.h").unwrap().count, 0);
}

/// Writer `t`'s `i`-th stamp: stage and time are derived from the
/// trace id, so a stamp stitched together from two cannot pass.
fn stamp_of(t: u64, i: u64) -> Stamp {
    let trace = t * 1_000_000 + i + 1;
    Stamp {
        trace,
        stage: Stage::ALL[(trace % 8) as usize],
        t_ns: trace * 3,
    }
}

/// Each writer's stamps appear in the order it made them.
fn assert_whole_and_oldest_first(got: &[Stamp]) {
    let mut last = [0u64; 4];
    for st in got {
        let (t, i) = (st.trace / 1_000_000, st.trace % 1_000_000 - 1);
        assert_eq!(*st, stamp_of(t, i), "a torn stamp");
        assert!(i >= last[t as usize], "writer {t}'s stamps out of order");
        last[t as usize] = i + 1;
    }
}

#[test]
fn stamp_plane_survives_contention_past_its_bound() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 3_000;
    assert!(WRITERS * PER_WRITER > DEFAULT_STAMP_CAPACITY as u64);
    let plane = TracePlane::new("stress", "leader");
    crossbeam::thread::scope(|s| {
        for t in 0..WRITERS {
            let plane = &plane;
            s.spawn(move |_| {
                for i in 0..PER_WRITER {
                    let st = stamp_of(t, i);
                    plane.stamp_at(st.trace, st.stage, st.t_ns);
                }
            });
        }
        let plane = &plane;
        s.spawn(move |_| {
            for _ in 0..50 {
                assert_whole_and_oldest_first(&plane.collect());
                std::thread::yield_now();
            }
        });
    })
    .expect("no panics in stamp threads");
    let got = plane.collect();
    assert_eq!(got.len(), DEFAULT_STAMP_CAPACITY);
    assert_whole_and_oldest_first(&got);
    assert_eq!(got.len() as u64 + plane.dropped(), WRITERS * PER_WRITER);
}
