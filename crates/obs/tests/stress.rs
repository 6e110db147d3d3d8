//! Concurrency stress: many scoped threads hammering shared metric
//! handles while a reader thread takes snapshots.
//! Counters must not lose increments, histograms must not lose
//! samples, and concurrent snapshots must never observe impossible
//! states (count inflated beyond what was recorded). The seqlock ring
//! behind the stamp plane gets the same treatment, at its slot width
//! and a wider one.

use adya_obs::ring::SeqRing;
use adya_obs::Registry;

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

/// Writers racing each other around a ring much smaller than their
/// output while a reader keeps collecting: every record a reader ever
/// sees must be one some writer produced whole. Each word of a record
/// is derived from its first word, so a slot stitched together from
/// two writes cannot pass.
fn ring_records_are_never_torn<const W: usize>() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 1_000;
    let record = |id: u64| -> [u64; W] { std::array::from_fn(|k| id.wrapping_mul(k as u64 + 1)) };
    let ring = SeqRing::<W>::new(64);
    crossbeam::thread::scope(|s| {
        for t in 0..WRITERS {
            let ring = &ring;
            s.spawn(move |_| {
                for i in 0..PER_WRITER {
                    ring.record(record(t * 10_000 + i + 1));
                }
            });
        }
        let ring = &ring;
        s.spawn(move |_| {
            for _ in 0..50 {
                for (_, words) in ring.collect() {
                    assert_eq!(words, record(words[0]), "torn slot, W = {W}");
                }
                std::thread::yield_now();
            }
        });
    })
    .expect("no panics in ring threads");
    let got = ring.collect();
    assert!(!got.is_empty() && got.len() <= 64, "W = {W}: {}", got.len());
    assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "oldest first");
    for (_, words) in &got {
        assert_eq!(*words, record(words[0]), "torn slot, W = {W}");
    }
    assert_eq!(ring.recorded(), WRITERS * PER_WRITER);
    assert!(ring.dropped() >= WRITERS * PER_WRITER - 64);
}

#[test]
fn seqlock_ring_survives_contention_at_both_slot_widths() {
    ring_records_are_never_torn::<3>(); // StampRing
    ring_records_are_never_torn::<5>();
}
