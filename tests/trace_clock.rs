//! Clock-handling properties of the latency-provenance plane: per-
//! stage stamps for one trace are monotonically non-decreasing in
//! real stamping order — across the ring handoff, through
//! apply, and straight through a snapshot + recover of the session
//! in the middle of the stream. A negative stage delta would render
//! as a backwards span in every merged trace, so none may exist.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adya::online::{OnlineChecker, PipelineConfig};
use adya::serve::{Session, SessionConfig};
use adya_faults::{TapCrashConfig, TapCrashPlane};
use adya_obs::trace::{Stage, Stamp};
use adya_obs::TracePlane;
use proptest::prelude::*;

/// Per-trace stage timestamps, from a plane's collected stamps.
fn stages_by_trace(stamps: &[Stamp]) -> std::collections::BTreeMap<u64, Vec<(Stage, u64)>> {
    let mut out: std::collections::BTreeMap<u64, Vec<(Stage, u64)>> =
        std::collections::BTreeMap::new();
    for s in stamps {
        out.entry(s.trace).or_default().push((s.stage, s.t_ns));
    }
    out
}

/// Asserts that for every trace, the stages present appear with
/// non-decreasing timestamps when ordered by `order` (the real-time
/// stamping order of the path under test), i.e. no stage delta along
/// the chain is negative.
fn assert_monotonic(stamps: &[Stamp], order: &[Stage]) {
    for (trace, stages) in stages_by_trace(stamps) {
        let mut last: Option<(Stage, u64)> = None;
        for &want in order {
            for &(stage, t) in &stages {
                if stage != want {
                    continue;
                }
                if let Some((prev, pt)) = last {
                    assert!(
                        t >= pt,
                        "trace {trace:#x}: {:?} at {t} precedes {prev:?} at {pt}",
                        stage
                    );
                }
                last = Some((stage, t));
            }
        }
    }
}

/// A unique scratch directory per proptest case.
fn scratch() -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "adya-trace-clock-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One deterministic line of tokens per transaction: begin, a read of
/// the last committed version when there is one, a write, commit.
fn token_lines(txns: u64, salt: u64) -> Vec<String> {
    let mut lines = Vec::new();
    let mut last_writer = [None::<u64>; 4];
    let obj = |i: usize| (b'a' + i as u8) as char;
    for t in 1..=txns {
        let wobj = ((t + salt) % 4) as usize;
        let robj = ((t * 3 + salt) % 4) as usize;
        let mut toks = vec![format!("b{t}")];
        if let Some(w) = last_writer[robj] {
            toks.push(format!("r{t}(k{}{w})", obj(robj)));
        }
        toks.push(format!("w{t}(k{},{t})", obj(wobj)));
        toks.push(format!("c{t}"));
        last_writer[wobj] = Some(t);
        lines.push(toks.join(" "));
    }
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The durable-session path: tap → ring → seq → log → apply →
    /// verdict stamps stay non-decreasing for every trace, with a
    /// snapshot + park + recover forced mid-stream. The plane (and
    /// its monotonic clock) outlives the session the way the server's
    /// does, so recovery may never produce a backwards stamp either.
    #[test]
    fn session_stamps_monotonic_across_restore(
        txns in 4u64..16,
        salt in 0u64..1_000,
        restore_frac in 1u64..4,
    ) {
        let dir = scratch();
        let plane = Arc::new(TracePlane::new("n0", "leader"));
        plane.set_sample_every(1);
        let cfg = SessionConfig::default();
        let tap = TapCrashPlane::new(TapCrashConfig::default());

        let lines = token_lines(txns, salt);
        let restore_at = (lines.len() as u64 * restore_frac / 4) as usize;
        let mut session = Session::create(&dir, "prop", cfg, None).expect("create");
        session.set_trace(Arc::clone(&plane));
        for (i, line) in lines.iter().enumerate() {
            if i == restore_at {
                session.snapshot().expect("snapshot");
                session.park();
                drop(session);
                session = Session::recover(&dir, "prop", cfg, None).expect("recover");
                session.set_trace(Arc::clone(&plane));
            }
            session.apply_line(line, &tap).expect("apply");
        }

        let stamps = plane.collect();
        prop_assert!(!stamps.is_empty(), "1-in-1 sampling must stamp");
        assert_monotonic(
            &stamps,
            &[Stage::Tap, Stage::Ring, Stage::Seq, Stage::Log, Stage::Apply, Stage::Verdict],
        );
        // Every trace's stamps start at its tap stamp: no stage may
        // precede admission.
        for (trace, stages) in stages_by_trace(&stamps) {
            let tap_t = stages.iter().find(|(s, _)| *s == Stage::Tap).map(|&(_, t)| t);
            if let Some(t0) = tap_t {
                for &(stage, t) in &stages {
                    prop_assert!(t >= t0, "trace {trace:#x}: {stage:?} before tap");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The lock-free ingest pipeline: producer-side tap/ring stamps
    /// and consumer-side seq/apply/verdict stamps for the same trace
    /// ids stay non-decreasing across the ring handoff, for any ring
    /// count.
    #[test]
    fn pipeline_stamps_monotonic_across_ring_handoff(
        txns in 4u64..16,
        rings in 1usize..4,
        salt in 0u64..1_000,
    ) {
        use adya::online::StreamParser;

        let plane = Arc::new(TracePlane::new("n0", "leader"));
        plane.set_sample_every(1);
        let cfg = PipelineConfig { rings, ring_capacity: 64 };
        let (producers, mut pipe) = adya::online::EventPipeline::manual(cfg);
        pipe.set_trace(Arc::clone(&plane), "prop");

        let mut parser = StreamParser::new();
        let mut seq = 0u64;
        for line in token_lines(txns, salt) {
            for tok in line.split_whitespace() {
                let ev = parser.parse_token(tok).expect("token parses");
                if let Some(id) = plane.sample("prop", seq) {
                    plane.stamp(id, Stage::Tap);
                    plane.stamp(id, Stage::Ring);
                }
                producers[(seq as usize) % rings].push(seq, ev);
                seq += 1;
            }
        }
        drop(producers);
        let mut checker = OnlineChecker::new();
        pipe.run(&mut checker, |_| {});

        let stamps = plane.collect();
        prop_assert!(!stamps.is_empty(), "1-in-1 sampling must stamp");
        assert_monotonic(
            &stamps,
            &[Stage::Tap, Stage::Ring, Stage::Seq, Stage::Apply, Stage::Verdict],
        );
    }
}
