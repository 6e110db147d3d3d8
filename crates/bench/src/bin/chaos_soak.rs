//! E15 — chaos soak: guarantee preservation under deterministic fault
//! injection. Every engine runs a threaded workload behind a
//! [`FaultyEngine`] for a family of seeded fault schedules (artificial
//! blocks, forced aborts, scheduling delays, mid-commit crash points),
//! and three properties must hold on every run:
//!
//! 1. **The advertised isolation level holds.** The finalized history
//!    — faults, crashes, retries and all — is classified by the batch
//!    checker and must still satisfy the level the engine claims. The
//!    paper's generalized definitions judge the history the system
//!    actually produced, which is exactly what makes them usable as a
//!    fault-testing oracle (a lock-based definition cannot even be
//!    stated for a run with injected faults).
//! 2. **The durable event log round-trips.** The tapped event stream
//!    survives encode/decode through the checksummed on-disk format,
//!    and a torn tail (writer killed mid-append) is detected as such —
//!    the intact prefix is recovered, not discarded or misread.
//! 3. **Crash/restore changes nothing.** Replaying the stream through
//!    the online checker with snapshot/restore cycles at several cut
//!    points yields a verdict stream byte-identical to an
//!    uninterrupted pass.
//! 4. **The pipeline changes nothing either.** Replaying the stream
//!    through the staged ingest pipeline — threaded feeder, tiny rings
//!    under constant backpressure — with the
//!    stream cut (pipeline closed, sequencer drained, checker
//!    snapshot/restored) at seeded points is also byte-identical.
//!
//! Seeds are CLI-settable and echoed into the JSON report
//! (`--report`), so any soak run is reproducible from the report
//! alone: `chaos_soak --seed <base> --schedules <n> --txns <n>`.
//!
//! Setting `ADYA_SOAK_LONG=1` switches to the long profile: many more
//! schedules, an order of magnitude more transactions per run, and a
//! key space that *grows* with the schedule index (later schedules
//! spread the same contention over ever more objects, exercising the
//! online checker's GC and reader anchors across a widening domain).
//! The long profile is hour-scale and meant for soak boxes, not CI;
//! the default run is unchanged. Explicit `--schedules`/`--txns`
//! flags still override either profile's defaults.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use adya_bench::{banner, note, u64_from_args, verdict, write_report, Table};
use adya_core::{classify, IsolationLevel};
use adya_engine::Engine;
use adya_faults::{FaultConfig, FaultPlane, FaultStats, FaultyEngine};
use adya_history::Event;
use adya_obs::json::JsonWriter;
use adya_online::{
    encode_log, EventLogReader, EventPipeline, LogError, OnlineChecker, PipelineConfig,
};
use adya_workloads::{
    families, mixed_workload, run_concurrent, ConcurrentConfig, MixedConfig, RetryPolicy, Scheme,
};

/// The two multipliers every seed derivation here mixes through.
const MIX_A: u64 = 0x9E37_79B9_7F4A_7C15;
const MIX_B: u64 = 0xBF58_476D_1CE4_E5B9;

/// The i-th fault schedule of a soak: intensities ramp with `i` so the
/// family spans quiet-with-delays up to block+abort+crash storms, and
/// each schedule's plane seed is derived from the base seed, so the
/// whole family is reproducible from `(base, i)`.
fn schedule(base: u64, i: u64) -> FaultConfig {
    FaultConfig {
        seed: base ^ i.wrapping_mul(MIX_A),
        block_prob: 0.02 * (i % 4) as f64,
        abort_prob: 0.015 * (i % 3) as f64,
        delay_prob: 0.05,
        delay_spins: 8,
        crash_every: if i % 2 == 1 { Some(11 + 2 * i) } else { None },
    }
}

struct SoakRun {
    engine: String,
    schedule: u64,
    cfg: FaultConfig,
    committed: usize,
    gave_up: usize,
    ops: usize,
    events: usize,
    faults: FaultStats,
    level: IsolationLevel,
    level_ok: bool,
    log_ok: bool,
    replay_ok: bool,
    pipelined_ok: bool,
    micros: u128,
}

impl SoakRun {
    fn ok(&self) -> bool {
        self.level_ok && self.log_ok && self.replay_ok && self.pipelined_ok
    }
}

/// Encode the stream, decode it back, and check torn-tail detection:
/// a log missing its final bytes must yield exactly the intact prefix
/// plus a `TornTail` — never a misread and never a hard error.
fn check_log_roundtrip(events: &[Event]) -> bool {
    let bytes = encode_log(events);
    let mut reader = match EventLogReader::open(&bytes) {
        Ok(r) => r,
        Err(_) => return false,
    };
    let mut decoded = Vec::new();
    while let Some(item) = reader.next() {
        match item {
            Ok(e) => decoded.push(e),
            Err(_) => return false,
        }
    }
    if decoded != events {
        return false;
    }
    if events.is_empty() {
        return true;
    }
    let torn = &bytes[..bytes.len() - 3];
    let mut reader = match EventLogReader::open(torn) {
        Ok(r) => r,
        Err(_) => return false,
    };
    let mut prefix = Vec::new();
    loop {
        match reader.next() {
            Some(Ok(e)) => prefix.push(e),
            Some(Err(LogError::TornTail { .. })) => break,
            _ => return false,
        }
    }
    prefix.len() == events.len() - 1 && prefix[..] == events[..prefix.len()]
}

/// One verdict, rendered to the exact line the comparison is over.
fn verdict_line(v: &adya_online::Verdict) -> String {
    format!(
        "txn={:?} committed={} level={:?} fired={:?} new={:?} stale={}",
        v.txn, v.committed, v.strongest_ansi, v.fired, v.new_fired, v.stale_refs
    )
}

/// The reference both replay checks compare against: one plain
/// uninterrupted per-event pass.
fn plain_replay(events: &[Event]) -> Vec<String> {
    let mut plain = Vec::new();
    let mut c = OnlineChecker::new();
    for e in events {
        if let Some(v) = c.ingest(e) {
            plain.push(verdict_line(&v));
        }
    }
    plain.push(verdict_line(&c.finish()));
    plain
}

/// `count` sorted cut points in `0..n`, derived from the schedule seed
/// (mixed through `m1` then `m2`) so different schedules cut the stream
/// at different positions.
fn cut_points(seed: u64, count: u64, (m1, m2): (u64, u64), n: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (1..=count)
        .map(|k| {
            let h = seed.wrapping_mul(m1).wrapping_add(k).wrapping_mul(m2);
            (h % n.max(1) as u64) as usize
        })
        .collect();
    cuts.sort_unstable();
    cuts
}

/// Replays `events` through the online checker with snapshot/restore
/// cycles at three cut points and demands a verdict stream
/// byte-identical to `plain`.
fn check_crash_replay(events: &[Event], seed: u64, plain: &[String]) -> bool {
    let cuts = cut_points(seed, 3, (MIX_A, MIX_B), events.len());
    let mut resumed = Vec::new();
    let mut c = OnlineChecker::new();
    for (i, e) in events.iter().enumerate() {
        if cuts.contains(&i) {
            let snap = c.snapshot();
            drop(c);
            c = match OnlineChecker::restore(&snap) {
                Ok(c) => c,
                Err(_) => return false,
            };
        }
        if let Some(v) = c.ingest(e) {
            resumed.push(verdict_line(&v));
        }
    }
    resumed.push(verdict_line(&c.finish()));
    plain == resumed
}

/// Replays `events` through the *staged pipeline* — threaded feeder,
/// tiny queues forcing backpressure — with the
/// stream cut at seeded points: each cut ends the pipeline's stream
/// (the sequencer drains what the queues still buffer, exactly as on a
/// crash), snapshots the checker, and resumes a restored checker on a
/// fresh pipeline. The whole verdict stream must be byte-identical to
/// `plain`.
fn check_pipelined_replay(events: &[Event], seed: u64, plain: &[String]) -> bool {
    let n = events.len();
    let mut cuts = cut_points(seed, 2, (MIX_B, MIX_A), n);
    cuts.push(n);
    cuts.dedup();

    let cfg = PipelineConfig {
        rings: 3,
        ring_capacity: 4, // tiny: the feeder hits backpressure
    };
    let mut got = Vec::new();
    let mut c = OnlineChecker::new();
    let mut start = 0usize;
    for cut in cuts {
        let segment = &events[start..cut];
        start = cut;
        if !segment.is_empty() {
            let (producers, pipe) = EventPipeline::manual(cfg);
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let k = producers.len();
                    for (i, ev) in segment.iter().enumerate() {
                        producers[i % k].push(i as u64, ev.clone());
                    }
                    // producers drop: the stream ends, sequencer drains.
                });
                pipe.run(&mut c, |v| got.push(verdict_line(&v)));
            });
        }
        if cut < n {
            let snap = c.snapshot();
            c = match OnlineChecker::restore(&snap) {
                Ok(c) => c,
                Err(_) => return false,
            };
        }
    }
    got.push(verdict_line(&c.finish()));
    got == plain
}

fn run_one(
    scheme: Scheme,
    cfg: FaultConfig,
    schedule_ix: u64,
    txns: u64,
    threads: u64,
    keys: u64,
) -> SoakRun {
    let (name, engine, level) = (scheme.name, (scheme.make)(), scheme.guarantees);
    let plane = Arc::new(FaultPlane::new(cfg));
    let faulty = FaultyEngine::new(engine, Arc::clone(&plane));

    let events: Arc<Mutex<Vec<Event>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    faulty.set_event_tap(Arc::new(move |e: &Event| {
        sink.lock().expect("tap mutex").push(e.clone());
    }));

    // Seed rows through the *inner* engine: populating the table is
    // test scaffolding, not workload, and must not be faulted.
    let (_, programs) = mixed_workload(
        faulty.inner(),
        &MixedConfig {
            keys,
            txns: txns as usize,
            ops_per_txn: 5,
            write_ratio: 0.5,
            abort_prob: 0.05,
            delete_prob: 0.05,
            theta: 0.8,
            seed: cfg.seed,
        },
    );

    let start = Instant::now();
    let stats = run_concurrent(
        &faulty,
        &programs,
        &ConcurrentConfig {
            threads: threads as usize,
            // Yields, not retries: about four blocked retries at the
            // default backoff. The fault plane aborts lock holders
            // anyway, so a blocked session gives up its wait early.
            spin_limit: 64,
            retry: RetryPolicy {
                max_attempts: 40,
                deadline_ops: Some(4_000),
                ..RetryPolicy::default()
            },
            seed: cfg.seed,
        },
    );
    let micros = start.elapsed().as_micros();

    let history = faulty.finalize();
    let level_ok = classify(&history).satisfies(level);
    let events = Arc::try_unwrap(events)
        .map(|m| m.into_inner().expect("tap mutex"))
        .unwrap_or_else(|arc| arc.lock().expect("tap mutex").clone());
    let log_ok = check_log_roundtrip(&events);
    let plain = plain_replay(&events);
    let replay_ok = check_crash_replay(&events, cfg.seed, &plain);
    let pipelined_ok = check_pipelined_replay(&events, cfg.seed, &plain);

    SoakRun {
        engine: name.to_string(),
        schedule: schedule_ix,
        committed: stats.committed,
        gave_up: stats.gave_up,
        ops: stats.ops,
        events: events.len(),
        faults: plane.stats(),
        level,
        level_ok,
        log_ok,
        replay_ok,
        pipelined_ok,
        micros,
        cfg,
    }
}

/// Probabilities go into the report as exact per-mille integers (the
/// schedule generator only produces multiples of 0.005), keeping the
/// JSON writer integral while staying lossless for reproduction.
fn per_mille(p: f64) -> u64 {
    (p * 1000.0).round() as u64
}

fn report_runs(w: &mut JsonWriter, runs: &[SoakRun]) {
    w.open_array(Some("runs"));
    for r in runs {
        w.open_object(None);
        w.str_field("engine", &r.engine);
        w.u64_field("schedule", r.schedule);
        w.u64_field("plane_seed", r.cfg.seed);
        w.u64_field("block_prob_pm", per_mille(r.cfg.block_prob));
        w.u64_field("abort_prob_pm", per_mille(r.cfg.abort_prob));
        w.u64_field("delay_prob_pm", per_mille(r.cfg.delay_prob));
        w.u64_field("delay_spins", u64::from(r.cfg.delay_spins));
        w.u64_field("crash_every", r.cfg.crash_every.unwrap_or(0));
        w.u64_field("committed", r.committed as u64);
        w.u64_field("gave_up", r.gave_up as u64);
        w.u64_field("ops", r.ops as u64);
        w.u64_field("events", r.events as u64);
        w.u64_field("injected_blocks", r.faults.blocked);
        w.u64_field("injected_aborts", r.faults.aborted);
        w.u64_field("injected_delays", r.faults.delayed);
        w.u64_field("crashes", r.faults.crashes);
        w.u64_field("micros", r.micros as u64);
        w.str_field("advertised", &r.level.to_string());
        w.bool_field("level_ok", r.level_ok);
        w.bool_field("log_roundtrip_ok", r.log_ok);
        w.bool_field("crash_replay_ok", r.replay_ok);
        w.bool_field("pipelined_ok", r.pipelined_ok);
        w.close_object();
    }
    w.close_array();
}

fn main() {
    banner("Chaos soak: isolation guarantees under injected faults");
    let long = std::env::var("ADYA_SOAK_LONG").is_ok_and(|v| v == "1");
    let base_seed = u64_from_args("seed", 0xC0FFEE);
    let schedules = u64_from_args("schedules", if long { 64 } else { 8 });
    let txns = u64_from_args("txns", if long { 512 } else { 48 });
    let threads = u64_from_args("threads", 4);
    note(&format!(
        "base seed {base_seed}, {schedules} schedules x {} engines, {txns} txns, {threads} threads{}",
        families().len(),
        if long { " (ADYA_SOAK_LONG profile)" } else { "" }
    ));

    let mut runs: Vec<SoakRun> = Vec::new();
    for i in 0..schedules {
        let cfg = schedule(base_seed, i);
        // Long profile: the key space grows with the schedule index, so
        // late schedules spread contention over many more objects.
        let keys = if long { 16 + 12 * i } else { 12 };
        for scheme in families() {
            runs.push(run_one(scheme, cfg, i, txns, threads, keys));
        }
    }

    let mut table = Table::new(&[
        "engine",
        "sched",
        "committed",
        "gave up",
        "blocks/aborts/crashes",
        "events",
        "level",
        "log",
        "replay",
        "pipelined",
    ]);
    for r in &runs {
        table.row(&[
            r.engine.clone(),
            r.schedule.to_string(),
            r.committed.to_string(),
            r.gave_up.to_string(),
            format!(
                "{}/{}/{}",
                r.faults.blocked, r.faults.aborted, r.faults.crashes
            ),
            r.events.to_string(),
            if r.level_ok {
                format!("{} ok", r.level)
            } else {
                format!("{} VIOLATED", r.level)
            },
            if r.log_ok { "ok" } else { "FAIL" }.to_string(),
            if r.replay_ok { "ok" } else { "FAIL" }.to_string(),
            if r.pipelined_ok { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    println!("{}", table.render());

    // Sanity on the soak itself: the schedule family must actually
    // have injected faults and crashes somewhere, or the run proved
    // nothing.
    let total_faults: u64 = runs
        .iter()
        .map(|r| r.faults.blocked + r.faults.aborted + r.faults.crashes)
        .sum();
    if total_faults == 0 {
        note("  schedule family injected no faults — soak is vacuous");
    }
    let all_ok = runs.iter().all(SoakRun::ok);
    for r in runs.iter().filter(|r| !r.ok()) {
        note(&format!(
            "  {} schedule {}: level_ok={} log_ok={} replay_ok={} pipelined_ok={}",
            r.engine, r.schedule, r.level_ok, r.log_ok, r.replay_ok, r.pipelined_ok
        ));
    }

    write_report(
        "chaos_soak",
        base_seed,
        &[("runs_total", runs.len() as u64)],
        |w| report_runs(w, &runs),
    );
    verdict("E15 chaos soak", all_ok && total_faults > 0);
}
