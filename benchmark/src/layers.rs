//! Single-layer probes: each calls one crate's public functions on the
//! workload's own generated events, away from the end-to-end path, and
//! sets that layer's metrics. A traced run attaches the probes for the
//! layers its workload leans on; the rest stay 0.

use std::io::{Read, Write};
use std::path::Path;
use std::time::Instant;

use adya_engine::EventRing;
use adya_history::Event;
use adya_online::{wire, EventPipeline, OnlineChecker, PipelineConfig, StreamParser};
use adya_serve::{proto, FsyncPolicy, LogConfig, ReplicaSink, SessionLog};

use crate::result::Metrics;
use crate::stats;

/// Parses at most `limit` tokens of `text` (whole lines) into events.
pub fn parse_events(text: &str, limit: usize) -> Vec<Event> {
    let mut parser = StreamParser::new();
    let mut events = Vec::new();
    for line in text.lines() {
        if events.len() >= limit {
            break;
        }
        for tok in line.split_whitespace() {
            events.push(parser.parse_token(tok).expect("generated tokens parse"));
        }
    }
    events
}

fn ns_per(started: Instant, n: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// `EventPipeline::manual`, one producer thread plus this thread as
/// the consumer — the shape `adya-check --pipeline-threads 1` runs.
/// No end-to-end workload uses it today; the row exists so the parked
/// sharding item has a before-number.
pub fn probe_pipeline(m: &mut Metrics, events: &[Event]) {
    let waits = adya_obs::global().counter("pipeline.backpressure_waits");
    let waits_before = waits.get();
    let cfg = PipelineConfig {
        rings: 1,
        ..PipelineConfig::default()
    };
    let (producers, pipe) = EventPipeline::manual(cfg);
    let mut checker = OnlineChecker::new();
    let t0 = Instant::now();
    let stats = std::thread::scope(|s| {
        s.spawn(move || {
            for (seq, ev) in events.iter().enumerate() {
                producers[0].push(seq as u64, ev.clone());
            }
            // Dropping the producers closes the stream.
        });
        let mut verdicts = 0u64;
        let stats = pipe.run(&mut checker, |v| {
            verdicts += 1;
            std::hint::black_box(&v);
        });
        std::hint::black_box(verdicts);
        stats
    });
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(stats.events, events.len() as u64, "pipeline dropped events");
    m.set("online.pipeline.events_per_s", stats.events as f64 / secs);
    m.set(
        "online.pipeline.backpressure_waits",
        (waits.get() - waits_before) as f64,
    );
}

/// One push and one pop through an `EventRing`, uncontended.
pub fn probe_ring(m: &mut Metrics, events: &[Event]) {
    let (tx, rx) = EventRing::with_capacity(1024);
    let t0 = Instant::now();
    for (seq, ev) in events.iter().enumerate() {
        tx.push(seq as u64, ev.clone());
        std::hint::black_box(rx.try_pop());
    }
    m.set("engine.ring.push_pop_ns", ns_per(t0, events.len()));
}

/// The two obs costs that sit on a verdict's path: a cached counter
/// increment (one per ingested event) and a `/metrics` scrape.
pub fn probe_obs(m: &mut Metrics) -> Result<(), String> {
    const INCS: usize = 5_000_000;
    let t0 = Instant::now();
    for _ in 0..INCS {
        adya_obs::counter!("ledger.probe.counter").inc();
    }
    m.set("obs.registry.counter_inc_ns", ns_per(t0, INCS));

    let mut server = adya_obs::ObsServer::bind(
        "127.0.0.1:0",
        std::sync::Arc::new(|path: &str| match path {
            "/metrics" => adya_obs::Response::ok(
                "text/plain; version=0.0.4; charset=utf-8",
                adya_obs::global().snapshot().to_prometheus(),
            ),
            _ => adya_obs::Response::status(404, "not found\n"),
        }),
    )
    .map_err(|e| format!("obs endpoint: {e}"))?;
    let addr = server.local_addr();
    let mut ms = Vec::new();
    for _ in 0..15 {
        let t0 = Instant::now();
        let mut s = std::net::TcpStream::connect(addr).map_err(|e| format!("scrape: {e}"))?;
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: ledger\r\n\r\n")
            .map_err(|e| format!("scrape: {e}"))?;
        let mut body = Vec::new();
        s.read_to_end(&mut body)
            .map_err(|e| format!("scrape: {e}"))?;
        if !body.starts_with(b"HTTP/1.1 200") {
            return Err("scrape did not answer 200".into());
        }
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    server.shutdown();
    m.set("obs.http.metrics_scrape_ms", stats::median(&ms));
    Ok(())
}

/// `OnlineChecker::snapshot` / `restore` on the state these events
/// leave behind.
pub fn probe_snapshot(m: &mut Metrics, events: &[Event]) {
    let mut checker = OnlineChecker::new();
    for ev in events {
        checker.ingest(ev);
    }
    let t0 = Instant::now();
    let bytes = checker.snapshot();
    m.set(
        "online.checker.snapshot_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );
    m.set("online.checker.snapshot_bytes", bytes.len() as f64);
    let t0 = Instant::now();
    let revived = OnlineChecker::restore(&bytes).expect("own snapshot restores");
    m.set(
        "online.checker.restore_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );
    assert_eq!(revived.events(), checker.events());
}

/// `wire::encode_event` / `decode_event`: every appended and every
/// replayed record passes through them.
pub fn probe_wire(m: &mut Metrics, events: &[Event]) {
    let t0 = Instant::now();
    let encoded: Vec<Vec<u8>> = events.iter().map(wire::encode_event).collect();
    m.set("online.wire.encode_ns_per_event", ns_per(t0, events.len()));
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    m.set(
        "online.wire.bytes_per_event",
        bytes as f64 / events.len().max(1) as f64,
    );
    let t0 = Instant::now();
    for rec in &encoded {
        std::hint::black_box(wire::decode_event(rec).expect("own encoding decodes"));
    }
    m.set("online.wire.decode_ns_per_event", ns_per(t0, events.len()));
}

/// `proto::parse_frame` on the two frames every connection sends.
pub fn probe_proto(m: &mut Metrics) {
    const FRAMES: usize = 100_000;
    let frames = [
        "{\"op\": \"hello\", \"session\": \"ledger-session-a\"}",
        "{\"op\": \"resume\", \"session\": \"ledger-session-a\", \"verdicts\": 4096}",
    ];
    let t0 = Instant::now();
    for i in 0..FRAMES {
        std::hint::black_box(proto::parse_frame(frames[i % 2]).expect("well-formed frame"));
    }
    m.set("serve.proto.parse_frame_ns", ns_per(t0, FRAMES));
}

fn append_all(dir: &Path, fsync: FsyncPolicy, events: &[Event]) -> f64 {
    let cfg = LogConfig {
        fsync,
        ..LogConfig::default()
    };
    let mut log = SessionLog::create(dir, cfg, None).expect("fresh session dir");
    let t0 = Instant::now();
    for ev in events {
        log.append(ev).expect("append to a fresh log");
    }
    ns_per(t0, events.len())
}

/// `SessionLog::append` under each fsync policy. `always` pays a
/// `sync_data` per record, so it gets a short prefix.
pub fn probe_log_append(m: &mut Metrics, events: &[Event], scratch: &Path) {
    m.set(
        "serve.log.append_ns_never",
        append_all(&scratch.join("append-never"), FsyncPolicy::Never, events),
    );
    m.set(
        "serve.log.append_ns_interval",
        append_all(
            &scratch.join("append-interval"),
            FsyncPolicy::Interval,
            events,
        ),
    );
    let few = &events[..events.len().min(300)];
    m.set(
        "serve.log.append_us_always",
        append_all(&scratch.join("append-always"), FsyncPolicy::Always, few) / 1e3,
    );
}

/// `ReplicaSink::append`: the follower-side cost of one replicated
/// record (crc check, open, seek, write).
pub fn probe_replica_sink(m: &mut Metrics, events: &[Event], scratch: &Path) {
    let mut sink = ReplicaSink::new(scratch.join("sink"), FsyncPolicy::Interval);
    let few = &events[..events.len().min(20_000)];
    let mut off = 0u64;
    let t0 = Instant::now();
    for ev in few {
        let rec = wire::encode_event(ev);
        sink.append("probe", "seg-0.log", off, wire::crc32(&rec), &rec)
            .expect("contiguous append");
        off += rec.len() as u64;
    }
    m.set("serve.replica.sink_append_ns", ns_per(t0, few.len()));
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}
