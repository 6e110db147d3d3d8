//! E21 — what cross-node latency provenance costs, and what it shows.
//! PR 10 stamps sampled events with monotonic per-stage timestamps
//! from the client tap through ring handoff, sequencing, batch apply,
//! verdict emission, durable log append, replication publish and the
//! follower's acknowledged fsync, carrying trace ids across the wire
//! so one verdict renders as one flow across both nodes.
//!
//! Two parts, two kinds of claim:
//!
//! 1. **Overhead** (in-process): the E14/E16/E17 workload ingested
//!    with a [`TracePlane`] stamping the stream stages at the default
//!    1-in-32 cadence vs the identical run with no plane, best-of-N
//!    per side. Gates: byte-identical verdict NDJSON, and aggregate
//!    overhead within the 5% budget (half the E17 telemetry budget —
//!    stamping is four ring writes, not a histogram plane).
//! 2. **Provenance** (replicated, real processes): a leader
//!    `adya-serve` replicating to a follower, both with
//!    `--trace-propagate --trace-sample 1`; a tracing client streams a
//!    session and keeps per-verdict RTTs from the `"trace"`-annotated
//!    verdict lines. After the follower acknowledges the full log, the
//!    bench captures `/trace` from both nodes, merges the segments the
//!    way `adya-check trace-merge` does, and reports the p50/p99
//!    per-stage breakdown (leader clock, delta from tap), the
//!    follower's replicate→ack time (follower clock), the full
//!    tap→ack span and the client-observed commit→verdict RTT. Gates:
//!    the client ledger stays byte-identical to an untraced in-process
//!    reference, and at least one sampled verdict carries all eight
//!    stages across both lanes.
//!
//! `--report experiments/trace_provenance.json` persists everything;
//! `--seed/--txns/--serve-txns` make any run reproducible from the
//! report; `--budget-pct <p>` loosens the overhead ceiling for noisy
//! CI runners.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use adya_bench::{
    banner, http_get, note, overhead_history, overhead_pct, reference, replication_health,
    report_header, report_path_from_args, serve_bin, session_tokens, spawn_server, time_ingest,
    u64_from_args, verdict, Table, OVERHEAD_REPS,
};
use adya_obs::json::JsonWriter;
use adya_obs::trace::{merge_segments, parse_segment, Stage, TraceSegment, DEFAULT_TRACE_SAMPLE};
use adya_obs::TracePlane;
use adya_online::{GcConfig, OnlineChecker};
use adya_workloads::ServeClient;

struct SizeRun {
    txns: usize,
    events: usize,
    on_ns: u128,
    off_ns: u128,
    verdicts_identical: bool,
}

/// Best-of-[`OVERHEAD_REPS`] ingest time over `h`'s events with a
/// trace plane stamping the stream stages (tap/ring/seq before ingest,
/// apply after, verdict on emission — the `adya-check --stream` path)
/// at the default 1-in-[`DEFAULT_TRACE_SAMPLE`] cadence, or with no
/// plane at all, plus the verdict NDJSON stream for the parity gate.
fn time_traced(h: &adya_history::History, on: bool) -> (u128, Vec<String>) {
    time_ingest(|| {
        let mut c = OnlineChecker::with_gc(GcConfig::default());
        let plane = on.then(|| TracePlane::new("bench", "leader"));
        let mut cur = Vec::new();
        let start = Instant::now();
        for (seq, e) in h.events().iter().enumerate() {
            let tid = plane.as_ref().and_then(|p| {
                let id = p.sample("bench", seq as u64)?;
                p.stamp(id, Stage::Tap);
                p.stamp(id, Stage::Ring);
                p.stamp(id, Stage::Seq);
                Some(id)
            });
            let v = c.ingest(e);
            if let (Some(p), Some(id)) = (&plane, tid) {
                p.stamp(id, Stage::Apply);
                if v.is_some() {
                    p.stamp(id, Stage::Verdict);
                }
            }
            if let Some(v) = v {
                cur.push(v.to_json());
            }
        }
        cur.push(c.finish().to_json());
        (start.elapsed().as_nanos(), cur)
    })
}

fn run_size(txns: usize, seed: u64) -> SizeRun {
    let h = overhead_history(txns, seed);
    let (on_ns, on_lines) = time_traced(&h, true);
    let (off_ns, off_lines) = time_traced(&h, false);
    SizeRun {
        txns,
        events: h.events().len(),
        on_ns,
        off_ns,
        verdicts_identical: on_lines == off_lines,
    }
}

/// p50/p99 over a latency sample (nanoseconds).
struct Pct {
    count: u64,
    p50: u64,
    p99: u64,
}

fn percentiles(mut v: Vec<u64>) -> Pct {
    if v.is_empty() {
        return Pct {
            count: 0,
            p50: 0,
            p99: 0,
        };
    }
    v.sort_unstable();
    let at = |p: usize| v[(v.len() * p / 100).min(v.len() - 1)];
    Pct {
        count: v.len() as u64,
        p50: at(50),
        p99: at(99),
    }
}

/// Per-trace stage timestamps from one node's segment.
fn by_trace(seg: &TraceSegment) -> BTreeMap<u64, BTreeMap<Stage, u64>> {
    let mut out: BTreeMap<u64, BTreeMap<Stage, u64>> = BTreeMap::new();
    for s in &seg.stamps {
        out.entry(s.trace).or_default().insert(s.stage, s.t_ns);
    }
    out
}

/// The replicated run's findings.
struct Provenance {
    txns: u64,
    client_verdicts: u64,
    serve_parity: bool,
    sampled_traces: u64,
    complete_traces: u64,
    /// Delta from the leader's tap stamp, leader clock, per stage.
    leader_stages: Vec<(Stage, Pct)>,
    follower_repl_to_ack: Pct,
    tap_to_ack: Pct,
    client_rtt: Pct,
    merged_ok: bool,
}

fn run_replicated(seed: u64, txns: u64) -> Provenance {
    let bin = serve_bin();
    assert!(
        bin.exists(),
        "adya-serve binary not found at {} — build it first (cargo build --release) \
         or set ADYA_SERVE_BIN",
        bin.display()
    );
    let base = std::env::temp_dir().join(format!("adya-trace-provenance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    // Every event sampled, on both nodes.
    let traced = ["--trace-propagate", "--trace-sample", "1"];
    let (follower, faddr) = spawn_server(
        &bin,
        &base.join("follower"),
        "127.0.0.1:0",
        &[&traced[..], &["--follower", "--node", "follower"]].concat(),
    );
    let (leader, laddr) = spawn_server(
        &bin,
        &base.join("leader"),
        "127.0.0.1:0",
        &[&traced[..], &["--replicate-to", &faddr, "--node", "leader"]].concat(),
    );
    note(&format!(
        "leader pid {} on {laddr} -> follower pid {} on {faddr}, tracing 1-in-1",
        leader.0.id(),
        follower.0.id(),
    ));

    let tokens = session_tokens(0, seed, txns);
    let mut client = ServeClient::hello_traced(&laddr, "e21", true).expect("hello");
    for tok in &tokens {
        client.send_token(tok).expect("send token");
    }
    let (want_verdicts, want_final) = reference(&tokens);
    let serve_stream_ok = client.verdicts() == &want_verdicts[..];
    let client_verdicts = client.verdicts().len() as u64;
    let rtts: Vec<u64> = client.trace_rtts().iter().map(|&(_, ns)| ns).collect();
    let fin = client.close().expect("close");
    let serve_parity = serve_stream_ok && fin == want_final;

    // Wait for the follower to acknowledge the whole log so every
    // in-flight trace gets its replicate/ack stamps.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, health) = http_get(&laddr, "/health");
        if replication_health(&health, "max_lag_records") == Some(0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower never caught up: {health}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let (ls, leader_trace) = http_get(&laddr, "/trace");
    let (fs, follower_trace) = http_get(&faddr, "/trace");
    assert_eq!((ls, fs), (200, 200), "/trace must serve on both nodes");
    drop(leader);
    drop(follower);
    let _ = std::fs::remove_dir_all(&base);

    let lseg = parse_segment(&leader_trace).expect("leader /trace parses");
    let fseg = parse_segment(&follower_trace).expect("follower /trace parses");
    let merged = merge_segments(&[lseg.clone(), fseg.clone()]);
    let merged_ok = merged.contains("\"clock_offsets\"") && merged.contains("\"traces\"");

    let lt = by_trace(&lseg);
    let ft = by_trace(&fseg);
    let mut leader_deltas: BTreeMap<Stage, Vec<u64>> = BTreeMap::new();
    let mut repl_ack = Vec::new();
    let mut tap_ack = Vec::new();
    let mut complete = 0u64;
    for (id, stages) in &lt {
        let Some(&tap) = stages.get(&Stage::Tap) else {
            continue;
        };
        for (&stage, &t) in stages {
            if stage != Stage::Tap {
                leader_deltas
                    .entry(stage)
                    .or_default()
                    .push(t.saturating_sub(tap));
            }
        }
        if let Some(&ack) = stages.get(&Stage::Ack) {
            tap_ack.push(ack.saturating_sub(tap));
        }
        let follower_stages = ft.get(id);
        if let Some(fstages) = follower_stages {
            if let (Some(&r), Some(&a)) = (fstages.get(&Stage::Replicate), fstages.get(&Stage::Ack))
            {
                repl_ack.push(a.saturating_sub(r));
            }
        }
        let both: std::collections::BTreeSet<Stage> = stages
            .keys()
            .chain(follower_stages.into_iter().flat_map(BTreeMap::keys))
            .copied()
            .collect();
        if Stage::ALL.iter().all(|s| both.contains(s)) {
            complete += 1;
        }
    }

    Provenance {
        txns,
        client_verdicts,
        serve_parity,
        sampled_traces: lt.len() as u64,
        complete_traces: complete,
        leader_stages: Stage::ALL
            .into_iter()
            .filter(|s| *s != Stage::Tap)
            .map(|s| (s, percentiles(leader_deltas.remove(&s).unwrap_or_default())))
            .collect(),
        follower_repl_to_ack: percentiles(repl_ack),
        tap_to_ack: percentiles(tap_ack),
        client_rtt: percentiles(rtts),
        merged_ok,
    }
}

#[allow(clippy::too_many_arguments)]
fn write_report(
    path: &str,
    seed: u64,
    budget_pct: u64,
    runs: &[SizeRun],
    prov: &Provenance,
) -> std::io::Result<()> {
    let mut w = JsonWriter::new();
    report_header(
        &mut w,
        "trace_provenance",
        seed,
        &[
            ("reps", OVERHEAD_REPS as u64),
            ("sample_every", DEFAULT_TRACE_SAMPLE),
            ("budget_pct", budget_pct),
        ],
    );
    w.open_array(Some("runs"));
    for r in runs {
        w.open_object(None);
        w.u64_field("txns", r.txns as u64);
        w.u64_field("events", r.events as u64);
        w.u64_field("trace_on_ns", r.on_ns as u64);
        w.u64_field("trace_off_ns", r.off_ns as u64);
        // Basis-point overhead keeps the minimal writer integral.
        let bp = ((r.on_ns as f64 - r.off_ns as f64) / r.off_ns.max(1) as f64 * 10_000.0) as i64;
        w.u64_field("overhead_bp", bp.max(0) as u64);
        w.bool_field("verdicts_identical", r.verdicts_identical);
        w.close_object();
    }
    w.close_array();
    let on: u128 = runs.iter().map(|r| r.on_ns).sum();
    let off: u128 = runs.iter().map(|r| r.off_ns).sum();
    w.u64_field("total_on_ns", on as u64);
    w.u64_field("total_off_ns", off as u64);
    w.u64_field(
        "total_overhead_bp",
        (overhead_pct(on, off) * 100.0).max(0.0) as u64,
    );
    w.bool_field(
        "within_budget",
        overhead_pct(on, off) <= budget_pct as f64 && runs.iter().all(|r| r.verdicts_identical),
    );
    w.open_object(Some("replicated"));
    w.u64_field("txns", prov.txns);
    w.u64_field("client_verdicts", prov.client_verdicts);
    w.bool_field("serve_parity", prov.serve_parity);
    w.u64_field("sampled_traces", prov.sampled_traces);
    w.u64_field("complete_traces", prov.complete_traces);
    w.bool_field("all_stages_observed", prov.complete_traces > 0);
    w.bool_field("merged_ok", prov.merged_ok);
    // Leader-clock latency from the tap stamp to each later stage.
    w.open_array(Some("stages_from_tap"));
    for (stage, p) in &prov.leader_stages {
        w.open_object(None);
        w.str_field("stage", stage.as_str());
        w.u64_field("count", p.count);
        w.u64_field("p50_ns", p.p50);
        w.u64_field("p99_ns", p.p99);
        w.close_object();
    }
    w.close_array();
    w.u64_field(
        "follower_replicate_to_ack_p50_ns",
        prov.follower_repl_to_ack.p50,
    );
    w.u64_field(
        "follower_replicate_to_ack_p99_ns",
        prov.follower_repl_to_ack.p99,
    );
    w.u64_field("tap_to_ack_p50_ns", prov.tap_to_ack.p50);
    w.u64_field("tap_to_ack_p99_ns", prov.tap_to_ack.p99);
    w.u64_field("client_rtt_p50_ns", prov.client_rtt.p50);
    w.u64_field("client_rtt_p99_ns", prov.client_rtt.p99);
    w.close_object();
    w.close_object();
    let mut json = w.finish();
    json.push('\n');
    std::fs::write(path, json)
}

fn main() {
    banner("Trace provenance: per-verdict latency from client tap to replicated ack");
    let report_path = report_path_from_args();
    let seed = u64_from_args("seed", 42);
    // Smoke mode for CI: `--txns N` runs one small overhead size
    // instead of the full sweep.
    let smoke_txns = u64_from_args("txns", 0);
    let serve_txns = u64_from_args("serve-txns", 120);
    // The claim is ≤5%; CI smoke passes a looser regression ceiling
    // because shared runners are noisy — E16/E17 do the same.
    let budget_pct = u64_from_args("budget-pct", 5);

    let sizes: Vec<usize> = if smoke_txns > 0 {
        vec![smoke_txns as usize]
    } else {
        vec![128, 256, 512, 1024]
    };
    let runs: Vec<SizeRun> = sizes.iter().map(|&n| run_size(n, seed)).collect();

    let mut table = Table::new(&[
        "txns",
        "events",
        "trace on µs",
        "trace off µs",
        "overhead",
        "verdicts identical",
    ]);
    for r in &runs {
        table.row(&[
            r.txns.to_string(),
            r.events.to_string(),
            (r.on_ns / 1000).to_string(),
            (r.off_ns / 1000).to_string(),
            format!("{:+.1}%", overhead_pct(r.on_ns, r.off_ns)),
            if r.verdicts_identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", table.render());

    let on: u128 = runs.iter().map(|r| r.on_ns).sum();
    let off: u128 = runs.iter().map(|r| r.off_ns).sum();
    let agg = overhead_pct(on, off);
    note(&format!(
        "aggregate ingest overhead with 1-in-{DEFAULT_TRACE_SAMPLE} stage stamping: {agg:+.1}%"
    ));

    let prov = run_replicated(seed, serve_txns);
    let mut stages = Table::new(&["stage", "count", "p50 µs", "p99 µs"]);
    for (stage, p) in &prov.leader_stages {
        stages.row(&[
            format!("tap→{}", stage.as_str()),
            p.count.to_string(),
            format!("{:.1}", p.p50 as f64 / 1000.0),
            format!("{:.1}", p.p99 as f64 / 1000.0),
        ]);
    }
    stages.row(&[
        "replicate→ack (follower)".to_string(),
        prov.follower_repl_to_ack.count.to_string(),
        format!("{:.1}", prov.follower_repl_to_ack.p50 as f64 / 1000.0),
        format!("{:.1}", prov.follower_repl_to_ack.p99 as f64 / 1000.0),
    ]);
    stages.row(&[
        "client commit→verdict".to_string(),
        prov.client_rtt.count.to_string(),
        format!("{:.1}", prov.client_rtt.p50 as f64 / 1000.0),
        format!("{:.1}", prov.client_rtt.p99 as f64 / 1000.0),
    ]);
    println!("{}", stages.render());
    note(&format!(
        "{} sampled traces, {} complete across both lanes; tap→ack p50 {:.1} µs / p99 {:.1} µs",
        prov.sampled_traces,
        prov.complete_traces,
        prov.tap_to_ack.p50 as f64 / 1000.0,
        prov.tap_to_ack.p99 as f64 / 1000.0,
    ));

    let identical = runs.iter().all(|r| r.verdicts_identical);
    let within = agg <= budget_pct as f64;
    if !identical {
        note("  stamping altered a verdict stream — provenance must observe, never alter");
    }
    if !within {
        note(&format!(
            "  aggregate overhead {agg:+.1}% exceeds the {budget_pct}% budget"
        ));
    }
    if !prov.serve_parity {
        note("  the traced client ledger diverged from the untraced reference");
    }
    if prov.complete_traces == 0 {
        note("  no sampled verdict carried all eight stages across both lanes");
    }

    if let Some(path) = &report_path {
        match write_report(path, seed, budget_pct, &runs, &prov) {
            Ok(()) => note(&format!("report written to {path}")),
            Err(e) => {
                eprintln!("trace_provenance: cannot write report {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    verdict(
        "E21 trace provenance",
        identical && within && prov.serve_parity && prov.merged_ok && prov.complete_traces > 0,
    );
}
