//! E21 — what cross-node latency provenance costs, and what it shows.
//! PR 10 stamps sampled events with monotonic per-stage timestamps
//! from the client tap through ring handoff, sequencing, batch apply,
//! verdict emission, durable log append, replication publish and the
//! follower's acknowledged fsync, carrying trace ids across the wire
//! so one verdict renders as one flow across both nodes.
//!
//! Two parts, two kinds of claim:
//!
//! 1. **Overhead** (in-process): [`adya_bench::overhead`]'s on/off
//!    sweep, a [`TracePlane`] stamping the stream stages at the default
//!    1-in-32 cadence vs the identical run with no plane. Gates:
//!    byte-identical verdict NDJSON, and aggregate overhead within the
//!    5% budget (half E17's — four ring writes, not a histogram plane).
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

use adya_bench::overhead::{sizes_from_args, Labels, Sweep, OVERHEAD_REPS};
use adya_bench::{
    banner, http_get, note, reference, replication_health, session_tokens, spawn_server,
    u64_from_args, verdict, write_report, Table,
};
use adya_obs::json::JsonWriter;
use adya_obs::trace::{merge_segments, parse_segment, Stage, TraceSegment, DEFAULT_TRACE_SAMPLE};
use adya_obs::{TracePlane, Traced};
use adya_online::{GcConfig, OnlineChecker};
use adya_workloads::ServeClient;

/// One timed ingest of `h`'s events with a trace plane stamping the
/// stream stages (tap/ring/seq before ingest, apply after, verdict on
/// emission — the `adya-check --stream` path) at the default
/// 1-in-[`DEFAULT_TRACE_SAMPLE`] cadence, or with no plane at all,
/// plus the verdict NDJSON stream for the parity gate.
fn ingest(h: &adya_history::History, on: bool) -> (u128, Vec<String>) {
    let mut c = OnlineChecker::with_gc(GcConfig::default());
    let plane = on.then(|| TracePlane::new("bench", "leader"));
    let mut cur = Vec::new();
    let start = Instant::now();
    for (seq, e) in h.events().iter().enumerate() {
        let traced = (plane.as_ref()).map_or(Traced::OFF, |p| p.begin("bench", seq as u64));
        traced.stamp(Stage::Tap);
        traced.stamp(Stage::Ring);
        traced.stamp(Stage::Seq);
        let v = c.ingest(e);
        traced.stamp(Stage::Apply);
        if v.is_some() {
            traced.stamp(Stage::Verdict);
        }
        if let Some(v) = v {
            cur.push(v.to_json());
        }
    }
    cur.push(c.finish().to_json());
    (start.elapsed().as_nanos(), cur)
}

/// p50/p99 over a latency sample (nanoseconds).
#[derive(Default)]
struct Pct {
    count: u64,
    p50: u64,
    p99: u64,
}

fn percentiles(mut v: Vec<u64>) -> Pct {
    if v.is_empty() {
        return Pct::default();
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
    let base = std::env::temp_dir().join(format!("adya-trace-provenance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    // Every event sampled, on both nodes.
    let traced = ["--trace-propagate", "--trace-sample", "1"];
    let (follower, faddr) = spawn_server(
        &base.join("follower"),
        &[&traced[..], &["--follower", "--node", "follower"]].concat(),
    );
    let (leader, laddr) = spawn_server(
        &base.join("leader"),
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
        let seen = |s| stages.contains_key(s) || follower_stages.is_some_and(|f| f.contains_key(s));
        if Stage::ALL.iter().all(seen) {
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

impl Provenance {
    /// The report's `replicated` object.
    fn report(&self, w: &mut JsonWriter) {
        w.open_object(Some("replicated"));
        w.u64_field("txns", self.txns);
        w.u64_field("client_verdicts", self.client_verdicts);
        w.bool_field("serve_parity", self.serve_parity);
        w.u64_field("sampled_traces", self.sampled_traces);
        w.u64_field("complete_traces", self.complete_traces);
        w.bool_field("all_stages_observed", self.complete_traces > 0);
        w.bool_field("merged_ok", self.merged_ok);
        // Leader-clock latency from the tap stamp to each later stage.
        w.open_array(Some("stages_from_tap"));
        for (stage, p) in &self.leader_stages {
            w.open_object(None);
            w.str_field("stage", stage.as_str());
            w.u64_field("count", p.count);
            w.u64_field("p50_ns", p.p50);
            w.u64_field("p99_ns", p.p99);
            w.close_object();
        }
        w.close_array();
        for (span, p) in [
            ("follower_replicate_to_ack", &self.follower_repl_to_ack),
            ("tap_to_ack", &self.tap_to_ack),
            ("client_rtt", &self.client_rtt),
        ] {
            w.u64_field(&format!("{span}_p50_ns"), p.p50);
            w.u64_field(&format!("{span}_p99_ns"), p.p99);
        }
        w.close_object();
    }
}

fn main() {
    banner("Trace provenance: per-verdict latency from client tap to replicated ack");
    let seed = u64_from_args("seed", 42);
    let serve_txns = u64_from_args("serve-txns", 120);
    // The claim is ≤5%; CI smoke passes a looser regression ceiling
    // because shared runners are noisy — E17 does the same.
    let budget_pct = u64_from_args("budget-pct", 5);

    let sweep = Sweep::run(Labels::TRACE, &sizes_from_args(), seed, ingest);
    println!("{}", sweep.table());
    note(&format!(
        "aggregate ingest overhead with 1-in-{DEFAULT_TRACE_SAMPLE} stage stamping: {:+.1}%",
        sweep.overhead_pct()
    ));

    let prov = run_replicated(seed, serve_txns);
    let mut stages = Table::new(&["stage", "count", "p50 µs", "p99 µs"]);
    let mut stage_row = |label: String, p: &Pct| {
        stages.row(&[
            label,
            p.count.to_string(),
            format!("{:.1}", p.p50 as f64 / 1000.0),
            format!("{:.1}", p.p99 as f64 / 1000.0),
        ]);
    };
    for (stage, p) in &prov.leader_stages {
        stage_row(format!("tap→{}", stage.as_str()), p);
    }
    stage_row(
        "replicate→ack (follower)".into(),
        &prov.follower_repl_to_ack,
    );
    stage_row("client commit→verdict".into(), &prov.client_rtt);
    println!("{}", stages.render());
    note(&format!(
        "{} sampled traces, {} complete across both lanes; tap→ack p50 {:.1} µs / p99 {:.1} µs",
        prov.sampled_traces,
        prov.complete_traces,
        prov.tap_to_ack.p50 as f64 / 1000.0,
        prov.tap_to_ack.p99 as f64 / 1000.0,
    ));

    if !prov.serve_parity {
        note("  the traced client ledger diverged from the untraced reference");
    }
    if prov.complete_traces == 0 {
        note("  no sampled verdict carried all eight stages across both lanes");
    }

    write_report(
        "trace_provenance",
        seed,
        &[
            ("reps", OVERHEAD_REPS as u64),
            ("sample_every", DEFAULT_TRACE_SAMPLE),
            ("budget_pct", budget_pct),
        ],
        |w| {
            sweep.report(w, Some(budget_pct));
            prov.report(w);
        },
    );
    verdict(
        "E21 trace provenance",
        sweep.passes(budget_pct) && prov.serve_parity && prov.merged_ok && prov.complete_traces > 0,
    );
}
