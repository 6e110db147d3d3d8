//! E20 — replica failover: leader/follower session-log replication
//! under concurrent tenants and a leader SIGKILL. The bench spawns a
//! real follower `adya-serve`, a leader replicating every durable log
//! byte to it, streams N concurrent sessions at the leader, samples
//! the leader's acknowledged replication lag, SIGKILLs the leader with
//! every session mid-stream — and never restarts it. Clients fail over
//! to the follower on their multi-endpoint list, promote it, and
//! finish their streams there.
//!
//! Three properties must hold on every run:
//!
//! 1. **Verdict-stream parity.** Each session's verdict ledger,
//!    continued on the promoted follower, must be byte-identical to an
//!    uninterrupted in-process run of the same tokens, final verdict
//!    included — even when the follower's acknowledged prefix trailed
//!    the leader at the moment of the kill.
//! 2. **Every session failed over.** The kill lands with all sessions
//!    mid-stream, so each must reconnect at least once.
//! 3. **The follower was actually promoted** — its `/health` reports
//!    the leader role afterwards.
//!
//! Reported: replication lag at kill time (records + bytes, as last
//! acknowledged by the follower), per-session client-observed failover
//! latency (rotation, redirects and promotion included), events/sec
//! and the parity bits, into `--report experiments/replica_failover.json`.
//! `--budget-pct <p>` scales the per-session transaction count to p%
//! for CI smoke runs; `--seed/--sessions/--txns` make any run
//! reproducible from its report.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use adya_bench::{
    banner, http_get, note, replication_health, report_header, report_path_from_args, run_session,
    serve_bin, spawn_server, u64_from_args, verdict, SessionRun, Table,
};
use adya_obs::json::JsonWriter;

#[allow(clippy::too_many_arguments)]
fn write_report(
    path: &str,
    seed: u64,
    txns: u64,
    budget_pct: u64,
    runs: &[SessionRun],
    lag_records_at_kill: u64,
    lag_bytes_at_kill: u64,
    promoted: bool,
    elapsed: Duration,
) -> std::io::Result<()> {
    let total_events: u64 = runs.iter().map(|r| r.events).sum();
    let total_verdicts: u64 = runs.iter().map(|r| r.verdicts).sum();
    let total_failovers: u64 = runs.iter().map(|r| u64::from(r.resumes)).sum();
    let max_failover: u128 = runs.iter().map(|r| r.resume_micros).max().unwrap_or(0);
    let secs = elapsed.as_secs_f64().max(1e-9);
    let mut w = JsonWriter::new();
    report_header(
        &mut w,
        "replica_failover",
        seed,
        &[
            ("sessions", runs.len() as u64),
            ("txns_per_session", txns),
            ("budget_pct", budget_pct),
        ],
    );
    w.u64_field("events_total", total_events);
    w.u64_field("verdicts_total", total_verdicts);
    w.u64_field("failovers_total", total_failovers);
    w.u64_field("repl_lag_records_at_kill", lag_records_at_kill);
    w.u64_field("repl_lag_bytes_at_kill", lag_bytes_at_kill);
    w.u64_field("failover_micros_max", max_failover as u64);
    w.u64_field("elapsed_micros", elapsed.as_micros() as u64);
    w.u64_field("events_per_sec", (total_events as f64 / secs) as u64);
    w.bool_field("follower_promoted", promoted);
    w.bool_field("parity_ok", runs.iter().all(SessionRun::ok));
    w.open_array(Some("per_session"));
    for r in runs {
        w.open_object(None);
        w.str_field("session", &r.name);
        w.u64_field("events", r.events);
        w.u64_field("verdicts", r.verdicts);
        w.u64_field("failovers", u64::from(r.resumes));
        w.u64_field("failover_micros", r.resume_micros as u64);
        w.bool_field("stream_parity", r.stream_ok);
        w.bool_field("final_parity", r.final_ok);
        w.close_object();
    }
    w.close_array();
    w.close_object();
    let mut json = w.finish();
    json.push('\n');
    std::fs::write(path, json)
}

fn main() {
    banner("Replica failover: leader SIGKILL, follower promotion, verdict parity");
    let report_path = report_path_from_args();
    let seed = u64_from_args("seed", 0xFA110);
    let sessions = u64_from_args("sessions", 4).max(1);
    let budget_pct = u64_from_args("budget-pct", 100).clamp(1, 100);
    let txns = (u64_from_args("txns", 120) * budget_pct / 100).max(8);
    note(&format!(
        "seed {seed}, {sessions} concurrent sessions x {txns} txns (budget {budget_pct}%)"
    ));

    let bin = serve_bin();
    assert!(
        bin.exists(),
        "adya-serve binary not found at {} — build it first (cargo build --release) \
         or set ADYA_SERVE_BIN",
        bin.display()
    );
    let base = std::env::temp_dir().join(format!("adya-replica-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (follower, faddr) =
        spawn_server(&bin, &base.join("follower"), "127.0.0.1:0", &["--follower"]);
    let (leader, laddr) = spawn_server(
        &bin,
        &base.join("leader"),
        "127.0.0.1:0",
        &["--replicate-to", &faddr],
    );
    note(&format!(
        "leader pid {} on {laddr} -> follower pid {} on {faddr}",
        leader.0.id(),
        follower.0.id(),
    ));
    let endpoints = format!("{laddr},{faddr}");

    let start = Instant::now();
    let barrier = Arc::new(Barrier::new(sessions as usize + 1));
    let mut handles = Vec::new();
    for s in 0..sessions {
        let endpoints = endpoints.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            run_session(&endpoints, s, seed, txns, &barrier)
        }));
    }

    barrier.wait(); // every session is mid-stream
                    // Sample the acknowledged replication lag the follower will have
                    // to absorb, then SIGKILL the leader — and never bring it back.
    let (_, health) = http_get(&laddr, "/health");
    let lag_records_at_kill = replication_health(&health, "max_lag_records").unwrap_or(0);
    let lag_bytes_at_kill = replication_health(&health, "max_lag_bytes").unwrap_or(0);
    drop(leader); // SIGKILL — no flush, no goodbye
    note(&format!(
        "leader killed mid-stream; acknowledged lag {lag_records_at_kill} records / {lag_bytes_at_kill} bytes"
    ));
    barrier.wait();

    let runs: Vec<SessionRun> = handles
        .into_iter()
        .map(|h| h.join().expect("session thread"))
        .collect();
    let elapsed = start.elapsed();
    let (_, fhealth) = http_get(&faddr, "/health");
    let promoted = fhealth.contains("\"role\": \"leader\"");
    drop(follower);
    let _ = std::fs::remove_dir_all(&base);

    let mut table = Table::new(&[
        "session",
        "events",
        "verdicts",
        "failovers",
        "failover ms",
        "stream",
        "final",
    ]);
    for r in &runs {
        table.row(&[
            r.name.clone(),
            r.events.to_string(),
            r.verdicts.to_string(),
            r.resumes.to_string(),
            format!("{:.1}", r.resume_micros as f64 / 1000.0),
            if r.stream_ok { "ok" } else { "FAIL" }.to_string(),
            if r.final_ok { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    println!("{}", table.render());

    let total_events: u64 = runs.iter().map(|r| r.events).sum();
    let total_failovers: u32 = runs.iter().map(|r| r.resumes).sum();
    let max_failover: u128 = runs.iter().map(|r| r.resume_micros).max().unwrap_or(0);
    let secs = elapsed.as_secs_f64().max(1e-9);
    note(&format!(
        "{:.0} events/sec, {total_failovers} failovers, worst client-observed failover {:.1} ms",
        total_events as f64 / secs,
        max_failover as f64 / 1000.0,
    ));

    let parity = runs.iter().all(SessionRun::ok);
    let all_failed_over = runs.iter().all(|r| r.resumes >= 1);
    if !all_failed_over {
        note("  a session never failed over — the kill missed it; run is vacuous");
    }
    if !promoted {
        note("  the follower never reported the leader role after failover");
    }
    for r in runs.iter().filter(|r| !r.ok()) {
        note(&format!(
            "  {}: stream_parity={} final_parity={}",
            r.name, r.stream_ok, r.final_ok
        ));
    }

    if let Some(path) = &report_path {
        match write_report(
            path,
            seed,
            txns,
            budget_pct,
            &runs,
            lag_records_at_kill,
            lag_bytes_at_kill,
            promoted,
            elapsed,
        ) {
            Ok(()) => note(&format!("report written to {path}")),
            Err(e) => {
                eprintln!("replica_failover: cannot write report {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    verdict(
        "E20 replica failover",
        parity && all_failed_over && promoted,
    );
}
