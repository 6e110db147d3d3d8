//! E20 — replica failover: leader/follower session-log replication
//! under concurrent tenants and a leader SIGKILL. The bench spawns a
//! real follower `adya-serve`, a leader replicating every durable log
//! byte to it, streams N concurrent sessions at the leader, samples
//! the leader's acknowledged replication lag, SIGKILLs the leader with
//! every session mid-stream — and never restarts it. Clients fail over
//! to the follower on their multi-endpoint list, promote it, and
//! finish their streams there.
//!
//! The three properties below are also tier-1's
//! (`tests/replica.rs::leader_sigkill_fails_over_to_promoted_follower_byte_identically`);
//! this binary stays for the two numbers no ledger row reports yet:
//! lag at kill and client-observed failover latency.
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

use std::sync::Barrier;
use std::time::Instant;

use adya_bench::{
    banner, http_get, note, reference, replication_health, session_tokens, spawn_server,
    u64_from_args, verdict, write_report, Table,
};
use adya_workloads::{ClientError, RetryPolicy, ServeClient};

/// One session's outcome across the leader kill.
struct SessionRun {
    name: String,
    /// Event tokens sent, verdict lines received.
    events: u64,
    verdicts: u64,
    /// Resumes against another endpoint.
    failovers: u64,
    /// Client-observed recovery latency — reconnect backoff, endpoint
    /// rotation, redirects and promotion included — summed over all
    /// failovers.
    failover_micros: u128,
    /// The verdict ledger matched the uninterrupted reference; so did
    /// the final verdict.
    stream_ok: bool,
    final_ok: bool,
}

impl SessionRun {
    /// Byte-identical to the reference, final verdict included.
    fn ok(&self) -> bool {
        self.stream_ok && self.final_ok
    }
}

/// Streams a whole session around the leader kill: half the tokens,
/// two waits on `barrier` while the caller kills the leader, the rest,
/// then close. Transport errors anywhere turn into a timed resume
/// against `endpoints`.
fn run_session(
    endpoints: &str,
    session: u64,
    seed: u64,
    txns: u64,
    barrier: &Barrier,
) -> SessionRun {
    let tokens = session_tokens(session, seed, txns);
    let name = format!("tenant-{session}");
    let mut client = ServeClient::hello(endpoints, &name).expect("hello");
    let mut failovers = 0u64;
    let mut failover_micros = 0u128;
    let policy = RetryPolicy {
        deadline_ops: Some(4_000),
        ..RetryPolicy::default()
    };
    let mut send = |client: &mut ServeClient, tok: &str| match client.send_token(tok) {
        Ok(()) => {}
        Err(ClientError::Io(_)) => {
            let t0 = Instant::now();
            client
                .resume(&policy, seed ^ session)
                .unwrap_or_else(|e| panic!("{name}: resume failed: {e}"));
            failover_micros += t0.elapsed().as_micros();
            failovers += 1;
        }
        Err(e) => panic!("{name}: protocol error on {tok:?}: {e}"),
    };

    let half = tokens.len() / 2;
    for tok in &tokens[..half] {
        send(&mut client, tok);
    }
    barrier.wait(); // everyone is mid-stream
    barrier.wait(); // the server has been killed
    for tok in &tokens[half..] {
        send(&mut client, tok);
    }

    let (want_verdicts, want_final) = reference(&tokens);
    let stream_ok = client.verdicts() == &want_verdicts[..];
    let events = client.tokens_sent() as u64;
    let verdicts = client.verdicts().len() as u64;
    let fin = client.close().expect("close");
    SessionRun {
        name,
        events,
        verdicts,
        failovers,
        failover_micros,
        stream_ok,
        final_ok: fin == want_final,
    }
}

fn main() {
    banner("Replica failover: leader SIGKILL, follower promotion, verdict parity");
    let seed = u64_from_args("seed", 0xFA110);
    let sessions = u64_from_args("sessions", 4).max(1);
    let budget_pct = u64_from_args("budget-pct", 100).clamp(1, 100);
    let txns = (u64_from_args("txns", 120) * budget_pct / 100).max(8);
    note(&format!(
        "seed {seed}, {sessions} concurrent sessions x {txns} txns (budget {budget_pct}%)"
    ));

    let base = std::env::temp_dir().join(format!("adya-replica-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (follower, faddr) = spawn_server(&base.join("follower"), &["--follower"]);
    let (leader, laddr) = spawn_server(&base.join("leader"), &["--replicate-to", &faddr]);
    note(&format!(
        "leader pid {} on {laddr} -> follower pid {} on {faddr}",
        leader.0.id(),
        follower.0.id(),
    ));
    let endpoints = format!("{laddr},{faddr}");

    let start = Instant::now();
    let barrier = Barrier::new(sessions as usize + 1);
    let (mut lag_records_at_kill, mut lag_bytes_at_kill) = (0, 0);
    let runs: Vec<SessionRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                let (endpoints, barrier) = (&endpoints, &barrier);
                scope.spawn(move || run_session(endpoints, s, seed, txns, barrier))
            })
            .collect();
        barrier.wait(); // every session is mid-stream

        // Sample the acknowledged replication lag the follower will have
        // to absorb, then SIGKILL the leader — and never bring it back.
        let (_, health) = http_get(&laddr, "/health");
        lag_records_at_kill = replication_health(&health, "max_lag_records").unwrap_or(0);
        lag_bytes_at_kill = replication_health(&health, "max_lag_bytes").unwrap_or(0);
        drop(leader); // SIGKILL — no flush, no goodbye
        note(&format!(
            "leader killed mid-stream; acknowledged lag {lag_records_at_kill} records / {lag_bytes_at_kill} bytes"
        ));
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });
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
            r.failovers.to_string(),
            format!("{:.1}", r.failover_micros as f64 / 1000.0),
            if r.stream_ok { "ok" } else { "FAIL" }.to_string(),
            if r.final_ok { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    println!("{}", table.render());

    let total_events: u64 = runs.iter().map(|r| r.events).sum();
    let total_failovers: u64 = runs.iter().map(|r| r.failovers).sum();
    let max_failover: u128 = runs.iter().map(|r| r.failover_micros).max().unwrap_or(0);
    let events_per_sec = total_events as f64 / elapsed.as_secs_f64().max(1e-9);
    note(&format!(
        "{events_per_sec:.0} events/sec, {total_failovers} failovers, worst client-observed failover {:.1} ms",
        max_failover as f64 / 1000.0,
    ));

    let parity = runs.iter().all(SessionRun::ok);
    let all_failed_over = runs.iter().all(|r| r.failovers >= 1);
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

    write_report(
        "replica_failover",
        seed,
        &[
            ("sessions", runs.len() as u64),
            ("txns_per_session", txns),
            ("budget_pct", budget_pct),
        ],
        |w| {
            w.u64_field("events_total", total_events);
            w.u64_field("verdicts_total", runs.iter().map(|r| r.verdicts).sum());
            w.u64_field("failovers_total", total_failovers);
            w.u64_field("repl_lag_records_at_kill", lag_records_at_kill);
            w.u64_field("repl_lag_bytes_at_kill", lag_bytes_at_kill);
            w.u64_field("failover_micros_max", max_failover as u64);
            w.u64_field("elapsed_micros", elapsed.as_micros() as u64);
            w.u64_field("events_per_sec", events_per_sec as u64);
            w.bool_field("follower_promoted", promoted);
            w.bool_field("parity_ok", parity);
            w.open_array(Some("per_session"));
            for r in &runs {
                w.open_object(None);
                w.str_field("session", &r.name);
                w.u64_field("events", r.events);
                w.u64_field("verdicts", r.verdicts);
                w.u64_field("failovers", r.failovers);
                w.u64_field("failover_micros", r.failover_micros as u64);
                w.bool_field("stream_parity", r.stream_ok);
                w.bool_field("final_parity", r.final_ok);
                w.close_object();
            }
            w.close_array();
        },
    );
    verdict(
        "E20 replica failover",
        parity && all_failed_over && promoted,
    );
}
