//! E18 — serve soak: the durable checker service under concurrent
//! tenants and a mid-stream kill. The bench spawns a real `adya-serve`
//! process, streams N concurrent sessions against it through
//! [`adya_workloads::ServeClient`], SIGKILLs the server when every
//! session is mid-stream, restarts it on the same address, and lets
//! every client resume under the workloads retry/backoff policy.
//!
//! Two properties must hold on every run:
//!
//! 1. **Verdict-stream parity.** Each session's verdict ledger —
//!    absorbed across the kill via snapshot + log-tail recovery and
//!    the resume replay window — must be byte-identical to an
//!    uninterrupted in-process run of the same tokens, final verdict
//!    included.
//! 2. **Every session resumed.** A kill with all sessions mid-stream
//!    must force at least one reconnect per session, or the soak
//!    proved nothing about recovery.
//!
//! Reported: sessions/sec, events/sec, per-session recovery latency
//! (client-observed, reconnect backoff included) and the parity bits,
//! into `--report experiments/serve_soak.json`. `--budget-pct <p>`
//! scales the per-session transaction count to p% for CI smoke runs;
//! `--seed/--sessions/--txns` make any run reproducible from its
//! report.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use adya_bench::{
    banner, note, report_header, report_path_from_args, run_session, serve_bin, spawn_server,
    u64_from_args, verdict, SessionRun, Table,
};
use adya_obs::json::JsonWriter;

#[allow(clippy::too_many_arguments)]
fn write_report(
    path: &str,
    seed: u64,
    txns: u64,
    budget_pct: u64,
    runs: &[SessionRun],
    restart_micros: u128,
    elapsed: Duration,
) -> std::io::Result<()> {
    let total_events: u64 = runs.iter().map(|r| r.events).sum();
    let total_verdicts: u64 = runs.iter().map(|r| r.verdicts).sum();
    let total_resumes: u64 = runs.iter().map(|r| u64::from(r.resumes)).sum();
    let secs = elapsed.as_secs_f64().max(1e-9);
    let mut w = JsonWriter::new();
    report_header(
        &mut w,
        "serve_soak",
        seed,
        &[
            ("sessions", runs.len() as u64),
            ("txns_per_session", txns),
            ("budget_pct", budget_pct),
        ],
    );
    w.u64_field("events_total", total_events);
    w.u64_field("verdicts_total", total_verdicts);
    w.u64_field("resumes_total", total_resumes);
    w.u64_field("elapsed_micros", elapsed.as_micros() as u64);
    w.u64_field("server_restart_micros", restart_micros as u64);
    w.u64_field(
        "sessions_per_sec_milli",
        (runs.len() as f64 / secs * 1000.0) as u64,
    );
    w.u64_field("events_per_sec", (total_events as f64 / secs) as u64);
    w.bool_field("parity_ok", runs.iter().all(SessionRun::ok));
    w.open_array(Some("per_session"));
    for r in runs {
        w.open_object(None);
        w.str_field("session", &r.name);
        w.u64_field("events", r.events);
        w.u64_field("verdicts", r.verdicts);
        w.u64_field("resumes", u64::from(r.resumes));
        w.u64_field("recovery_micros", r.resume_micros as u64);
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
    banner("Serve soak: durable sessions across a mid-stream kill");
    let report_path = report_path_from_args();
    let seed = u64_from_args("seed", 0x5E17E);
    let sessions = u64_from_args("sessions", 6).max(1);
    let budget_pct = u64_from_args("budget-pct", 100).clamp(1, 100);
    let txns = (u64_from_args("txns", 160) * budget_pct / 100).max(8);
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
    let data = std::env::temp_dir().join(format!("adya-serve-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data);
    let (server, addr) = spawn_server(&bin, &data, "127.0.0.1:0", &[]);
    note(&format!(
        "adya-serve pid {} on {addr}, data {}",
        server.0.id(),
        data.display()
    ));

    let start = Instant::now();
    let barrier = Arc::new(Barrier::new(sessions as usize + 1));
    let mut handles = Vec::new();
    for s in 0..sessions {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            run_session(&addr, s, seed, txns, &barrier)
        }));
    }

    barrier.wait(); // every session is mid-stream
    drop(server); // SIGKILL — no flush, no goodbye
    let t_restart = Instant::now();
    let (_server2, addr2) = spawn_server(&bin, &data, &addr, &[]);
    let restart_micros = t_restart.elapsed().as_micros();
    assert_eq!(
        addr2, addr,
        "replacement server must rebind the same address"
    );
    barrier.wait();

    let runs: Vec<SessionRun> = handles
        .into_iter()
        .map(|h| h.join().expect("session thread"))
        .collect();
    let elapsed = start.elapsed();
    let _ = std::fs::remove_dir_all(&data);

    let mut table = Table::new(&[
        "session",
        "events",
        "verdicts",
        "resumes",
        "recovery ms",
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
    let total_resumes: u32 = runs.iter().map(|r| r.resumes).sum();
    let secs = elapsed.as_secs_f64().max(1e-9);
    note(&format!(
        "{:.1} sessions/sec, {:.0} events/sec, server restart {:.1} ms, {total_resumes} resumes",
        runs.len() as f64 / secs,
        total_events as f64 / secs,
        restart_micros as f64 / 1000.0,
    ));

    let parity = runs.iter().all(SessionRun::ok);
    let all_resumed = runs.iter().all(|r| r.resumes >= 1);
    if !all_resumed {
        note("  a session never resumed — the kill missed it; soak is vacuous");
    }
    for r in runs.iter().filter(|r| !r.ok()) {
        note(&format!(
            "  {}: stream_parity={} final_parity={}",
            r.name, r.stream_ok, r.final_ok
        ));
    }

    if let Some(path) = &report_path {
        match write_report(path, seed, txns, budget_pct, &runs, restart_micros, elapsed) {
            Ok(()) => note(&format!("report written to {path}")),
            Err(e) => {
                eprintln!("serve_soak: cannot write report {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    verdict("E18 serve soak", parity && all_resumed);
}
