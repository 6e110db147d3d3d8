//! End-to-end tests of the `adya-serve` replication plane: a leader
//! streams every durable log byte to a follower; kill -9'ing the
//! leader mid-stream fails clients over to the promoted follower with
//! byte-identical verdict streams; a follower kill -9'd mid-catch-up
//! reconnects and drains its lag to zero; and the leader's `/health`
//! degrades to 503 when acknowledged follower lag exceeds
//! `--repl-lag-max`.

mod common;

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use adya::workloads::{RetryPolicy, ServeClient};
use common::{data_dir, http_get, reference, send_resilient, session_tokens, spawn_server};

/// Polls `/health` until `pred` accepts the body (any status), with a
/// hard deadline.
fn await_health(addr: &str, what: &str, pred: impl Fn(u16, &str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = http_get(addr, "/health");
        if pred(status, &body) {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last /health: {status} {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn leader_sigkill_fails_over_to_promoted_follower_byte_identically() {
    let ldata = data_dir("replica-kill-leader");
    let fdata = data_dir("replica-kill-follower");
    let (_follower, faddr) = spawn_server(&fdata, "127.0.0.1:0", &["--follower"]);
    let (leader, laddr) = spawn_server(&ldata, "127.0.0.1:0", &["--replicate-to", &faddr]);
    let endpoints = format!("{laddr},{faddr}");

    // 4 clients + the killer thread rendezvous twice: once with every
    // session mid-stream, once after the leader has been SIGKILLed.
    let barrier = Arc::new(Barrier::new(5));
    let mut handles = Vec::new();
    for s in 0..4 {
        let endpoints = endpoints.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let tokens = session_tokens(s, 40);
            let name = format!("tenant-{s}");
            let mut client = ServeClient::hello(&endpoints, &name).expect("hello");
            let mut resumes = 0u32;
            let half = tokens.len() / 2;
            for tok in &tokens[..half] {
                send_resilient(&mut client, tok, &endpoints, &mut resumes);
            }
            barrier.wait(); // everyone is mid-stream
            barrier.wait(); // the leader is gone — no replacement coming
            for tok in &tokens[half..] {
                send_resilient(&mut client, tok, &endpoints, &mut resumes);
            }
            let verdicts = client.verdicts().to_vec();
            let fin = client.close().expect("close");
            (tokens, verdicts, fin, resumes)
        }));
    }

    barrier.wait();
    drop(leader); // SIGKILL mid-stream — no flush, no goodbye
    barrier.wait();

    for (s, handle) in handles.into_iter().enumerate() {
        let (tokens, verdicts, fin, resumes) = handle.join().expect("client thread");
        let (want_verdicts, want_final) = reference(&tokens);
        assert_eq!(
            verdicts, want_verdicts,
            "post-failover verdict stream must be byte-identical to the uninterrupted run"
        );
        assert_eq!(fin, want_final, "final verdict must match the reference");
        assert!(
            resumes >= 1,
            "tenant-{s} never failed over: the kill missed it and its parity proves nothing"
        );
    }

    // The follower is the leader now, and says so.
    let body = await_health(&faddr, "promotion to show on /health", |_, b| {
        b.contains("\"role\": \"leader\"")
    });
    assert!(body.contains("\"healthy\": true"), "{body}");
}

#[test]
fn follower_killed_mid_catchup_reconnects_and_drains_its_lag() {
    let ldata = data_dir("replica-catchup-leader");
    let fdata = data_dir("replica-catchup-follower");
    let (follower, faddr) = spawn_server(&fdata, "127.0.0.1:0", &["--follower"]);
    let (leader, laddr) = spawn_server(&ldata, "127.0.0.1:0", &["--replicate-to", &faddr]);
    let endpoints = format!("{laddr},{faddr}");

    let tokens = session_tokens(2, 60);
    let mut client = ServeClient::hello(&endpoints, "churner").expect("hello");
    let third = tokens.len() / 3;
    for tok in &tokens[..third] {
        client.send_token(tok).expect("stream");
    }

    // kill -9 the follower mid-stream, keep the leader under load so
    // the restarted follower has a real catch-up backlog to walk, and
    // the leader meanwhile shows the disconnect as lag.
    drop(follower);
    for tok in &tokens[third..2 * third] {
        client
            .send_token(tok)
            .expect("stream during follower outage");
    }
    await_health(&laddr, "the leader to notice the dead follower", |_, b| {
        b.contains("\"connected\": 0")
    });

    // The reborn follower rebinds the same address, reconnects, and is
    // then kill -9'd again mid-catch-up — the second rebirth must still
    // converge to zero lag.
    let (follower2, faddr2) = spawn_server(&fdata, &faddr, &["--follower"]);
    assert_eq!(faddr2, faddr, "follower must rebind its address");
    await_health(&laddr, "the leader to reconnect", |_, b| {
        b.contains("\"connected\": 1")
    });
    drop(follower2);
    for tok in &tokens[2 * third..] {
        client.send_token(tok).expect("stream during second outage");
    }
    let (_follower3, faddr3) = spawn_server(&fdata, &faddr, &["--follower"]);
    assert_eq!(faddr3, faddr);
    await_health(&laddr, "catch-up to drain the lag", |_, b| {
        b.contains("\"connected\": 1") && b.contains("\"max_lag_records\": 0")
    });

    // Retire the leader; an operator promote frame turns the follower
    // into the leader, and the resumed session is byte-identical.
    drop(leader);
    let mut s = TcpStream::connect(&faddr).expect("connect follower");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    s.write_all(b"{\"op\": \"promote\"}\n").expect("promote");
    let mut r = BufReader::new(s.try_clone().expect("clone"));
    let mut line = String::new();
    r.read_line(&mut line).expect("promote ack");
    assert!(line.contains("\"ok\": \"promote\""), "{line}");

    let policy = RetryPolicy {
        deadline_ops: Some(2_000),
        ..RetryPolicy::default()
    };
    client
        .resume(&policy, 0xF0)
        .expect("resume on the promoted follower");
    let (want, want_final) = reference(&tokens);
    assert_eq!(
        client.verdicts(),
        &want[..],
        "verdicts after follower churn + promotion must match the reference"
    );
    assert_eq!(client.close().expect("close"), want_final);
}

#[test]
fn health_degrades_to_503_when_follower_lag_exceeds_the_bound() {
    let data = data_dir("replica-lag");
    // 127.0.0.1:1 never answers: every published record is permanently
    // unacknowledged, so with --repl-lag-max 0 the first durable
    // append must flip /health to 503.
    let (_leader, addr) = spawn_server(
        &data,
        "127.0.0.1:0",
        &["--replicate-to", "127.0.0.1:1", "--repl-lag-max", "0"],
    );

    let (status, body) = http_get(&addr, "/health");
    assert_eq!(status, 200, "no records, no lag: {body}");
    assert!(body.contains("\"role\": \"leader\""), "{body}");

    let mut client = ServeClient::hello(&addr, "laggy").expect("hello");
    for tok in ["b1", "w1(x,1)", "c1"] {
        client.send_token(tok).expect("stream");
    }
    let body = await_health(&addr, "lag to trip the health bound", |status, _| {
        status == 503
    });
    assert!(body.contains("\"healthy\": false"), "{body}");
    assert!(body.contains("\"connected\": 0"), "{body}");
}
