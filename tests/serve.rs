//! End-to-end tests of `adya-serve`: concurrent durable sessions over
//! TCP, kill -9 / restart recovery with byte-identical resumed verdict
//! streams, abort-bearing (G1a) histories, the idle-detach deadline,
//! lines split mid-codepoint across read timeouts, the tap-side crash
//! plane, graceful SIGTERM drains, the fleet obs endpoints on the
//! service port, and the all-or-nothing line: refused whole, or applied
//! like its tokens one at a time.

mod common;

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::process::Command;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use adya::serve::{ApplyError, Session, SessionConfig};
use adya::workloads::{ClientError, RetryPolicy, ServeClient};
use adya_faults::{TapCrashConfig, TapCrashPlane};
use common::{data_dir, http_get, reference, send_resilient, session_tokens, spawn_server};

#[test]
fn kill_minus_nine_resumes_four_sessions_byte_identically() {
    let data = data_dir("serve-kill");
    let (server, addr) = spawn_server(&data, "127.0.0.1:0", &[]);

    // 4 clients + the killer thread rendezvous twice: once with every
    // session mid-stream, once after the replacement server is up.
    let barrier = Arc::new(Barrier::new(5));
    let mut handles = Vec::new();
    for s in 0..4 {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let tokens = session_tokens(s, 40);
            let name = format!("tenant-{s}");
            let mut client = ServeClient::hello(&addr, &name).expect("hello");
            let mut resumes = 0u32;
            let half = tokens.len() / 2;
            for tok in &tokens[..half] {
                send_resilient(&mut client, tok, &addr, &mut resumes);
            }
            barrier.wait(); // everyone is mid-stream
            barrier.wait(); // the server has been killed and restarted
            for tok in &tokens[half..] {
                send_resilient(&mut client, tok, &addr, &mut resumes);
            }
            let verdicts = client.verdicts().to_vec();
            let fin = client.close().expect("close");
            (tokens, verdicts, fin, resumes)
        }));
    }

    barrier.wait();
    drop(server); // SIGKILL — no flush, no goodbye
    let (_server2, addr2) = spawn_server(&data, &addr, &[]);
    assert_eq!(
        addr2, addr,
        "replacement server must rebind the same address"
    );
    barrier.wait();

    for (s, handle) in handles.into_iter().enumerate() {
        let (tokens, verdicts, fin, resumes) = handle.join().expect("client thread");
        let (want_verdicts, want_final) = reference(&tokens);
        assert_eq!(
            verdicts, want_verdicts,
            "resumed verdict stream must be byte-identical to the uninterrupted run"
        );
        assert_eq!(fin, want_final, "final verdict must match the reference");
        assert!(
            resumes >= 1,
            "tenant-{s} never resumed: the kill missed it and its parity proves nothing"
        );
    }
}

#[test]
fn tap_crash_point_aborts_the_server_and_recovery_closes_the_gap() {
    let data = data_dir("serve-tap");
    // The tap plane fires after the 30th non-commit event is durable
    // but before it is applied — the exact durable-but-unapplied
    // window recovery must close.
    let (server, addr) = spawn_server(&data, "127.0.0.1:0", &["--crash-at-event", "30"]);

    let tokens = session_tokens(0, 30);
    let mut client = ServeClient::hello(&addr, "crashy").expect("hello");
    let mut resumes = 0u32;
    let mut crashed_server = Some(server);
    for tok in &tokens {
        match client.send_token(tok) {
            Ok(()) => {}
            Err(ClientError::Io(_)) => {
                // The server aborted itself; restart it sans crash
                // point and resume.
                let dead = crashed_server
                    .take()
                    .expect("only one tap crash is scheduled");
                drop(dead);
                let (s2, addr2) = spawn_server(&data, &addr, &[]);
                assert_eq!(addr2, addr);
                crashed_server = Some(s2);
                let policy = RetryPolicy {
                    deadline_ops: Some(2_000),
                    ..RetryPolicy::default()
                };
                client.resume(&policy, 7).expect("resume after tap crash");
                resumes += 1;
            }
            Err(e) => panic!("protocol error: {e}"),
        }
    }
    assert_eq!(
        resumes, 1,
        "the scheduled tap crash must have fired exactly once"
    );
    let (want_verdicts, want_final) = reference(&tokens);
    assert_eq!(client.verdicts(), &want_verdicts[..]);
    assert_eq!(client.close().expect("close"), want_final);
}

#[test]
fn violations_stream_through_the_service_and_health_covers_the_fleet() {
    let data = data_dir("serve-golden");
    let (_server, addr) = spawn_server(&data, "127.0.0.1:0", &[]);

    // Write skew: two rw antidependencies close a G2 cycle at c2.
    let golden = [
        "b1",
        "b2",
        "r1(xinit)",
        "r2(yinit)",
        "w1(y,1)",
        "w2(x,2)",
        "c1",
        "c2",
    ];
    let mut client = ServeClient::hello(&addr, "golden").expect("hello");
    for tok in golden {
        client.send_token(tok).expect("stream golden history");
    }
    let (want, want_final) = {
        let owned: Vec<String> = golden.iter().map(|t| t.to_string()).collect();
        reference(&owned)
    };
    assert_eq!(client.verdicts(), &want[..]);
    assert!(
        client.verdicts()[1].contains("\"G2\""),
        "write skew must fire G2 at c2: {}",
        client.verdicts()[1]
    );

    let (status, body) = http_get(&addr, "/health");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"session\": \"golden\""), "{body}");
    assert!(body.contains("\"healthy\": true"), "{body}");
    let (status, metrics) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("session=\"golden\""),
        "per-session SLI labels missing from /metrics"
    );

    assert_eq!(client.close().expect("close"), want_final);
}

#[test]
fn aborts_stream_through_the_service_and_survive_kill_resume() {
    let data = data_dir("serve-abort");
    let (server, addr) = spawn_server(&data, "127.0.0.1:0", &[]);

    // G1a: t2 reads t1's write, then t1 aborts — the verdict arrives
    // at c2. Aborts themselves produce no verdict line, so the stream
    // must keep flowing straight through `a1` and `a3` without the
    // client stalling on a reply that never comes.
    let tokens: Vec<String> = [
        "b1",
        "w1(x,1)",
        "b2",
        "r2(x1)",
        "a1",
        "c2",
        "b3",
        "w3(y,3)",
        "a3",
        "b4",
        "r4(xinit)",
        "c4",
    ]
    .iter()
    .map(|t| t.to_string())
    .collect();

    let mut client = ServeClient::hello(&addr, "aborter").expect("hello");
    let mut resumes = 0u32;
    // Stream through the first abort, then kill -9 the server so the
    // resume's re-sent suffix can itself contain abort tokens.
    for tok in &tokens[..5] {
        send_resilient(&mut client, tok, &addr, &mut resumes);
    }
    drop(server);
    let (_server2, addr2) = spawn_server(&data, &addr, &[]);
    assert_eq!(addr2, addr);
    for tok in &tokens[5..] {
        send_resilient(&mut client, tok, &addr, &mut resumes);
    }
    assert!(resumes >= 1, "the kill must have forced a resume");

    let (want, want_final) = reference(&tokens);
    assert_eq!(
        client.verdicts(),
        &want[..],
        "verdict stream with aborts must be byte-identical to the reference"
    );
    assert!(
        client.verdicts()[0].contains("\"G1a\""),
        "reading from an aborted transaction must fire G1a at c2: {}",
        client.verdicts()[0]
    );
    assert_eq!(client.close().expect("close"), want_final);
}

#[test]
fn idle_connections_detach_and_release_their_session() {
    let data = data_dir("serve-idle");
    let (_server, addr) = spawn_server(&data, "127.0.0.1:0", &["--idle-timeout-ms", "750"]);

    let mut first = TcpStream::connect(&addr).expect("connect");
    first
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    first
        .write_all(b"{\"op\": \"hello\", \"session\": \"sleepy\"}\n")
        .expect("hello");
    let mut first_r = BufReader::new(first.try_clone().expect("clone"));
    let mut line = String::new();
    first_r.read_line(&mut line).expect("hello ack");
    assert!(line.contains("\"ok\": \"hello\""), "{line}");
    first.write_all(b"b1 w1(x,1) c1\n").expect("stream");
    line.clear();
    first_r.read_line(&mut line).expect("verdict");
    let verdict = line.trim_end().to_string();
    assert!(
        verdict.starts_with('{') && !verdict.contains("\"error\""),
        "{verdict}"
    );

    // Go silent without closing the socket — a stand-in for a peer
    // that vanished half-open. The session is busy while this
    // connection owns it, but the idle deadline must park it and let
    // a second connection's resume win.
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut saw_busy = false;
    let replayed = loop {
        assert!(
            Instant::now() < deadline,
            "idle deadline never released the session"
        );
        let mut s = TcpStream::connect(&addr).expect("connect resumer");
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        s.write_all(b"{\"op\": \"resume\", \"session\": \"sleepy\", \"verdicts\": 0}\n")
            .expect("resume");
        let mut r = BufReader::new(s.try_clone().expect("clone"));
        let mut ack = String::new();
        r.read_line(&mut ack).expect("resume ack");
        if ack.contains("\"error\": \"session_busy\"") {
            saw_busy = true;
            std::thread::sleep(Duration::from_millis(25));
            continue;
        }
        assert!(ack.contains("\"ok\": \"resume\""), "{ack}");
        assert!(ack.contains("\"replay\": 1"), "{ack}");
        let mut v = String::new();
        r.read_line(&mut v).expect("replayed verdict");
        break v.trim_end().to_string();
    };
    assert!(
        saw_busy,
        "the idle connection must have owned the session at first"
    );
    assert_eq!(
        replayed, verdict,
        "replay must re-send the verdict verbatim"
    );

    // The idle connection is told why it was cut loose.
    line.clear();
    first_r.read_line(&mut line).expect("closing frame");
    assert!(line.contains("\"closing\": \"idle\""), "{line}");
}

#[test]
fn multibyte_object_names_survive_timeout_split_lines() {
    let data = data_dir("serve-utf8");
    let (_server, addr) = spawn_server(&data, "127.0.0.1:0", &[]);

    let mut s = TcpStream::connect(&addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    s.write_all(b"{\"op\": \"hello\", \"session\": \"utf8\"}\n")
        .expect("hello");
    let mut r = BufReader::new(s.try_clone().expect("clone"));
    let mut line = String::new();
    r.read_line(&mut line).expect("hello ack");
    assert!(line.contains("\"ok\": \"hello\""), "{line}");

    // Split the line in the middle of the two-byte 'é' and pause well
    // past the server's 100ms read-poll timeout: the partial bytes
    // must survive the timed-out read instead of being dropped by a
    // UTF-8 completeness guard.
    let full = "b1 w1(café,1) c1\n".as_bytes();
    let split = full.iter().position(|&b| b == 0xC3).expect("é lead byte") + 1;
    s.write_all(&full[..split]).expect("first half");
    s.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(400));
    s.write_all(&full[split..]).expect("second half");

    line.clear();
    r.read_line(&mut line).expect("verdict");
    let tokens: Vec<String> = ["b1", "w1(café,1)", "c1"]
        .iter()
        .map(|t| t.to_string())
        .collect();
    let (want, _) = reference(&tokens);
    assert_eq!(
        line.trim_end(),
        want[0],
        "the verdict after a mid-codepoint split must match the reference"
    );
}

#[test]
fn sigterm_drains_gracefully_and_sessions_survive() {
    let data = data_dir("serve-term");
    let (mut server, addr) = spawn_server(&data, "127.0.0.1:0", &[]);

    let tokens = session_tokens(1, 12);
    let mut client = ServeClient::hello(&addr, "steady").expect("hello");
    for tok in &tokens {
        client.send_token(tok).expect("stream");
    }
    let before = client.verdicts().to_vec();

    let pid = server.0.id().to_string();
    let ok = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("send SIGTERM")
        .success();
    assert!(ok, "kill -TERM failed");
    let status = server.0.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "graceful shutdown must exit 0");

    // The parked session recovers on a fresh server with nothing lost.
    let (_server2, addr2) = spawn_server(&data, &addr, &[]);
    assert_eq!(addr2, addr);
    let policy = RetryPolicy::default();
    client
        .resume(&policy, 3)
        .expect("resume after graceful drain");
    assert_eq!(
        client.verdicts(),
        &before[..],
        "no verdicts may be lost or duplicated"
    );
    let (want, want_final) = reference(&tokens);
    assert_eq!(client.verdicts(), &want[..]);
    assert_eq!(client.close().expect("close"), want_final);
}

#[test]
fn trace_propagation_annotates_wire_but_ledger_stays_canonical() {
    let data = data_dir("serve-trace-on");
    let (_server, addr) = spawn_server(
        &data,
        "127.0.0.1:0",
        &["--trace-propagate", "--trace-sample", "1", "--node", "n0"],
    );
    let tokens = session_tokens(0, 24);
    let (want, want_final) = reference(&tokens);

    // An opted-in client: verdict lines arrive annotated with a trace
    // id, the client strips the annotation into per-verdict RTTs, and
    // what lands in the ledger is byte-identical to the untraced
    // reference.
    let mut traced = ServeClient::hello_traced(&addr, "traced", true).expect("hello traced");
    for tok in &tokens {
        traced.send_token(tok).expect("send");
    }
    assert_eq!(traced.verdicts(), &want[..]);
    assert_eq!(
        traced.trace_rtts().len(),
        want.len(),
        "1-in-1 sampling must annotate every commit verdict"
    );
    assert!(traced.trace_rtts().iter().all(|&(id, _)| id != 0));
    assert_eq!(traced.close().expect("close"), want_final);

    // A client that does not opt in sees plain canonical lines even
    // though the server's plane is on.
    let mut plain = ServeClient::hello(&addr, "plain").expect("hello plain");
    for tok in &tokens {
        plain.send_token(tok).expect("send");
    }
    assert_eq!(plain.verdicts(), &want[..]);
    assert!(plain.trace_rtts().is_empty());
    assert_eq!(plain.close().expect("close"), want_final);

    // The node serves its stamp segment under /trace, parseable by
    // the merge tooling, with stamps from the streams above.
    let (status, body) = http_get(&addr, "/trace");
    assert_eq!(status, 200);
    let seg = adya_obs::parse_segment(&body).expect("/trace parses as a segment");
    assert_eq!((seg.node.as_str(), seg.role.as_str()), ("n0", "leader"));
    assert!(!seg.stamps.is_empty(), "1-in-1 sampling must stamp");
}

#[test]
fn trace_opt_in_without_server_plane_is_a_no_op() {
    let data = data_dir("serve-trace-off");
    let (_server, addr) = spawn_server(&data, "127.0.0.1:0", &[]);
    let tokens = session_tokens(1, 16);
    let (want, want_final) = reference(&tokens);
    let mut client = ServeClient::hello_traced(&addr, "opt-in", true).expect("hello");
    for tok in &tokens {
        client.send_token(tok).expect("send");
    }
    assert_eq!(client.verdicts(), &want[..]);
    assert!(
        client.trace_rtts().is_empty(),
        "no plane, no annotations, no RTTs"
    );
    assert_eq!(client.close().expect("close"), want_final);
}

#[test]
fn trace_merge_subcommand_merges_captured_segments() {
    let data = data_dir("serve-trace-merge");
    let (_server, addr) = spawn_server(
        &data,
        "127.0.0.1:0",
        &["--trace-propagate", "--trace-sample", "1", "--node", "m0"],
    );
    let tokens = session_tokens(2, 16);
    let mut client = ServeClient::hello_traced(&addr, "merge", true).expect("hello");
    for tok in &tokens {
        client.send_token(tok).expect("send");
    }
    client.close().expect("close");
    let (status, body) = http_get(&addr, "/trace");
    assert_eq!(status, 200);

    let capture = data.join("m0.json");
    let out = data.join("merged.json");
    std::fs::write(&capture, &body).expect("write capture");
    let ok = Command::new(env!("CARGO_BIN_EXE_adya-check"))
        .arg("trace-merge")
        .arg(&capture)
        .arg("--out")
        .arg(&out)
        .status()
        .expect("run trace-merge")
        .success();
    assert!(ok, "trace-merge must exit 0");
    let merged = std::fs::read_to_string(&out).expect("read merged");
    assert!(merged.contains("\"traceEvents\""), "{merged}");
    assert!(merged.contains("\"clock_offsets\""), "{merged}");
    assert!(merged.contains("\"traces\""), "{merged}");
}

/// Sends `raw` to the service port and returns whatever comes back.
/// Tolerant of mid-write resets: a server that refuses early and
/// closes may RST before the client finishes writing.
fn try_http(addr: &str, raw: &[u8]) -> String {
    use std::io::Read as _;
    let mut s = TcpStream::connect(addr).expect("connect service port");
    let _ = s.write_all(raw);
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn service_port_http_is_hardened_like_the_obs_endpoint() {
    use std::io::Read as _;
    let data = data_dir("serve-http-hardening");
    let (_server, addr) = spawn_server(&data, "127.0.0.1:0", &[]);

    // A header flood past the drain bound is refused, not drained.
    let mut flood = String::from("GET /metrics HTTP/1.1\r\n");
    for i in 0..4096 {
        flood.push_str(&format!("X-Pad-{i}: {}\r\n", "y".repeat(64)));
    }
    flood.push_str("\r\n");
    let out = try_http(&addr, flood.as_bytes());
    assert!(out.is_empty() || out.starts_with("HTTP/1.1 400"), "{out}");

    // HEAD is answered 405, as on the obs endpoint.
    let out = try_http(&addr, b"HEAD /metrics HTTP/1.1\r\nHost: adya\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 405 Method Not Allowed"), "{out}");

    // A peer trickling header bytes forever: every read makes
    // progress, so only the responder's deadline can end it. The
    // connection must be over — answered and closed — soon after
    // that deadline, not whenever the peer gets bored.
    let mut s = TcpStream::connect(&addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");
    s.write_all(b"GET /health HTTP/1.1\r\nX-Slow: ")
        .expect("send");
    let t0 = Instant::now();
    let mut answer = Vec::new();
    let closed_after = loop {
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "slow-header connection still open"
        );
        let _ = s.write_all(b"y");
        let mut buf = [0u8; 4096];
        match s.read(&mut buf) {
            Ok(0) => break t0.elapsed(),
            Ok(n) => answer.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break t0.elapsed(), // reset: also closed
        }
    };
    assert!(
        closed_after >= Duration::from_secs(4) && closed_after < Duration::from_secs(10),
        "closed after {closed_after:?}"
    );
    let answer = String::from_utf8_lossy(&answer);
    assert!(
        answer.is_empty() || answer.starts_with("HTTP/1.1 200"),
        "{answer}"
    );

    // None of that wedged the port.
    let (status, body) = http_get(&addr, "/health");
    assert_eq!(status, 200);
    assert!(body.contains("\"healthy\": true"), "{body}");
}

/// A raw protocol connection: the stream and a line reader over it.
fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let s = TcpStream::connect(addr).expect("connect");
    let r = BufReader::new(s.try_clone().expect("clone"));
    (s, r)
}

/// One raw protocol exchange: sends `line`, returns the reply line.
fn exchange(s: &mut TcpStream, r: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(s, "{line}").expect("send");
    let mut reply = String::new();
    r.read_line(&mut reply).expect("reply");
    reply
}

#[test]
fn stock_json_escapes_open_the_right_session() {
    let data = data_dir("serve-json-escapes");
    let (_server, addr) = spawn_server(&data, "127.0.0.1:0", &[]);

    // What `json.dumps` makes of a hello carrying non-ASCII metadata:
    // \u escapes (a surrogate pair among them) and an escaped solidus.
    // Refused outright as "unsupported escape" before the shared
    // reader, although no field the server uses is even affected.
    let (mut s, mut r) = connect(&addr);
    let ack = exchange(
        &mut s,
        &mut r,
        r#"{"op": "hello", "session": "tenant-esc", "client": "caf\u00e9 \ud83d\ude00 v1\/2"}"#,
    );
    assert!(
        ack.contains("\"ok\": \"hello\"") && ack.contains("\"session\": \"tenant-esc\""),
        "{ack}"
    );
    for tok in ["b1", "w1(x,1)"] {
        writeln!(s, "{tok}").expect("send");
    }
    let verdict = exchange(&mut s, &mut r, "c1");
    assert!(verdict.starts_with("{\"txn\": 1"), "{verdict}");
    drop((s, r));

    // The escaped and the plain spelling name one session: the resume
    // finds the three durable events and replays the verdict.
    let resume = r#"{"op": "resume", "session": "t\u0065nant-esc", "verdicts": 0, "client": "\r"}"#;
    let deadline = Instant::now() + Duration::from_secs(10);
    let ack = loop {
        let (mut s, mut r) = connect(&addr);
        let ack = exchange(&mut s, &mut r, resume);
        // The first connection's detach may still be parking it.
        if !ack.contains("session_busy") || Instant::now() > deadline {
            break ack;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        ack.contains("\"ok\": \"resume\"")
            && ack.contains("\"events\": 3")
            && ack.contains("\"replay\": 1"),
        "{ack}"
    );

    // Escapes cannot smuggle a path separator past name validation.
    let (mut s, mut r) = connect(&addr);
    let refused = exchange(&mut s, &mut r, r#"{"op": "hello", "session": "a\/b"}"#);
    assert!(refused.contains("\"error\": \"bad_frame\""), "{refused}");
}

#[test]
fn error_details_round_trip_through_the_client() {
    let data = data_dir("serve-error-detail");
    let (_server, addr) = spawn_server(&data, "127.0.0.1:0", &[]);
    let mut client = ServeClient::hello(&addr, "quoting").expect("hello");
    // Not a token in any notation; the server quotes it back inside
    // the error detail, where its `"` and `\` must survive the trip.
    let garbage = r#"z"q\z"#;
    client.send_token(garbage).expect("no reply is awaited");
    match client.send_token("c1") {
        Err(ClientError::Server(code, line)) => {
            assert_eq!(code, "parse");
            let frame = adya_obs::json::parse(&line).expect("error frames are JSON");
            assert_eq!(
                frame.str_at("detail"),
                Some(format!("unrecognized token {garbage:?}").as_str()),
                "{line}"
            );
        }
        other => panic!("expected the parse error frame, got {other:?}"),
    }
}

/// Every file of one session directory, by name.
fn session_files(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("session directory")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), std::fs::read(&path).expect("read file"))
        })
        .collect()
}

#[test]
fn a_refused_line_leaves_no_trace_in_the_session() {
    // The bad token comes last: by then `w2(fresh,1)` would have
    // interned a name and moved T2's write counter on `fresh`, so a
    // session that parsed its way to the error would log the name and
    // number the next write of `fresh` 2.
    let tap = TapCrashPlane::new(TapCrashConfig::default());
    let run = |name: &str, bad_line: bool| {
        let data = data_dir(name);
        let mut s = Session::create(&data, "s", SessionConfig::default(), None).expect("create");
        s.apply_line("b1 w1(x,1) c1", &tap).expect("first line");
        if bad_line {
            let refused = s.apply_line("b2 w2(fresh,1) w2(", &tap);
            assert!(matches!(refused, Err(ApplyError::Parse(_))), "{refused:?}");
        }
        let before = (s.records(), s.verdicts(), session_files(&data.join("s")));
        let next = s
            .apply_line("b2 r2(x1) w2(fresh,7) c2", &tap)
            .expect("next line");
        // The snapshot carries the parser's bytes.
        s.snapshot().expect("snapshot");
        (before, next, session_files(&data.join("s")))
    };
    let (before, next, after) = run("serve-refused-line", true);
    let (want_before, want_next, want_after) = run("serve-refused-line-ref", false);
    assert_eq!(before, want_before, "records, verdicts, log and names");
    assert_eq!(next, want_next, "the next line's verdicts");
    assert_eq!(after, want_after, "log and snapshot after the next line");
}

#[test]
fn a_long_line_applies_like_its_tokens_one_per_line() {
    let tokens = session_tokens(0, 80);
    assert!(tokens.len() >= 300, "{} tokens", tokens.len());
    let line = tokens.join(" ");
    let (want_verdicts, want_final) = reference(&tokens);
    // No snapshot before the close: a snapshot stores the replay window
    // since the previous one, and the cadence is checked once a line.
    let cadence = ["--snapshot-every", "100000", "--rotate-events", "64"];
    let read_verdicts = |r: &mut BufReader<TcpStream>, n: usize| -> Vec<String> {
        (0..n)
            .map(|_| {
                let mut v = String::new();
                r.read_line(&mut v).expect("verdict");
                v.trim_end().to_string()
            })
            .collect()
    };

    let by_token = data_dir("serve-line-by-token");
    {
        let (_server, addr) = spawn_server(&by_token, "127.0.0.1:0", &cadence);
        let mut client = ServeClient::hello(&addr, "s").expect("hello");
        for tok in &tokens {
            client.send_token(tok).expect("send token");
        }
        assert_eq!(client.verdicts(), &want_verdicts[..]);
        assert_eq!(client.close().expect("close"), want_final);
    }
    let by_line = data_dir("serve-line-whole");
    {
        let (_server, addr) = spawn_server(&by_line, "127.0.0.1:0", &cadence);
        let (mut s, mut r) = connect(&addr);
        let ack = exchange(&mut s, &mut r, r#"{"op": "hello", "session": "s"}"#);
        assert!(ack.contains("\"ok\": \"hello\""), "{ack}");
        writeln!(s, "{line}").expect("send line");
        assert_eq!(read_verdicts(&mut r, want_verdicts.len()), want_verdicts);
        let fin = exchange(&mut s, &mut r, r#"{"op": "close"}"#);
        assert_eq!(fin.trim_end(), want_final);
    }
    assert_eq!(
        session_files(&by_line.join("s")),
        session_files(&by_token.join("s")),
        "session directories differ"
    );

    // The tap crash point inside the line: the 150th non-terminal event
    // is durable and unapplied, no verdict of the line was sent, and
    // the restarted server replays the durable prefix.
    let crashed = data_dir("serve-line-crash");
    let crash_at = [&cadence[..], &["--crash-at-event", "150"]].concat();
    let (server, addr) = spawn_server(&crashed, "127.0.0.1:0", &crash_at);
    let (mut s, mut r) = connect(&addr);
    exchange(&mut s, &mut r, r#"{"op": "hello", "session": "s"}"#);
    writeln!(s, "{line}").expect("send line");
    let mut none = String::new();
    assert_eq!(r.read_line(&mut none).unwrap_or(0), 0, "{none}");
    drop(server);
    let (_server, addr) = spawn_server(&crashed, &addr, &cadence);
    let (mut s, mut r) = connect(&addr);
    let ack = exchange(
        &mut s,
        &mut r,
        r#"{"op": "resume", "session": "s", "verdicts": 0}"#,
    );
    let frame = adya_obs::json::parse(&ack).expect("the resume ack is JSON");
    let field = |name: &str| frame.u64_at(name).expect(name) as usize;
    let (events, replay) = (field("events"), field("replay"));
    assert!((150..tokens.len()).contains(&events), "{ack}");
    assert_eq!(field("verdicts"), replay, "{ack}");
    let mut got = read_verdicts(&mut r, replay);
    writeln!(s, "{}", tokens[events..].join(" ")).expect("send the rest");
    got.extend(read_verdicts(&mut r, want_verdicts.len() - replay));
    assert_eq!(got, want_verdicts);
    let fin = exchange(&mut s, &mut r, r#"{"op": "close"}"#);
    assert_eq!(fin.trim_end(), want_final);
}

#[test]
fn a_verdict_does_not_wait_out_nagle() {
    // A line written in two parts on a socket with Nagle on has its
    // second part held until the peer's delayed ACK (≈ 40 ms on Linux),
    // so each verdict would cost a timer, not the work. The server sets
    // `TCP_NODELAY` on every accepted connection and writes each line
    // in one write, and `ServeClient` sends each token in one.
    let data = data_dir("serve-nodelay");
    let (_server, addr) = spawn_server(&data, "127.0.0.1:0", &[]);
    let mut client = ServeClient::hello(&addr, "latency").expect("hello");
    let mut rtts: Vec<Duration> = (1..=50)
        .map(|t| {
            client.send_token(&format!("b{t}")).expect("begin");
            client.send_token(&format!("w{t}(x,{t})")).expect("write");
            let sent = Instant::now();
            client.send_token(&format!("c{t}")).expect("verdict");
            sent.elapsed()
        })
        .collect();
    assert_eq!(client.verdicts().len(), 50);
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median commit→verdict {median:?} over loopback: {rtts:?}"
    );
}

#[test]
fn error_frames_and_verdicts_do_not_wait_out_nagle_on_a_raw_socket() {
    // The same check with no `ServeClient` in the way: each request
    // leaves in one write, so only the server's replies are timed.
    let data = data_dir("serve-nodelay-raw");
    let (_server, addr) = spawn_server(&data, "127.0.0.1:0", &[]);
    let (mut s, mut r) = connect(&addr);
    s.set_nodelay(true).expect("nodelay");
    let mut round_trip = |line: String| {
        let sent = Instant::now();
        s.write_all(format!("{line}\n").as_bytes()).expect("send");
        let mut reply = String::new();
        r.read_line(&mut reply).expect("reply");
        (sent.elapsed(), reply)
    };
    let (_, ack) = round_trip(r#"{"op": "hello", "session": "raw"}"#.to_string());
    assert!(ack.starts_with(r#"{"ok": "hello""#), "{ack}");
    let refused: Vec<Duration> = (1..=50)
        .map(|t| {
            let (rtt, reply) = round_trip(format!("b{t} w{t}(x,{t}) w{t}("));
            assert!(reply.starts_with(r#"{"error": "parse""#), "{reply}");
            rtt
        })
        .collect();
    let verdicts: Vec<Duration> = (1..=50)
        .map(|t| {
            let (rtt, reply) = round_trip(format!("b{t} w{t}(x,{t}) c{t}"));
            assert!(reply.starts_with(r#"{"txn": "#), "{reply}");
            rtt
        })
        .collect();
    for (what, mut rtts) in [("error frame", refused), ("verdict", verdicts)] {
        rtts.sort();
        let median = rtts[rtts.len() / 2];
        assert!(
            median < Duration::from_millis(10),
            "median line→{what} {median:?} over loopback: {rtts:?}"
        );
    }
}
