//! End-to-end tests of the live obs endpoint: `adya-check --stream
//! --obs-listen` must serve `/metrics`, `/health`, and `/trace`
//! concurrently while verdicts stream, degrade `/health` to 503 when
//! fault-injected ingest lag crosses the threshold, surface fired
//! phenomena as witness-id exemplars, and serve the stage stamps of
//! sampled events as a segment `trace-merge` joins with other nodes'.

mod common;

use std::collections::BTreeMap;
use std::time::Duration;

use adya::workloads::ServeClient;
use adya_obs::{merge_segments, parse_segment, Stage, TraceSegment};
use common::{data_dir, http_get, session_tokens, spawn_server, spawn_streaming};

/// Polls `path` until `pred(body)` holds (the stream applies events
/// asynchronously), returning the last (status, body).
fn poll_until(addr: &str, path: &str, pred: impl Fn(&str) -> bool) -> (u16, String) {
    let mut last = (0, String::new());
    for _ in 0..150 {
        last = http_get(addr, path);
        if pred(&last.1) {
            return last;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    last
}

#[test]
fn serves_all_three_routes_concurrently_while_streaming() {
    let (_child, addr) = spawn_streaming(&[], "w1(x,1) c1 r2(x1) c2\n");
    let (status, health) = poll_until(&addr, "/health", |b| b.contains("\"events\": 4"));
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"healthy\": true"), "{health}");
    assert!(health.contains("\"commits\": 2"), "{health}");
    assert!(health.contains("\"thresholds\""), "{health}");

    // All three routes at once, from separate connections.
    let handles: Vec<_> = ["/metrics", "/health", "/trace"]
        .into_iter()
        .map(|path| {
            let addr = addr.clone();
            std::thread::spawn(move || (path, http_get(&addr, path)))
        })
        .collect();
    for h in handles {
        let (path, (status, body)) = h.join().expect("route thread");
        assert_eq!(status, 200, "{path}: {body}");
        match path {
            "/metrics" => assert!(body.contains("# TYPE"), "{body}"),
            "/health" => assert!(body.starts_with('{'), "{body}"),
            "/trace" => assert!(body.contains("\"traceEvents\""), "{body}"),
            _ => unreachable!(),
        }
    }

    let (status, body) = http_get(&addr, "/nope");
    assert_eq!(status, 404);
    assert!(body.contains("/metrics /health /trace"), "{body}");
}

#[test]
fn induced_lag_degrades_health_to_503() {
    // Every event sleeps 30ms at the tap; with the lag threshold at
    // zero, the first sampled event already pushes /health over.
    let (_child, addr) = spawn_streaming(
        &["--delay-event-ms", "30", "--obs-lag-ms", "0"],
        "w1(x,1) c1 r2(x1) c2\n",
    );
    let (status, health) = poll_until(&addr, "/health", |b| b.contains("lagging:"));
    assert_eq!(status, 503, "{health}");
    assert!(health.contains("\"healthy\": false"), "{health}");
    assert!(health.contains("\"ingest_lag_ms\""), "{health}");
}

#[test]
fn an_idle_stream_degrades_health_to_503_past_the_stale_threshold() {
    // One transaction, then nothing while stdin stays open: 50 ms
    // after the last applied event `/health` calls the stream stale.
    let (_child, addr) = spawn_streaming(&["--obs-stale-ms", "50"], "w1(x,1) c1\n");
    let (status, health) = poll_until(&addr, "/health", |b| b.contains("stale:"));
    assert_eq!(status, 503, "{health}");
    assert!(health.contains("\"healthy\": false"), "{health}");
    assert!(health.contains("\"stale_ms\": 50"), "{health}");
}

#[test]
fn fired_phenomenon_shows_as_witness_exemplar() {
    // The G1c fixture: circular information flow, fires at c2.
    let (_child, addr) = spawn_streaming(&[], "w1(x,1) w2(y,2) r1(y2) r2(x1) c1 c2\n");
    let (status, health) = poll_until(&addr, "/health", |b| b.contains("\"phenomenon\": \"G1c\""));
    assert_eq!(status, 200, "health stays 200 on anomalies: {health}");
    assert!(health.contains("\"witness_id\": \"w"), "{health}");
    assert!(health.contains("\"exemplars\""), "{health}");
}

/// Each trace's stages in stamp order, traces ordered by their first
/// stamp.
fn stages_by_trace(seg: &TraceSegment) -> Vec<Vec<Stage>> {
    let mut order: Vec<u64> = Vec::new();
    let mut stages: BTreeMap<u64, Vec<Stage>> = BTreeMap::new();
    for st in &seg.stamps {
        if !stages.contains_key(&st.trace) {
            order.push(st.trace);
        }
        stages.entry(st.trace).or_default().push(st.stage);
    }
    order.iter().map(|t| stages[t].clone()).collect()
}

#[test]
fn trace_serves_stage_stamps_that_merge_with_a_serve_segment() {
    // The plane samples one event in 32 by sequence number: events 0
    // (b1) and 32 — with three events a transaction, c11's commit.
    let events: String = (1..=12)
        .map(|t| format!("b{t} w{t}(x,{t}) c{t}\n"))
        .collect();
    let (_child, addr) = spawn_streaming(&[], &events);
    let (status, body) = poll_until(&addr, "/trace", |b| b.contains("\"stage\": \"verdict\""));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"name\": \"tap->ring\""), "{body}");
    let check = parse_segment(&body).expect("/trace parses as a segment");
    let traces = stages_by_trace(&check);
    use Stage::*;
    assert_eq!(
        traces[0],
        [Tap, Ring, Seq, Apply],
        "the first event's stamps"
    );
    assert!(
        traces.contains(&vec![Tap, Ring, Seq, Apply, Verdict]),
        "a commit's verdict stamp: {traces:?}"
    );

    // An adya-serve node's segment, from a traced session.
    let data = data_dir("obs-trace-merge");
    let (_server, serve_addr) = spawn_server(
        &data,
        "127.0.0.1:0",
        &["--trace-propagate", "--trace-sample", "1", "--node", "n0"],
    );
    let mut client = ServeClient::hello_traced(&serve_addr, "merge", true).expect("hello");
    for tok in session_tokens(0, 4) {
        client.send_token(&tok).expect("send");
    }
    client.close().expect("close");
    let (status, body) = http_get(&serve_addr, "/trace");
    assert_eq!(status, 200, "{body}");
    let serve = parse_segment(&body).expect("adya-serve's /trace parses as a segment");
    assert!(!serve.stamps.is_empty(), "1-in-1 sampling stamps");

    let merged = merge_segments(&[check.clone(), serve]);
    assert!(adya_obs::json::parse(&merged).is_ok(), "{merged}");
    for lane in [
        format!("{} (leader)", check.node),
        "n0 (leader)".to_string(),
    ] {
        assert!(
            merged.contains(&format!("\"{lane}\"")),
            "{lane} lane: {merged}"
        );
    }
    for node in [check.node.as_str(), "n0"] {
        assert!(
            merged.contains(&format!("\"nodes\": \"{node}\"")),
            "{node}: {merged}"
        );
    }
}
