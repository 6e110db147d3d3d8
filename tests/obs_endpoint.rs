//! End-to-end tests of the live obs endpoint: `adya-check --stream
//! --obs-listen` must serve `/metrics`, `/health`, and `/trace`
//! concurrently while verdicts stream, degrade `/health` to 503 when
//! fault-injected ingest lag crosses the threshold, and surface
//! fired phenomena as witness-id exemplars.

mod common;

use std::time::Duration;

use common::{http_get, spawn_streaming};

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
fn fired_phenomenon_shows_as_witness_exemplar() {
    // The G1c fixture: circular information flow, fires at c2.
    let (_child, addr) = spawn_streaming(&[], "w1(x,1) w2(y,2) r1(y2) r2(x1) c1 c2\n");
    let (status, health) = poll_until(&addr, "/health", |b| b.contains("\"phenomenon\": \"G1c\""));
    assert_eq!(status, 200, "health stays 200 on anomalies: {health}");
    assert!(health.contains("\"witness_id\": \"w"), "{health}");
    assert!(health.contains("\"exemplars\""), "{health}");
}
