//! Prometheus exposition-format tests: a golden for a synthetic
//! registry snapshot, plus a format lint applied to every surface
//! that emits the format — the golden, `adya-check --metrics prom`,
//! and the live `/metrics` obs endpoint.
//!
//! Regenerate the golden with
//! `REGEN_GOLDEN=1 cargo test --test prometheus`.

mod common;

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::process::{Command, Stdio};

use adya_obs::Registry;
use common::{data_dir, http_get, spawn_server, spawn_streaming};

/// Lints `text` against the text exposition format (version 0.0.4):
/// every sample belongs to a family declared by a `# HELP` line
/// followed by a `# TYPE` line (each exactly once, HELP first), type
/// is a known kind, summary families may emit `_sum`/`_count`
/// series, names are well-formed, values parse, and no series
/// (name + label set) repeats. Panics with the offending line.
fn lint_prometheus(text: &str) {
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let mut helped: HashSet<String> = HashSet::new();
    let mut typed: HashMap<String, String> = HashMap::new();
    let mut series: HashSet<String> = HashSet::new();
    let mut sampled: HashSet<String> = HashSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (fam, docs) = rest.split_once(' ').unwrap_or((rest, ""));
            assert!(name_ok(fam), "bad HELP family name: {line}");
            assert!(!docs.is_empty(), "HELP without docs: {line}");
            assert!(helped.insert(fam.to_string()), "duplicate HELP: {line}");
            assert!(!typed.contains_key(fam), "HELP must precede TYPE for {fam}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (fam, kind) = rest.split_once(' ').unwrap_or((rest, ""));
            assert!(helped.contains(fam), "TYPE without preceding HELP: {line}");
            assert!(
                ["counter", "gauge", "summary", "histogram", "untyped"].contains(&kind),
                "unknown TYPE kind: {line}"
            );
            assert!(
                typed.insert(fam.to_string(), kind.to_string()).is_none(),
                "duplicate TYPE: {line}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line}");
        // Sample: `name{labels} value` or `name value`.
        let (id, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample without value: {line}");
        });
        assert!(
            value.parse::<f64>().is_ok(),
            "unparsable sample value: {line}"
        );
        let name = id.split('{').next().expect("split is non-empty");
        if let Some(labels) = id.strip_prefix(name) {
            if !labels.is_empty() {
                assert!(
                    labels.starts_with('{') && labels.ends_with('}'),
                    "malformed labels: {line}"
                );
                for pair in labels[1..labels.len() - 1].split(',') {
                    let (k, v) = pair
                        .split_once('=')
                        .unwrap_or_else(|| panic!("label without '=': {line}"));
                    assert!(name_ok(k), "bad label name: {line}");
                    assert!(
                        v.len() >= 2 && v.starts_with('"') && v.ends_with('"'),
                        "unquoted label value: {line}"
                    );
                    assert!(
                        !v[1..v.len() - 1].contains(['"', '\\', '\n']),
                        "unescaped label value: {line}"
                    );
                }
            }
        }
        assert!(name_ok(name), "bad sample name: {line}");
        // Resolve the family: the name itself, or its summary
        // `_sum`/`_count` companions.
        let fam = [
            name,
            name.trim_end_matches("_sum"),
            name.trim_end_matches("_count"),
        ]
        .into_iter()
        .find(|f| typed.contains_key(*f))
        .unwrap_or_else(|| panic!("sample before/without TYPE declaration: {line}"));
        if fam != name {
            assert_eq!(
                typed[fam], "summary",
                "_sum/_count on a non-summary family: {line}"
            );
        }
        assert!(series.insert(id.to_string()), "duplicate series: {line}");
        sampled.insert(fam.to_string());
    }
    for fam in helped {
        assert!(typed.contains_key(&fam), "HELP without TYPE: {fam}");
        assert!(sampled.contains(&fam), "family with no samples: {fam}");
    }
}

/// A deterministic snapshot exercising every rendering path: dotted
/// and dashed names needing sanitization, a negative gauge, and a
/// summary with exact quantiles.
fn synthetic_prometheus() -> String {
    let r = Registry::new();
    r.counter("online.ingest_events").add(42);
    r.counter("weird.name-1").add(7);
    r.gauge("sli.live_txns").set(3);
    r.gauge("gc.drift").set(-5);
    let h = r.histogram("online.apply_ns");
    for _ in 0..4 {
        h.record(100);
    }
    r.snapshot().to_prometheus()
}

#[test]
fn synthetic_snapshot_matches_golden() {
    let text = synthetic_prometheus();
    lint_prometheus(&text);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/metrics_prom.golden"
    );
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("read golden");
    assert_eq!(
        text, golden,
        "Prometheus rendering drifted; regenerate with REGEN_GOLDEN=1"
    );
}

#[test]
fn cli_metrics_prom_is_well_formed() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_adya-check"))
        .args(["--metrics", "prom"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn adya-check");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(b"w1(x,1) c1 r2(x1) c2")
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let prom_at = stdout.find("# HELP").expect("prom block in stdout");
    let prom = &stdout[prom_at..];
    lint_prometheus(prom);
    // Batch mode runs the offline checker, so its families lead.
    assert!(prom.contains("checker_analyses"), "{prom}");
}

/// Asserts every sample line in `text` carries `key="value"` for each
/// required fleet label — a scrape that cannot be told apart from
/// another node's is a lint failure, not a dashboard surprise.
fn assert_fleet_labels(text: &str, labels: &[(&str, &str)]) {
    let mut samples = 0;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples += 1;
        for (k, v) in labels {
            assert!(
                line.contains(&format!("{k}=\"{v}\"")),
                "sample without {k}=\"{v}\": {line}"
            );
        }
    }
    assert!(samples > 0, "no samples to check: {text}");
}

#[test]
fn serve_metrics_carry_node_and_role_labels() {
    let data = data_dir("prom-labels-leader");
    let (_leader, addr) = spawn_server(&data, "127.0.0.1:0", &["--node", "n-lead"]);
    let (status, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    lint_prometheus(&body);
    assert_fleet_labels(&body, &[("node", "n-lead"), ("role", "leader")]);
}

#[test]
fn serve_metrics_follower_role_label() {
    let data = data_dir("prom-labels-follower");
    let (_follower, addr) = spawn_server(&data, "127.0.0.1:0", &["--node", "n-foll", "--follower"]);
    let (status, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    lint_prometheus(&body);
    assert_fleet_labels(&body, &[("node", "n-foll"), ("role", "follower")]);
}

#[test]
fn obs_endpoint_metrics_is_well_formed() {
    let (_child, addr) = spawn_streaming(&[], "w1(x,1) c1 r2(x1) c2\n");
    // The endpoint is up before the first event applies; poll until
    // ingest shows, then lint the full exposition.
    let mut body = String::new();
    for _ in 0..100 {
        let (status, b) = http_get(&addr, "/metrics");
        assert_eq!(status, 200);
        body = b;
        if body.contains("online_ingest_events") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    lint_prometheus(&body);
    assert!(body.contains("online_ingest_events"), "{body}");
    assert!(body.contains("sli_"), "SLI gauges exported: {body}");
}
