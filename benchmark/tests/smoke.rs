//! End-to-end smoke: the built `adya-ledger` binary, `--quick` sizes,
//! against the real `adya-check` / `adya-serve`.

use std::path::Path;
use std::process::Command;

const LEDGER: &str = env!("CARGO_BIN_EXE_adya-ledger");

fn json_names(text: &str, section: &str) -> Vec<String> {
    // BENCHMARK.json lists one metric per line: `{"name": "x", …}`.
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    text[start..]
        .lines()
        .skip(1)
        .take_while(|l| l.trim_start().starts_with('{'))
        .map(|l| {
            let at = l.find("\"name\": \"").expect("name") + 9;
            l[at..at + l[at..].find('"').unwrap()].to_string()
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
}

/// The driver's contract for one run: last stdout line is one JSON
/// object with exactly `correct`, `attempted`, `failed`, `metrics`,
/// and the metrics are exactly the section `--trace` selects.
#[test]
fn a_single_run_prints_the_driver_line() {
    let spec = benchmark_json();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(LEDGER)
            .args([
                "--workload",
                "batch",
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
            ])
            .output()
            .expect("adya-ledger runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        let metrics_at = last.find(", \"metrics\": {").expect("metrics key");
        assert!(last[..metrics_at].contains(", \"failed\": 0"), "{last}");
        assert_eq!(last[..metrics_at].matches("\": ").count(), 3, "{last}");
        for name in json_names(&spec, section) {
            assert!(
                last[metrics_at..].contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing from {last}"
            );
        }
        assert_eq!(
            last[metrics_at..].matches("{\"value\": ").count(),
            json_names(&spec, section).len(),
            "unnamed metrics in {last}"
        );
    }
}

/// `run --quick`: all six workloads, both modes, one document, six
/// trace files, nothing failed, no claim made.
#[test]
fn quick_ledger_covers_every_workload() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = dir.join("smoke-ledger.json");
    let started = std::time::Instant::now();
    let out = Command::new(LEDGER)
        .args(["run", "--quick", "--seed", "11", "--out"])
        .arg(&ledger)
        .output()
        .expect("adya-ledger runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        started.elapsed().as_secs() < 60,
        "quick run took {:?}",
        started.elapsed()
    );
    let doc = std::fs::read_to_string(&ledger).unwrap();
    assert!(
        doc.trim_end().ends_with("\"claim\": null\n}"),
        "ledger must end without a claim"
    );
    assert!(doc.contains("\"correct\": true"));
    let spec = benchmark_json();
    let workloads = json_names(&spec, "workloads");
    assert_eq!(workloads.len(), 6);
    for w in &workloads {
        assert!(doc.contains(&format!("    \"{w}\": {{")), "{w} missing");
        assert!(
            dir.join(format!("trace-{w}.json")).exists(),
            "trace-{w}.json missing"
        );
    }
    assert_eq!(
        doc.matches("\"failed\": 0,").count(),
        6,
        "some workload failed its oracle"
    );
    for section in ["end_to_end", "per_layer"] {
        for name in json_names(&spec, section) {
            assert_eq!(
                doc.matches(&format!("        \"{name}\": {{")).count(),
                6,
                "{name}"
            );
        }
    }
    // A layer a workload does not exercise is `null` there, not 0.
    assert_eq!(
        doc.matches("\"core.dsg.build_ms\": {\"value\": null,")
            .count(),
        5,
        "core.dsg.build_ms is measured on batch alone"
    );
    // No adya-serve may outlive the run.
    let leaked = std::fs::read_dir("/proc")
        .unwrap()
        .flatten()
        .filter_map(|e| std::fs::read_to_string(e.path().join("cmdline")).ok())
        .filter(|c| c.contains("adya-serve") && c.contains(dir.to_str().unwrap()))
        .count();
    assert_eq!(leaked, 0, "adya-serve processes leaked");
}
