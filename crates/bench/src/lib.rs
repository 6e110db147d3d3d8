//! Shared infrastructure for the figure-regeneration binaries and the
//! experiments that neither a tier-1 test can assert nor the ledger
//! (`benchmark/`) can time.
//!
//! Every table and figure of the paper has a binary here that
//! regenerates it from the live implementation:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `figure1` | Figure 1 — locking levels ↔ proscribed phenomena (run on the real 2PL engine) |
//! | `figure2` | Figure 2 — direct-conflict definitions, demonstrated on minimal histories |
//! | `figure3` | Figure 3 — the DSG of H_serial (edges + DOT) |
//! | `figure4` | Figure 4 — the DSG of H_wcycle (G0 cycle) |
//! | `figure5` | Figure 5 — the DSG of H_phantom (predicate anti-dependency cycle) |
//! | `figure6` | Figure 6 — the PL-level summary as a history × level matrix |
//! | `section3` | §3 — H1/H2/H1′/H2′ under preventative vs generalized definitions |
//! | `section4` | §4 — H_write_order, H_pred_read, H_insert, H_pred_update reconstructions |
//! | `mixing` | §5.5 — Definition 9 / Mixing Theorem on engine-mixed and sampled histories |
//! | `permissiveness` | E11 — admission-rate gap between P- and G-definitions |
//! | `perf_sweep` | E10 — scheme comparison across contention (the §1/§3 motivation) |
//! | `extensions` | E13 — thesis-level separations (SI / CS / MAV / 2+), cursor engine, MVTO version orders |
//! | `lattice` | the level-implication matrix (thesis lattice), checked for coherence |
//! | `all_figures` | runs every binary above in sequence (CI entry point) |
//!
//! Run them all with `cargo run -p adya-bench --bin <name>`.
//!
//! The rest are this repo's own cost accounting, one owner per number
//! (EXPERIMENTS.md says which test or ledger row owns what is not
//! here):
//!
//! | binary | experiment |
//! |---|---|
//! | `online_vs_batch` | E14 — one incremental pass vs a batch re-check of every committed prefix |
//! | `chaos_soak` | E15 — isolation guarantees under injected faults |
//! | `provenance_overhead` | E16 — edge provenance on vs off ([`overhead`]) |
//! | `telemetry_overhead` | E17 — stamps + SLIs + phase timings on vs off ([`overhead`]) |
//! | `replica_failover` | E20 — leader SIGKILL, client failover: lag at kill, failover latency |
//! | `trace_provenance` | E21 — stage stamping on vs off ([`overhead`]), plus a replicated per-stage breakdown |

#![warn(missing_docs)]

use std::fmt::Display;

pub mod overhead;

use adya_workloads::harness;
use adya_workloads::harness::Server;
pub use adya_workloads::harness::{http_get, reference};

/// A minimal fixed-width table printer for the report binaries.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Display>(header: &[S]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (short rows are padded with empty cells).
    pub fn row<S: Display>(&mut self, cells: &[S]) {
        let mut row: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i] - c.chars().count();
                s.push(' ');
                s.push_str(c);
                s.push_str(&" ".repeat(pad + 1));
                s.push('|');
            }
            s
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('|');
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Renders a boolean as the check/cross marks used in the reports.
pub fn mark(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "-"
    }
}

/// Prints a section banner. Goes to stderr so the stdout of a report
/// binary stays pure data (tables and verdicts) and can be piped or
/// diffed.
pub fn banner(title: &str) {
    eprintln!("\n=== {title} ===");
}

/// Prints a progress/diagnostic note to stderr (same contract as
/// [`banner`]: stdout is reserved for report data).
pub fn note(msg: &str) {
    eprintln!("{msg}");
}

/// The value following `flag` in the process arguments, if present
/// (empty when the flag is last).
fn arg_value(flag: &str) -> Option<String> {
    let mut it = std::env::args().skip(1);
    it.find(|a| a == flag)
        .map(|_| it.next().unwrap_or_default())
}

/// Extracts `--report <path>` from the process arguments, if present.
/// Report binaries that support it write a JSON metrics report there.
pub fn report_path_from_args() -> Option<String> {
    arg_value("--report").filter(|p| !p.is_empty())
}

/// Extracts `--<name> <value>` as a `u64` from the process arguments,
/// falling back to `default`. Report binaries use it for seed (and
/// size) plumbing: every randomized run's seed is CLI-settable and
/// echoed into the JSON report, so any run can be reproduced from the
/// report alone. Exits with an error on an unparsable value rather
/// than silently running a different experiment.
pub fn u64_from_args(name: &str, default: u64) -> u64 {
    let flag = format!("--{name}");
    let Some(v) = arg_value(&flag) else {
        return default;
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("invalid {flag} value: {v:?} (expected a u64)");
        std::process::exit(2)
    })
}

/// The machine's available parallelism, echoed into every report so a
/// perf number can always be read against the hardware that produced
/// it.
fn cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Renders a report in the uniform shape of every committed
/// `experiments/*.json`: the report name, the RNG seed, the core
/// count, the experiment's own knobs as `(name, value)` pairs in
/// order, then whatever `body` appends to the root object (runs array,
/// totals), newline-terminated.
fn render_report(
    report: &str,
    seed: u64,
    knobs: &[(&str, u64)],
    body: impl FnOnce(&mut adya_obs::json::JsonWriter),
) -> String {
    let mut w = adya_obs::json::JsonWriter::new();
    w.open_object(None);
    w.str_field("report", report);
    w.u64_field("seed", seed);
    w.u64_field("cores", cores());
    for (name, value) in knobs {
        w.u64_field(name, *value);
    }
    body(&mut w);
    w.close_object();
    let mut json = w.finish();
    json.push('\n');
    json
}

/// Writes the report — uniform header, then `body`'s payload — to the
/// `--report` path, if one was given.
/// A report that cannot be written exits 2: a CI step that asked for
/// one must not pass without it.
pub fn write_report(
    report: &str,
    seed: u64,
    knobs: &[(&str, u64)],
    body: impl FnOnce(&mut adya_obs::json::JsonWriter),
) {
    let Some(path) = report_path_from_args() else {
        return;
    };
    match std::fs::write(&path, render_report(report, seed, knobs, body)) {
        Ok(()) => note(&format!("report written to {path}")),
        Err(e) => {
            eprintln!("{report}: cannot write report {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// Exit helper: prints the verdict and panics on failure so CI-style
/// invocations notice mismatches.
pub fn verdict(name: &str, ok: bool) {
    if ok {
        println!("[{name}] reproduction OK");
    } else {
        panic!("[{name}] MISMATCH with the paper's claims");
    }
}

// ----------------------------------------------------------------------
// Shared by the experiments that drive a real `adya-serve` (E20, E21)
// ----------------------------------------------------------------------

/// `adya-serve` lands in the same target directory as the bench
/// binaries, so the sibling path is the default; `ADYA_SERVE_BIN`
/// overrides it for out-of-tree runs. Panics if it is not there.
fn serve_bin() -> std::path::PathBuf {
    let bin = std::env::var("ADYA_SERVE_BIN").map_or_else(
        |_| {
            let mut p = std::env::current_exe().expect("current_exe");
            p.pop();
            p.push("adya-serve");
            p
        },
        std::path::PathBuf::from,
    );
    assert!(
        bin.exists(),
        "adya-serve binary not found at {} — build it first (cargo build --release) \
         or set ADYA_SERVE_BIN",
        bin.display()
    );
    bin
}

/// [`harness::spawn_server`] on a free local port, storing sessions
/// under `data`, at the experiments' log cadence.
pub fn spawn_server(data: &std::path::Path, extra: &[&str]) -> (Server, String) {
    let cadence = ["--snapshot-every", "32", "--rotate-events", "64"];
    let args = [&cadence[..], extra].concat();
    harness::spawn_server(&serve_bin(), data, "127.0.0.1:0", &args)
}

/// Field `key` of the `replication` object in a fleet `/health` body.
pub fn replication_health(health: &str, key: &str) -> Option<u64> {
    adya_obs::json::parse(health)
        .ok()?
        .get("replication")?
        .u64_at(key)
}

/// A deterministic token stream for one session: interleaved begins,
/// version-correct reads, writes and commits over eight objects. The
/// seed perturbs the object choices so sessions diverge run to run
/// while staying reproducible.
pub fn session_tokens(session: u64, seed: u64, txns: u64) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut last_writer = [None::<u64>; 8];
    let obj = |i: usize| (b'a' + i as u8) as char;
    let salt = (seed ^ session.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize;
    for t in 1..=txns {
        let wobj = ((t as usize) * 7 + salt) % 8;
        let robj = ((t as usize) * 3 + salt / 8) % 8;
        tokens.push(format!("b{t}"));
        if let Some(w) = last_writer[robj] {
            tokens.push(format!("r{t}(k{}{w})", obj(robj)));
        }
        tokens.push(format!("w{t}(k{},{t})", obj(wobj)));
        tokens.push(format!("c{t}"));
        last_writer[wobj] = Some(t);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["level", "ok"]);
        t.row(&["PL-1", "yes"]);
        t.row(&["PL-2.99", "-"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(s.contains("PL-2.99"));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row(&["x"]);
        assert!(t.render().contains("x"));
    }

    #[test]
    fn marks() {
        assert_eq!(mark(true), "yes");
        assert_eq!(mark(false), "-");
    }

    #[test]
    fn report_header_is_uniform() {
        let s = render_report("demo", 7, &[("reps", 3), ("txns", 128)], |w| {
            w.bool_field("ok", true)
        });
        let want = format!(
            "{{\n  \"report\": \"demo\",\n  \"seed\": 7,\n  \"cores\": {},\n  \"reps\": 3,\n  \"txns\": 128,\n  \"ok\": true\n}}\n",
            cores()
        );
        assert_eq!(s, want);
        assert!(cores() >= 1);
    }
}
