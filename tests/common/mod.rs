//! Helpers shared by the spawn-based integration tests, on top of
//! `adya::workloads::harness`: the two servers' spawn recipes for this
//! build's binaries, the deterministic session workload, and a
//! resuming send.

// Every test binary compiles this module and uses its own subset.
#![allow(dead_code, unused_imports)]

use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use adya::workloads::harness;
pub use adya::workloads::harness::{http_get, reference, Server};
use adya::workloads::{ClientError, RetryPolicy, ServeClient};

/// A fresh scratch directory path under the test target dir.
pub fn data_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns this build's `adya-serve` on `listen` over `data` (see
/// [`harness::spawn_server`]) with a log cadence short enough that a
/// few dozen transactions cross several snapshots and rotations.
pub fn spawn_server(data: &Path, listen: &str, extra: &[&str]) -> (Server, String) {
    let cadence = ["--snapshot-every", "8", "--rotate-events", "16"];
    harness::spawn_server(
        Path::new(env!("CARGO_BIN_EXE_adya-serve")),
        data,
        listen,
        &[&cadence[..], extra].concat(),
    )
}

/// Starts `adya-check --stream --obs-listen 127.0.0.1:0 <extra>`,
/// writes `events` to its stdin (left open, so the obs endpoint stays
/// up), and returns the process plus the bound endpoint address
/// parsed from stderr.
pub fn spawn_streaming(extra: &[&str], events: &str) -> (Server, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_adya-check"))
        .args(["--stream", "--obs-listen", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn adya-check --stream");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(events.as_bytes())
        .expect("write events");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut line = String::new();
    BufReader::new(stderr)
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .rsplit_once("listening on ")
        .unwrap_or_else(|| panic!("unexpected stderr line: {line:?}"))
        .1
        .trim()
        .to_string();
    (Server(child), addr)
}

/// A deterministic token stream for one session: interleaved begins,
/// version-correct reads, writes and commits over eight objects.
pub fn session_tokens(session: usize, txns: u64) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut last_writer = [None::<u64>; 8];
    let obj = |i: usize| (b'a' + i as u8) as char;
    for t in 1..=txns {
        let wobj = ((t as usize) * 7 + session) % 8;
        let robj = ((t as usize) * 3 + session) % 8;
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

/// Streams one token, transparently resuming — against a restarted
/// server or a failover endpoint — and counting the resume when the
/// current endpoint is down.
pub fn send_resilient(client: &mut ServeClient, tok: &str, hint: &str, resumes: &mut u32) {
    match client.send_token(tok) {
        Ok(()) => {}
        Err(ClientError::Io(_)) => {
            let policy = RetryPolicy {
                deadline_ops: Some(2_000),
                ..RetryPolicy::default()
            };
            client
                .resume(&policy, 0xAD7A)
                .unwrap_or_else(|e| panic!("resume against {hint} failed: {e}"));
            *resumes += 1;
        }
        Err(e) => panic!("protocol error streaming {tok:?}: {e}"),
    }
}
