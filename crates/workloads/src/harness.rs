//! The process harness shared by everything that drives a real
//! `adya-serve` from outside — the spawn-based integration tests and
//! the soak/failover/provenance experiments: a child that dies with
//! its owner, the spawn-and-wait-for-the-listen-line recipe, a
//! one-shot HTTP GET, and the uninterrupted in-process reference a
//! session's verdict stream is compared against.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use adya_online::{GcConfig, OnlineChecker, StreamFeed};

/// A spawned server; killed on drop so a panicking test or bench never
/// leaks a listener.
pub struct Server(pub Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns the `adya-serve` at `bin` over `data` on `listen` with
/// `extra` flags, returning the process and the actually-bound
/// address. Retries briefly so a restart can rebind the port a killed
/// predecessor just held.
pub fn spawn_server(bin: &Path, data: &Path, listen: &str, extra: &[&str]) -> (Server, String) {
    for attempt in 0..50 {
        let mut child = Command::new(bin)
            .arg("--data")
            .arg(data)
            .args(["--listen", listen])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
        let stderr = child.stderr.take().expect("piped stderr");
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read first stderr line");
        if let Some((_, addr)) = line.rsplit_once("listening on ") {
            // Keep stderr draining so the child never blocks on it.
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut reader, &mut std::io::sink());
            });
            return (Server(child), addr.trim().to_string());
        }
        let _ = child.kill();
        let _ = child.wait();
        assert!(attempt < 49, "adya-serve kept failing to bind: {line:?}");
        std::thread::sleep(Duration::from_millis(100));
    }
    unreachable!()
}

/// One HTTP GET; returns (status, body).
pub fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: adya\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut response = String::new();
    s.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The uninterrupted in-process reference: same tokens, same checker
/// configuration as a server session — (verdict lines, final line).
pub fn reference(tokens: &[String]) -> (Vec<String>, String) {
    let mut feed = StreamFeed::new(OnlineChecker::with_gc(GcConfig::default()));
    let mut verdicts = Vec::new();
    for tok in tokens {
        let ev = feed.parse(tok).expect("reference tokens parse");
        if let Some(v) = feed.ingest(&ev) {
            verdicts.push(v.to_json());
        }
    }
    (verdicts, feed.finish().to_json())
}
