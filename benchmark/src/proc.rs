//! Child processes: building the programs under test, running them
//! with a kill-on-drop guard, and reading their peak resident set.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The benchmark's own directory (`benchmark/` in the checkout).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch space for generated inputs, data directories and traces.
/// Inside the checkout, under the benchmark's own path, git-ignored.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// A fresh, empty directory `out/<name>`.
pub fn fresh_dir(name: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir().join(name);
    match std::fs::remove_dir_all(&dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Paths of the two programs under test.
#[derive(Debug, Clone)]
pub struct Programs {
    pub check: PathBuf,
    pub serve: PathBuf,
}

/// Builds `adya-check` and `adya-serve` from the repo's own workspace
/// (its manifest, lock file and profiles — not the benchmark's) and
/// returns their paths. Cargo's fingerprinting makes this a no-op
/// after the first call in a checkout.
pub fn build_programs() -> Result<Programs, String> {
    let root = bench_dir()
        .parent()
        .ok_or("benchmark directory has no parent")?;
    let manifest = root.join("Cargo.toml");
    if !manifest.exists() {
        return Err(format!(
            "{} not found: the benchmark runs inside a checkout of the repo",
            manifest.display()
        ));
    }
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(&manifest)
        .args(["--bin", "adya-check", "--bin", "adya-serve"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building adya-check/adya-serve failed: {status}"));
    }
    // A relative CARGO_TARGET_DIR resolves against the working
    // directory, which cargo above and this process share.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("target"));
    let bin = |name: &str| -> Result<PathBuf, String> {
        let p = target.join("release").join(name);
        let abs = std::fs::canonicalize(&p)
            .map_err(|e| format!("{} missing after build: {e}", p.display()))?;
        Ok(abs)
    };
    Ok(Programs {
        check: bin("adya-check")?,
        serve: bin("adya-serve")?,
    })
}

/// Owns a child process; kills and reaps it when dropped, so a panic
/// anywhere in a workload cannot leak an `adya-serve`.
#[derive(Debug)]
pub struct ChildGuard {
    child: Option<Child>,
}

impl ChildGuard {
    pub fn spawn(cmd: &mut Command) -> std::io::Result<ChildGuard> {
        Ok(ChildGuard {
            child: Some(cmd.spawn()?),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("child present until drop").id()
    }

    pub fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("child present until drop")
    }

    /// Waits for the child to exit on its own.
    pub fn wait(mut self) -> std::io::Result<ExitStatus> {
        let mut child = self.child.take().expect("child present until drop");
        child.wait()
    }

    fn kill_and_reap(&mut self) {
        if let Some(mut child) = self.child.take() {
            // Either call fails only when the child is already gone.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}

/// Peak resident memory of a live process in MiB, less its file-backed
/// pages: `VmHWM − RssFile` (`None` once it has exited: a zombie has no
/// address space left to report). File-backed pages are program text
/// and libraries; how many of them are resident swings by a tenth from
/// run to run with page-cache fault-around, and no change to the
/// program moves it.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib = |key: &str| -> Option<f64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    Some((kib("VmHWM:")? - kib("RssFile:")?).max(0.0) / 1024.0)
}

/// Runs a child that exits on its own, polling its peak RSS until it
/// does. The high-water mark only grows, so the last reading before
/// exit misses at most one polling interval of growth.
pub fn run_sampling_rss(cmd: &mut Command) -> std::io::Result<(ExitStatus, f64)> {
    const POLL: Duration = Duration::from_millis(5);
    let guard = ChildGuard::spawn(cmd)?;
    let pid = guard.pid();
    let done = Arc::new(AtomicBool::new(false));
    // f64 bits; peak RSS in MiB.
    let peak = Arc::new(AtomicU64::new(0f64.to_bits()));
    let sampler = {
        let (done, peak) = (Arc::clone(&done), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                if let Some(mib) = peak_rss_mib(pid) {
                    peak.store(mib.to_bits(), Ordering::Relaxed);
                }
                std::thread::sleep(POLL);
            }
        })
    };
    let status = guard.wait();
    done.store(true, Ordering::Relaxed);
    sampler.join().expect("rss sampler does not panic");
    Ok((status?, f64::from_bits(peak.load(Ordering::Relaxed))))
}

/// A running `adya-serve` child plus the address it bound.
pub struct ServerProc {
    guard: ChildGuard,
    pub addr: String,
    stderr_drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerProc {
    /// Spawns `adya-serve --data <dir> --listen 127.0.0.1:0 <extra>`
    /// and waits for its "listening on" line.
    pub fn spawn(serve: &Path, data: &Path, extra: &[&str]) -> Result<ServerProc, String> {
        let mut cmd = Command::new(serve);
        cmd.arg("--data")
            .arg(data)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut guard =
            ChildGuard::spawn(&mut cmd).map_err(|e| format!("spawn adya-serve: {e}"))?;
        let stderr = guard.child_mut().stderr.take().expect("stderr was piped");
        let mut reader = BufReader::new(stderr);
        let mut addr = None;
        let mut seen = String::new();
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    seen.push_str(&line);
                    if let Some(a) = line.trim().strip_prefix("adya-serve: listening on ") {
                        if !a.starts_with("unix:") {
                            addr = Some(a.to_string());
                        }
                    }
                }
            }
        }
        let addr = addr.ok_or_else(|| format!("adya-serve never reported its address: {seen}"))?;
        // Keep draining so the child can never block on a full pipe.
        let stderr_drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(ServerProc {
            guard,
            addr,
            stderr_drain: Some(stderr_drain),
        })
    }

    /// Peak resident set so far (less file-backed pages), MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        peak_rss_mib(self.guard.pid()).unwrap_or(0.0)
    }

    /// SIGKILL — the crash the durable log exists to survive.
    pub fn kill(self) {
        drop(self);
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.guard.kill_and_reap();
        if let Some(t) = self.stderr_drain.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_does_not_leak_the_child() {
        let pid = std::sync::Mutex::new(0u32);
        let outcome = std::panic::catch_unwind(|| {
            let guard =
                ChildGuard::spawn(Command::new("sleep").arg("600")).expect("sleep is on PATH");
            *pid.lock().unwrap() = guard.pid();
            panic!("workload blew up while the child was running");
        });
        assert!(outcome.is_err());
        let pid = *pid.lock().unwrap();
        assert_ne!(pid, 0);
        // Killed *and* reaped: no /proc entry, not even a zombie.
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "child {pid} outlived the panic"
        );
    }

    #[test]
    fn peak_rss_reads_this_process() {
        let mib = peak_rss_mib(std::process::id()).expect("own status is readable");
        assert!(mib > 0.1, "{mib}");
    }
}
