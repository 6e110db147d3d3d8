//! `adya-serve` — the durable, multi-tenant checker service.
//!
//! Hosts many concurrent online-checker sessions over TCP, each with a
//! segmented durable event log and periodic snapshots under `--data`,
//! so killing the process and restarting it on the same directory
//! resumes every session with a byte-identical verdict stream. The obs plane (`/metrics`,
//! `/health`) is served on the same port.
//!
//! Protocol (NDJSON, one frame or event line per line):
//!
//! ```text
//! → {"op": "hello", "session": "sess-a"}          create a session
//! ← {"ok": "hello", "session": "sess-a", ...}
//! → b1 w1(x,1) c1                    event tokens (adya-check notation)
//! ← {"txn": 1, "committed": true, ...}     one verdict per commit
//!                                          (aborts produce no reply)
//! → {"op": "resume", "session": "sess-a", "verdicts": 3}   re-attach
//! ← {"ok": "resume", "events": N, "verdicts": T, "replay": M} + M lines
//! → {"op": "close"}                  finish: final verdict + closing
//! ```
//!
//! With `--trace-propagate`, a client may add `"trace": "on"` to
//! `hello`/`resume`; each verdict of a sampled commit then arrives
//! prefixed with its latency-provenance id — `{"trace": "t<16 hex>",
//! ...canonical verdict...}` — while the durable log, replay window
//! and final verdict stay canonical. Replication append frames carry
//! the same ids in a `trace` field so follower stamps join the
//! leader's trace; each node serves its stamp segment under `/trace`
//! (merge with `adya-check trace-merge`). Unknown frame fields are
//! ignored, so traced and untraced peers interoperate.
//!
//! SIGTERM/ctrl-c drains gracefully: connections get a
//! `{"closing": "shutdown"}` frame, every session parks with a final
//! snapshot, sockets close, exit 0.

use std::process::ExitCode;
use std::time::Duration;

use adya::serve::{shutdown, FsyncPolicy, ServeConfig, Server};
use adya_faults::TapCrashConfig;

const USAGE: &str = "usage: adya-serve --data DIR [--listen ADDR]
                  [--rotate-events N] [--snapshot-every N]
                  [--idle-timeout-ms N] [--crash-at-event N]
                  [--fsync always|interval|never]
                  [--replicate-to ADDR[,ADDR...]] [--follower]
                  [--advertise ADDR] [--repl-lag-max N]
                  [--trace-propagate] [--trace-sample N] [--node NAME]

  --data DIR        session store root (one subdirectory per session)
  --listen ADDR     TCP listen address (default 127.0.0.1:0; the bound
                    address is printed to stderr)
  --rotate-events N start a new log segment every N events (default 4096)
  --snapshot-every N snapshot + compact every N events (default 1024)
  --idle-timeout-ms N detach a connection (parking its session) after N
                    milliseconds without read progress (default 60000)
  --crash-at-event N abort the process at the N-th non-commit event
                    after it is logged but before it is applied
                    (crash-recovery testing only)
  --fsync POLICY    when appends reach stable storage: always (every
                    append), interval (at each snapshot; default), or
                    never (no explicit syncs)
  --replicate-to A  lead a replica set: stream every durable log byte
                    to the follower adya-serve at each ADDR
  --follower        start as a follower: apply replication streams,
                    refuse client frames with not_leader until promoted
                    (operator {\"op\": \"promote\"} frame, or client
                    failover promotes automatically)
  --advertise ADDR  client-facing address handed to followers for
                    not_leader redirects (default: the bound address)
  --repl-lag-max N  /health turns 503 when the worst acknowledged
                    follower lag exceeds N records (default: never)
  --trace-propagate stamp sampled events with per-stage latency
                    provenance (tap through replicated ack), carry
                    their trace ids on replication frames, serve the
                    node's segment under /trace, and annotate verdict
                    lines for clients that send \"trace\": \"on\"
  --trace-sample N  provenance sampling cadence, 1-in-N events by
                    durable record number (default 32)
  --node NAME       this node's name in trace lanes and /metrics
                    labels (default node0)
";

struct Args {
    data: String,
    listen: String,
    cfg: ServeConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut data = None;
    let mut listen = "127.0.0.1:0".to_string();
    let mut cfg = ServeConfig::new("");
    let mut it = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--data" => data = Some(need(&mut it, "--data")?),
            "--listen" => listen = need(&mut it, "--listen")?,
            "--rotate-events" => {
                cfg.session.log.rotate_events = parse_u64(&need(&mut it, "--rotate-events")?)?
            }
            "--snapshot-every" => {
                cfg.session.log.snapshot_every = parse_u64(&need(&mut it, "--snapshot-every")?)?
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout =
                    Duration::from_millis(parse_u64(&need(&mut it, "--idle-timeout-ms")?)?)
            }
            "--crash-at-event" => {
                cfg.tap = TapCrashConfig {
                    crash_at: Some(parse_u64(&need(&mut it, "--crash-at-event")?)?),
                    crash_every: None,
                }
            }
            "--fsync" => cfg.session.log.fsync = FsyncPolicy::parse(&need(&mut it, "--fsync")?)?,
            "--replicate-to" => {
                cfg.repl.followers = need(&mut it, "--replicate-to")?
                    .split(',')
                    .filter(|a| !a.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--follower" => cfg.repl.follower = true,
            "--advertise" => cfg.repl.advertise = Some(need(&mut it, "--advertise")?),
            "--repl-lag-max" => {
                cfg.repl.lag_max = Some(parse_u64(&need(&mut it, "--repl-lag-max")?)?)
            }
            "--trace-propagate" => cfg.trace_propagate = true,
            "--trace-sample" => cfg.trace_sample = parse_u64(&need(&mut it, "--trace-sample")?)?,
            "--node" => cfg.node = need(&mut it, "--node")?,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cfg.session.log.rotate_events == 0 || cfg.session.log.snapshot_every == 0 {
        return Err("--rotate-events/--snapshot-every must be at least 1".into());
    }
    if cfg.idle_timeout.is_zero() {
        return Err("--idle-timeout-ms must be at least 1".into());
    }
    if cfg.repl.follower && !cfg.repl.followers.is_empty() {
        return Err("--follower and --replicate-to are mutually exclusive".into());
    }
    if cfg.trace_sample == 0 {
        return Err("--trace-sample must be at least 1".into());
    }
    let data = data.ok_or("--data is required")?;
    cfg.data_dir = data.clone().into();
    Ok(Args { data, listen, cfg })
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a number: {s}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("adya-serve: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    shutdown::install();
    let role = if args.cfg.repl.follower {
        "follower (awaiting promotion)".to_string()
    } else if args.cfg.repl.followers.is_empty() {
        "standalone".to_string()
    } else {
        format!("leader of {} follower(s)", args.cfg.repl.followers.len())
    };
    let (trace_propagate, trace_sample, node) = (
        args.cfg.trace_propagate,
        args.cfg.trace_sample,
        args.cfg.node.clone(),
    );
    let mut server = match Server::bind(&args.listen, args.cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("adya-serve: cannot bind {}: {e}", args.listen);
            return ExitCode::from(2);
        }
    };
    eprintln!("adya-serve: listening on {}", server.local_addr());
    eprintln!("adya-serve: sessions under {}", args.data);
    eprintln!("adya-serve: role: {role}");
    if trace_propagate {
        eprintln!("adya-serve: trace propagation on (node {node}, 1-in-{trace_sample})");
    }

    while !shutdown::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("adya-serve: shutdown requested, draining");
    server.shutdown();
    eprintln!("adya-serve: all sessions parked, bye");
    ExitCode::SUCCESS
}
