//! E17 — what the live telemetry plane costs on the hot path. PR 6
//! threads sampled spans through the checker (apply / graph-insert /
//! verdict / GC attribution) and mirrors SLIs into a
//! [`CheckerMonitor`] after every event; this bench measures that
//! fully-on plane against the same ingest run with telemetry off, on
//! the E14/E16 workload.
//!
//! Method: [`adya_bench::overhead`]'s on/off sweep (`--txns N` runs
//! one size, for CI smoke). Two gates: the verdict NDJSON streams
//! must be byte-identical (telemetry observes, never alters), and
//! aggregate ingest overhead
//! must stay within the 10% budget that E16 held provenance to —
//! sampling (1 event in [`SAMPLE_EVERY`]) is what buys that headroom,
//! since E16 showed always-on per-event bookkeeping lands near 18%.

use std::time::Instant;

use adya_bench::overhead::{sizes_from_args, Labels, Sweep, OVERHEAD_REPS};
use adya_bench::{banner, note, u64_from_args, verdict, write_report};
use adya_online::{CheckerMonitor, GcConfig, HealthPolicy, OnlineChecker};

/// Telemetry sampling period under test — the same 1-in-32 the
/// `adya-check --stream` obs plane uses.
const SAMPLE_EVERY: u32 = 32;

/// The claim the committed report's `within_budget` records.
const CLAIM_PCT: u64 = 10;

/// One timed ingest of `h`'s events with the telemetry plane `on`
/// (sampled spans + per-event monitor SLIs) or fully off, plus the
/// complete verdict NDJSON stream for the parity check.
fn ingest(h: &adya_history::History, on: bool) -> (u128, Vec<String>) {
    let mut c = OnlineChecker::with_gc(GcConfig::default());
    let monitor = on.then(|| CheckerMonitor::new(HealthPolicy::default()));
    if on {
        c.set_telemetry_sampling(SAMPLE_EVERY);
    }
    let mut cur = Vec::new();
    let start = Instant::now();
    for e in h.events() {
        match &monitor {
            Some(m) => {
                let arrived = m.arrival();
                let v = c.ingest(e);
                m.observe_event(&c, arrived);
                if let Some(v) = v {
                    m.observe_verdict(&v);
                    cur.push(v.to_json());
                }
            }
            None => {
                if let Some(v) = c.ingest(e) {
                    cur.push(v.to_json());
                }
            }
        }
    }
    let fin = c.finish();
    if let Some(m) = &monitor {
        m.observe_verdict(&fin);
    }
    cur.push(fin.to_json());
    (start.elapsed().as_nanos(), cur)
}

fn main() {
    banner("Telemetry overhead: online ingest with the obs plane fully on vs off");
    let seed = u64_from_args("seed", 42);
    // CI smoke passes a looser regression ceiling than the claim
    // because shared runners are noisy.
    let budget_pct = u64_from_args("budget-pct", CLAIM_PCT);

    let sweep = Sweep::run(Labels::TELEMETRY, &sizes_from_args(), seed, ingest);
    println!("{}", sweep.table());
    note(&format!(
        "aggregate ingest overhead with spans+SLIs on (1-in-{SAMPLE_EVERY} sampling): {:+.1}%",
        sweep.overhead_pct()
    ));

    write_report(
        "telemetry_overhead",
        seed,
        &[
            ("reps", OVERHEAD_REPS as u64),
            ("sample_every", u64::from(SAMPLE_EVERY)),
        ],
        |w| sweep.report(w, Some(CLAIM_PCT)),
    );
    // The ≤10% budget is the same rule that kept provenance (E16)
    // opt-in; the telemetry plane meets it by sampling, so it can
    // stay on for every `--stream --obs-listen` run.
    verdict("E17 telemetry overhead", sweep.passes(budget_pct));
}
