//! E16 — what forensics costs on the hot path. The online checker now
//! records per-edge provenance (the concrete operation behind every
//! ww/wr/rw edge) so a violating verdict can cite its cycle; this
//! bench measures that bookkeeping against the same ingest run with
//! provenance disabled ([`OnlineChecker::set_provenance`]).
//!
//! Method: [`adya_bench::overhead`]'s on/off sweep. Both sides must
//! produce identical phenomenon sets — provenance is an annotation,
//! never a detector. The measured cost (~18% aggregate on this
//! conflict-heavy workload, after freshness gating and indexed GC
//! purges) exceeds the 10% budget an always-on feature
//! would need, which is why the library ships with provenance off by
//! default and `adya-check --stream` opts in explicitly. The verdict
//! enforces parity plus a 25% regression ceiling on the opt-in cost.
//! A final row times the offline side of forensics (witness
//! extraction with history shrinking) for scale, since that work only
//! runs on demand, never per event.

use std::time::Instant;

use adya_bench::overhead::{Labels, Sweep, OVERHEAD_REPS, SIZES};
use adya_bench::{banner, note, u64_from_args, verdict, write_report};
use adya_forensics::extract_all;
use adya_history::parse_history_completed;
use adya_online::{GcConfig, OnlineChecker};

/// One timed ingest of `h`'s events with provenance `on`, plus the
/// final fired set for the parity check.
fn ingest(h: &adya_history::History, on: bool) -> (u128, Vec<adya_core::PhenomenonKind>) {
    let mut c = OnlineChecker::with_gc(GcConfig::default());
    c.set_provenance(on);
    let start = Instant::now();
    for e in h.events() {
        c.ingest(e);
    }
    let fin = c.finish();
    (start.elapsed().as_nanos(), fin.fired)
}

fn main() {
    banner("Provenance overhead: online ingest with vs without edge provenance");
    let seed = u64_from_args("seed", 42);

    let sweep = Sweep::run(Labels::PROVENANCE, &SIZES, seed, ingest);
    println!("{}", sweep.table());

    // The offline side, for scale: extracting minimized witnesses from
    // the paper's read-skew history (shrinking re-runs the detectors,
    // so this is deliberately not a per-event cost).
    let h = parse_history_completed(
        "r2(xinit,5) r1(xinit,5) w1(x,1) r1(yinit,5) w1(y,9) c1 r2(y1,9) c2",
    )
    .expect("paper history parses");
    let start = Instant::now();
    let witnesses = extract_all(&h);
    let extract_ns = start.elapsed().as_nanos();
    note(&format!(
        "witness extraction (read skew, {} witnesses, shrink + re-detect): {} µs",
        witnesses.len(),
        extract_ns / 1000
    ));
    note(&format!(
        "aggregate ingest overhead: {:+.1}%",
        sweep.overhead_pct()
    ));

    write_report(
        "provenance_overhead",
        seed,
        &[("reps", OVERHEAD_REPS as u64)],
        |w| {
            sweep.report(w, None);
            w.u64_field("witness_extract_ns", extract_ns as u64);
        },
    );
    // Above the 10% always-on budget, so provenance is off by default
    // (`set_provenance(true)` opts in); the ceiling here only guards
    // the opt-in path against regressions.
    verdict("E16 provenance overhead", sweep.passes(25));
}
