//! The work bound of batch graph construction: deriving the direct
//! conflicts and searching the start-ordered graph cost the history's
//! events plus its conflicts — not committed transactions × events, and
//! not committed transactions squared. A counter, not a stopwatch.
//! Alone in this file — so alone in its process — because it reads the
//! process-wide `checker.construction_visits` counter.

use adya::core::{analyze, PhenomenonKind};
use adya::history::{parse_history, Event, History, TxnId, VersionId};
use adya::workloads::histgen::{random_history, HistGenConfig};

/// The ledger's `gen::DIRTY_PROLOGUE`: eight transactions on keys of
/// their own that witness G1a, G1b, G1c and G2 (and with them G-single,
/// G-SIa, G-SIb and G-monotonic). They hold the lowest ids, so every
/// detector that stops at a witness stops here and what is left to
/// count is construction.
const PROLOGUE: &str = "b1 w1(pa,1) b2 r2(pa1) a1 c2 \
     b3 w3(pb,1) b4 r4(pb3) w3(pb,2) c3 c4 \
     b5 b6 w5(pc,1) w6(pd,1) r5(pd6) r6(pc5) c5 c6 \
     b7 w7(pe,1) w7(pf,1) c7 b8 r8(pf7) r8(peinit) c8";
const PROLOGUE_TXNS: u32 = 9;

/// `h` in the parser's notation with every transaction id raised by
/// `by`.
fn renumbered(h: &History, by: u32) -> String {
    let txn = |t: TxnId| TxnId(t.0 + by);
    let version = |v: VersionId| {
        if v.is_init() {
            v
        } else {
            VersionId::new(txn(v.txn), v.seq)
        }
    };
    let mut parts = h.to_parts();
    for e in &mut parts.events {
        match e {
            Event::Begin(t) | Event::Commit(t) | Event::Abort(t) => *t = txn(*t),
            Event::Write(w) => w.txn = txn(w.txn),
            Event::Read(r) => {
                r.txn = txn(r.txn);
                r.version = version(r.version);
            }
            Event::PredicateRead(_) => unreachable!("histgen emits item operations only"),
        }
    }
    for v in parts.version_orders.values_mut().flatten() {
        *v = version(*v);
    }
    parts.levels.clear(); // all PL-3, the default
    let shifted = History::from_parts(parts).expect("renumbering keeps a history well-formed");
    shifted
        .to_notation()
        .expect("histgen histories are notable")
}

/// A dirty `histgen` history of `txns` transactions behind the
/// prologue.
fn dirty_history(txns: usize) -> History {
    let cfg = HistGenConfig {
        txns,
        objects: 64,
        ops_per_txn: 4,
        max_concurrent: 8,
        ..HistGenConfig::default()
    };
    let body = renumbered(&random_history(&cfg, 11), PROLOGUE_TXNS);
    parse_history(&format!("{PROLOGUE} {body}")).expect("prologue and body share no key")
}

#[test]
fn construction_visits_events_plus_conflicts_at_every_size() {
    let mut visited_before = 0;
    for txns in [800, 3_200] {
        let h = dirty_history(txns);
        let events = h.len() as u64;
        assert!(events >= 5 * txns as u64, "{events} events");

        let a = analyze(&h);
        for planted in [
            PhenomenonKind::G1a,
            PhenomenonKind::G1b,
            PhenomenonKind::G1c,
            PhenomenonKind::G2,
            PhenomenonKind::GSingle,
            PhenomenonKind::GSIa,
            PhenomenonKind::GSIb,
            PhenomenonKind::GMonotonic,
        ] {
            let witness = a.phenomena.iter().find(|p| p.kind() == planted);
            let witness = witness
                .unwrap_or_else(|| panic!("{planted} must fire"))
                .to_string();
            let mut cited = witness.split('T').skip(1).filter_map(|after| {
                let digits = after.find(|c: char| !c.is_ascii_digit());
                after[..digits.unwrap_or(after.len())].parse::<u32>().ok()
            });
            assert!(
                cited.all(|t| t < PROLOGUE_TXNS),
                "{planted} must fire in the prologue: {witness}"
            );
        }

        let visited_after = adya_obs::global()
            .snapshot()
            .counter("checker.construction_visits");
        let visited = visited_after - visited_before;
        visited_before = visited_after;
        let conflicts = a.dsg.conflicts().len() as u64;
        // Three sweeps of the committed transactions' own events and
        // one descent of the begin-ordered array. A whole-history scan
        // per transaction and a stored start edge per ordered pair put
        // `visited` at committed × events × 3 + committed² / 2: three
        // orders of magnitude up at the first size, and growing.
        assert!(
            visited >= events / 2,
            "the counter must be wired: {visited}"
        );
        assert!(
            visited <= 2 * (events + conflicts),
            "{visited} visits for {events} events and {conflicts} conflicts"
        );
    }
}
