//! Chrome-trace / Perfetto JSON export: per-transaction tracks laid
//! out over the history's event order (the recorder's stable event
//! ids), so a violation can be scrubbed visually.
//!
//! The output is the Chrome trace-event format (JSON object form):
//! every event carries the required keys `name`, `ph`, `ts`, `pid`,
//! `tid`. Each transaction becomes one track (`tid` = transaction id)
//! holding one complete (`"X"`) span from its first to its terminal
//! event plus one instant (`"i"`) event per operation; detected
//! phenomena land on a dedicated `anomalies` track. Timestamps are the
//! event's position in the history, scaled to 1 ms per event — event
//! *order*, which is what the model defines, not wall-clock time.

use adya_core::Analysis;
use adya_history::{History, TxnId};
use adya_obs::{Arg, ChromeTrace};

/// Track id for the anomaly markers (far above any transaction id).
const ANOMALY_TID: u64 = 1_000_000;

/// Microseconds allotted to one history event.
const SLOT_US: i64 = 1_000;

/// Renders `h` (and, when given, the phenomena of `a`) as a Chrome
/// trace-event JSON document.
pub fn trace_json(h: &History, a: Option<&Analysis>) -> String {
    let mut out = ChromeTrace::new();

    // One track per transaction, in id order.
    let txns: Vec<TxnId> = h.txns().map(|(t, _)| t).collect();
    for &t in &txns {
        let track = (1, u64::from(t.0));
        let label = t.to_string();
        out.metadata(track, "thread_name", ("name", Arg::Str(&label)));
        let indices: Vec<usize> = h
            .events()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.txn() == t)
            .map(|(i, _)| i)
            .collect();
        let (Some(&lo), Some(&hi)) = (indices.first(), indices.last()) else {
            continue;
        };
        out.complete(
            track,
            Some("txn"),
            &label,
            lo as i64 * SLOT_US,
            (hi - lo) as i64 * SLOT_US + SLOT_US,
            &[
                ("events", Arg::Num(indices.len() as u64)),
                ("committed", Arg::Bool(h.is_committed(t))),
            ],
        );
        for i in indices {
            out.instant(
                track,
                Some("op"),
                &h.display_event(&h.events()[i]),
                't',
                i as i64 * SLOT_US,
                &[("event", Arg::Num(i as u64))],
            );
        }
    }

    // Anomaly markers.
    if let Some(a) = a.filter(|a| !a.phenomena.is_empty()) {
        let track = (1, ANOMALY_TID);
        out.metadata(track, "thread_name", ("name", Arg::Str("anomalies")));
        for p in &a.phenomena {
            out.instant(
                track,
                Some("anomaly"),
                &p.kind().to_string(),
                'g',
                h.len() as i64 * SLOT_US,
                &[("witness", Arg::Str(&p.to_string()))],
            );
        }
    }

    out.finish_with(|w| w.str_field("displayTimeUnit", "ms"))
}
