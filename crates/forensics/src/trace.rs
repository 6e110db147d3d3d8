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
use adya_obs::json::esc;

/// Track id for the anomaly markers (far above any transaction id).
const ANOMALY_TID: u64 = 1_000_000;
/// Track id for caller-supplied journal annotations.
const JOURNAL_TID: u64 = 1_000_001;

/// Microseconds allotted to one history event.
const SLOT_US: u64 = 1_000;

/// Renders `h` (and, when given, the phenomena of `a`) as a Chrome
/// trace-event JSON document.
pub fn trace_json(h: &History, a: Option<&Analysis>) -> String {
    trace_json_with_journal(h, a, &[])
}

/// [`trace_json`] with extra annotation instants appended on a
/// `journal` track — `(t_ns, name)` pairs from e.g. the obs journal.
/// Journal instants are laid out after the history events in their
/// given order (their wall-clock `t_ns` is preserved in `args`, the
/// timeline position is ordinal like everything else).
pub fn trace_json_with_journal(
    h: &History,
    a: Option<&Analysis>,
    journal: &[(u64, String)],
) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&ev);
    };

    // One track per transaction, in id order.
    let txns: Vec<TxnId> = h.txns().map(|(t, _)| t).collect();
    for &t in &txns {
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                t.0,
                esc(&t.to_string())
            ),
        );
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
        let committed = h.is_committed(t);
        push(
            &mut out,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"txn\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"events\":{},\"committed\":{}}}}}",
                esc(&t.to_string()),
                lo as u64 * SLOT_US,
                (hi - lo) as u64 * SLOT_US + SLOT_US,
                t.0,
                indices.len(),
                committed
            ),
        );
        for i in indices {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"op\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"event\":{}}}}}",
                    esc(&h.display_event(&h.events()[i])),
                    i as u64 * SLOT_US,
                    t.0,
                    i
                ),
            );
        }
    }

    // Anomaly markers.
    if let Some(a) = a {
        if !a.phenomena.is_empty() {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\
                     \"tid\":{ANOMALY_TID},\"args\":{{\"name\":\"anomalies\"}}}}"
                ),
            );
            for p in &a.phenomena {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"anomaly\",\"ph\":\"i\",\"s\":\"g\",\
                         \"ts\":{},\"pid\":1,\"tid\":{ANOMALY_TID},\
                         \"args\":{{\"witness\":\"{}\"}}}}",
                        esc(&p.kind().to_string()),
                        h.len() as u64 * SLOT_US,
                        esc(&p.to_string())
                    ),
                );
            }
        }
    }

    // Journal annotations.
    if !journal.is_empty() {
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\
                 \"tid\":{JOURNAL_TID},\"args\":{{\"name\":\"journal\"}}}}"
            ),
        );
        for (i, (t_ns, name)) in journal.iter().enumerate() {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"journal\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":1,\"tid\":{JOURNAL_TID},\"args\":{{\"t_ns\":{}}}}}",
                    esc(name),
                    (h.len() + i) as u64 * SLOT_US,
                    t_ns
                ),
            );
        }
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}
