//! Cross-node per-verdict tracing: every sampled event gets a trace
//! context at the tap and a monotonic timestamp at each stage it
//! crosses — tap → ring → sequencer → batch apply → verdict emit →
//! durable log append → replication publish → follower ack — so "why
//! was this verdict slow?" decomposes into per-stage deltas instead of
//! one opaque end-to-end number. It is the one per-event plane: the
//! events it samples are the ones the streaming checker's monitor
//! captures SLIs for, and `/trace` (on `adya-check --stream
//! --obs-listen` and `adya-serve`) and streaming `--trace-out` render
//! its stamps ([`trace_document`]).
//!
//! - **Stamping takes the plane's one lock.** A stamp goes into a
//!   bounded buffer (the newest [`DEFAULT_STAMP_CAPACITY`]; what it
//!   overwrites is counted as dropped) under the same mutex that keeps
//!   each trace's first and latest times, so a reader copies whole
//!   stamps, oldest first.
//! - **Sampling is deterministic.** One in `sample_every` events by
//!   dense sequence number, so the leader and a follower replaying the
//!   same durable stream pick the *same* events, and the trace id —
//!   FNV-1a over `(scope, seq)` — is identical on both nodes. That is
//!   what lets [`merge_segments`] join per-node segments into one flow
//!   without any coordination protocol.
//! - **Per-node clocks stay local.** Every [`TracePlane`] timestamps
//!   against its own monotonic epoch; the offline merge estimates a
//!   per-node offset from the replication send/receive pairs of shared
//!   traces (a zero-delay estimate: the median of `send − receive`
//!   over shared traces), good enough to render both lanes on one
//!   timeline.
//!
//! A `TracePlane` is deliberately *instantiable* rather than a process
//! global: each server (and each test) owns its own plane, so two
//! in-process servers never interleave stamps. Only the per-stage
//! latency histograms (`trace.stage_ns{stage=…}`) aggregate into the
//! global registry.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::Histogram;

/// Default 1-in-N sampling cadence for trace stamping.
pub const DEFAULT_TRACE_SAMPLE: u64 = 32;

/// Stamps a plane retains before it overwrites the oldest.
pub const DEFAULT_STAMP_CAPACITY: usize = 8192;

/// Bound on the per-trace first/last bookkeeping map; crossing it
/// clears the map (losing only in-flight delta baselines, never
/// stamps).
const LAST_MAP_MAX: usize = 4096;

/// A pipeline stage a traced event is stamped at, in canonical
/// pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Event parsed at the ingest tap (client line or producer).
    Tap = 0,
    /// Event entered the hand-off ring toward the sequencer.
    Ring = 1,
    /// Sequencer popped the event in dense order.
    Seq = 2,
    /// Batched checker application began for the event's batch.
    Apply = 3,
    /// The commit verdict was emitted.
    Verdict = 4,
    /// The event's record reached the durable session log.
    Log = 5,
    /// The record's replication mutation was written to a follower.
    Replicate = 6,
    /// A durability barrier covering the record was acknowledged.
    Ack = 7,
}

impl Stage {
    /// Every stage, in canonical pipeline order.
    pub const ALL: [Stage; 8] = [
        Stage::Tap,
        Stage::Ring,
        Stage::Seq,
        Stage::Apply,
        Stage::Verdict,
        Stage::Log,
        Stage::Replicate,
        Stage::Ack,
    ];

    /// The wire/export name of the stage.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Tap => "tap",
            Stage::Ring => "ring",
            Stage::Seq => "seq",
            Stage::Apply => "apply",
            Stage::Verdict => "verdict",
            Stage::Log => "log",
            Stage::Replicate => "replicate",
            Stage::Ack => "ack",
        }
    }

    /// Parses a wire/export name back into a stage.
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.as_str() == s)
    }
}

/// 64-bit FNV-1a over the concatenation of `parts`.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in parts.iter().flat_map(|p| p.iter()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The trace id of event `seq` within `scope` (a session name or
/// stream label): 64-bit FNV-1a, never zero. Both ends of a
/// replication link derive the same id from the same durable sequence
/// number, which is what joins their segments at merge time.
pub fn trace_id(scope: &str, seq: u64) -> u64 {
    fnv1a(&[scope.as_bytes(), &seq.to_le_bytes()]).max(1)
}

/// A short stable fingerprint of arbitrary text (64-bit FNV-1a folded
/// to 32 bits, rendered `w` + 8 hex digits). Used as the *witness id*
/// linking a fired phenomenon across planes: the streaming verdict,
/// the `/health` anomaly exemplar and the forensic witness all derive
/// their id from the same canonical cycle text, so equal ids mean the
/// same cited evidence.
pub fn stable_id(text: &str) -> String {
    let h = fnv1a(&[text.as_bytes()]);
    format!("w{:08x}", (h ^ (h >> 32)) as u32)
}

/// Canonical witness id for a phenomenon over a DSG cycle: the node
/// sequence is rotated to begin at the smallest transaction id (a
/// cycle has no distinguished start, and the online and forensic
/// checkers discover the same cycle from different entry points),
/// rendered `KIND:T<a>>T<b>>…`, and folded through [`stable_id`].
/// Both `adya-online` verdict exemplars and `adya-forensics`
/// witnesses derive their ids here, so a fired G1c/G2 links straight
/// to its forensic witness when both saw the same cycle. Falls back
/// to hashing `KIND:<detail>` for the cycle-less phenomena.
pub fn witness_id(kind: &str, cycle_txns: &[u64], detail: &str) -> String {
    use std::fmt::Write as _;
    if cycle_txns.is_empty() {
        return stable_id(&format!("{kind}:{detail}"));
    }
    let pivot = cycle_txns
        .iter()
        .enumerate()
        .min_by_key(|(_, &t)| t)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut sig = format!("{kind}:");
    for i in 0..cycle_txns.len() {
        if i > 0 {
            sig.push('>');
        }
        let _ = write!(sig, "T{}", cycle_txns[(pivot + i) % cycle_txns.len()]);
    }
    stable_id(&sig)
}

/// Renders a trace id for the wire: `t` + 16 hex digits.
pub fn fmt_trace_id(id: u64) -> String {
    format!("t{id:016x}")
}

/// Parses a wire trace id (`t` + hex digits).
pub fn parse_trace_id(s: &str) -> Option<u64> {
    let hex = s.strip_prefix('t')?;
    if hex.is_empty() || hex.len() > 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// One per-stage timestamp of one traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Trace id ([`trace_id`]).
    pub trace: u64,
    /// Stage stamped.
    pub stage: Stage,
    /// Nanoseconds since the owning plane's epoch.
    pub t_ns: u64,
}

/// What a stamp updates, behind a [`TracePlane`]'s one lock.
#[derive(Debug, Default)]
struct Stamps {
    /// The newest [`DEFAULT_STAMP_CAPACITY`] stamps, oldest first.
    kept: VecDeque<Stamp>,
    /// Stamps overwritten since the last reset.
    dropped: u64,
    /// Per-trace `(first, last)` stamp times, for stage deltas,
    /// end-to-end latency and [`Traced::span_ns`]. Bounded by
    /// [`LAST_MAP_MAX`].
    window: HashMap<u64, (u64, u64)>,
}

/// One node's tracing plane: sampling policy, monotonic epoch, the
/// retained stamps, and the per-stage latency histograms it feeds.
pub struct TracePlane {
    node: String,
    role: Mutex<String>,
    sample_every: AtomicU64,
    epoch: Instant,
    stamps: Mutex<Stamps>,
    /// `trace.stage_ns{stage=…}` histograms, indexed by stage.
    stage_ns: [Arc<Histogram>; 8],
    /// Tap→ack latency of traces that reached `Ack` on this node.
    end_to_end_ns: Arc<Histogram>,
}

impl std::fmt::Debug for TracePlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracePlane")
            .field("node", &self.node)
            .field("role", &self.role())
            .field("sample_every", &self.sample_every.load(Ordering::Relaxed))
            .finish()
    }
}

impl TracePlane {
    /// A plane for `node` acting as `role` (`leader`, `follower`,
    /// `checker`…), sampling 1-in-[`DEFAULT_TRACE_SAMPLE`].
    pub fn new(node: &str, role: &str) -> TracePlane {
        let reg = crate::global();
        TracePlane {
            node: node.to_string(),
            role: Mutex::new(role.to_string()),
            sample_every: AtomicU64::new(DEFAULT_TRACE_SAMPLE),
            epoch: Instant::now(),
            stamps: Mutex::default(),
            stage_ns: std::array::from_fn(|i| {
                reg.histogram(&crate::labeled(
                    "trace.stage_ns",
                    &[("stage", Stage::ALL[i].as_str())],
                ))
            }),
            end_to_end_ns: reg.histogram("trace.end_to_end_ns"),
        }
    }

    /// The node name.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The current role lane (mutable: promotion flips a follower).
    pub fn role(&self) -> String {
        self.role.lock().unwrap().clone()
    }

    /// Changes the role lane (used at follower promotion).
    pub fn set_role(&self, role: &str) {
        *self.role.lock().unwrap() = role.to_string();
    }

    /// Sets the 1-in-N sampling cadence (0 is clamped to 1).
    pub fn set_sample_every(&self, n: u64) {
        self.sample_every.store(n.max(1), Ordering::Relaxed);
    }

    /// The sampling cadence.
    pub fn sample_every(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Deterministic sampling decision for dense event sequence `seq`.
    pub fn sampled(&self, seq: u64) -> bool {
        seq.is_multiple_of(self.sample_every())
    }

    /// The trace id of event `seq` of `scope` ([`trace_id`]) when the
    /// plane samples it, `None` when it does not: the one place a
    /// stamping path decides whether an event is traced.
    pub fn sample(&self, scope: &str, seq: u64) -> Option<u64> {
        self.sampled(seq).then(|| trace_id(scope, seq))
    }

    /// The stamping handle of event `seq` of `scope`: live when the
    /// plane [`sample`](TracePlane::sample)s the event, inert when it
    /// does not — a stamping path asks once and then stamps
    /// unconditionally.
    pub fn begin(&self, scope: &str, seq: u64) -> Traced<'_> {
        Traced(self.sample(scope, seq).map(|id| (self, id)))
    }

    /// Nanoseconds since this plane's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Stamps `trace` at `stage`, now.
    pub fn stamp(&self, trace: u64, stage: Stage) {
        self.stamp_at(trace, stage, self.now_ns());
    }

    /// Stamps `trace` at `stage` with an explicit plane-epoch time
    /// (used when the stamp point and the clock read are separated,
    /// e.g. a batch applied after its arrival times were taken).
    pub fn stamp_at(&self, trace: u64, stage: Stage, t_ns: u64) {
        let mut s = self.stamps.lock().unwrap();
        if s.kept.len() == DEFAULT_STAMP_CAPACITY {
            s.kept.pop_front();
            s.dropped += 1;
        }
        s.kept.push_back(Stamp { trace, stage, t_ns });
        if s.window.len() > LAST_MAP_MAX {
            s.window.clear();
        }
        match s.window.entry(trace) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let (first, last) = *e.get();
                self.stage_ns[stage as usize].record(t_ns.saturating_sub(last));
                if stage == Stage::Ack {
                    self.end_to_end_ns.record(t_ns.saturating_sub(first));
                }
                e.insert((first, last.max(t_ns)));
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                self.stage_ns[stage as usize].record(0);
                e.insert((t_ns, t_ns));
            }
        }
    }

    /// Nanoseconds between `trace`'s first and latest stamps, `None`
    /// when the plane holds no times for it.
    fn span_ns(&self, trace: u64) -> Option<u64> {
        let s = self.stamps.lock().unwrap();
        s.window.get(&trace).map(|(first, last)| last - first)
    }

    /// Every retained stamp, oldest first.
    pub fn collect(&self) -> Vec<Stamp> {
        self.stamps.lock().unwrap().kept.iter().copied().collect()
    }

    /// Stamps overwritten since the last [`reset`](TracePlane::reset).
    pub fn dropped(&self) -> u64 {
        self.stamps.lock().unwrap().dropped
    }

    /// Empties the retained stamps; what they held is not counted as
    /// dropped. Streaming `--trace-out` writes each segment file from
    /// the stamps taken since the last one.
    pub fn reset(&self) {
        let mut s = self.stamps.lock().unwrap();
        s.kept.clear();
        s.dropped = 0;
    }

    /// This node's trace segment: its name, current role and retained
    /// stamps.
    pub fn segment(&self) -> TraceSegment {
        let (dropped, stamps) = {
            let s = self.stamps.lock().unwrap();
            (s.dropped, s.kept.iter().copied().collect())
        };
        TraceSegment {
            node: self.node.clone(),
            role: self.role(),
            dropped,
            stamps,
        }
    }
}

/// One event's latency provenance on one [`TracePlane`]
/// ([`TracePlane::begin`]): the sampling decision taken once, carried
/// to every stage the event crosses. [`Traced::OFF`] — an unsampled
/// event, or a path with no plane at all — records nothing.
#[derive(Debug, Clone, Copy)]
pub struct Traced<'a>(Option<(&'a TracePlane, u64)>);

impl Traced<'_> {
    /// The handle of an event nobody traces.
    pub const OFF: Traced<'static> = Traced(None);

    /// Stamps the event at `stage`, now.
    pub fn stamp(self, stage: Stage) {
        if let Some((plane, id)) = self.0 {
            plane.stamp(id, stage);
        }
    }

    /// The event's trace id, for the wire; `None` when it is not
    /// traced.
    pub fn id(self) -> Option<u64> {
        self.0.map(|(_, id)| id)
    }

    /// Nanoseconds between the event's first and latest stamps on its
    /// plane; `None` when it is not traced.
    pub fn span_ns(self) -> Option<u64> {
        self.0.and_then(|(plane, id)| plane.span_ns(id))
    }
}

/// A per-node trace segment: what [`TracePlane::segment`] takes and
/// [`parse_segment`] reads back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSegment {
    /// Node name.
    pub node: String,
    /// Role lane at export time.
    pub role: String,
    /// Stamps the plane had already overwritten.
    pub dropped: u64,
    /// Retained stamps, oldest first.
    pub stamps: Vec<Stamp>,
}

impl TraceSegment {
    /// Renders the segment as the bare JSON document
    /// [`parse_segment`] reads.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"node\": \"{}\", \"role\": \"{}\", \"dropped\": {}, \"stamps\": [",
            crate::json::esc(&self.node),
            crate::json::esc(&self.role),
            self.dropped
        );
        for (i, st) in self.stamps.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"trace\": \"{}\", \"stage\": \"{}\", \"t_ns\": {}}}",
                fmt_trace_id(st.trace),
                st.stage.as_str(),
                st.t_ns
            );
        }
        s.push_str("]}");
        s
    }
}

/// Parses a trace segment — either the bare
/// [`TraceSegment::to_json`] document or a [`trace_document`] that
/// embeds one under a `"provenance"` key.
pub fn parse_segment(text: &str) -> Result<TraceSegment, String> {
    let doc = crate::json::parse(text)?;
    let seg = doc.get("provenance").unwrap_or(&doc);
    let field = |key: &str| format!("segment has no {key:?} field");
    let mut stamps = Vec::new();
    for st in seg
        .get("stamps")
        .and_then(|s| s.as_array())
        .ok_or_else(|| field("stamps"))?
    {
        let id = st.str_at("trace").ok_or("stamp has no \"trace\"")?;
        let stage = st.str_at("stage").ok_or("stamp has no \"stage\"")?;
        stamps.push(Stamp {
            trace: parse_trace_id(id).ok_or_else(|| format!("bad id {id:?}"))?,
            stage: Stage::parse(stage).ok_or_else(|| format!("bad stage {stage:?}"))?,
            t_ns: st.u64_at("t_ns").ok_or("bad t_ns value")?,
        });
    }
    Ok(TraceSegment {
        node: seg.str_at("node").ok_or_else(|| field("node"))?.to_string(),
        role: seg.str_at("role").ok_or_else(|| field("role"))?.to_string(),
        dropped: seg.u64_at("dropped").ok_or_else(|| field("dropped"))?,
        stamps,
    })
}

/// The document a node's `/trace` serves and streaming `--trace-out`
/// writes: the plane's segment rendered by [`merge_segments`] (one
/// lane, stage slices per sampled event), with the segment itself
/// embedded under `"provenance"` so `adya-check trace-merge` can join
/// it with other nodes'. With no plane it is `merge_segments(&[])`.
pub fn trace_document(plane: Option<&TracePlane>) -> String {
    let Some(plane) = plane else {
        return merge_segments(&[]);
    };
    let seg = plane.segment();
    let chrome = merge_segments(std::slice::from_ref(&seg));
    let head = chrome.trim_end().strip_suffix('}').expect("a JSON object");
    format!("{head}, \"provenance\": {}}}\n", seg.to_json())
}

/// Merges per-node trace segments into one Chrome/Perfetto document:
/// one process lane per node (named `node (role)`), one track per
/// trace, `X` slices between consecutive stamps (named `tap->ring`
/// etc.), and flow arrows (`s`/`f`) from the reference node's
/// `replicate` stamp to each other node's first stamp of the same
/// trace.
///
/// Clocks: the segment whose role is `leader` (else the first) is the
/// reference timeline; every other node's offset is the median of
/// `reference replicate-send − node's first receive` over shared
/// traces (a zero-delay estimate, reported under `"clock_offsets"`).
/// The document also carries a machine-checkable `"traces"` summary:
/// per trace, the union of stages seen and the nodes that saw it.
pub fn merge_segments(segs: &[TraceSegment]) -> String {
    use crate::chrome::{Arg, ChromeTrace};
    let refi = segs.iter().position(|s| s.role == "leader").unwrap_or(0);
    // Per-segment, per-trace stamp lists.
    let by_trace: Vec<HashMap<u64, Vec<Stamp>>> = segs
        .iter()
        .map(|seg| {
            let mut m: HashMap<u64, Vec<Stamp>> = HashMap::new();
            for st in &seg.stamps {
                m.entry(st.trace).or_default().push(*st);
            }
            for v in m.values_mut() {
                v.sort_by_key(|s| (s.t_ns, s.stage));
            }
            m
        })
        .collect();
    // The reference anchor per trace: its replicate stamp (the send
    // instant) when present, else its last stamp.
    let ref_anchor = |trace: u64| -> Option<u64> {
        let stamps = by_trace.get(refi)?.get(&trace)?;
        stamps
            .iter()
            .find(|s| s.stage == Stage::Replicate)
            .or(stamps.last())
            .map(|s| s.t_ns)
    };
    let offsets: Vec<i64> = (0..segs.len())
        .map(|i| {
            if i == refi {
                return 0;
            }
            let mut deltas: Vec<i64> = by_trace[i]
                .iter()
                .filter_map(|(trace, stamps)| {
                    let anchor = ref_anchor(*trace)?;
                    let first = stamps.first()?.t_ns;
                    Some(anchor as i64 - first as i64)
                })
                .collect();
            if deltas.is_empty() {
                return 0;
            }
            deltas.sort_unstable();
            deltas[deltas.len() / 2]
        })
        .collect();
    // Shift the merged timeline so its earliest adjusted stamp is 0.
    let mut t_min = i64::MAX;
    for (i, m) in by_trace.iter().enumerate() {
        for stamps in m.values() {
            for s in stamps {
                t_min = t_min.min(s.t_ns as i64 + offsets[i]);
            }
        }
    }
    if t_min == i64::MAX {
        t_min = 0;
    }
    let adj = |i: usize, t_ns: u64| -> i64 { t_ns as i64 + offsets[i] - t_min };

    let mut out = ChromeTrace::new();
    for (i, seg) in segs.iter().enumerate() {
        let lane = (i as u64 + 1, 0);
        let name = format!("{} ({})", seg.node, seg.role);
        out.metadata(lane, "process_name", ("name", Arg::Str(&name)));
        let sort_index = if i == refi { 0 } else { i as u64 + 1 };
        out.metadata(
            lane,
            "process_sort_index",
            ("sort_index", Arg::Num(sort_index)),
        );
    }
    // Deterministic track order: traces sorted by id within a node.
    let all_traces: Vec<u64> = by_trace
        .iter()
        .flat_map(|m| m.keys().copied())
        .collect::<std::collections::BTreeSet<u64>>()
        .into_iter()
        .collect();
    for (i, m) in by_trace.iter().enumerate() {
        for (tid0, trace) in all_traces.iter().enumerate() {
            let Some(stamps) = m.get(trace) else {
                continue;
            };
            let track = (i as u64 + 1, tid0 as u64 + 1);
            let id = fmt_trace_id(*trace);
            let args = [("trace", Arg::Str(&id))];
            for pair in stamps.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                out.complete(
                    track,
                    None,
                    &format!("{}->{}", a.stage.as_str(), b.stage.as_str()),
                    adj(i, a.t_ns) / 1000,
                    ((adj(i, b.t_ns) - adj(i, a.t_ns)) / 1000).max(1),
                    &args,
                );
            }
            if let Some(last) = stamps.last() {
                let ts = adj(i, last.t_ns) / 1000;
                out.instant(track, None, last.stage.as_str(), 't', ts, &args);
            }
        }
    }
    // Flow arrows: reference node's anchor → every other node's first
    // stamp of the same trace.
    for (i, m) in by_trace.iter().enumerate() {
        if i == refi {
            continue;
        }
        for (tid0, trace) in all_traces.iter().enumerate() {
            let (Some(stamps), Some(anchor)) = (m.get(trace), ref_anchor(*trace)) else {
                continue;
            };
            let Some(first) = stamps.first() else {
                continue;
            };
            let tid = tid0 as u64 + 1;
            let flow_id = (*trace as u32) ^ ((*trace >> 32) as u32);
            let (from, to) = (adj(refi, anchor) / 1000, adj(i, first.t_ns) / 1000);
            out.flow(
                false,
                (refi as u64 + 1, tid),
                "repl",
                "verdict-flow",
                flow_id,
                from,
            );
            out.flow(
                true,
                (i as u64 + 1, tid),
                "repl",
                "verdict-flow",
                flow_id,
                to,
            );
        }
    }
    out.finish_with(|w| {
        w.open_object(Some("clock_offsets"));
        for (seg, offset) in segs.iter().zip(&offsets) {
            w.i64_field(&seg.node, *offset);
        }
        w.close_object();
        w.u64_field("dropped", segs.iter().map(|s| s.dropped).sum());
        w.open_array(Some("traces"));
        for trace in &all_traces {
            let mut stages: Vec<Stage> = Vec::new();
            let mut nodes: Vec<&str> = Vec::new();
            for (i, m) in by_trace.iter().enumerate() {
                if let Some(stamps) = m.get(trace) {
                    nodes.push(&segs[i].node);
                    for s in stamps {
                        if !stages.contains(&s.stage) {
                            stages.push(s.stage);
                        }
                    }
                }
            }
            stages.sort_unstable();
            let stages = stages
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(",");
            nodes.sort_unstable();
            nodes.dedup();
            let nodes = nodes
                .iter()
                .map(|n| crate::json::esc(n))
                .collect::<Vec<_>>()
                .join(",");
            w.raw_element(&format!(
                "{{\"trace\": \"{}\", \"nodes\": \"{nodes}\", \"stages\": \"{stages}\"}}",
                fmt_trace_id(*trace)
            ));
        }
        w.close_array();
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for st in Stage::ALL {
            assert_eq!(Stage::parse(st.as_str()), Some(st));
        }
        assert_eq!(Stage::parse("nope"), None);
        // Canonical order is the pipeline order.
        assert!(Stage::Tap < Stage::Ring && Stage::Replicate < Stage::Ack);
    }

    #[test]
    fn trace_ids_are_stable_and_parse() {
        let a = trace_id("t1", 32);
        assert_eq!(a, trace_id("t1", 32));
        assert_ne!(a, trace_id("t1", 64));
        assert_ne!(a, trace_id("t2", 32));
        assert_ne!(a, 0);
        let s = fmt_trace_id(a);
        assert!(s.starts_with('t') && s.len() == 17, "{s}");
        assert_eq!(parse_trace_id(&s), Some(a));
        assert_eq!(parse_trace_id("w1234"), None);
        assert_eq!(parse_trace_id("t"), None);
        assert_eq!(parse_trace_id("t12zz"), None);
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let plane = TracePlane::new("n1", "leader");
        let made = DEFAULT_STAMP_CAPACITY as u64 + 6;
        for i in 0..made {
            plane.stamp_at(i + 1, Stage::Tap, i * 100);
        }
        let got = plane.collect();
        assert_eq!(got.len(), DEFAULT_STAMP_CAPACITY);
        assert_eq!(got.first().unwrap().trace, 7, "the oldest six went");
        assert_eq!(got.last().unwrap().trace, made);
        assert_eq!(plane.dropped(), 6);
        plane.reset();
        assert!(plane.collect().is_empty());
        assert_eq!(plane.dropped(), 0, "emptied is not dropped");
    }

    #[test]
    fn plane_stamps_and_segment_round_trips() {
        let plane = TracePlane::new("n1", "leader");
        plane.set_sample_every(8);
        assert!(plane.sampled(0) && plane.sampled(8) && !plane.sampled(3));
        let id = trace_id("s", 8);
        plane.stamp_at(id, Stage::Tap, 100);
        plane.stamp_at(id, Stage::Apply, 250);
        plane.stamp_at(id, Stage::Ack, 900);
        let seg = parse_segment(&plane.segment().to_json()).unwrap();
        assert_eq!(seg.node, "n1");
        assert_eq!(seg.role, "leader");
        assert_eq!(seg.dropped, 0);
        assert_eq!(
            seg.stamps,
            vec![
                Stamp {
                    trace: id,
                    stage: Stage::Tap,
                    t_ns: 100
                },
                Stamp {
                    trace: id,
                    stage: Stage::Apply,
                    t_ns: 250
                },
                Stamp {
                    trace: id,
                    stage: Stage::Ack,
                    t_ns: 900
                },
            ]
        );
        // Stage deltas landed in the labelled histograms, end-to-end
        // on ack.
        let snap = crate::global().snapshot();
        let h = snap
            .histogram(&crate::labeled("trace.stage_ns", &[("stage", "apply")]))
            .unwrap();
        assert!(h.count >= 1);
        assert!(snap.histogram("trace.end_to_end_ns").unwrap().count >= 1);
    }

    #[test]
    fn a_handle_stamps_in_call_order_or_not_at_all() {
        let plane = TracePlane::new("n1", "leader");
        plane.set_sample_every(4);
        // Unsampled, or no plane: nothing is recorded.
        let unsampled = plane.begin("s", 3);
        for t in [unsampled, Traced::OFF] {
            assert_eq!(t.id(), None);
            t.stamp(Stage::Tap);
            t.stamp(Stage::Verdict);
        }
        assert!(plane.collect().is_empty());
        assert_eq!(plane.dropped(), 0);

        let t = plane.begin("s", 4);
        assert_eq!(t.id(), Some(trace_id("s", 4)));
        let order = [Stage::Tap, Stage::Seq, Stage::Ring, Stage::Apply];
        for stage in order {
            t.stamp(stage);
        }
        let stamps = plane.collect();
        assert!(stamps.iter().all(|s| Some(s.trace) == t.id()));
        assert!(stamps.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(
            stamps.iter().map(|s| s.stage).collect::<Vec<_>>(),
            order,
            "as called, not canonical order"
        );
    }

    #[test]
    fn the_trace_document_renders_and_embeds_the_segment() {
        let plane = TracePlane::new("n9", "leader");
        plane.stamp_at(3, Stage::Tap, 5_000);
        plane.stamp_at(3, Stage::Ring, 7_000);
        let doc = trace_document(Some(&plane));
        assert!(crate::json::parse(&doc).is_ok(), "{doc}");
        assert!(doc.contains("\"n9 (leader)\""), "{doc}");
        assert!(doc.contains("\"name\": \"tap->ring\""), "{doc}");
        let parsed = parse_segment(&doc).unwrap();
        assert_eq!(parsed, plane.segment());
        assert_eq!(parsed.stamps.len(), 2);

        // A rotation empties the plane; what comes next is all the next
        // document holds.
        plane.reset();
        plane.stamp_at(4, Stage::Tap, 9_000);
        assert_eq!(
            parse_segment(&trace_document(Some(&plane)))
                .unwrap()
                .stamps
                .len(),
            1
        );

        // No plane: an empty merge, still a trace document.
        let empty = trace_document(None);
        assert_eq!(empty, merge_segments(&[]));
        assert!(empty.contains("\"traceEvents\""), "{empty}");
        assert!(parse_segment(&empty).is_err(), "nothing to join");
    }

    #[test]
    fn ids_keep_their_published_values() {
        // Trace ids travel on the wire and witness ids sit in verdict
        // lines and the explain goldens: both are pinned.
        assert_eq!(trace_id("t1", 32), 0xbb7d_ea51_325b_c0f6);
        assert_eq!(stable_id("G1c:T1>T2"), "w29a9b17b");
        // tests/data/stream/write_skew.verdicts.golden, T2's commit.
        assert_eq!(witness_id("G2-item", &[2, 1], ""), "w15c72a0b");
    }

    #[test]
    fn witness_ids_are_rotation_invariant() {
        // The same cycle entered at different nodes yields one id…
        let a = witness_id("G1c", &[3, 1, 2], "");
        let b = witness_id("G1c", &[1, 2, 3], "");
        let c = witness_id("G1c", &[2, 3, 1], "");
        assert_eq!(a, b);
        assert_eq!(b, c);
        // …but a different cycle or kind does not.
        assert_ne!(a, witness_id("G1c", &[1, 3, 2], ""));
        assert_ne!(a, witness_id("G2", &[1, 2, 3], ""));
        // Cycle-less phenomena hash the detail text.
        assert_eq!(
            witness_id("G1a", &[], "T2 read aborted x[1]"),
            stable_id("G1a:T2 read aborted x[1]")
        );
    }

    #[test]
    fn stable_ids_are_deterministic_and_distinct() {
        let a = stable_id("G1c:T1>T2");
        assert_eq!(a, stable_id("G1c:T1>T2"));
        assert_ne!(a, stable_id("G1c:T1>T3"));
        assert!(a.starts_with('w') && a.len() == 9, "{a}");
    }

    #[test]
    fn merge_joins_lanes_and_reports_offsets() {
        let id = trace_id("t1", 0);
        let leader = TraceSegment {
            node: "a".into(),
            role: "leader".into(),
            dropped: 0,
            stamps: [
                (Stage::Tap, 1000),
                (Stage::Ring, 1100),
                (Stage::Seq, 1200),
                (Stage::Apply, 1300),
                (Stage::Verdict, 1400),
                (Stage::Log, 1500),
                (Stage::Replicate, 2000),
                (Stage::Ack, 9000),
            ]
            .into_iter()
            .map(|(stage, t_ns)| Stamp {
                trace: id,
                stage,
                t_ns,
            })
            .collect(),
        };
        // The follower's clock started later: absolute times are
        // smaller by 500 than the leader's at the same instants.
        let follower = TraceSegment {
            node: "b".into(),
            role: "follower".into(),
            dropped: 2,
            stamps: vec![
                Stamp {
                    trace: id,
                    stage: Stage::Replicate,
                    t_ns: 1500,
                },
                Stamp {
                    trace: id,
                    stage: Stage::Log,
                    t_ns: 1600,
                },
                Stamp {
                    trace: id,
                    stage: Stage::Ack,
                    t_ns: 1700,
                },
            ],
        };
        let merged = merge_segments(&[follower, leader]);
        // Leader is the reference even when listed second.
        assert!(merged.contains("\"a (leader)\""), "{merged}");
        assert!(merged.contains("\"b (follower)\""));
        // Offset maps the follower's 1500 receive onto the leader's
        // 2000 send.
        assert!(merged.contains("\"b\": 500"), "{merged}");
        assert!(merged.contains("\"a\": 0"));
        assert!(merged.contains("\"verdict-flow\""));
        assert!(merged.contains("tap->ring"));
        assert!(merged.contains("\"dropped\": 2"));
        // The machine-checkable summary shows the full stage set and
        // both nodes for the shared trace.
        let all = Stage::ALL
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join(",");
        assert!(
            merged.contains(&format!("\"nodes\": \"a,b\", \"stages\": \"{all}\"")),
            "{merged}"
        );
        assert_eq!(merged.matches('{').count(), merged.matches('}').count());
    }
}
