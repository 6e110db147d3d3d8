//! Checker self-monitoring: SLI gauges and health semantics for the
//! live telemetry plane.
//!
//! The [`OnlineChecker`] runs on one thread; the
//! obs endpoint serves `/health` from others. A [`CheckerMonitor`]
//! bridges them: the ingest loop calls [`CheckerMonitor::arrival`]
//! before each event and [`CheckerMonitor::observe_event`] /
//! [`CheckerMonitor::observe_verdict`] after each apply, which cache
//! the checker's SLIs in atomics (and mirror them into the global obs
//! registry as `sli.*` gauges so `/metrics` exports them too); any
//! thread can then render [`CheckerMonitor::health_json`] without
//! touching the checker.
//!
//! SLI capture is sampled, and the monitor takes no sampling decision
//! of its own: it captures the events the trace plane sampled
//! ([`adya_obs::TracePlane::begin`], 1 in 32 by default), so the
//! events whose stages are stamped are the events whose SLIs are
//! read. The fast path is one atomic increment; only sampled events
//! pay for the checker's live-set scans and registry gauge updates.
//! The monitor reads no clock on the ingest side: a sampled event's
//! ingest lag is the span of its stamps on the plane, from `tap` to the
//! latest. The sampling period is the plane's reporting
//! interval — induced lag or staleness shows in `/health` within one
//! interval. E17 measures the whole plane against a 10% ingest
//! budget, which per-event capture blows by itself.
//!
//! Health is a judgement, not a dump: a [`HealthPolicy`] holds the
//! staleness and lag thresholds, and the JSON carries `healthy` plus
//! the reasons it is not — the endpoint maps that straight to
//! 200/503 exit-status semantics. Each fired phenomenon contributes
//! one exemplar citing the forensics witness id, so a degraded
//! `/health` names the cycle to go look at.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use adya_core::PhenomenonKind;
use adya_obs::json::JsonWriter;
use adya_obs::Traced;

use crate::{OnlineChecker, Verdict};

/// Most exemplars retained (one per phenomenon kind at first fire
/// covers the six online kinds with room for repeats).
const EXEMPLAR_CAP: usize = 32;

/// Thresholds that decide when `/health` degrades to 503.
#[derive(Debug, Clone, Copy)]
pub struct HealthPolicy {
    /// Degraded when no event has been applied for this many
    /// milliseconds (after at least one was).
    pub stale_ms: u64,
    /// Degraded when the last sampled ingest lag (tap → applied)
    /// exceeds this many milliseconds.
    pub lag_ms: u64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            stale_ms: 5_000,
            lag_ms: 1_000,
        }
    }
}

/// One fired-phenomenon exemplar: enough to find the full story in
/// the verdict stream and the forensics plane.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// The phenomenon that fired.
    pub kind: PhenomenonKind,
    /// The committing transaction whose verdict latched it (`None`
    /// for the final verdict).
    pub txn: Option<u32>,
    /// Stable witness id (see [`adya_obs::witness_id`]) linking to
    /// the forensic witness of the same cycle.
    pub witness_id: String,
    /// Committed-prefix size when it fired.
    pub committed: u64,
}

/// Cached checker SLIs, updatable from the ingest thread and readable
/// from any endpoint thread.
#[derive(Debug)]
pub struct CheckerMonitor {
    start: Instant,
    policy: HealthPolicy,
    /// Total events seen by [`CheckerMonitor::arrival`] — exact even
    /// between samples, so `/health` counts and liveness don't lag
    /// the sampling interval.
    arrivals: AtomicU64,
    /// Arrival count the last staleness judgement saw.
    last_seen_arrivals: AtomicU64,
    /// Nanoseconds since `start` when a judgement last saw the
    /// arrival count advance.
    last_progress_ns: AtomicU64,
    commits: AtomicU64,
    /// Last sampled ingest lag (tap → applied), nanoseconds.
    lag_ns: AtomicU64,
    live_txns: AtomicI64,
    watermark_staleness: AtomicU64,
    prov_bytes: AtomicU64,
    pruned_txns: AtomicU64,
    stale_refs: AtomicU64,
    /// Bitmask of phenomenon kinds already holding an exemplar.
    exemplar_kinds: AtomicU64,
    exemplars: Mutex<Vec<Exemplar>>,
}

impl CheckerMonitor {
    /// A monitor with the given health thresholds.
    pub fn new(policy: HealthPolicy) -> CheckerMonitor {
        CheckerMonitor {
            start: Instant::now(),
            policy,
            arrivals: AtomicU64::new(0),
            last_seen_arrivals: AtomicU64::new(0),
            last_progress_ns: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            lag_ns: AtomicU64::new(0),
            live_txns: AtomicI64::new(0),
            watermark_staleness: AtomicU64::new(0),
            prov_bytes: AtomicU64::new(0),
            pruned_txns: AtomicU64::new(0),
            stale_refs: AtomicU64::new(0),
            exemplar_kinds: AtomicU64::new(0),
            exemplars: Mutex::new(Vec::new()),
        }
    }

    /// The active thresholds.
    pub fn policy(&self) -> HealthPolicy {
        self.policy
    }

    /// Call before applying the next event: counts it.
    pub fn arrival(&self) {
        self.arrivals.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one applied event when the plane sampled it: caches the
    /// checker's SLIs and mirrors them into the global registry as
    /// `sli.*` gauges. The ingest lag is the span of `traced`'s stamps,
    /// from its first (`tap`, before the event was applied) to its
    /// latest (`apply`, or a commit's `verdict` when the caller stamps
    /// that first). A tap-side fault delay inflates it, which is how
    /// `/health` sees induced lag within one sampling interval.
    pub fn observe_event(&self, checker: &OnlineChecker, traced: Traced<'_>) {
        let Some(lag_ns) = traced.span_ns() else {
            return;
        };
        let live = checker.live_txns() as i64;
        let staleness = checker.watermark_staleness();
        let prov = checker.provenance_bytes() as u64;
        self.lag_ns.store(lag_ns, Ordering::Relaxed);
        self.live_txns.store(live, Ordering::Relaxed);
        self.watermark_staleness.store(staleness, Ordering::Relaxed);
        self.prov_bytes.store(prov, Ordering::Relaxed);
        self.pruned_txns
            .store(checker.pruned_txns(), Ordering::Relaxed);
        self.stale_refs
            .store(checker.stale_refs(), Ordering::Relaxed);

        adya_obs::gauge!("sli.live_txns").set(live);
        adya_obs::gauge!("sli.watermark_staleness").set(staleness as i64);
        adya_obs::gauge!("sli.provenance_bytes").set(prov as i64);
        adya_obs::gauge!("sli.ingest_lag_us").set((lag_ns / 1_000) as i64);
        adya_obs::histogram!("sli.ingest_lag_ns").record(lag_ns);
    }

    /// Records one verdict: counts the commit and captures an
    /// exemplar for each newly fired phenomenon (first fire per kind
    /// wins; capped at 32).
    pub fn observe_verdict(&self, v: &Verdict) {
        self.commits.store(v.committed, Ordering::Relaxed);
        if v.new_fired.is_empty() {
            return;
        }
        let Some(id) = &v.witness_id else { return };
        for &kind in &v.new_fired {
            let bit = 1u64 << (kind as u8 as u64 % 64);
            if self.exemplar_kinds.fetch_or(bit, Ordering::Relaxed) & bit != 0 {
                continue;
            }
            let mut ex = self.exemplars.lock().expect("exemplar lock");
            if ex.len() < EXEMPLAR_CAP {
                ex.push(Exemplar {
                    kind,
                    txn: v.txn.map(|t| t.0),
                    witness_id: id.clone(),
                    committed: v.committed,
                });
            }
        }
    }

    /// Milliseconds since a judgement last saw the arrival count
    /// advance (`None` before the first event). Liveness is measured
    /// between scrapes — the ingest thread only bumps a counter, and
    /// the scrape side does the clock reads: a scrape that finds new
    /// arrivals since the previous one resets the gap to zero; one
    /// that finds none reports how long the count has sat still.
    pub fn ms_since_last_event(&self) -> Option<u64> {
        let arr = self.arrivals.load(Ordering::Relaxed);
        if arr == 0 {
            return None;
        }
        let now = self.start.elapsed().as_nanos() as u64;
        if self.last_seen_arrivals.swap(arr, Ordering::Relaxed) != arr {
            self.last_progress_ns.store(now, Ordering::Relaxed);
            return Some(0);
        }
        Some(now.saturating_sub(self.last_progress_ns.load(Ordering::Relaxed)) / 1_000_000)
    }

    /// Last sampled ingest lag in milliseconds.
    pub fn lag_ms(&self) -> u64 {
        self.lag_ns.load(Ordering::Relaxed) / 1_000_000
    }

    /// The health judgement: `Ok` when every SLI is inside the
    /// policy, else the list of violated conditions.
    pub fn judge(&self) -> Result<(), Vec<String>> {
        let mut reasons = Vec::new();
        if let Some(ms) = self.ms_since_last_event() {
            if ms > self.policy.stale_ms {
                reasons.push(format!(
                    "stale: {ms}ms since last event (threshold {}ms)",
                    self.policy.stale_ms
                ));
            }
        }
        let lag = self.lag_ms();
        if lag > self.policy.lag_ms {
            reasons.push(format!(
                "lagging: last ingest lag {lag}ms (threshold {}ms)",
                self.policy.lag_ms
            ));
        }
        if reasons.is_empty() {
            Ok(())
        } else {
            Err(reasons)
        }
    }

    /// Renders the `/health` document: the judgement, every SLI, the
    /// thresholds, verdict-latency percentiles from the global
    /// registry, and the fired-phenomenon exemplars.
    pub fn health_json(&self) -> String {
        let verdict_hist = adya_obs::global()
            .snapshot()
            .histogram("online.verdict_latency")
            .cloned();
        let judgement = self.judge();
        let mut w = JsonWriter::new();
        w.open_object(None);
        w.bool_field("healthy", judgement.is_ok());
        w.open_array(Some("reasons"));
        if let Err(reasons) = &judgement {
            for r in reasons {
                w.raw_element(&format!("\"{}\"", adya_obs::json::esc(r)));
            }
        }
        w.close_array();
        w.open_object(Some("sli"));
        w.u64_field("events", self.arrivals.load(Ordering::Relaxed));
        w.u64_field("commits", self.commits.load(Ordering::Relaxed));
        w.u64_field(
            "live_txns",
            self.live_txns.load(Ordering::Relaxed).max(0) as u64,
        );
        w.u64_field(
            "watermark_staleness",
            self.watermark_staleness.load(Ordering::Relaxed),
        );
        w.u64_field("provenance_bytes", self.prov_bytes.load(Ordering::Relaxed));
        w.u64_field("pruned_txns", self.pruned_txns.load(Ordering::Relaxed));
        w.u64_field("stale_refs", self.stale_refs.load(Ordering::Relaxed));
        w.u64_field("ingest_lag_ms", self.lag_ms());
        w.u64_field(
            "ms_since_last_event",
            self.ms_since_last_event().unwrap_or(0),
        );
        if let Some(h) = verdict_hist {
            w.u64_field("verdict_latency_ns_p50", h.p50);
            w.u64_field("verdict_latency_ns_p99", h.p99);
        }
        w.close_object();
        w.open_object(Some("thresholds"));
        w.u64_field("stale_ms", self.policy.stale_ms);
        w.u64_field("lag_ms", self.policy.lag_ms);
        w.close_object();
        w.open_array(Some("exemplars"));
        // Clone the exemplars out so the lock is not held across JSON
        // rendering — a slow scrape must never stall the ingest-side
        // record path that appends under this mutex.
        let exemplars: Vec<Exemplar> = self.exemplars.lock().expect("exemplar lock").clone();
        for ex in &exemplars {
            let mut e = JsonWriter::new();
            e.open_object(None);
            e.str_field("phenomenon", &ex.kind.to_string());
            match ex.txn {
                Some(t) => e.u64_field("txn", u64::from(t)),
                None => e.raw_field("txn", "null"),
            }
            e.str_field("witness_id", &ex.witness_id);
            e.u64_field("committed", ex.committed);
            e.close_object();
            w.raw_element(&e.finish());
        }
        w.close_array();
        w.close_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_history::{Event, ReadEvent, TxnId, VersionId, WriteEvent};
    use adya_obs::{trace::Stage, TracePlane};
    use std::time::Duration;

    /// A plane sampling one event in `every`.
    fn plane(every: u64) -> TracePlane {
        let p = TracePlane::new("monitor-test", "checker");
        p.set_sample_every(every);
        p
    }

    fn w(txn: u32, object: u32, seq: u32) -> Event {
        Event::Write(WriteEvent {
            txn: TxnId(txn),
            object: adya_history::ObjectId(object),
            seq,
            kind: adya_history::VersionKind::Visible,
            value: None,
        })
    }

    fn r(txn: u32, object: u32, wtxn: u32, wseq: u32) -> Event {
        Event::Read(ReadEvent {
            txn: TxnId(txn),
            object: adya_history::ObjectId(object),
            version: VersionId::new(TxnId(wtxn), wseq),
            through_cursor: false,
        })
    }

    /// Circular information flow: T1 and T2 each read the other's
    /// write, so G1c fires at T2's commit — a commit-time fire, which
    /// is what produces a verdict with `new_fired` (and an exemplar).
    fn drive(monitor: &CheckerMonitor, plane: &TracePlane) -> OnlineChecker {
        let mut c = OnlineChecker::new();
        let evs = [
            Event::Begin(TxnId(1)),
            Event::Begin(TxnId(2)),
            w(1, 0, 1),
            w(2, 1, 1),
            r(1, 1, 2, 1),
            r(2, 0, 1, 1),
            Event::Commit(TxnId(1)),
            Event::Commit(TxnId(2)),
        ];
        for (seq, e) in evs.iter().enumerate() {
            let traced = plane.begin("s", seq as u64);
            traced.stamp(Stage::Tap);
            monitor.arrival();
            let v = c.ingest(e);
            traced.stamp(Stage::Apply);
            monitor.observe_event(&c, traced);
            if let Some(v) = v {
                monitor.observe_verdict(&v);
            }
        }
        let v = c.finish();
        monitor.observe_verdict(&v);
        c
    }

    #[test]
    fn healthy_stream_reports_slis_and_exemplars() {
        // Sampling 1: every event captured, so the SLIs are exact.
        let m = CheckerMonitor::new(HealthPolicy::default());
        let c = drive(&m, &plane(1));
        assert!(c.fired_kinds().contains(&PhenomenonKind::G1c));
        let health = m.health_json();
        assert!(health.contains("\"healthy\": true"), "{health}");
        assert!(health.contains("\"events\": 8"), "{health}");
        assert!(health.contains("\"phenomenon\": \"G1c\""), "{health}");
        assert!(health.contains("\"witness_id\": \"w"), "{health}");
    }

    #[test]
    fn staleness_threshold_degrades_health() {
        let m = CheckerMonitor::new(HealthPolicy {
            stale_ms: 0,
            lag_ms: 1_000,
        });
        drive(&m, &plane(1));
        // Staleness is judged between scrapes: the first one latches
        // the arrival count, the next sees it unchanged.
        assert!(m.judge().is_ok(), "first scrape sees progress");
        std::thread::sleep(Duration::from_millis(5));
        let judgement = m.judge();
        assert!(judgement.is_err());
        let health = m.health_json();
        assert!(health.contains("\"healthy\": false"), "{health}");
        assert!(health.contains("stale:"), "{health}");
    }

    #[test]
    fn induced_lag_degrades_health_within_one_event() {
        let m = CheckerMonitor::new(HealthPolicy {
            stale_ms: 60_000,
            lag_ms: 0,
        });
        let mut c = OnlineChecker::new();
        let p = plane(32);
        assert_eq!(p.begin("s", 1).span_ns(), None, "unsampled by the plane");
        let traced = p.begin("s", 0);
        assert!(traced.id().is_some(), "the plane samples the first event");
        traced.stamp(Stage::Tap);
        m.arrival();
        std::thread::sleep(Duration::from_millis(3));
        c.ingest(&Event::Begin(TxnId(1)));
        traced.stamp(Stage::Apply);
        m.observe_event(&c, traced);
        assert!(m.lag_ms() >= 3);
        assert!(m.judge().is_err());
        assert!(m.health_json().contains("lagging:"));
    }

    #[test]
    fn exemplars_are_first_fire_per_kind() {
        let m = CheckerMonitor::new(HealthPolicy::default());
        let p = plane(32);
        drive(&m, &p);
        drive(&m, &p); // same phenomena again: no duplicate exemplars
        let health = m.health_json();
        assert_eq!(health.matches("\"phenomenon\": \"G1c\"").count(), 1);
    }
}
