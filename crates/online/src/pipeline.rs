//! The staged ingest pipeline: lock-free event rings → sequencer →
//! checker.
//!
//! The sequential ingest path calls `Mutex<OnlineChecker>::ingest` per
//! event, which serializes every producing engine thread on the
//! checker's graph maintenance. The pipeline decouples the two sides:
//!
//! 1. **Rings** — each recorded event is pushed (under the recorder
//!    lock, so in exact recorded order) into one of `rings` bounded
//!    SPSC rings, sharded by sequence number
//!    ([`adya_engine::buffering_tap`]). Producers only ever pay a ring
//!    push; a full ring exerts backpressure.
//! 2. **Sequencer** — the application stage drains the rings in dense
//!    sequence order (event `seq` can only be at the head of ring
//!    `seq % rings`, so the merge is O(1)).
//! 3. **Application** — each event goes through
//!    [`OnlineChecker::ingest`], the one way into the checker.
//!
//! The verdict stream is byte-identical to sequential ingest: events
//! reach the checker in exactly recorded order, through the same call
//! (pinned by the `pipeline_equivalence` proptests).
//!
//! Backpressure observability: `pipeline.queue_depth` (gauge, events
//! buffered across rings, refreshed once per ring capacity of events
//! popped and whenever the sequencer runs dry) and
//! `pipeline.backpressure_waits` (counter, producer wait rounds on
//! full rings).

use std::sync::Arc;

use adya_engine::{buffering_tap, Engine, RingCloser, RingConsumer, RingProducer};
use adya_obs::{trace::Stage, TracePlane, Traced};

use crate::{OnlineChecker, Verdict};

/// Shape of one ingest pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Number of SPSC event rings the tap shards over.
    pub rings: usize,
    /// Capacity of each ring, in events; a full ring blocks its
    /// producer (backpressure).
    pub ring_capacity: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            rings: 2,
            ring_capacity: 1024,
        }
    }
}

/// Counters from one completed pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Events applied to the checker.
    pub events: u64,
}

/// The consumer half of an ingest pipeline: rings already fed by a
/// producing tap (or by hand-stamped pushes), ready to be drained into
/// a checker by [`run`](EventPipeline::run).
pub struct EventPipeline {
    consumers: Vec<RingConsumer>,
    closers: Vec<RingCloser>,
    cfg: PipelineConfig,
    /// Per-verdict trace stamping: the plane plus the trace-id scope
    /// (threaded separately from [`PipelineConfig`], which stays
    /// `Copy`). `None` = no stamping overhead beyond one branch.
    trace: Option<(Arc<TracePlane>, String)>,
}

impl EventPipeline {
    /// Builds a pipeline and installs its buffering tap on `engine`'s
    /// recorder. Only events recorded from this point on flow through
    /// the pipeline (the tap rebases sequence numbers, so attaching
    /// after setup transactions is fine).
    pub fn attach<E: Engine + ?Sized>(engine: &E, cfg: PipelineConfig) -> EventPipeline {
        let (tap, consumers, closers) = buffering_tap(cfg.rings, cfg.ring_capacity);
        engine.set_seq_event_tap(tap);
        EventPipeline {
            consumers,
            closers,
            cfg,
            trace: None,
        }
    }

    /// Builds a free-standing pipeline and hands back the producer
    /// endpoints, for drivers that stamp their own dense sequence
    /// numbers: event `seq` must be pushed to producer `seq % rings`,
    /// starting at 0. Dropping the producers ends the stream.
    pub fn manual(cfg: PipelineConfig) -> (Vec<RingProducer>, EventPipeline) {
        let rings = cfg.rings.max(1);
        let mut producers = Vec::with_capacity(rings);
        let mut consumers = Vec::with_capacity(rings);
        for _ in 0..rings {
            let (p, c) = adya_engine::EventRing::with_capacity(cfg.ring_capacity);
            producers.push(p);
            consumers.push(c);
        }
        let closers = producers.iter().map(|p| p.closer()).collect();
        (
            producers,
            EventPipeline {
                consumers,
                closers,
                cfg,
                trace: None,
            },
        )
    }

    /// Ends the stream: the sequencer drains what is buffered, then
    /// [`run`](EventPipeline::run) returns. Call after the producing
    /// side is finished (e.g. workload threads joined). Also triggered
    /// by dropping the tap/producers.
    pub fn close(&self) {
        for c in &self.closers {
            c.close();
        }
    }

    /// A detached handle that closes this pipeline's rings, for
    /// handing to the thread that owns the producing side.
    pub fn closer(&self) -> PipelineCloser {
        PipelineCloser {
            closers: self.closers.clone(),
        }
    }

    /// Enables per-verdict trace stamping: sampled events (by the
    /// plane's cadence, over their dense sequence numbers) are stamped
    /// at the sequencer pop (`seq`), application (`apply`) and
    /// commit-verdict emission (`verdict`) stages. `scope` seeds the
    /// trace ids ([`adya_obs::trace_id`]); the producer side stamps
    /// `tap`/`ring` for the same ids itself.
    pub fn set_trace(&mut self, plane: Arc<TracePlane>, scope: &str) {
        self.trace = Some((plane, scope.to_string()));
    }

    /// The application stage: drains rings in dense sequence order,
    /// feeds each event to [`OnlineChecker::ingest`], and invokes
    /// `on_verdict` for every commit verdict, in order. Runs until the
    /// stream is closed and fully drained. Typically called on a
    /// dedicated checker thread.
    pub fn run(
        self,
        checker: &mut OnlineChecker,
        mut on_verdict: impl FnMut(Verdict),
    ) -> PipelineStats {
        let k = self.consumers.len();
        let depth_every = self.cfg.ring_capacity.max(1) as u64;
        let queue_depth = || {
            let depth: usize = self.consumers.iter().map(|c| c.len()).sum();
            adya_obs::gauge!("pipeline.queue_depth").set(depth as i64);
        };
        let mut next = 0u64;
        loop {
            let ring = &self.consumers[(next as usize) % k];
            let Some((seq, ev)) = ring.try_pop() else {
                // Dense sequencing means event `next` lives in ring
                // `next % k`; once that ring is closed and empty, no
                // event ≥ next was ever pushed (pushes happen in
                // sequence order under the recorder lock).
                if ring.is_drained() {
                    break;
                }
                queue_depth();
                std::thread::yield_now();
                continue;
            };
            debug_assert_eq!(seq, next, "ring delivered out-of-sequence event");
            next += 1;
            if next.is_multiple_of(depth_every) {
                queue_depth();
            }
            let traced =
                (self.trace.as_ref()).map_or(Traced::OFF, |(plane, scope)| plane.begin(scope, seq));
            traced.stamp(Stage::Seq);
            traced.stamp(Stage::Apply);
            if let Some(v) = checker.ingest(&ev) {
                traced.stamp(Stage::Verdict);
                on_verdict(v);
            }
        }
        adya_obs::gauge!("pipeline.queue_depth").set(0);
        PipelineStats { events: next }
    }
}

/// Close-only handle to a pipeline's rings (cloneable, thread-safe).
#[derive(Clone)]
pub struct PipelineCloser {
    closers: Vec<RingCloser>,
}

impl PipelineCloser {
    /// Ends the stream, like [`EventPipeline::close`].
    pub fn close(&self) {
        for c in &self.closers {
            c.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adya_history::{Event, ReadEvent, TxnId, VersionId, WriteEvent};

    fn sample_events() -> Vec<Event> {
        // T1 and T2 read each other's writes: G1c fires at T2's commit.
        vec![
            Event::Begin(TxnId(1)),
            Event::Begin(TxnId(2)),
            Event::Write(WriteEvent {
                txn: TxnId(1),
                object: adya_history::ObjectId(0),
                seq: 1,
                kind: adya_history::VersionKind::Visible,
                value: None,
            }),
            Event::Write(WriteEvent {
                txn: TxnId(2),
                object: adya_history::ObjectId(1),
                seq: 1,
                kind: adya_history::VersionKind::Visible,
                value: None,
            }),
            Event::Read(ReadEvent {
                txn: TxnId(1),
                object: adya_history::ObjectId(1),
                version: VersionId::new(TxnId(2), 1),
                through_cursor: false,
            }),
            Event::Read(ReadEvent {
                txn: TxnId(2),
                object: adya_history::ObjectId(0),
                version: VersionId::new(TxnId(1), 1),
                through_cursor: false,
            }),
            Event::Commit(TxnId(1)),
            Event::Commit(TxnId(2)),
        ]
    }

    /// Pipelined ingest (threaded producer, tiny rings forcing
    /// backpressure) produces the byte-identical verdict stream of
    /// plain sequential ingest.
    #[test]
    fn manual_pipeline_matches_sequential() {
        let events = sample_events();
        let mut seq_checker = OnlineChecker::new();
        let mut want = Vec::new();
        for ev in &events {
            if let Some(v) = seq_checker.ingest(ev) {
                want.push(v.to_json());
            }
        }
        for cfg in [
            PipelineConfig {
                rings: 1,
                ring_capacity: 1,
            },
            PipelineConfig {
                rings: 3,
                ring_capacity: 2,
            },
            PipelineConfig::default(),
        ] {
            let (producers, pipe) = EventPipeline::manual(cfg);
            let evs = events.clone();
            let feeder = std::thread::spawn(move || {
                for (i, ev) in evs.into_iter().enumerate() {
                    producers[i % producers.len()].push(i as u64, ev);
                }
                // producers drop here → rings close
            });
            let mut checker = OnlineChecker::new();
            let mut got = Vec::new();
            let stats = pipe.run(&mut checker, |v| got.push(v.to_json()));
            feeder.join().unwrap();
            assert_eq!(got, want, "verdicts diverged under {cfg:?}");
            assert_eq!(stats.events, 8);
            assert_eq!(checker.fired_kinds(), vec![adya_core::PhenomenonKind::G1c]);
        }
    }
}
