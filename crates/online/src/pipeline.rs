//! The staged ingest pipeline: bounded event queues → sequencer →
//! checker.
//!
//! The sequential ingest path calls `Mutex<OnlineChecker>::ingest` per
//! event, which serializes every producing engine thread on the
//! checker's graph maintenance. The pipeline decouples the two sides:
//!
//! 1. **Queues** — the driver numbers its events densely from 0 and
//!    pushes event `seq` into queue `seq % rings` of `rings` bounded
//!    queues ([`adya_engine::EventRing`], a std `sync_channel`).
//!    Producers only ever pay a queue push; a full queue blocks its
//!    producer (backpressure, counted in
//!    `pipeline.backpressure_waits`).
//! 2. **Sequencer** — the application stage drains the queues in dense
//!    sequence order (event `seq` can only be at the head of queue
//!    `seq % rings`, so the merge is O(1)), blocking on the queue that
//!    holds the next event.
//! 3. **Application** — each event goes through
//!    [`OnlineChecker::ingest`], the one way into the checker.
//!
//! The stream ends when the driver drops its producers. The verdict
//! stream is byte-identical to sequential ingest: events reach the
//! checker in exactly sequence order, through the same call (pinned by
//! the `pipeline_equivalence` proptests).

use std::sync::Arc;

use adya_engine::{EventRing, RingConsumer, RingProducer};
use adya_obs::{trace::Stage, TracePlane, Traced};

use crate::{OnlineChecker, Verdict};

/// Shape of one ingest pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Number of bounded event queues the producers shard over.
    pub rings: usize,
    /// Capacity of each queue, in events; a full queue blocks its
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

/// The consumer half of an ingest pipeline: queues fed by the
/// producers [`manual`](EventPipeline::manual) hands out, ready to be
/// drained into a checker by [`run`](EventPipeline::run).
pub struct EventPipeline {
    consumers: Vec<RingConsumer>,
    /// Per-verdict trace stamping: the plane plus the trace-id scope
    /// (threaded separately from [`PipelineConfig`], which stays
    /// `Copy`). `None` = no stamping overhead beyond one branch.
    trace: Option<(Arc<TracePlane>, String)>,
}

impl EventPipeline {
    /// Builds a pipeline and hands back its producer endpoints: event
    /// `seq` must be pushed to producer `seq % rings`, starting at 0.
    /// Dropping the producers ends the stream.
    pub fn manual(cfg: PipelineConfig) -> (Vec<RingProducer>, EventPipeline) {
        let (producers, consumers) = (0..cfg.rings.max(1))
            .map(|_| EventRing::with_capacity(cfg.ring_capacity))
            .unzip();
        let pipe = EventPipeline {
            consumers,
            trace: None,
        };
        (producers, pipe)
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

    /// The application stage: drains the queues in dense sequence
    /// order, feeds each event to [`OnlineChecker::ingest`], and
    /// invokes `on_verdict` for every commit verdict, in order. Runs
    /// until every producer is dropped and the queues are drained.
    /// Typically called on a dedicated checker thread.
    pub fn run(
        self,
        checker: &mut OnlineChecker,
        mut on_verdict: impl FnMut(Verdict),
    ) -> PipelineStats {
        let k = self.consumers.len();
        let mut next = 0u64;
        // Dense sequencing means event `next` lives in queue `next % k`;
        // once that queue's producer is gone and it is drained, no event
        // ≥ next was ever pushed (pushes happen in sequence order).
        while let Some((seq, ev)) = self.consumers[(next as usize) % k].pop() {
            debug_assert_eq!(seq, next, "queue delivered out-of-sequence event");
            next += 1;
            let traced =
                (self.trace.as_ref()).map_or(Traced::OFF, |(plane, scope)| plane.begin(scope, seq));
            traced.stamp(Stage::Seq);
            traced.stamp(Stage::Apply);
            if let Some(v) = checker.ingest(&ev) {
                traced.stamp(Stage::Verdict);
                on_verdict(v);
            }
        }
        PipelineStats { events: next }
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

    /// Pipelined ingest (threaded producer, tiny queues forcing
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
                // producers drop here → the stream ends
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
