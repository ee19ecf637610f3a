//! Request-lifecycle accounting: per-request latency split, and the
//! tail-keeping rule that turns a slow group into spans.
//!
//! A worker stamps every executed OBM group twice — at dequeue and at
//! completion ([`GroupStamp`]). Everything observed about the group is
//! derived from that one pair: *queue wait* (enqueue → dequeue) and
//! *service* (dequeue → completion) land in per-`(worker, class)`
//! histograms through [`WorkerLifecycle`], and a group whose slowest
//! request crosses the slow threshold always leaves its `queue_wait` +
//! `obm_batch` spans in the [`SpanRing`], head-sampled or not, so a slow
//! tail can be inspected post hoc (which op class, which worker, how big
//! the OBM batch was, where the time went).

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::{ConcurrentHistogram, Counter};
use crate::registry::{labeled, MetricsRegistry};
use crate::span::{SpanKind, SpanRecord, SpanRing};

/// Human-readable labels for the three OBM request classes, indexable by
/// the class' integer id (write = 0, read = 1, solo = 2).
pub const CLASS_LABELS: [&str; 3] = ["write", "read", "solo"];

/// One executed OBM group, as its worker stamped it. Requests in a group
/// complete together, so one `dequeued`/`completed` pair times them all.
#[derive(Debug, Clone, Copy)]
pub struct GroupStamp {
    /// Executing worker.
    pub worker: u32,
    /// Virtual shard the group targeted.
    pub shard: u32,
    /// Request class id (index into [`CLASS_LABELS`]).
    pub class: usize,
    /// Per-worker group counter.
    pub batch_id: u64,
    /// Keys the group carried.
    pub keys: u32,
    /// When the worker took the group off its queue.
    pub dequeued: Instant,
    /// When the last request of the group was answered.
    pub completed: Instant,
}

impl GroupStamp {
    /// Dequeue → completion.
    pub fn service(&self) -> Duration {
        self.completed.saturating_duration_since(self.dequeued)
    }

    /// Records the `queue_wait` + `obm_batch` span pair of one request
    /// of this group, enqueued at `enqueued_us` on `ring`'s clock.
    /// Returns the `queue_wait` record as the template for child spans.
    pub fn record_spans(&self, ring: &SpanRing, trace_id: u64, enqueued_us: u64) -> SpanRecord {
        let dequeued_us = ring.stamp(self.dequeued);
        let queue_wait = SpanRecord {
            trace_id,
            kind: SpanKind::QueueWait,
            worker: self.worker,
            shard: self.shard,
            start_us: enqueued_us,
            dur_us: dequeued_us.saturating_sub(enqueued_us),
            batch_id: self.batch_id,
            batch_size: self.keys,
            aux: 0,
        };
        ring.record(queue_wait);
        ring.record(SpanRecord {
            kind: SpanKind::Batch,
            start_us: dequeued_us,
            dur_us: ring.stamp(self.completed).saturating_sub(dequeued_us),
            aux: self.class as u64,
            ..queue_wait
        });
        queue_wait
    }
}

/// Per-worker lifecycle recorder: queue-wait and service histograms per
/// request class, plus the store-wide slow-group counter and the span
/// ring slow groups are kept in.
pub struct WorkerLifecycle {
    queue_wait: [Arc<ConcurrentHistogram>; 3],
    service: [Arc<ConcurrentHistogram>; 3],
    point_during_scan: Arc<ConcurrentHistogram>,
    slow: Arc<Counter>,
    spans: Arc<SpanRing>,
    slow_ns: u64,
}

impl WorkerLifecycle {
    /// Creates the recorder for `worker`, registering its histograms as
    /// `p2kvs_queue_wait_ns{worker,class}` / `p2kvs_service_ns{worker,
    /// class}`. Groups slower end-to-end than `slow_ns` bump
    /// `p2kvs_slow_requests_total` and keep their spans in `spans`.
    pub fn new(
        registry: &MetricsRegistry,
        worker: usize,
        slow_ns: u64,
        spans: Arc<SpanRing>,
    ) -> WorkerLifecycle {
        let w = worker.to_string();
        let hist = |base: &str, class: &str| {
            registry.histogram(&labeled(base, &[("worker", &w), ("class", class)]))
        };
        let per_class = |base: &str| {
            [
                hist(base, CLASS_LABELS[0]),
                hist(base, CLASS_LABELS[1]),
                hist(base, CLASS_LABELS[2]),
            ]
        };
        WorkerLifecycle {
            queue_wait: per_class("p2kvs_queue_wait_ns"),
            service: per_class("p2kvs_service_ns"),
            point_during_scan: registry.histogram(&labeled(
                "p2kvs_point_during_scan_service_ns",
                &[("worker", &w)],
            )),
            slow: registry.counter("p2kvs_slow_requests_total"),
            spans,
            slow_ns,
        }
    }

    /// Records one executed group: each request in it waited
    /// `queue_waits_ns[i]` before `group.dequeued`. A group whose slowest
    /// request (wait + service) reaches the threshold is counted and
    /// keeps that request's span pair under a tail id.
    pub fn observe(&self, group: &GroupStamp, queue_waits_ns: &[u64]) {
        let Some(&slowest) = queue_waits_ns.iter().max() else {
            return;
        };
        let class = group.class.min(CLASS_LABELS.len() - 1);
        let service_ns = group.service().as_nanos() as u64;
        if slowest.saturating_add(service_ns) >= self.slow_ns {
            self.slow.inc();
            let ring = &self.spans;
            let enqueued_us = ring.stamp(group.dequeued).saturating_sub(slowest / 1_000);
            group.record_spans(ring, ring.next_tail_id(), enqueued_us);
        }
        // Last, so a reader that sees every request in the histograms
        // sees the rest of the group's bookkeeping too.
        for &wait in queue_waits_ns {
            self.queue_wait[class].record(wait);
            self.service[class].record(service_ns);
        }
    }

    /// Records a point-op batch that was served while a streaming scan
    /// had a cursor parked on this worker — the latency a blocking scan
    /// would have wrecked. `n` requests shared one `service_ns` batch.
    pub fn observe_point_during_scan(&self, n: usize, service_ns: u64) {
        for _ in 0..n {
            self.point_during_scan.record(service_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A group of `class` on worker 2 / shard 5 that took `service_ns`.
    fn group(ring: &SpanRing, class: usize, service_ns: u64) -> GroupStamp {
        let dequeued = ring.epoch() + Duration::from_millis(10);
        GroupStamp {
            worker: 2,
            shard: 5,
            class,
            batch_id: 9,
            keys: 3,
            dequeued,
            completed: dequeued + Duration::from_nanos(service_ns),
        }
    }

    #[test]
    fn lifecycle_records_per_class_and_traces_slow() {
        let registry = MetricsRegistry::new();
        let ring = Arc::new(SpanRing::new(8));
        let lc = WorkerLifecycle::new(&registry, 2, 1_000_000, ring.clone());
        // Fast batch of 3 writes: histograms fill, nothing is kept.
        lc.observe(&group(&ring, 0, 100), &[10, 20, 30]);
        assert_eq!(ring.total_recorded(), 0);
        // A slow solo read crosses the 1 ms threshold.
        lc.observe(&group(&ring, 1, 500_000), &[900_000]);
        let spans = ring.snapshot();
        assert_eq!(
            spans.iter().map(|s| s.kind).collect::<Vec<_>>(),
            vec![SpanKind::QueueWait, SpanKind::Batch]
        );
        let (qw, batch) = (spans[0], spans[1]);
        assert_eq!(qw.trace_id, batch.trace_id);
        assert!(qw.tail_kept());
        assert_eq!(
            (qw.worker, qw.shard, qw.batch_id, qw.batch_size),
            (2, 5, 9, 3)
        );
        assert_eq!((qw.start_us, qw.dur_us), (9_100, 900), "the slowest wait");
        assert_eq!((batch.start_us, batch.dur_us), (10_000, 500));
        assert_eq!(batch.aux, 1, "the batch span names the class");

        let snap = registry.snapshot();
        assert_eq!(snap.counter("p2kvs_slow_requests_total"), Some(1));
        let writes = snap
            .histogram("p2kvs_queue_wait_ns{worker=\"2\",class=\"write\"}")
            .unwrap();
        assert_eq!(writes.count, 3);
        assert_eq!(writes.max, 30);
        let service = snap
            .histogram("p2kvs_service_ns{worker=\"2\",class=\"write\"}")
            .unwrap();
        assert_eq!(service.count, 3, "service recorded once per request");
    }

    #[test]
    fn every_slow_group_gets_its_own_tail_id() {
        let registry = MetricsRegistry::new();
        let ring = Arc::new(SpanRing::new(16));
        let lc = WorkerLifecycle::new(&registry, 0, 0, ring.clone());
        for _ in 0..3 {
            lc.observe(&group(&ring, 0, 50), &[5, 7]);
        }
        let mut ids: Vec<u64> = ring.snapshot().iter().map(|s| s.trace_id).collect();
        assert_eq!(ids.len(), 6, "a span pair per group, not per request");
        ids.dedup();
        assert_eq!(ids.len(), 3);
        assert_eq!(
            registry.snapshot().counter("p2kvs_slow_requests_total"),
            Some(3)
        );
    }

    #[test]
    fn point_during_scan_histogram_counts_per_request() {
        let registry = MetricsRegistry::new();
        let ring = Arc::new(SpanRing::new(8));
        let lc = WorkerLifecycle::new(&registry, 3, u64::MAX, ring);
        lc.observe_point_during_scan(4, 700);
        lc.observe_point_during_scan(0, 9_999);
        let snap = registry.snapshot();
        let h = snap
            .histogram("p2kvs_point_during_scan_service_ns{worker=\"3\"}")
            .unwrap();
        assert_eq!(h.count, 4, "one sample per request, none for empty batches");
        assert_eq!(h.max, 700);
    }

    #[test]
    fn empty_batch_records_nothing() {
        let registry = MetricsRegistry::new();
        let ring = Arc::new(SpanRing::new(8));
        let lc = WorkerLifecycle::new(&registry, 0, 0, ring.clone());
        lc.observe(&group(&ring, 0, 50), &[]);
        assert_eq!(ring.total_recorded(), 0, "no requests, no kept spans");
    }
}
