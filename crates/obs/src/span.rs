//! Causal span tracing: request span records, a fixed-capacity
//! multi-producer ring, and the Chrome-trace (Perfetto) JSON export.
//!
//! A head-sampled request carries a [`TraceCtx`] (one `u64`, `Copy`,
//! allocation-free) from submission to completion. The worker that
//! executes it reconstructs the request's life as a handful of
//! [`SpanRecord`]s — queue wait, the OBM batch it rode in, the engine
//! call split into WAL / memtable / read phases, and the device I/O the
//! call induced — and stores them into a [`SpanRing`]. Sampling is also
//! tail-based: a group that turns out slow keeps its queue-wait and
//! batch spans whether or not anything in it was head-sampled (see
//! [`crate::trace::WorkerLifecycle`]). Recording never
//! allocates: the ring's slots are preallocated at store open and a
//! record is a fixed-size `Copy` struct written under a per-slot mutex
//! (mirroring the pooled `CompletionSlot` discipline on the submit
//! side), so the worker consumer loop stays allocation-free with
//! tracing enabled.
//!
//! Timestamps are microseconds relative to the ring's creation instant
//! (one shared epoch), so every span of one request nests consistently
//! in the exported trace regardless of which thread recorded it.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::journal::JournalRecord;
use crate::snapshot::json_escape;

/// The trace identity a sampled request carries through the pipeline.
///
/// `id == 0` means "not sampled" — the common case — and makes the
/// context free to copy alongside every request without an `Option`
/// discriminant. Ids are assigned from a monotone counter at submit
/// time, so all spans of one request share one id and the exporter can
/// group them into a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Nonzero for sampled requests.
    pub id: u64,
}

impl TraceCtx {
    /// The untraced context.
    pub const NONE: TraceCtx = TraceCtx { id: 0 };

    /// Ids at or above this belong to tail-kept groups
    /// ([`SpanRing::next_tail_id`]); head-sampled ids count up from 1,
    /// so the two ranges never meet and the exporter can group both by
    /// id.
    pub const TAIL_BASE: u64 = 1 << 63;

    /// Whether this request is sampled.
    pub fn is_sampled(&self) -> bool {
        self.id != 0
    }
}

/// What a span measures. The discriminants double as nesting depth in
/// the export: `QueueWait` and `Batch` are siblings under the request,
/// `Engine` nests in `Batch`, phases and device I/O nest in `Engine`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Enqueue → dequeue on the owning worker's queue.
    QueueWait,
    /// Dequeue → batch completion (the whole OBM merged run).
    Batch,
    /// The engine call itself (`write_batch` / `multiget` / per-op).
    Engine,
    /// WAL-append time inside the engine call (cumulative-clock delta).
    PhaseWal,
    /// Memtable-insert time inside the engine call.
    PhaseMemtable,
    /// Read-path (memtable + table lookup) time inside the engine call.
    PhaseRead,
    /// Simulated-device busy time the engine call induced.
    DeviceIo,
    /// A client-side read-cache probe that hit (no queue round-trip
    /// followed). Recorded on the calling thread, so `worker` is
    /// `u32::MAX`.
    CacheLookup,
}

impl SpanKind {
    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Batch => "obm_batch",
            SpanKind::Engine => "engine",
            SpanKind::PhaseWal => "wal_append",
            SpanKind::PhaseMemtable => "memtable",
            SpanKind::PhaseRead => "read_path",
            SpanKind::DeviceIo => "device_io",
            SpanKind::CacheLookup => "cache_lookup",
        }
    }
}

/// One completed span of one sampled request. Fixed-size and `Copy` so
/// recording is a plain store into a preallocated slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Groups the spans of one request ([`TraceCtx::id`]).
    pub trace_id: u64,
    /// What this span measures.
    pub kind: SpanKind,
    /// Worker that executed the request.
    pub worker: u32,
    /// Virtual shard the request targeted.
    pub shard: u32,
    /// Start, microseconds since the ring's epoch.
    pub start_us: u64,
    /// Duration in microseconds (0 spans are kept: they carry args).
    pub dur_us: u64,
    /// OBM batch id (per-worker engine-call counter); 0 when n/a.
    pub batch_id: u64,
    /// Requests merged into the batch this span belongs to.
    pub batch_size: u32,
    /// Kind-specific payload: bytes for [`SpanKind::DeviceIo`],
    /// operation-class index for [`SpanKind::Batch`], 0 otherwise.
    pub aux: u64,
}

impl SpanRecord {
    /// Whether this span was kept because its group was slow (a tail id)
    /// rather than because its request was head-sampled.
    pub fn tail_kept(&self) -> bool {
        self.trace_id >= TraceCtx::TAIL_BASE
    }

    const EMPTY: SpanRecord = SpanRecord {
        trace_id: 0,
        kind: SpanKind::QueueWait,
        worker: 0,
        shard: 0,
        start_us: 0,
        dur_us: 0,
        batch_id: 0,
        batch_size: 0,
        aux: 0,
    };
}

/// A fixed-capacity, multi-producer ring of [`SpanRecord`]s.
///
/// `record` claims a slot by a relaxed `fetch_add` and overwrites it
/// under that slot's own mutex — no allocation, no global lock, and
/// writers on different slots never contend. When the ring wraps, the
/// oldest records are overwritten (flight-recorder semantics).
pub struct SpanRing {
    slots: Box<[Mutex<SpanRecord>]>,
    next: AtomicU64,
    tail_ids: AtomicU64,
    epoch: Instant,
}

impl SpanRing {
    /// Slots a store's ring holds.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a ring with `cap` preallocated slots (min 8).
    pub fn new(cap: usize) -> SpanRing {
        let cap = cap.max(8);
        let slots: Vec<Mutex<SpanRecord>> =
            (0..cap).map(|_| Mutex::new(SpanRecord::EMPTY)).collect();
        SpanRing {
            slots: slots.into_boxed_slice(),
            next: AtomicU64::new(0),
            tail_ids: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// A fresh trace id for a tail-kept group, from the range starting
    /// at [`TraceCtx::TAIL_BASE`].
    pub fn next_tail_id(&self) -> u64 {
        TraceCtx::TAIL_BASE + self.tail_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// The shared time base all spans are stamped against.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Microseconds from the epoch to `t` (0 if `t` predates it).
    pub fn stamp(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Stores one record, overwriting the oldest when full. Never
    /// allocates.
    pub fn record(&self, rec: SpanRecord) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        // A poisoned slot only loses that one record.
        if let Ok(mut slot) = self.slots[i].lock() {
            *slot = rec;
        }
    }

    /// Total records ever stored (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Snapshot of the live records, ordered by start timestamp.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().ok().map(|r| *r))
            .filter(|r| r.trace_id != 0)
            .collect();
        out.sort_by_key(|r| (r.start_us, r.trace_id));
        out
    }
}

/// Renders spans plus flight-recorder events as a Chrome-trace JSON
/// document (the `traceEvents` array format; loads in Perfetto and
/// `chrome://tracing`).
///
/// Spans become complete (`"ph":"X"`) events on track `tid = worker`;
/// journal records become instant (`"ph":"i"`) events on track 999 so
/// control-plane history lines up with request spans on one timeline.
pub fn export_chrome_trace(spans: &[SpanRecord], journal: &[JournalRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"p2kvs\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":{},\"shard\":{},\
             \"batch_id\":{},\"batch_size\":{},\"aux\":{}}}}}",
            s.kind.name(),
            s.start_us,
            s.dur_us.max(1),
            s.worker,
            s.trace_id,
            s.shard,
            s.batch_id,
            s.batch_size,
            s.aux,
        );
    }
    for r in journal {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"flight\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\
             \"pid\":1,\"tid\":999,\"args\":{{\"seq\":{},\"a\":{},\"b\":{},\"c\":{},\
             \"gsn\":{}}}}}",
            json_escape(r.kind.name()),
            r.ts_us,
            r.seq,
            r.a,
            r.b,
            r.c,
            r.gsn,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, kind: SpanKind, start: u64) -> SpanRecord {
        SpanRecord {
            trace_id: id,
            kind,
            worker: 1,
            shard: 2,
            start_us: start,
            dur_us: 5,
            batch_id: 3,
            batch_size: 4,
            aux: 0,
        }
    }

    #[test]
    fn ring_records_without_allocating_per_record() {
        let ring = SpanRing::new(8);
        for i in 0..12 {
            ring.record(rec(i + 1, SpanKind::Batch, i));
        }
        assert_eq!(ring.total_recorded(), 12);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8, "bounded: oldest overwritten");
        // The survivors are the newest eight, ordered by start.
        assert_eq!(
            snap.iter().map(|r| r.trace_id).collect::<Vec<_>>(),
            vec![5, 6, 7, 8, 9, 10, 11, 12]
        );
    }

    #[test]
    fn tail_ids_are_unique_and_disjoint_from_head_sampled_ids() {
        let ring = SpanRing::new(8);
        let (a, b) = (ring.next_tail_id(), ring.next_tail_id());
        assert_ne!(a, b);
        assert!(a >= TraceCtx::TAIL_BASE && b >= TraceCtx::TAIL_BASE);
    }

    #[test]
    fn empty_slots_are_invisible() {
        let ring = SpanRing::new(8);
        ring.record(rec(42, SpanKind::QueueWait, 100));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].trace_id, 42);
    }

    #[test]
    fn stamp_is_monotone_from_epoch() {
        let ring = SpanRing::new(8);
        let a = ring.stamp(Instant::now());
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = ring.stamp(Instant::now());
        assert!(b > a);
        // Pre-epoch instants clamp to zero instead of panicking.
        assert_eq!(ring.stamp(ring.epoch()), 0);
    }

    #[test]
    fn concurrent_recording_is_safe_and_bounded() {
        let ring = std::sync::Arc::new(SpanRing::new(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        ring.record(rec(t * 1000 + i + 1, SpanKind::Engine, i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.total_recorded(), 4000);
        assert!(ring.snapshot().len() <= 64);
    }

    #[test]
    fn chrome_export_shape() {
        let spans = vec![
            rec(1, SpanKind::QueueWait, 10),
            rec(1, SpanKind::Batch, 15),
            rec(1, SpanKind::Engine, 16),
        ];
        let journal = vec![JournalRecord {
            seq: 1,
            ts_us: 12,
            kind: crate::journal::JournalKind::StoreOpen,
            a: 0,
            b: 0,
            c: 0,
            gsn: 0,
        }];
        let json = export_chrome_trace(&spans, &journal);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"queue_wait\""));
        assert!(json.contains("\"name\":\"obm_batch\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"store_open\""));
        assert!(json.contains("\"ph\":\"i\""));
        // Balanced braces: cheap well-formedness check without a parser.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn export_of_nothing_is_valid() {
        assert_eq!(export_chrome_trace(&[], &[]), "{\"traceEvents\":[]}");
    }
}
