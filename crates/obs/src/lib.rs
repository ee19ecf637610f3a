//! `p2kvs-obs`: the observability layer of the p2KVS reproduction.
//!
//! The paper's entire argument is *measured* — the Fig 6 write-latency
//! breakdown, Fig 13 tail latencies, the OBM batch-size dynamics — so
//! the framework carries first-class metrics rather than ad-hoc
//! counters:
//!
//! * [`metrics`] — lock-free [`Counter`]s and [`Gauge`]s, plus
//!   [`ConcurrentHistogram`], a sharded wrapper around
//!   [`p2kvs_util::Histogram`] that workers record into without
//!   contention.
//! * [`registry`] — [`MetricsRegistry`], get-or-create named metrics;
//!   handles are resolved once and recorded through afterwards, so the
//!   registry lock never sits on a hot path.
//! * [`trace`] — request-lifecycle accounting: from one [`GroupStamp`]
//!   per executed group, [`WorkerLifecycle`] splits every request into
//!   *queue-wait* and *service* latency per `(worker, class)` and keeps
//!   the spans of slow groups for post-hoc inspection.
//! * [`snapshot`] — [`MetricsSnapshot`] with Prometheus-text and JSON
//!   renderers (the JSON form is the `repro` per-run artifact).
//! * [`reporter`] — [`PeriodicTask`], the thread the balancer ticks on.
//! * [`span`] — causal span tracing: the head-sampled [`TraceCtx`] that
//!   rides a request, the fixed-capacity [`SpanRing`] of completed
//!   [`SpanRecord`]s, and the Chrome-trace/Perfetto JSON export.
//! * [`journal`] — the system flight recorder: a bounded,
//!   gap-free-sequenced [`Journal`] of control-plane events (handoffs,
//!   balancer moves, compactions, fault firings) with a pluggable
//!   persistence sink so the history survives crashes.
//!
//! The crate is dependency-free (std + `p2kvs-util`) and knows nothing
//! about engines or the store; `p2kvs` threads it through the stack.

pub mod journal;
pub mod metrics;
pub mod registry;
pub mod reporter;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use journal::{parse_journal, sequence_gap, Journal, JournalKind, JournalRecord};
pub use metrics::{ConcurrentHistogram, Counter, Gauge};
pub use registry::{labeled, MetricsRegistry};
pub use reporter::PeriodicTask;
pub use snapshot::{HistogramStats, MetricsSnapshot};
pub use span::{export_chrome_trace, SpanKind, SpanRecord, SpanRing, TraceCtx};
pub use trace::{GroupStamp, WorkerLifecycle, CLASS_LABELS};
