//! p2KVS: a portable 2-dimensional parallelizing framework for key-value
//! stores (EuroSys '22 reproduction — the paper's primary contribution).
//!
//! p2KVS is a **user-space request scheduler** layered on unmodified KVS
//! instances:
//!
//! * **Horizontal (inter-instance) dimension** — the key space is
//!   hash-partitioned over `S` independent engine instances (**virtual
//!   shards**, default `4×` the worker count), each with its own
//!   WAL/MemTable/LSM-tree, removing all contention on shared engine
//!   structures (§4.1–4.2). A versioned, epoch-stamped shard map
//!   ([`shard::ShardMap`]) assigns shards to `N` worker threads pinned
//!   to cores; an optional skew-aware balancer ([`balance`]) migrates
//!   shard *ownership* between workers — pure queue redirection through
//!   an epoch-fenced handoff, never data movement — so zipfian hot
//!   spots stop saturating one worker while others idle. With
//!   `shards == workers` the map is the identity and the paper's static
//!   layout is reproduced exactly.
//! * **Vertical (intra-instance) dimension** — an accessing layer separates
//!   user threads from workers: user threads enqueue requests onto a
//!   bounded **lock-free MPSC ring** (pooled completion slots; both sides
//!   wait yield → park, so only a wait longer than a wake-up costs pays
//!   for one — see [`queue`] and [`types`]) and sleep; each
//!   worker drains its queue with the **opportunistic batching
//!   mechanism** (OBM, Algorithm 1): consecutive same-type requests (bound
//!   `M`, default 32) merge into one engine `WriteBatch` or one `multiget`
//!   (§4.3).
//! * **Range queries** — RANGE and SCAN stream through per-instance
//!   **engine cursors** pulled in bounded chunks and lazily K-way merged
//!   ([`scan::StoreIter`], also exposed as
//!   [`P2Kvs::iter`](store::P2Kvs::iter)). Every chunk is a separate
//!   queue round-trip, so large scans interleave with point traffic
//!   instead of head-of-line-blocking a worker; the paper's quota
//!   strategies (§4.4) survive as opening-chunk sizing policies.
//! * **Hot-set read cache** — a lock-free, tag-checked hash index
//!   ([`cache::ReadCache`], budget `P2KvsOptions::cache_capacity`,
//!   default 16 MiB) serves repeated GETs on the client thread with no
//!   queue round-trip, no lock, and one allocation (the returned
//!   bytes), reclaiming removed records through FASTER-style epochs
//!   (`p2kvs_util::epoch`). Writes invalidate before acking
//!   (read-your-writes), fills are version-checked against racing
//!   writes, migrations flush the moving shard, and a doorkeeper
//!   admission filter keeps read-once traffic from churning the
//!   resident hot set (DESIGN.md §11).
//! * **Transactions** — cross-instance WriteBatches share a Global Sequence
//!   Number persisted in a commit log; recovery rolls back batches whose
//!   GSN never committed (§4.5).
//! * **Portability** — everything is programmed against the small
//!   [`engine::KvsEngine`] trait; adapters for the bundled `lsmkv`
//!   (RocksDB/LevelDB/PebblesDB modes) and `wtiger` engines are provided,
//!   and OBM degrades gracefully when an engine lacks batch-write or
//!   multiget (§4.6).
//! * **Observability** — every worker records queue-wait and service
//!   latency histograms per request class into a `p2kvs-obs` metrics
//!   registry, slow groups keep their spans in the span ring, and
//!   [`P2Kvs::metrics_snapshot`](store::P2Kvs::metrics_snapshot) samples
//!   queue depths and engine internals (`engine_*`) into one
//!   Prometheus/JSON-renderable snapshot.
//!
//! # Quickstart
//!
//! ```
//! use p2kvs::{P2Kvs, P2KvsOptions};
//! use p2kvs::engine::LsmFactory;
//! use lsmkv::Options;
//!
//! let factory = LsmFactory::new(Options::for_test());
//! let store = P2Kvs::open(factory, "quickstart-db", P2KvsOptions::default()).unwrap();
//! store.put(b"hello", b"world").unwrap();
//! assert_eq!(store.get(b"hello").unwrap().unwrap(), b"world");
//! ```

pub mod backup;
pub mod balance;
pub mod cache;
pub mod engine;
pub mod error;
pub mod pool;
pub mod queue;
mod ring;
pub mod scan;
pub mod shard;
pub mod stats;
pub mod store;
pub mod txn;
pub mod types;
pub mod worker;

pub use backup::{BackupHandle, BackupReport};
pub use balance::{BalancePolicy, ScalePolicy};
pub use cache::{CacheCounters, ReadCache};
pub use engine::{
    BackupSource, Capabilities, EngineEvent, EngineEventHook, EngineFactory, EnginePhases,
    KvsEngine, SnapshotFidelity,
};
pub use error::{Error, Result};
pub use scan::StoreIter;
pub use shard::{HashPartitioner, Partitioner, RangePartitioner, ShardMap};
pub use store::{P2Kvs, P2KvsOptions, StoreIntrospection, WorkerView};
pub use types::{Op, Response, WriteOp};

// The observability layer (re-exported so store users can consume
// snapshots and traces without depending on `p2kvs-obs` directly).
pub use p2kvs_obs as obs;
pub use p2kvs_obs::{
    Journal, JournalKind, JournalRecord, MetricsRegistry, MetricsSnapshot, SpanKind, SpanRecord,
    SpanRing, TraceCtx,
};
