//! The pinned configuration, store construction, and the counters read
//! through the product's public accessors.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use lsmkv::SyncPolicy;
use p2kvs::engine::LsmFactory;
use p2kvs::{KvsEngine, P2Kvs, P2KvsOptions};
use p2kvs_storage::{DeviceProfile, Env, EnvRef, IoStatsSnapshot, SimEnv};
use p2kvs_util::timing::process_cpu_time;

use crate::trace::{self, TimedEngine, TimedEnv, TimedFactory};

// Pinned configuration: constants, not flags.
pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 2;
pub const DEVICE_QUEUES: usize = 2;
pub const MEMTABLE_SIZE: usize = 1 << 20;
pub const TARGET_FILE_SIZE: usize = 512 << 10;
pub const BASE_LEVEL_SIZE: u64 = 4 << 20;
pub const BLOCK_CACHE_SIZE: usize = 8 << 20;
pub const FLUSH_POLICY: SyncPolicy = SyncPolicy::Async;

/// Environment variables that rescale the simulator or the old benches;
/// a run with either set would not be comparable.
pub const FORBIDDEN_ENV: [&str; 2] = ["P2KVS_SIM_TIME_SCALE", "P2KVS_SCALE"];

/// The device every store runs on.
pub fn device() -> DeviceProfile {
    DeviceProfile::nvme_optane().with_queues(DEVICE_QUEUES)
}

/// The store options: the product as shipped, on two workers.
pub fn store_options() -> P2KvsOptions {
    P2KvsOptions::with_workers(WORKERS)
}

/// The engine options over `env`.
pub fn engine_options(env: EnvRef) -> lsmkv::Options {
    let mut o = lsmkv::Options::rocksdb_like(env);
    o.memtable_size = MEMTABLE_SIZE;
    o.target_file_size = TARGET_FILE_SIZE;
    o.base_level_size = BASE_LEVEL_SIZE;
    o.block_cache_size = BLOCK_CACHE_SIZE;
    o.sync = FLUSH_POLICY;
    o
}

/// An engine the benchmark can read `lsmkv` statistics from.
pub trait Engine: KvsEngine {
    fn db(&self) -> &lsmkv::Db;
}

impl Engine for lsmkv::Db {
    fn db(&self) -> &lsmkv::Db {
        self
    }
}

impl Engine for TimedEngine<lsmkv::Db> {
    fn db(&self) -> &lsmkv::Db {
        self.inner()
    }
}

/// A store on its own fresh simulated device.
pub struct Bench<E: Engine> {
    pub store: P2Kvs<E>,
    pub sim: Arc<SimEnv>,
}

const STORE_DIR: &str = "bench-db";

/// Opens an empty store over the plain product types.
pub fn open_plain() -> Bench<lsmkv::Db> {
    open_plain_on(device())
}

pub fn open_plain_on(profile: DeviceProfile) -> Bench<lsmkv::Db> {
    let sim = Arc::new(SimEnv::with_profile(profile));
    let factory = LsmFactory::new(engine_options(sim.clone()));
    let store = P2Kvs::open(factory, STORE_DIR, store_options()).expect("open store");
    Bench { store, sim }
}

/// Opens an empty store whose engines and env are wrapped in the span
/// recorders of [`crate::trace`].
pub fn open_traced() -> Bench<TimedEngine<lsmkv::Db>> {
    let sim = Arc::new(SimEnv::with_profile(device()));
    let env: EnvRef = Arc::new(TimedEnv(sim.clone()));
    let factory = TimedFactory(LsmFactory::new(engine_options(env)));
    let store = P2Kvs::open(factory, STORE_DIR, store_options()).expect("open store");
    Bench { store, sim }
}

impl<E: Engine> Bench<E> {
    /// Waits until no engine has flush or compaction work left, so
    /// deferred work is charged to whoever caused it.
    pub fn wait_idle(&self) {
        for e in self.store.engines() {
            e.db().wait_idle().expect("wait_idle");
        }
    }

    /// Cumulative counters of every layer, read from outside.
    pub fn counters(&self) -> Counters {
        let snap = self.store.snapshot();
        let metrics = self.store.metrics_snapshot();
        let counter = |name: &str| metrics.counter(name).unwrap_or(0);
        let mut c = Counters {
            at_ns: trace::now_ns(),
            cpu_ns: process_cpu_time().as_nanos() as u64,
            io: self.sim.io_stats(),
            cache_hits: counter("p2kvs_cache_hits"),
            cache_misses: counter("p2kvs_cache_misses"),
            cache_evictions: counter("p2kvs_cache_evictions"),
            worker_busy_ns: snap.workers.iter().map(|w| w.busy.as_nanos() as u64).collect(),
            ..Counters::default()
        };
        for w in &snap.workers {
            c.worker_ops += w.ops;
            c.worker_batches += w.batches;
            c.worker_merged += w.merged_ops;
            c.scans += w.scans;
            c.scan_chunks += w.scan_chunks;
        }
        for e in self.store.engines() {
            let s = e.db().stats();
            let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
            c.wal_ns += s.breakdown.wal.sum_ns();
            c.memtable_ns += s.breakdown.memtable.sum_ns();
            c.engine_writes += load(&s.writes);
            c.user_bytes += load(&s.user_bytes_written);
            c.memtable_hits += load(&s.memtable_hits);
            c.bloom_skips += load(&s.bloom_skips);
            c.flushes += load(&s.flushes);
            c.compactions += load(&s.compactions);
            c.compaction_bytes += load(&s.compaction_bytes_written);
            c.stall_ns += load(&s.stall_ns);
        }
        c
    }
}

/// One reading of [`Bench::counters`]; layer metrics are differences of
/// two readings.
#[derive(Default, Clone)]
pub struct Counters {
    pub at_ns: u64,
    pub cpu_ns: u64,
    pub io: IoStatsSnapshot,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub worker_ops: u64,
    pub worker_batches: u64,
    pub worker_merged: u64,
    pub worker_busy_ns: Vec<u64>,
    pub scans: u64,
    pub scan_chunks: u64,
    pub wal_ns: u64,
    pub memtable_ns: u64,
    pub engine_writes: u64,
    pub user_bytes: u64,
    pub memtable_hits: u64,
    pub bloom_skips: u64,
    pub flushes: u64,
    pub compactions: u64,
    pub compaction_bytes: u64,
    pub stall_ns: u64,
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time the hypervisor ran something else while a CPU of this guest had
/// work, in milliseconds since boot (`steal` of `/proc/stat`; 0 when the
/// kernel does not report it).
pub fn host_steal_ms() -> u64 {
    const TICK_MS: u64 = 10; // USER_HZ is 100 on every Linux
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse::<u64>().ok())
        .map_or(0, |ticks| ticks * TICK_MS)
}
