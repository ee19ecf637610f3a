//! System constructors shared by all experiments: the figures' systems
//! and the gate scenarios' store. Keys, values and the client window are
//! `workload`'s.
//!
//! Engine sizes are scaled down from production defaults (1 MiB memtables,
//! 512 KiB SSTs) so compaction dynamics appear within scaled-down op
//! counts; the ratios between levels match the full-size configuration.

use std::sync::Arc;

use lsmkv::{Db, Options};
use p2kvs::engine::{LsmFactory, WtFactory};
use p2kvs::{P2Kvs, P2KvsOptions};
use p2kvs_storage::{DeviceProfile, EnvRef, MemEnv};

use crate::clients::{LsmClient, MultiLsmClient, P2Client};

/// A simulated environment over the given device profile.
pub fn device_env(profile: DeviceProfile) -> Arc<MemEnv> {
    Arc::new(MemEnv::with_profile(profile))
}

/// The default experiment device: the Optane-class NVMe SSD.
pub fn nvme_env() -> Arc<MemEnv> {
    device_env(DeviceProfile::nvme_optane())
}

/// A zero-latency environment (unit tests of the harness itself).
pub fn instant_env() -> Arc<MemEnv> {
    device_env(DeviceProfile::instant())
}

/// Bench-scaled RocksDB-mode options.
pub fn bench_options(env: EnvRef) -> Options {
    bench_sized(Options::rocksdb_like(env))
}

/// One of lsmkv's mode presets at the bench's engine sizes.
pub fn bench_sized(preset: Options) -> Options {
    Options {
        memtable_size: 1 << 20,
        target_file_size: 512 << 10,
        base_level_size: 4 << 20,
        block_cache_size: 8 << 20,
        ..preset
    }
}

/// Single-instance RocksDB-mode baseline.
pub fn rocksdb_single(env: Arc<MemEnv>, dir: &str) -> LsmClient {
    LsmClient::new(Db::open(bench_options(env), dir).expect("open rocksdb baseline"))
}

/// Single-instance PebblesDB-mode baseline.
pub fn pebblesdb_single(env: Arc<MemEnv>, dir: &str) -> LsmClient {
    let o = bench_sized(Options::pebblesdb_like(env));
    LsmClient::new(Db::open(o, dir).expect("open pebblesdb baseline"))
}

/// Single-instance LevelDB-mode baseline.
pub fn leveldb_single(env: Arc<MemEnv>, dir: &str) -> LsmClient {
    let o = bench_sized(Options::leveldb_like(env));
    LsmClient::new(Db::open(o, dir).expect("open leveldb baseline"))
}

/// The §3 multi-instance configuration (`n` independent instances).
pub fn rocksdb_multi(env: Arc<MemEnv>, dir: &str, n: usize) -> MultiLsmClient {
    let dbs = (0..n)
        .map(|i| {
            Arc::new(
                Db::open(bench_options(env.clone()), format!("{dir}/inst{i}"))
                    .expect("open multi instance"),
            )
        })
        .collect();
    MultiLsmClient {
        dbs,
        wo: lsmkv::WriteOptions::default(),
    }
}

/// p2KVS over RocksDB-mode engines.
pub fn p2kvs(env: Arc<MemEnv>, dir: &str, workers: usize, obm: bool) -> P2Client<Db> {
    p2kvs_with(bench_options(env), dir, workers, obm)
}

/// p2KVS over engines built from explicit options (any mode).
pub fn p2kvs_with(opts: Options, dir: &str, workers: usize, obm: bool) -> P2Client<Db> {
    let factory = LsmFactory::new(opts);
    // The paper's static layout: one shard per worker, no balancer —
    // figures reproduce the published configuration byte-for-byte.
    let mut popts = P2KvsOptions::paper_layout(workers);
    if !obm {
        popts.batch_max = 1;
    }
    P2Client {
        store: P2Kvs::open(factory, dir, popts).expect("open p2kvs"),
    }
}

/// p2KVS over WiredTiger engines.
pub fn p2kvs_over_wt(env: Arc<MemEnv>, dir: &str, workers: usize) -> P2Client<wtiger::WtDb> {
    let factory = WtFactory::new(wtiger::WtOptions::new(env));
    P2Client {
        store: P2Kvs::open(factory, dir, P2KvsOptions::paper_layout(workers))
            .expect("open p2kvs/wt"),
    }
}

/// Standalone WiredTiger.
pub fn wiredtiger_single(env: Arc<MemEnv>, dir: &str) -> wtiger::WtDb {
    wtiger::WtDb::open(wtiger::WtOptions::new(env), dir).expect("open wt")
}

/// KVell with `workers` share-nothing workers.
pub fn kvell(env: Arc<MemEnv>, dir: &str, workers: usize) -> kvell::KvellDb {
    let mut opts = kvell::KvellOptions::new(env);
    opts.workers = workers;
    kvell::KvellDb::open(opts, dir).expect("open kvell")
}

// ---- The gate scenarios' store ----

/// Engine sizing of the gate scenarios: memtables and a block cache small
/// enough that scans and most GETs go through the device, as on an
/// SSD-resident dataset — an all-in-memory store serves requests so fast
/// that worker occupancy, which most scenarios measure, never
/// materializes.
pub fn scenario_engine(env: EnvRef) -> Options {
    let mut o = Options::rocksdb_like(env);
    o.memtable_size = 256 << 10;
    o.target_file_size = 1 << 20;
    o.block_cache_size = 256 << 10;
    o
}

/// Opens a scenario's store over `engine`.
pub fn scenario_store(name: &str, engine: Options, opts: P2KvsOptions) -> P2Client<Db> {
    P2Client {
        store: P2Kvs::open(LsmFactory::new(engine), name, opts).expect("open scenario store"),
    }
}
