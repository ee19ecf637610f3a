//! System constructors shared by all experiments.
//!
//! Engine sizes are scaled down from production defaults (1 MiB memtables,
//! 512 KiB SSTs) so compaction dynamics appear within scaled-down op
//! counts; the ratios between levels match the full-size configuration.

use std::sync::Arc;

use lsmkv::{Db, Options};
use p2kvs::engine::{LsmFactory, WtFactory};
use p2kvs::{P2Kvs, P2KvsOptions};
use p2kvs_storage::{DeviceProfile, EnvRef, SimEnv};

use crate::clients::{KvellClient, LsmClient, MultiLsmClient, P2Client, WtClient};

/// A simulated environment over the given device profile.
pub fn device_env(profile: DeviceProfile) -> Arc<SimEnv> {
    Arc::new(SimEnv::with_profile(profile))
}

/// The default experiment device: the Optane-class NVMe SSD.
pub fn nvme_env() -> Arc<SimEnv> {
    device_env(DeviceProfile::nvme_optane())
}

/// A zero-latency environment (unit tests of the harness itself).
pub fn instant_env() -> Arc<SimEnv> {
    device_env(DeviceProfile::instant())
}

/// Bench-scaled RocksDB-mode options.
pub fn bench_options(env: EnvRef) -> Options {
    let mut o = Options::rocksdb_like(env);
    o.memtable_size = 1 << 20;
    o.target_file_size = 512 << 10;
    o.base_level_size = 4 << 20;
    o.block_cache_size = 8 << 20;
    o
}

/// Single-instance RocksDB-mode baseline.
pub fn rocksdb_single(env: Arc<SimEnv>, dir: &str) -> LsmClient {
    LsmClient {
        db: Arc::new(Db::open(bench_options(env), dir).expect("open rocksdb baseline")),
    }
}

/// Single-instance PebblesDB-mode baseline.
pub fn pebblesdb_single(env: Arc<SimEnv>, dir: &str) -> LsmClient {
    let mut o = bench_options(env);
    o.compaction_style = lsmkv::CompactionStyle::Fragmented;
    o.concurrent_memtable = false;
    o.pipelined_write = false;
    o.has_multiget = false;
    LsmClient {
        db: Arc::new(Db::open(o, dir).expect("open pebblesdb baseline")),
    }
}

/// Single-instance LevelDB-mode baseline.
pub fn leveldb_single(env: Arc<SimEnv>, dir: &str) -> LsmClient {
    let mut o = bench_options(env);
    o.concurrent_memtable = false;
    o.pipelined_write = false;
    o.has_multiget = false;
    LsmClient {
        db: Arc::new(Db::open(o, dir).expect("open leveldb baseline")),
    }
}

/// The §3 multi-instance configuration (`n` independent instances).
pub fn rocksdb_multi(env: Arc<SimEnv>, dir: &str, n: usize) -> MultiLsmClient {
    let dbs = (0..n)
        .map(|i| {
            Arc::new(
                Db::open(bench_options(env.clone()), format!("{dir}/inst{i}"))
                    .expect("open multi instance"),
            )
        })
        .collect();
    MultiLsmClient { dbs }
}

/// p2KVS over RocksDB-mode engines.
pub fn p2kvs(env: Arc<SimEnv>, dir: &str, workers: usize, obm: bool) -> P2Client<Db> {
    p2kvs_with(bench_options(env), dir, workers, obm)
}

/// p2KVS over RocksDB-mode engines with explicit engine options.
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

/// p2KVS over LevelDB-mode engines.
pub fn p2kvs_over_leveldb(env: Arc<SimEnv>, dir: &str, workers: usize) -> P2Client<Db> {
    let mut o = bench_options(env);
    o.concurrent_memtable = false;
    o.pipelined_write = false;
    o.has_multiget = false;
    let factory = LsmFactory::new(o);
    P2Client {
        store: P2Kvs::open(factory, dir, P2KvsOptions::paper_layout(workers))
            .expect("open p2kvs/leveldb"),
    }
}

/// p2KVS over WiredTiger engines.
pub fn p2kvs_over_wt(env: Arc<SimEnv>, dir: &str, workers: usize) -> P2Client<wtiger::WtDb> {
    let factory = WtFactory::new(wtiger::WtOptions::new(env));
    P2Client {
        store: P2Kvs::open(factory, dir, P2KvsOptions::paper_layout(workers))
            .expect("open p2kvs/wt"),
    }
}

/// Standalone WiredTiger.
pub fn wiredtiger_single(env: Arc<SimEnv>, dir: &str) -> WtClient {
    WtClient {
        db: Arc::new(wtiger::WtDb::open(wtiger::WtOptions::new(env), dir).expect("open wt")),
    }
}

/// KVell with `workers` share-nothing workers.
pub fn kvell(env: Arc<SimEnv>, dir: &str, workers: usize) -> KvellClient {
    let mut opts = kvell::KvellOptions::new(env);
    opts.workers = workers;
    KvellClient {
        db: kvell::KvellDb::open(opts, dir).expect("open kvell"),
    }
}
