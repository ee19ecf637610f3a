//! System constructors shared by all experiments.
//!
//! Engine sizes are scaled down from production defaults (1 MiB memtables,
//! 512 KiB SSTs) so compaction dynamics appear within scaled-down op
//! counts; the ratios between levels match the full-size configuration.

use std::sync::Arc;
use std::time::Instant;

use lsmkv::{Db, Options};
use p2kvs::engine::{LsmFactory, WtFactory};
use p2kvs::{P2Kvs, P2KvsOptions};
use p2kvs_storage::{DeviceProfile, EnvRef, SimEnv};
use p2kvs_util::rng::Rng;

use crate::clients::{LsmClient, MultiLsmClient, P2Client};

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
    LsmClient::new(Db::open(bench_options(env), dir).expect("open rocksdb baseline"))
}

/// Single-instance PebblesDB-mode baseline.
pub fn pebblesdb_single(env: Arc<SimEnv>, dir: &str) -> LsmClient {
    let mut o = bench_options(env);
    o.compaction_style = lsmkv::CompactionStyle::Fragmented;
    o.concurrent_memtable = false;
    o.pipelined_write = false;
    o.has_multiget = false;
    LsmClient::new(Db::open(o, dir).expect("open pebblesdb baseline"))
}

/// Single-instance LevelDB-mode baseline.
pub fn leveldb_single(env: Arc<SimEnv>, dir: &str) -> LsmClient {
    let mut o = bench_options(env);
    o.concurrent_memtable = false;
    o.pipelined_write = false;
    o.has_multiget = false;
    LsmClient::new(Db::open(o, dir).expect("open leveldb baseline"))
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
    MultiLsmClient {
        dbs,
        wo: lsmkv::WriteOptions::default(),
    }
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
pub fn wiredtiger_single(env: Arc<SimEnv>, dir: &str) -> wtiger::WtDb {
    wtiger::WtDb::open(wtiger::WtOptions::new(env), dir).expect("open wt")
}

/// KVell with `workers` share-nothing workers.
pub fn kvell(env: Arc<SimEnv>, dir: &str, workers: usize) -> kvell::KvellDb {
    let mut opts = kvell::KvellOptions::new(env);
    opts.workers = workers;
    kvell::KvellDb::open(opts, dir).expect("open kvell")
}

// ---- The gate scenarios' store, keys, values and client loop ----

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

/// Opens a scenario's store over `engine`, workers unpinned (the gates run
/// on shared CI boxes with fewer cores than workers).
pub fn scenario_store(name: &str, engine: Options, mut opts: P2KvsOptions) -> P2Kvs<Db> {
    opts.pin_workers = false;
    P2Kvs::open(LsmFactory::new(engine), name, opts).expect("open scenario store")
}

/// `len` bytes derived from `key` alone. Re-puts are therefore idempotent
/// and a store's final state is the same however client threads
/// interleave, so two configurations of one scenario must read back
/// byte-identical — a mismatch can only come from the feature under test.
pub fn value_of(key: &[u8], len: usize) -> Vec<u8> {
    let mut h = p2kvs_util::hash::fnv1a64(key);
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&h.to_le_bytes());
        h = h.wrapping_mul(0x100000001b3);
    }
    v.truncate(len);
    v
}

/// Puts [`value_of`] under every key of `keys`.
pub fn load(store: &P2Kvs<Db>, keys: impl Iterator<Item = Vec<u8>>, value_len: usize) {
    for key in keys {
        store.put(&key, &value_of(&key, value_len)).expect("load");
    }
}

/// Sorted latencies of one client window, in nanoseconds.
#[derive(Default)]
pub struct Latencies {
    /// Every GET of the window.
    pub gets: Vec<u64>,
    /// Every PUT of the window.
    pub puts: Vec<u64>,
}

/// One closed-loop client window: `clients` threads each issue
/// `ops_per_client` blocking calls on a key drawn by `pick` — a PUT of
/// [`value_of`] with probability `put_percent` %, else a GET, which must
/// find the (preloaded) key. A thread's op stream is a function of
/// `(seed, thread index)` alone.
pub fn drive(
    store: &P2Kvs<Db>,
    clients: usize,
    ops_per_client: u64,
    seed: u64,
    put_percent: u64,
    value_len: usize,
    pick: impl Fn(&mut Rng) -> Vec<u8> + Sync,
) -> Latencies {
    let mut all = Latencies::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|c| {
                let pick = &pick;
                s.spawn(move || {
                    let mut rng = Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c + 1));
                    let mut lat = Latencies::default();
                    for _ in 0..ops_per_client {
                        let key = pick(&mut rng);
                        if rng.below(100) < put_percent {
                            let value = value_of(&key, value_len);
                            let began = Instant::now();
                            store.put(&key, &value).expect("put");
                            lat.puts.push(began.elapsed().as_nanos() as u64);
                        } else {
                            let began = Instant::now();
                            let got = store.get(&key).expect("get");
                            lat.gets.push(began.elapsed().as_nanos() as u64);
                            assert!(got.is_some(), "preloaded key missing");
                        }
                    }
                    lat
                })
            })
            .collect();
        for h in handles {
            let lat = h.join().expect("client thread");
            all.gets.extend(lat.gets);
            all.puts.extend(lat.puts);
        }
    });
    all.gets.sort_unstable();
    all.puts.sort_unstable();
    all
}

/// What [`readback`] returns: each sampled key with what the store holds.
pub type Sample = Vec<(Vec<u8>, Option<Vec<u8>>)>;

/// Reads a fixed sample of 2 000 keys drawn by `pick` — the same sample
/// for every configuration of a scenario, compared for byte identity.
pub fn readback(store: &P2Kvs<Db>, pick: impl Fn(&mut Rng) -> Vec<u8>) -> Sample {
    let mut rng = Rng::new(0x0ddba11);
    (0..2_000)
        .map(|_| {
            let key = pick(&mut rng);
            let got = store.get(&key).expect("readback");
            (key, got)
        })
        .collect()
}
