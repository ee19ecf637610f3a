//! One microbenchmark per layer, each through that layer's public
//! surface alone. They size the parts a workload's budget is made of:
//! the framework minus engine and device, the engine minus framework and
//! device, and the host cost of the device simulator.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use p2kvs::cache::ReadCache;
use p2kvs::queue::RequestQueue;
use p2kvs::shard::{HashPartitioner, MapCell, Partitioner, ShardMap};
use p2kvs::txn::TxnManager;
use p2kvs::types::{Op, Request, Response};
use p2kvs::{Capabilities, EngineFactory, KvsEngine, P2Kvs, WriteOp};
use p2kvs_storage::{DeviceProfile, Env, EnvRef, MemEnv, SimEnv};

use crate::gen;
use crate::setup;
use crate::stats::{median, Metrics};

/// Rounds per microbenchmark; the median round is reported.
const ROUNDS: usize = 3;

/// The median of [`ROUNDS`] calls of `round(r)`.
fn median_round(round: impl FnMut(u64) -> f64) -> f64 {
    median((0..ROUNDS as u64).map(round).collect())
}

/// Median round of the mean nanoseconds per call of `f(i)`, `iters` calls
/// a round. `i` keeps counting across rounds, so a benchmark that consumes
/// its inputs (fills, unique writes) never sees one twice.
fn per_call_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    median_round(|round| {
        let t0 = Instant::now();
        for i in round * iters..(round + 1) * iters {
            f(i);
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    })
}

/// An engine that accepts everything and stores nothing: what is left of
/// a `P2Kvs` call over it is the framework.
pub struct NullEngine;

impl KvsEngine for NullEngine {
    fn put(&self, _key: &[u8], _value: &[u8]) -> p2kvs::Result<()> {
        Ok(())
    }

    fn delete(&self, _key: &[u8]) -> p2kvs::Result<()> {
        Ok(())
    }

    fn write_batch(&self, _ops: &[WriteOp], _gsn: u64) -> p2kvs::Result<()> {
        Ok(())
    }

    fn get(&self, _key: &[u8]) -> p2kvs::Result<Option<Vec<u8>>> {
        Ok(None)
    }

    fn scan(&self, _start: &[u8], _count: usize) -> p2kvs::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(Vec::new())
    }

    fn range(&self, _begin: &[u8], _end: &[u8]) -> p2kvs::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(Vec::new())
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            batch_write: true,
            multiget: true,
            native_cursor: false,
        }
    }

    fn sync(&self) -> p2kvs::Result<()> {
        Ok(())
    }

    fn mem_usage(&self) -> usize {
        0
    }
}

pub struct NullFactory(EnvRef);

impl EngineFactory for NullFactory {
    type Engine = NullEngine;

    fn open(
        &self,
        _dir: &Path,
        _filter: Option<p2kvs::engine::GsnFilter>,
    ) -> p2kvs::Result<NullEngine> {
        Ok(NullEngine)
    }

    fn env(&self) -> EnvRef {
        self.0.clone()
    }
}

/// The pinned store options over [`NullEngine`] and an untimed env.
pub fn open_null_store() -> P2Kvs<NullEngine> {
    let factory = NullFactory(Arc::new(MemEnv::new()));
    P2Kvs::open(factory, "null-db", setup::store_options()).expect("open null store")
}

fn cache(m: &mut Metrics) {
    const N: u64 = 20_000;
    let cache = ReadCache::new(setup::store_options().cache_capacity as u64, 8);
    let shard = |i: u64| (i % 8) as u32;
    for i in 0..N {
        let s = shard(i);
        cache.fill(s, &gen::key_of(i), &gen::value_of(i, 0), cache.version(s));
    }
    let hit = per_call_ns(N / 2, |i| {
        std::hint::black_box(cache.lookup(shard(i % N), &gen::key_of(i % N)));
    });
    let miss = per_call_ns(N / 2, |i| {
        std::hint::black_box(cache.lookup(shard(i), &gen::key_of(N + i)));
    });
    let fill = per_call_ns(N / 2, |i| {
        let (i, s) = (2 * N + i, shard(i));
        cache.fill(s, &gen::key_of(i), &gen::value_of(i, 0), cache.version(s));
    });
    let invalidate = per_call_ns(N / 4, |i| cache.invalidate(shard(i), &gen::key_of(i)));
    m.put("micro.cache.hit_ns", hit, "ns");
    m.put("micro.cache.miss_ns", miss, "ns");
    m.put("micro.cache.fill_ns", fill, "ns");
    m.put("micro.cache.invalidate_ns", invalidate, "ns");
}

fn shard(m: &mut Metrics) {
    let opts = setup::store_options();
    let shards = 4 * opts.workers;
    let partitioner = HashPartitioner::new(shards);
    let map = MapCell::new(ShardMap::initial(shards, opts.workers));
    let route = per_call_ns(200_000, |i| {
        let s = partitioner.shard_of(&gen::key_of(i));
        std::hint::black_box(map.pin().owner(s));
    });
    m.put("micro.shard.route_ns", route, "ns");
}

fn queue(m: &mut Metrics) {
    const PIPELINE: u64 = 64;
    let q = Arc::new(RequestQueue::new());
    let consumer = {
        let q = q.clone();
        std::thread::spawn(move || {
            let mut batch = Vec::new();
            while q.pop_batch_into(32, &mut batch) {
                for req in batch.drain(..) {
                    req.finish(Ok(Response::Done));
                }
            }
        })
    };
    let get = || Op::Get {
        key: gen::key_of(1).to_vec(),
    };
    let roundtrip = per_call_ns(4_000, |_| {
        let (req, done) = Request::sync(get());
        q.push(req).expect("queue open");
        done.wait().expect("completed");
    });
    let pipelined = per_call_ns(1_000, |_| {
        let waiters: Vec<_> = (0..PIPELINE)
            .map(|_| {
                let (req, done) = Request::sync(get());
                q.push(req).expect("queue open");
                done
            })
            .collect();
        for w in waiters {
            w.wait().expect("completed");
        }
    }) / PIPELINE as f64;
    q.close();
    consumer.join().expect("consumer thread");
    m.put("micro.queue.roundtrip_ns", roundtrip, "ns");
    m.put("micro.queue.pipelined_ns", pipelined, "ns");
}

fn accessing(m: &mut Metrics) {
    const WINDOW: u64 = 64;
    let store = open_null_store();
    let value = gen::value_of(0, 0);
    let put = per_call_ns(4_000, |i| store.put(&gen::key_of(i), &value).expect("put"));
    let get = per_call_ns(4_000, |i| {
        std::hint::black_box(store.get(&gen::key_of(i)).expect("get"));
    });
    let put_async = per_call_ns(500, |round| {
        let (tx, rx) = std::sync::mpsc::channel();
        for k in 0..WINDOW {
            let tx = tx.clone();
            store
                .put_async(&gen::key_of(round * WINDOW + k), &value, move |r| {
                    let _ = tx.send(r.is_ok());
                })
                .expect("put_async");
        }
        for _ in 0..WINDOW {
            assert!(rx.recv().expect("completion"), "null engine write failed");
        }
    }) / WINDOW as f64;
    m.put("micro.accessing.put_ns", put, "ns");
    m.put("micro.accessing.get_ns", get, "ns");
    m.put("micro.accessing.put_async_ns", put_async, "ns");
}

fn txn(m: &mut Metrics) {
    let env: EnvRef = Arc::new(SimEnv::with_profile(DeviceProfile::instant()));
    let dir = Path::new("txn-micro");
    let recovered = TxnManager::recover(&env, dir).expect("recover empty log");
    let mgr = TxnManager::open(&env, dir, &recovered).expect("open txn log");
    let ns = per_call_ns(20_000, |_| {
        let gsn = mgr.begin().expect("begin");
        mgr.commit(gsn).expect("commit");
    });
    m.put("micro.txn.begin_commit_ns", ns, "ns");
}

fn engine(m: &mut Metrics) {
    const N: u64 = 40_000;
    const BATCH: u64 = 32;
    let env: EnvRef = Arc::new(SimEnv::with_profile(DeviceProfile::instant()));
    let db = lsmkv::Db::open(setup::engine_options(env), "engine-micro").expect("open db");
    let wo = lsmkv::WriteOptions::default();
    // Records 0..N go to SSTs, the next ROUNDS × (N/4) single writes and
    // the batches after them stay in (or pass through) the memtable.
    for i in 0..N {
        db.put(&wo, &gen::key_of(i), &gen::value_of(i, 0)).expect("put");
    }
    db.flush().expect("flush");
    db.wait_idle().expect("wait_idle");
    let write1 = per_call_ns(N / 4, |i| {
        db.put(&wo, &gen::key_of(N + i), &gen::value_of(N + i, 0)).expect("put");
    });
    let recent = N + (ROUNDS as u64) * (N / 4);
    let get_mem = per_call_ns(2_000, |i| {
        // The last 2000 single writes: still in the 1 MiB memtable.
        std::hint::black_box(db.get(&gen::key_of(recent - 1 - i % 2_000)).expect("get"));
    });
    let write32 = per_call_ns(N / 4 / BATCH, |b| {
        let mut batch = lsmkv::WriteBatch::new();
        for k in 0..BATCH {
            let i = 2 * recent + b * BATCH + k;
            batch.put(&gen::key_of(i), &gen::value_of(i, 0));
        }
        db.write(&wo, batch).expect("write");
    }) / BATCH as f64;
    let get_sst = per_call_ns(N / 4, |i| {
        std::hint::black_box(db.get(&gen::key_of(gen::key_id(i) % N)).expect("get"));
    });
    let multiget32 = per_call_ns(N / 4 / BATCH, |b| {
        let keys: Vec<Vec<u8>> = (0..BATCH)
            .map(|k| gen::key_of(gen::key_id(b * BATCH + k) % N).to_vec())
            .collect();
        std::hint::black_box(db.multiget(&keys).expect("multiget"));
    }) / BATCH as f64;
    m.put("micro.engine.write1_ns", write1, "ns");
    m.put("micro.engine.write32_ns_per_op", write32, "ns");
    m.put("micro.engine.get_mem_ns", get_mem, "ns");
    m.put("micro.engine.get_sst_ns", get_sst, "ns");
    m.put("micro.engine.multiget32_ns_per_op", multiget32, "ns");
}

/// Median round of wall time minus model time per call of `f(i)` on
/// `sim`: what the simulator and its debt-batched sleeps cost the host per
/// IO.
fn overhead_ns(sim: &SimEnv, mut f: impl FnMut(u64)) -> f64 {
    const CALLS: u64 = 1_000;
    median_round(|round| {
        let busy0 = sim.io_stats().busy_ns;
        let t0 = Instant::now();
        for i in round * CALLS..(round + 1) * CALLS {
            f(i);
        }
        let wall = t0.elapsed().as_nanos() as f64;
        (wall - (sim.io_stats().busy_ns - busy0) as f64) / CALLS as f64
    })
}

fn storage(m: &mut Metrics) {
    const BLOCK: usize = 4096;
    let sim = SimEnv::with_profile(setup::device());
    let block = vec![7u8; BLOCK];
    let mut log = sim.new_writable(Path::new("micro.log")).expect("create");
    let append = overhead_ns(&sim, |_| {
        log.append(&block).expect("append");
        log.flush().expect("flush");
    });
    let sync = overhead_ns(&sim, |_| log.sync().expect("sync"));
    drop(log);
    let file = sim.new_random_access(Path::new("micro.log")).expect("open");
    let blocks = file.len() / BLOCK as u64;
    let mut buf = vec![0u8; BLOCK];
    let read = overhead_ns(&sim, |i| {
        let off = (gen::key_id(i) % blocks) * BLOCK as u64;
        file.read_at(off, &mut buf).expect("read");
    });
    m.put("micro.storage.append_overhead_ns", append, "ns");
    m.put("micro.storage.sync_overhead_ns", sync, "ns");
    m.put("micro.storage.read_overhead_ns", read, "ns");
}

/// Runs every microbenchmark.
pub fn run(m: &mut Metrics) {
    cache(m);
    shard(m);
    queue(m);
    accessing(m);
    txn(m);
    engine(m);
    storage(m);
}
