//! Portability: the same p2KVS code over three engine personalities.
//!
//! §4.6 of the paper ports p2KVS to RocksDB, LevelDB and WiredTiger by
//! touching only open/submit/close. This example runs one workload over
//! all three adapters (plus standalone KVell for contrast) and prints how
//! the OBM adapts: write-merging only where the engine has `WriteBatch`,
//! read-merging only where it has `multiget`.
//!
//! ```text
//! cargo run --release -p p2kvs-examples --bin portability
//! ```

use std::sync::Arc;
use std::time::Instant;

use p2kvs::engine::{LsmFactory, WtFactory};
use p2kvs::{Capabilities, KvsEngine, P2Kvs, P2KvsOptions};
use p2kvs_storage::{DeviceProfile, MemEnv};

const OPS: u64 = 5_000;

fn workload<E: KvsEngine>(store: &Arc<P2Kvs<E>>) -> (f64, f64) {
    // Concurrent writers then concurrent readers.
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let store = store.clone();
            scope.spawn(move || {
                for i in 0..OPS / 4 {
                    let k = format!("key{:08}", i * 4 + t);
                    store
                        .put(k.as_bytes(), b"value-128-bytes-.................")
                        .unwrap();
                }
            });
        }
    });
    let write_qps = OPS as f64 / t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let store = store.clone();
            scope.spawn(move || {
                for i in 0..OPS / 4 {
                    let k = format!("key{:08}", (i * 7 + t) % OPS);
                    store.get(k.as_bytes()).unwrap().expect("loaded key");
                }
            });
        }
    });
    (write_qps, OPS as f64 / t0.elapsed().as_secs_f64())
}

fn describe(caps: Capabilities) -> String {
    format!(
        "batch-write: {:3}  multiget: {:3}",
        if caps.batch_write { "yes" } else { "no" },
        if caps.multiget { "yes" } else { "no" }
    )
}

fn report<E: KvsEngine>(name: &str, store: Arc<P2Kvs<E>>) {
    let caps = store.engines()[0].capabilities();
    let (w, r) = workload(&store);
    let snap = store.snapshot();
    println!(
        "{name:<22} {}  | {w:>8.0} writes/s {r:>8.0} reads/s | OBM avg batch {:.2}",
        describe(caps),
        snap.avg_batch_size()
    );
}

fn main() {
    println!("p2KVS over three engine personalities (4 workers, 4 user threads):\n");
    let opts = || P2KvsOptions::with_workers(4);

    // RocksDB mode: every fast path available.
    {
        let env = Arc::new(MemEnv::with_profile(DeviceProfile::nvme_optane()));
        let factory = LsmFactory::new(lsmkv::Options::rocksdb_like(env));
        report(
            "lsmkv (RocksDB mode)",
            Arc::new(P2Kvs::open(factory, "port-rocks", opts()).unwrap()),
        );
    }
    // LevelDB mode: WriteBatch but no multiget.
    {
        let env = Arc::new(MemEnv::with_profile(DeviceProfile::nvme_optane()));
        let factory = LsmFactory::new(lsmkv::Options::leveldb_like(env));
        report(
            "lsmkv (LevelDB mode)",
            Arc::new(P2Kvs::open(factory, "port-level", opts()).unwrap()),
        );
    }
    // WiredTiger: neither fast path; OBM degrades to per-request calls.
    {
        let env = Arc::new(MemEnv::with_profile(DeviceProfile::nvme_optane()));
        let factory = WtFactory::new(wtiger::WtOptions::new(env));
        report(
            "wtiger (WiredTiger)",
            Arc::new(P2Kvs::open(factory, "port-wt", opts()).unwrap()),
        );
    }
    // Contrast: standalone KVell (its own share-nothing workers).
    {
        let env: p2kvs_storage::EnvRef =
            Arc::new(MemEnv::with_profile(DeviceProfile::nvme_optane()));
        let mut kopts = kvell::KvellOptions::new(env);
        kopts.workers = 4;
        let db = Arc::new(kvell::KvellDb::open(kopts, "port-kvell").unwrap());
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let db = db.clone();
                scope.spawn(move || {
                    for i in 0..OPS / 4 {
                        db.put(format!("key{:08}", i * 4 + t).as_bytes(), b"value")
                            .unwrap();
                    }
                });
            }
        });
        let w = OPS as f64 / t0.elapsed().as_secs_f64();
        println!(
            "{:<22} (standalone, no OBM)       | {w:>8.0} writes/s | mem {} KiB (all-in-memory index)",
            "kvell",
            db.mem_usage().unwrap() / 1024
        );
    }
}
