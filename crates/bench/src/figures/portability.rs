//! §5.6 portability experiments (Figs 22, 23) and the ablation suite.

use crate::artifact::{Fields, Report, Value};
use crate::scaled;
use crate::setups;
use crate::workload::MicroKind::{FillRandom, ReadRandom};
use crate::workload::{drive, hashed_key, load, Micro, Run, RunResult, Zipf};

/// One row of Figs 22 and 23 at `threads` threads = instances: the plain
/// engine's write and read runs under its `fields` names, p2KVS's beside
/// them, and `_x`, p2KVS's speedup over the plain engine.
fn portability_row(
    fields: [&'static str; 2],
    threads: usize,
    [w_s, w_p, r_s, r_p]: [RunResult; 4],
) -> Fields {
    Fields::new()
        .with("threads", threads)
        .float(fields[0], w_s.qps() / 1e3, 1)
        .float("p2kvs_write_kqps", w_p.qps() / 1e3, 1)
        .float("write_x", w_p.qps() / w_s.qps(), 1)
        .float(fields[1], r_s.qps() / 1e3, 1)
        .float("p2kvs_read_kqps", r_p.qps() / 1e3, 1)
        .float("read_x", r_p.qps() / r_s.qps(), 1)
        .with(
            "failed_calls",
            w_s.errors + w_p.errors + r_s.errors + r_p.errors,
        )
}

/// Fig 22: p2KVS over LevelDB-mode engines vs plain LevelDB.
///
/// Expected shape: plain LevelDB barely scales with threads (shared
/// instance); p2KVS with `threads = instances` scales writes ~3× and
/// reads ~5× without multiget.
pub fn fig22() -> Report {
    let ops = scaled(30_000);
    let items = scaled(40_000);
    let (fill, read) = (
        Micro::new(FillRandom, ops, 128),
        Micro::new(ReadRandom, items, 128),
    );
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8, 16] {
        let run = Run::new(threads, ops, true);
        // Plain LevelDB: one shared instance.
        let ldb = setups::leveldb_single(setups::nvme_env(), &format!("f22-l-{threads}"));
        let w_l = drive(&ldb, &fill, run);
        load(&ldb, items, hashed_key, 128).expect("preload");
        ldb.db.flush().unwrap();
        ldb.db.wait_idle().unwrap();
        let r_l = drive(&ldb, &read, run);
        // p2KVS over LevelDB-mode instances.
        let leveldb = setups::bench_sized(lsmkv::Options::leveldb_like(setups::nvme_env()));
        let p2 = setups::p2kvs_with(leveldb, &format!("f22-p-{threads}"), threads, true);
        let w_p = drive(&p2, &fill, run);
        load(&p2, items, hashed_key, 128).expect("preload");
        for e in p2.store.engines() {
            e.flush().unwrap();
            e.wait_idle().unwrap();
        }
        let r_p = drive(&p2, &read, run);
        rows.push(portability_row(
            ["leveldb_write_kqps", "leveldb_read_kqps"],
            threads,
            [w_l, w_p, r_l, r_p],
        ));
    }
    let config = Fields::new()
        .with("ops", ops)
        .with("items", items)
        .with("value_bytes", 128usize);
    Report::figure("fig22", config, rows)
}

/// Fig 23: p2KVS over WiredTiger vs plain WiredTiger.
///
/// Expected shape: WiredTiger's global-latch write path is flat with
/// threads; p2KVS scales both reads and writes with instances even though
/// OBM-write is disabled (no batch API).
pub fn fig23() -> Report {
    let ops = scaled(25_000);
    let items = scaled(30_000);
    let (fill, read) = (
        Micro::new(FillRandom, ops, 128),
        Micro::new(ReadRandom, items, 128),
    );
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8, 16] {
        let run = Run::new(threads, ops, true);
        let wt = setups::wiredtiger_single(setups::nvme_env(), &format!("f23-w-{threads}"));
        let w_s = drive(&wt, &fill, run);
        load(&wt, items, hashed_key, 128).expect("preload");
        let r_s = drive(&wt, &read, run);
        let p2 = setups::p2kvs_over_wt(setups::nvme_env(), &format!("f23-p-{threads}"), threads);
        let w_p = drive(&p2, &fill, run);
        load(&p2, items, hashed_key, 128).expect("preload");
        let r_p = drive(&p2, &read, run);
        rows.push(portability_row(
            ["wt_write_kqps", "wt_read_kqps"],
            threads,
            [w_s, w_p, r_s, r_p],
        ));
    }
    let config = Fields::new()
        .with("ops", ops)
        .with("items", items)
        .with("value_bytes", 128usize);
    Report::figure("fig23", config, rows)
}

/// Ablation suite for the design choices DESIGN.md §5 calls out: OBM batch
/// bound `M` (`batch_bound`: fillrandom, 32 threads, 4 workers) and hash
/// partitioning under zipfian skew (`partitioning`: 200k requests over 8
/// workers, counted without a store). (The scan-strategy ablation is
/// settled — its result stays in EXPERIMENTS.md "Ablations" — and the
/// strategy it lost to is gone.)
pub fn ablate() -> Report {
    let ops = scaled(40_000);
    let mut rows = Vec::new();
    // (1) OBM batch bound M.
    for m in [1usize, 4, 8, 32, 128] {
        let env = setups::nvme_env();
        let factory = p2kvs::engine::LsmFactory::new(setups::bench_options(env));
        let mut opts = p2kvs::P2KvsOptions::with_workers(4);
        // Cache off: the ablation isolates OBM batching.
        opts.cache_capacity = 0;
        opts.batch_max = m;
        let store = p2kvs::P2Kvs::open(factory, format!("ab-m{m}"), opts).unwrap();
        let client = crate::clients::P2Client { store };
        let r = drive(
            &client,
            &Micro::new(FillRandom, ops, 128),
            Run::new(32, ops, false),
        );
        rows.push(
            Fields::new()
                .with("table", "batch_bound")
                .with("batch_max", m)
                .float("kqps", r.qps() / 1e3, 1)
                .float("avg_batch", client.store.snapshot().avg_batch_size(), 1)
                .with("p99_us", r.latency().percentile(99.0) / 1000)
                .with("failed_calls", r.errors),
        );
    }
    // (2) Partitioning: hash vs skew (zipfian hot keys across workers).
    use p2kvs::Partitioner;
    let p = p2kvs::HashPartitioner::new(8);
    // YCSB's scrambled zipfian: hot ranks scattered over the items.
    let n = 1_000_000;
    let zipf = Zipf::new(n, crate::workload::THETA);
    let mut rng = p2kvs_util::rng::Rng::new(11);
    let mut counts = [0u64; 8];
    for _ in 0..200_000 {
        let rank = zipf.rank(rng.unit()) as u64;
        counts[p.shard_of(&hashed_key(p2kvs_util::hash::mix64(rank) % n as u64))] += 1;
    }
    let min = *counts.iter().min().unwrap() as f64;
    let max = *counts.iter().max().unwrap() as f64;
    rows.push(
        Fields::new()
            .with("table", "partitioning")
            .with(
                "worker_requests",
                Value::List(counts.map(Value::Int).to_vec()),
            )
            .float("max_over_min", max / min, 2)
            .with("failed_calls", 0u64),
    );
    let config = Fields::new()
        .with("batch_ops", ops)
        .with("batch_threads", 32usize)
        .with("batch_workers", 4usize)
        .with("partition_requests", 200_000u64)
        .with("partition_workers", 8usize);
    Report::figure("ablate", config, rows)
}
