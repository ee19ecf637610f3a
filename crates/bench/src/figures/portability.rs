//! §5.6 portability experiments (Figs 22, 23) and the ablation suite.

use crate::setups;
use crate::workload::MicroKind::{FillRandom, ReadRandom};
use crate::workload::{drive, hashed_key, load, Micro, Run, Zipf};
use crate::{kqps, print_table, scaled};

/// Fig 22: p2KVS over LevelDB-mode engines vs plain LevelDB.
///
/// Expected shape: plain LevelDB barely scales with threads (shared
/// instance); p2KVS with `threads = instances` scales writes ~3× and
/// reads ~5× without multiget.
pub fn fig22() {
    println!("fig22: p2KVS over LevelDB (threads = instances)");
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
        let w_l = drive(&ldb, &fill, run).qps();
        load(&ldb, items, hashed_key, 128).expect("preload");
        ldb.db.flush().unwrap();
        ldb.db.wait_idle().unwrap();
        let r_l = drive(&ldb, &read, run).qps();
        // p2KVS over LevelDB-mode instances.
        let leveldb = setups::bench_sized(lsmkv::Options::leveldb_like(setups::nvme_env()));
        let p2 = setups::p2kvs_with(leveldb, &format!("f22-p-{threads}"), threads, true);
        let w_p = drive(&p2, &fill, run).qps();
        load(&p2, items, hashed_key, 128).expect("preload");
        for e in p2.store.engines() {
            e.flush().unwrap();
            e.wait_idle().unwrap();
        }
        let r_p = drive(&p2, &read, run).qps();
        rows.push(vec![
            threads.to_string(),
            kqps(w_l),
            format!("{} ({:.1}x)", kqps(w_p), w_p / w_l),
            kqps(r_l),
            format!("{} ({:.1}x)", kqps(r_p), r_p / r_l),
        ]);
    }
    print_table(
        "Fig 22: LevelDB random write / read KQPS",
        &[
            "threads",
            "LevelDB write",
            "p2KVS write",
            "LevelDB read",
            "p2KVS read",
        ],
        &rows,
    );
}

/// Fig 23: p2KVS over WiredTiger vs plain WiredTiger.
///
/// Expected shape: WiredTiger's global-latch write path is flat with
/// threads; p2KVS scales both reads and writes with instances even though
/// OBM-write is disabled (no batch API).
pub fn fig23() {
    println!("fig23: p2KVS over WiredTiger (threads = instances)");
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
        let w_s = drive(&wt, &fill, run).qps();
        load(&wt, items, hashed_key, 128).expect("preload");
        let r_s = drive(&wt, &read, run).qps();
        let p2 = setups::p2kvs_over_wt(setups::nvme_env(), &format!("f23-p-{threads}"), threads);
        let w_p = drive(&p2, &fill, run).qps();
        load(&p2, items, hashed_key, 128).expect("preload");
        let r_p = drive(&p2, &read, run).qps();
        rows.push(vec![
            threads.to_string(),
            kqps(w_s),
            format!("{} ({:.1}x)", kqps(w_p), w_p / w_s),
            kqps(r_s),
            format!("{} ({:.1}x)", kqps(r_p), r_p / r_s),
        ]);
    }
    print_table(
        "Fig 23: WiredTiger random write / read KQPS",
        &[
            "threads",
            "WT write",
            "p2KVS write",
            "WT read",
            "p2KVS read",
        ],
        &rows,
    );
}

/// Ablation suite for the design choices DESIGN.md §5 calls out: OBM batch
/// bound `M` and partitioning scheme. (The scan-strategy ablation is
/// settled — its result stays in EXPERIMENTS.md "Ablations" — and the
/// strategy it lost to is gone.)
pub fn ablate() {
    println!("ablate: design-choice ablations");
    // (1) OBM batch bound M.
    {
        let ops = scaled(40_000);
        let mut rows = Vec::new();
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
            let snap = client.store.snapshot();
            rows.push(vec![
                m.to_string(),
                kqps(r.qps()),
                format!("{:.1}", snap.avg_batch_size()),
                format!("{:.0}", r.latency().percentile(99.0) / 1000),
            ]);
        }
        print_table(
            "Ablation: OBM batch bound M (fillrandom, 32 threads, 4 workers)",
            &["M", "KQPS", "avg batch", "p99 µs"],
            &rows,
        );
    }
    // (2) Partitioning: hash vs skew (zipfian hot keys across workers).
    {
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
        let rows = vec![vec![format!("{counts:?}"), format!("{:.2}", max / min)]];
        print_table(
            "Ablation: hash partitioning under zipfian skew (200k requests, 8 workers)",
            &["per-worker request counts", "max/min"],
            &rows,
        );
    }
}
