//! §5.5 comparison with KVell (Figs 20, 21).

use std::time::{Duration, Instant};

use p2kvs_storage::Env as _;

use crate::setups;
use crate::workload::{
    drive, hashed_key, load, KvClient, Micro, MicroKind, Run, Workload, WorkloadKind,
};
use crate::{kqps, print_table, scaled};

fn spec(kind: WorkloadKind) -> Workload {
    let records = scaled(40_000);
    let ops = match kind {
        WorkloadKind::Load => records,
        WorkloadKind::E => scaled(3_000),
        _ => scaled(25_000),
    };
    Workload::table1(kind, records, ops)
}

/// Fig 20: YCSB — KVell vs p2KVS at 4 and 8 workers.
///
/// Expected shape: p2KVS wins write-heavy (LOAD, A, F) and SCAN (E);
/// KVell's all-in-memory index wins pure reads (C); B and D are close.
pub fn fig20() {
    println!("fig20: KVell vs p2KVS on YCSB (128B, 32 user threads)");
    let threads = 32;
    let mut rows = Vec::new();
    for kind in WorkloadKind::all() {
        let mut cells = vec![kind.name().to_string()];
        for workers in [4usize, 8] {
            let s = spec(kind);
            let kv = setups::kvell(
                setups::nvme_env(),
                &format!("f20-k{workers}-{}", kind.name()),
                workers,
            );
            let p2 = setups::p2kvs(
                setups::nvme_env(),
                &format!("f20-p{workers}-{}", kind.name()),
                workers,
                true,
            );
            let [kv_qps, p2_qps] = [&kv as &dyn KvClient, &p2].map(|client| {
                if kind != WorkloadKind::Load {
                    load(client, s.record_count, hashed_key, s.value_size).expect("load phase");
                }
                drive(client, &s, Run::new(threads, s.op_count, false)).qps()
            });
            cells.push(kqps(kv_qps));
            cells.push(format!("{} ({:.1}x)", kqps(p2_qps), p2_qps / kv_qps));
        }
        rows.push(cells);
    }
    print_table(
        "Fig 20: KQPS",
        &["workload", "KVell-4", "p2KVS-4", "KVell-8", "p2KVS-8"],
        &rows,
    );
}

/// Fig 21: hardware utilization during continuous random writes.
///
/// Expected shape: p2KVS uses more total IO bandwidth (LSM batches small
/// writes; KVell issues slot-sized random IOs), far less memory (no
/// all-in-memory index), and spreads moderate CPU across more cores while
/// KVell pegs fewer cores harder.
pub fn fig21() {
    println!("fig21: hardware utilization under continuous fillrandom (128B)");
    let ops = scaled(100_000);
    let threads = 16;
    let fill = Micro::new(MicroKind::FillRandom, ops, 128);
    let mut rows = Vec::new();
    // KVell-8.
    {
        let env = setups::nvme_env();
        let client = setups::kvell(env.clone(), "f21-kvell", 8);
        let t0 = Instant::now();
        let r = drive(&client, &fill, Run::new(threads, ops, false));
        let elapsed = t0.elapsed();
        let io = env.io_stats();
        let stats = client.stats();
        let busy: Duration = stats.worker_busy.iter().sum();
        let per_core = stats
            .worker_busy
            .iter()
            .map(|b| b.as_secs_f64() / elapsed.as_secs_f64())
            .fold(0.0f64, f64::max);
        rows.push(vec![
            "KVell-8".into(),
            kqps(r.qps()),
            format!(
                "{:.1}",
                io.total_bytes() as f64 / elapsed.as_secs_f64() / (1 << 20) as f64
            ),
            format!(
                "{:.1} MiB",
                client.mem_usage().unwrap_or(0) as f64 / (1 << 20) as f64
            ),
            format!("{:.0}%", busy.as_secs_f64() / elapsed.as_secs_f64() * 100.0),
            format!("{:.0}%", per_core * 100.0),
        ]);
    }
    // p2KVS-8.
    {
        let env = setups::nvme_env();
        let client = setups::p2kvs(env.clone(), "f21-p2", 8, true);
        let t0 = Instant::now();
        let r = drive(&client, &fill, Run::new(threads, ops, false));
        let elapsed = t0.elapsed();
        let io = env.io_stats();
        let snap = client.store.snapshot();
        let bg: u64 = client
            .store
            .engines()
            .iter()
            .map(|e| e.stats().bg_busy.sum_ns())
            .sum();
        let worker_busy: Duration = snap.workers.iter().map(|w| w.busy).sum();
        let total = worker_busy.as_secs_f64() + bg as f64 / 1e9;
        let per_core = snap.worker_utilization().into_iter().fold(0.0f64, f64::max);
        rows.push(vec![
            "p2KVS-8".into(),
            kqps(r.qps()),
            format!(
                "{:.1}",
                io.total_bytes() as f64 / elapsed.as_secs_f64() / (1 << 20) as f64
            ),
            format!("{:.1} MiB", snap.mem_usage as f64 / (1 << 20) as f64),
            format!("{:.0}%", total / elapsed.as_secs_f64() * 100.0),
            format!("{:.0}%", per_core * 100.0),
        ]);
    }
    print_table(
        "Fig 21: utilization (CPU normalized to one core; per-core = busiest worker)",
        &[
            "system",
            "KQPS",
            "IO MB/s",
            "memory",
            "total cpu",
            "per-core cpu",
        ],
        &rows,
    );
}
