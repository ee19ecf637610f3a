//! §5.5 comparison with KVell (Figs 20, 21).

use std::time::{Duration, Instant};

use p2kvs_storage::Env as _;

use crate::artifact::{Fields, Report};
use crate::scaled;
use crate::setups;
use crate::workload::{
    drive, hashed_key, load, KvClient, Micro, MicroKind, Run, RunResult, Workload, WorkloadKind,
};

fn spec(kind: WorkloadKind) -> Workload {
    let records = scaled(40_000);
    let ops = match kind {
        WorkloadKind::Load => records,
        WorkloadKind::E => scaled(3_000),
        _ => scaled(25_000),
    };
    Workload::table1(kind, records, ops)
}

/// Fig 20: YCSB — KVell vs p2KVS at 4 and 8 workers; `_x` is p2KVS's
/// speedup over KVell of as many workers.
///
/// Expected shape: p2KVS wins write-heavy (LOAD, A, F) and SCAN (E);
/// KVell's all-in-memory index wins pure reads (C); B and D are close.
pub fn fig20() -> Report {
    let threads = 32;
    let mut rows = Vec::new();
    for kind in WorkloadKind::all() {
        let name = kind.name();
        let mut row = Fields::new().with("workload", name);
        let mut failed = 0;
        for (workers, [kvell_kqps, p2kvs_kqps, p2kvs_x]) in [
            (4usize, ["kvell4_kqps", "p2kvs4_kqps", "p2kvs4_x"]),
            (8, ["kvell8_kqps", "p2kvs8_kqps", "p2kvs8_x"]),
        ] {
            let s = spec(kind);
            let kv = setups::kvell(
                setups::nvme_env(),
                &format!("f20-k{workers}-{name}"),
                workers,
            );
            let p2 = setups::p2kvs(
                setups::nvme_env(),
                &format!("f20-p{workers}-{name}"),
                workers,
                true,
            );
            let [kv, p2] = [&kv as &dyn KvClient, &p2].map(|client| {
                if kind != WorkloadKind::Load {
                    load(client, s.record_count, hashed_key, s.value_size).expect("load phase");
                }
                drive(client, &s, Run::new(threads, s.op_count, false))
            });
            failed += kv.errors + p2.errors;
            row = row
                .float(kvell_kqps, kv.qps() / 1e3, 1)
                .float(p2kvs_kqps, p2.qps() / 1e3, 1)
                .float(p2kvs_x, p2.qps() / kv.qps(), 1);
        }
        rows.push(row.with("failed_calls", failed));
    }
    let config = Fields::new()
        .with("threads", threads)
        .with("records", scaled(40_000))
        .with("value_bytes", 128usize);
    Report::figure("fig20", config, rows)
}

/// Fig 21: hardware utilization during continuous random writes. CPU is
/// in % of one core; `per_core_cpu_pct` is the busiest worker's.
///
/// Expected shape: p2KVS uses more total IO bandwidth (LSM batches small
/// writes; KVell issues slot-sized random IOs), far less memory (no
/// all-in-memory index), and spreads moderate CPU across more cores while
/// KVell pegs fewer cores harder.
pub fn fig21() -> Report {
    let ops = scaled(100_000);
    let threads = 16;
    let fill = Micro::new(MicroKind::FillRandom, ops, 128);
    let row = |system: &str, r: &RunResult, io_bytes: u64, secs: f64| {
        Fields::new()
            .with("system", system)
            .float("kqps", r.qps() / 1e3, 1)
            .float("io_mb_s", io_bytes as f64 / secs / (1 << 20) as f64, 1)
    };
    let mib = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    // KVell-8.
    let kvell = {
        let env = setups::nvme_env();
        let client = setups::kvell(env.clone(), "f21-kvell", 8);
        let t0 = Instant::now();
        let r = drive(&client, &fill, Run::new(threads, ops, false));
        let secs = t0.elapsed().as_secs_f64();
        let stats = client.stats();
        let busy: Duration = stats.worker_busy.iter().sum();
        let per_core = stats
            .worker_busy
            .iter()
            .map(|b| b.as_secs_f64() / secs)
            .fold(0.0f64, f64::max);
        row("KVell-8", &r, env.io_stats().total_bytes(), secs)
            .float("mem_mib", mib(client.mem_usage().unwrap_or(0)), 1)
            .float("total_cpu_pct", busy.as_secs_f64() / secs * 100.0, 0)
            .float("per_core_cpu_pct", per_core * 100.0, 0)
            .with("failed_calls", r.errors)
    };
    // p2KVS-8.
    let p2kvs = {
        let env = setups::nvme_env();
        let client = setups::p2kvs(env.clone(), "f21-p2", 8, true);
        let t0 = Instant::now();
        let r = drive(&client, &fill, Run::new(threads, ops, false));
        let secs = t0.elapsed().as_secs_f64();
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
        row("p2KVS-8", &r, env.io_stats().total_bytes(), secs)
            .float("mem_mib", mib(snap.mem_usage), 1)
            .float("total_cpu_pct", total / secs * 100.0, 0)
            .float("per_core_cpu_pct", per_core * 100.0, 0)
            .with("failed_calls", r.errors)
    };
    let config = Fields::new()
        .with("threads", threads)
        .with("ops", ops)
        .with("workers", 8usize)
        .with("value_bytes", 128usize);
    Report::figure("fig21", config, vec![kvell, p2kvs])
}
