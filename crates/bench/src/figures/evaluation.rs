//! §5.2 micro-benchmarks and resource tables (Figs 12–15, Table 2).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p2kvs_storage::Env as _;

use crate::clients::{LsmClient, P2Client};
use crate::setups;
use crate::workload::MicroKind::{FillRandom, ReadRandom};
use crate::workload::{drive, load, ordered_key, KvClient, Micro, Run, RunResult};
use crate::{kqps, print_table, scaled};

/// One fig12/tab2 system run with resource sampling.
struct SystemRun {
    name: &'static str,
    result: RunResult,
    io_written: u64,
    user_bytes: u64,
    bw_util: f64,
    mem_avg: usize,
    mem_max: usize,
    cpu_avg_pct: f64,
    cpu_us_per_op: f64,
}

fn run_system(
    name: &'static str,
    threads: usize,
    ops: u64,
    make: impl FnOnce(Arc<p2kvs_storage::SimEnv>) -> Box<dyn SampledClient>,
) -> SystemRun {
    let env = setups::nvme_env();
    let client = make(env.clone());
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = stop.clone();
        let client = client.sample_handle();
        std::thread::spawn(move || {
            let mut mems = Vec::new();
            let mut busys = Vec::new();
            let t0 = Instant::now();
            let mut last_busy = client.busy();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(200));
                mems.push(client.mem_usage());
                let b = client.busy();
                busys.push((b - last_busy, t0.elapsed()));
                last_busy = b;
            }
            (mems, last_busy)
        })
    };
    let cpu0 = p2kvs_util::timing::process_cpu_time();
    let result = drive(
        client.as_kv(),
        &Micro::new(FillRandom, ops, 128),
        Run::new(threads, ops, false),
    );
    let cpu_used = p2kvs_util::timing::process_cpu_time() - cpu0;
    stop.store(true, Ordering::Relaxed);
    let (mems, _) = sampler.join().unwrap();
    let io = env.io_stats();
    let user_bytes = result.ops * 148;
    let secs = result.elapsed.as_secs_f64();
    // Total CPU: engine-side busy plus (baseline systems) the user threads.
    let engine_busy = client.busy().as_secs_f64();
    let fg_busy = result.fg_busy().as_secs_f64();
    let total_busy = if client.engine_side_only() {
        // p2KVS/KVell: user threads sleep; count engine workers + bg.
        engine_busy
    } else {
        fg_busy + engine_busy
    };
    SystemRun {
        name,
        io_written: io.bytes_written,
        user_bytes,
        bw_util: io.bytes_written as f64 / (env.profile().write_bw as f64 * secs),
        mem_avg: if mems.is_empty() {
            0
        } else {
            mems.iter().sum::<usize>() / mems.len()
        },
        mem_max: mems.iter().copied().max().unwrap_or(0),
        cpu_avg_pct: total_busy / secs * 100.0,
        cpu_us_per_op: cpu_used.as_micros() as f64 / result.ops.max(1) as f64,
        result,
    }
}

/// A client that can also report memory and engine-side CPU.
trait SampledClient {
    fn as_kv(&self) -> &dyn KvClient;
    fn sample_handle(&self) -> Box<dyn MemCpuProbe>;
    fn busy(&self) -> Duration {
        self.sample_handle().busy()
    }
    fn engine_side_only(&self) -> bool;
}

trait MemCpuProbe: Send {
    fn mem_usage(&self) -> usize;
    fn busy(&self) -> Duration;
}

struct LsmProbe {
    db: Arc<lsmkv::Db>,
}

impl MemCpuProbe for LsmProbe {
    fn mem_usage(&self) -> usize {
        self.db.approximate_memory_usage()
    }
    fn busy(&self) -> Duration {
        Duration::from_nanos(self.db.stats().bg_busy.sum_ns())
    }
}

impl SampledClient for LsmClient {
    fn as_kv(&self) -> &dyn KvClient {
        self
    }
    fn sample_handle(&self) -> Box<dyn MemCpuProbe> {
        Box::new(LsmProbe {
            db: self.db.clone(),
        })
    }
    fn engine_side_only(&self) -> bool {
        false
    }
}

struct P2Probe {
    engines: Vec<Arc<lsmkv::Db>>,
    workers_busy: Vec<Arc<p2kvs::worker::WorkerStats>>,
}

impl MemCpuProbe for P2Probe {
    fn mem_usage(&self) -> usize {
        self.engines
            .iter()
            .map(|e| e.approximate_memory_usage())
            .sum()
    }
    fn busy(&self) -> Duration {
        let w: Duration = self.workers_busy.iter().map(|s| s.busy.busy()).sum();
        let bg: u64 = self
            .engines
            .iter()
            .map(|e| e.stats().bg_busy.sum_ns())
            .sum();
        w + Duration::from_nanos(bg)
    }
}

impl SampledClient for P2Client<lsmkv::Db> {
    fn as_kv(&self) -> &dyn KvClient {
        self
    }
    fn sample_handle(&self) -> Box<dyn MemCpuProbe> {
        Box::new(P2Probe {
            engines: self.store.engines().to_vec(),
            workers_busy: self.store.worker_stats(),
        })
    }
    fn engine_side_only(&self) -> bool {
        true
    }
}

/// Fig 12 + Table 2: concurrent-write micro comparison.
///
/// Expected shape: p2KVS-8 > p2KVS-4 > RocksDB ≈ PebblesDB in QPS (paper:
/// 4.6×/2.7×); p2KVS-8 has the lowest IO amplification and near-full
/// bandwidth utilization; p2KVS burns more total CPU (its workers) but
/// modest memory.
pub fn fig12_tab2() {
    println!("fig12+tab2: 16-thread fillrandom (128B) on NVMe");
    let threads = 16;
    let ops = scaled(80_000);
    let runs = vec![
        run_system("RocksDB", threads, ops, |env| {
            Box::new(setups::rocksdb_single(env, "f12-rocks"))
        }),
        run_system("PebblesDB", threads, ops, |env| {
            Box::new(setups::pebblesdb_single(env, "f12-pebbles"))
        }),
        run_system("p2KVS-4", threads, ops, |env| {
            Box::new(setups::p2kvs(env, "f12-p2x4", 4, true))
        }),
        run_system("p2KVS-8", threads, ops, |env| {
            Box::new(setups::p2kvs(env, "f12-p2x8", 8, true))
        }),
    ];
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                kqps(r.result.qps()),
                format!("{:.2}", r.io_written as f64 / r.user_bytes as f64),
                format!("{:.1}%", r.bw_util * 100.0),
            ]
        })
        .collect();
    print_table(
        "Fig 12: throughput, IO amplification, bandwidth utilization",
        &["system", "KQPS", "IO amp", "bw util"],
        &rows,
    );
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.1} MiB", r.mem_avg as f64 / (1 << 20) as f64),
                format!("{:.1} MiB", r.mem_max as f64 / (1 << 20) as f64),
                format!("{:.0}%", r.cpu_avg_pct),
                format!("{:.1}", r.cpu_us_per_op),
            ]
        })
        .collect();
    print_table(
        "Table 2: memory and CPU ('threads busy' counts scheduler wait on small hosts; 'cpu/op' is real process CPU)",
        &["system", "avg mem", "max mem", "threads busy", "cpu us/op"],
        &rows,
    );
}

/// Fig 13: latency vs offered load.
///
/// Expected shape: all systems match at light load; RocksDB's p99 blows up
/// past its capacity while p2KVS sustains several times higher intensity
/// at sub-ms p99.
pub fn fig13() {
    println!("fig13: fillrandom latency vs offered intensity (16 threads)");
    let ops = scaled(20_000);
    let mut rows = Vec::new();
    for rate in [50_000u64, 100_000, 200_000, 400_000, 800_000] {
        let mut cells = vec![format!("{}", rate / 1000)];
        let clients: Vec<Box<dyn KvClient>> = vec![
            Box::new(setups::rocksdb_single(
                setups::nvme_env(),
                &format!("f13-r-{rate}"),
            )),
            Box::new(setups::p2kvs(
                setups::nvme_env(),
                &format!("f13-o-{rate}"),
                1,
                true,
            )),
            Box::new(setups::p2kvs(
                setups::nvme_env(),
                &format!("f13-p-{rate}"),
                8,
                true,
            )),
        ];
        for client in &clients {
            let run = Run {
                rate,
                ..Run::new(16, ops, false)
            };
            let r = drive(&**client, &Micro::new(FillRandom, ops, 128), run);
            cells.push(format!(
                "{:.0}/{:.0}",
                r.latency.mean() / 1e3,
                r.latency.percentile(99.0) / 1000
            ));
        }
        rows.push(cells);
    }
    print_table(
        "Fig 13: avg/p99 latency (µs) at offered KQPS",
        &["offered KQPS", "RocksDB", "RocksDB+OBM", "p2KVS-8"],
        &rows,
    );
}

/// Fig 14: point-query throughput, workers × OBM.
///
/// Expected shape: without OBM p2KVS ≈ RocksDB; with OBM it scales nearly
/// linearly with workers (multiget + partitioned indexes).
pub fn fig14() {
    println!("fig14: readrandom (128B) with 32 user threads, cache-missing dataset");
    let items = scaled(120_000);
    let reads = scaled(30_000);
    let read = Micro::new(ReadRandom, items, 128);
    // Small per-instance block caches so point reads hit the device, as in
    // the paper (dataset >> cache).
    let small_cache = |env: std::sync::Arc<p2kvs_storage::SimEnv>| {
        let mut o = setups::bench_options(env);
        o.block_cache_size = 512 << 10;
        o
    };
    let mut rows = Vec::new();
    // Baseline RocksDB.
    let base = {
        let env = setups::nvme_env();
        let client = LsmClient::new(lsmkv::Db::open(small_cache(env), "f14-base").unwrap());
        load(&client, items, 128).expect("preload");
        client.db.flush().unwrap();
        client.db.wait_idle().unwrap();
        drive(&client, &read, Run::new(32, reads, false)).qps()
    };
    rows.push(vec!["RocksDB".into(), kqps(base), "1.00x".into()]);
    for workers in [1usize, 2, 4, 8] {
        for obm in [false, true] {
            let env = setups::nvme_env();
            let client = setups::p2kvs_with(
                small_cache(env),
                &format!("f14-{workers}-{obm}"),
                workers,
                obm,
            );
            load(&client, items, 128).expect("preload");
            for e in client.store.engines() {
                e.flush().unwrap();
                e.wait_idle().unwrap();
            }
            let r = drive(&client, &read, Run::new(32, reads, false));
            rows.push(vec![
                format!("p2KVS-{workers}{}", if obm { "+OBM" } else { "" }),
                kqps(r.qps()),
                format!("{:.2}x", r.qps() / base),
            ]);
        }
    }
    print_table(
        "Fig 14: point-query KQPS",
        &["system", "KQPS", "vs RocksDB"],
        &rows,
    );

    // Mechanism check: the same experiment in an IO-bound regime (device
    // 20x slower). When waits dominate software cost — as they do relative
    // to a 44-core host's per-op CPU share — worker/multiget IO overlap is
    // what matters, and the paper's ordering emerges even on one core.
    std::env::set_var("P2KVS_SIM_TIME_SCALE", "20");
    let mut rows = Vec::new();
    let items_slow = items / 4;
    let reads_slow = reads / 8;
    let read_slow = Micro::new(ReadRandom, items_slow, 128);
    let base = {
        let env = setups::nvme_env();
        let client = LsmClient::new(lsmkv::Db::open(small_cache(env), "f14s-base").unwrap());
        load(&client, items_slow, 128).expect("preload");
        client.db.flush().unwrap();
        client.db.wait_idle().unwrap();
        drive(&client, &read_slow, Run::new(32, reads_slow, false)).qps()
    };
    rows.push(vec!["RocksDB".into(), kqps(base), "1.00x".into()]);
    for (workers, obm) in [(1usize, true), (4, true), (8, false), (8, true)] {
        let env = setups::nvme_env();
        let client = setups::p2kvs_with(
            small_cache(env),
            &format!("f14s-{workers}-{obm}"),
            workers,
            obm,
        );
        load(&client, items_slow, 128).expect("preload");
        for e in client.store.engines() {
            e.flush().unwrap();
            e.wait_idle().unwrap();
        }
        let r = drive(&client, &read_slow, Run::new(32, reads_slow, false));
        rows.push(vec![
            format!("p2KVS-{workers}{}", if obm { "+OBM" } else { "" }),
            kqps(r.qps()),
            format!("{:.2}x", r.qps() / base),
        ]);
    }
    std::env::remove_var("P2KVS_SIM_TIME_SCALE");
    print_table(
        "Fig 14 (IO-bound regime, device 20x slower): point-query KQPS",
        &["system", "KQPS", "vs RocksDB"],
        &rows,
    );
}

/// Fig 15: RANGE and SCAN throughput vs scan size.
///
/// Expected shape: p2KVS wins RANGE across sizes (parallel sub-ranges) and
/// small SCANs; large SCANs converge as read amplification saturates the
/// device.
pub fn fig15() {
    println!("fig15: RANGE/SCAN vs size (single user thread)");
    let load = scaled(80_000);
    // Ordered load so ranges map to index windows.
    let env_r = setups::nvme_env();
    let rocks = setups::rocksdb_single(env_r, "f15-rocks");
    let env_p = setups::nvme_env();
    let p2 = setups::p2kvs(env_p, "f15-p2", 8, true);
    for i in 0..load {
        let k = ordered_key(i);
        let v = setups::value_of(&k, 128);
        rocks.insert(&k, &v).unwrap();
        p2.insert(&k, &v).unwrap();
    }
    rocks.db.flush().unwrap();
    rocks.db.wait_idle().unwrap();
    for e in p2.store.engines() {
        e.flush().unwrap();
        e.wait_idle().unwrap();
    }
    let mut rows = Vec::new();
    for size in [10u64, 100, 1000, 10_000] {
        let ops = (scaled(2_000) / size.max(10) * 10).max(5);
        let mut rng_state = size;
        let mut starts = |n: u64| -> Vec<u64> {
            (0..n)
                .map(|_| {
                    rng_state = p2kvs_util::hash::mix64(rng_state + 1);
                    rng_state % load.saturating_sub(size + 1).max(1)
                })
                .collect()
        };
        let rocks_range = {
            let list = starts(ops);
            let t0 = Instant::now();
            for s in list {
                let _ = rocks
                    .db
                    .range(&ordered_key(s), &ordered_key(s + size))
                    .unwrap();
            }
            ops as f64 / t0.elapsed().as_secs_f64()
        };
        let p2_range = {
            let list = starts(ops);
            let t0 = Instant::now();
            for s in list {
                let _ = p2
                    .store
                    .range(&ordered_key(s), &ordered_key(s + size))
                    .unwrap();
            }
            ops as f64 / t0.elapsed().as_secs_f64()
        };
        let rocks_scan = {
            let list = starts(ops);
            let t0 = Instant::now();
            for s in list {
                let _ = rocks.db.scan(&ordered_key(s), size as usize).unwrap();
            }
            ops as f64 / t0.elapsed().as_secs_f64()
        };
        let p2_scan = {
            let list = starts(ops);
            let t0 = Instant::now();
            for s in list {
                let _ = p2.store.scan(&ordered_key(s), size as usize).unwrap();
            }
            ops as f64 / t0.elapsed().as_secs_f64()
        };
        rows.push(vec![
            size.to_string(),
            format!("{rocks_range:.0}"),
            format!("{p2_range:.0}"),
            format!("{:.2}x", p2_range / rocks_range),
            format!("{rocks_scan:.0}"),
            format!("{p2_scan:.0}"),
            format!("{:.2}x", p2_scan / rocks_scan),
        ]);
    }
    print_table(
        "Fig 15: ops/s by scan size",
        &[
            "size",
            "RANGE rocks",
            "RANGE p2",
            "speedup",
            "SCAN rocks",
            "SCAN p2",
            "speedup",
        ],
        &rows,
    );
}
