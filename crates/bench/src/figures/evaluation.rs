//! §5.2 micro-benchmarks and resource tables (Figs 12–15, Table 2).

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p2kvs::P2Kvs;
use p2kvs_storage::{DeviceProfile, Env as _, MemEnv};

use crate::artifact::{Fields, Report};
use crate::clients::LsmClient;
use crate::scaled;
use crate::setups;
use crate::workload::MicroKind::{FillRandom, ReadRandom};
use crate::workload::{drive, hashed_key, load, ordered_key, KvClient, Micro, Run, RunResult};

/// Runs 16-thread fillrandom against one Fig 12 system and returns its
/// `fig12` and `tab2` rows. A sampler reads the memory of `engines` every
/// 200 ms and once more when the drive ends; engine-side CPU is the
/// engines' background threads' busy time plus, for p2KVS (`store`), its
/// workers' busy time from the store's snapshot after the drive.
fn run_system(
    system: &str,
    ops: u64,
    env: &MemEnv,
    client: &dyn KvClient,
    engines: Vec<Arc<lsmkv::Db>>,
    store: Option<&P2Kvs<lsmkv::Db>>,
) -> [Fields; 2] {
    let (stop, stopped) = mpsc::channel::<()>();
    let cpu0 = p2kvs_util::timing::process_cpu_time();
    let (result, mems) = std::thread::scope(|s| {
        let engines = &engines;
        let sampler = s.spawn(move || {
            let mut mems = Vec::new();
            loop {
                let tick = stopped.recv_timeout(Duration::from_millis(200));
                mems.push(engines.iter().map(|e| e.approximate_memory_usage()).sum());
                if tick != Err(RecvTimeoutError::Timeout) {
                    return mems;
                }
            }
        });
        let fill = Micro::new(FillRandom, ops, 128);
        let result = drive(client, &fill, Run::new(16, ops, false));
        drop(stop);
        (result, sampler.join().unwrap())
    });
    let cpu_used = p2kvs_util::timing::process_cpu_time() - cpu0;
    let secs = result.elapsed.as_secs_f64();
    let written = env.io_stats().bytes_written as f64;
    let write_bw = env.profile().expect("nvme_env is timed").write_bw as f64;
    let bg_ns: u64 = engines.iter().map(|e| e.stats().bg_busy.sum_ns()).sum();
    let engine_threads: Duration = match store {
        Some(store) => store.snapshot().workers.iter().map(|w| w.busy).sum(),
        // A baseline's user threads run the engine; p2KVS's sleep while
        // its workers do.
        None => result.fg_busy(),
    };
    let busy = engine_threads.as_secs_f64() + bg_ns as f64 / 1e9;
    let mib = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    let mem_avg = mems.iter().sum::<usize>() / mems.len().max(1);
    let row = |table: &str| Fields::new().with("table", table).with("system", system);
    [
        row("fig12")
            .float("kqps", result.qps() / 1e3, 1)
            .float("io_amp", written / (result.ops * 148) as f64, 2)
            .float("bw_util_pct", written / (write_bw * secs) * 100.0, 1)
            .with("failed_calls", result.errors),
        row("tab2")
            .float("mem_avg_mib", mib(mem_avg), 1)
            .float("mem_max_mib", mib(mems.into_iter().max().unwrap_or(0)), 1)
            .float("threads_busy_pct", busy / secs * 100.0, 0)
            .float(
                "cpu_us_per_op",
                cpu_used.as_micros() as f64 / result.ops.max(1) as f64,
                1,
            )
            .with("failed_calls", result.errors),
    ]
}

/// Fig 12 + Table 2: concurrent-write micro comparison; `fig12` rows are
/// throughput, IO amplification and bandwidth, `tab2` rows memory and
/// CPU. `threads_busy_pct` counts scheduler wait on small hosts;
/// `cpu_us_per_op` is real process CPU.
///
/// Expected shape: p2KVS-8 > p2KVS-4 > RocksDB ≈ PebblesDB in QPS (paper:
/// 4.6×/2.7×); p2KVS-8 has the lowest IO amplification and near-full
/// bandwidth utilization; p2KVS burns more total CPU (its workers) but
/// modest memory.
pub fn fig12() -> Report {
    let ops = scaled(80_000);
    let lsm = |system: &str, open: fn(Arc<MemEnv>, &str) -> LsmClient, dir: &str| {
        let env = setups::nvme_env();
        let client = open(env.clone(), dir);
        run_system(system, ops, &env, &client, vec![client.db.clone()], None)
    };
    let p2kvs = |system: &str, workers: usize, dir: &str| {
        let env = setups::nvme_env();
        let client = setups::p2kvs(env.clone(), dir, workers, true);
        let engines = client.store.engines().to_vec();
        run_system(system, ops, &env, &client, engines, Some(&client.store))
    };
    let (fig12, tab2): (Vec<Fields>, Vec<Fields>) = [
        lsm("RocksDB", setups::rocksdb_single, "f12-rocks"),
        lsm("PebblesDB", setups::pebblesdb_single, "f12-pebbles"),
        p2kvs("p2KVS-4", 4, "f12-p2x4"),
        p2kvs("p2KVS-8", 8, "f12-p2x8"),
    ]
    .into_iter()
    .map(|[fig12, tab2]| (fig12, tab2))
    .unzip();
    let config = Fields::new()
        .with("threads", 16usize)
        .with("ops", ops)
        .with("value_bytes", 128usize);
    Report::figure("fig12", config, [fig12, tab2].concat())
}

/// Fig 13: latency vs offered load, one row per offered load and system.
///
/// Expected shape: all systems match at light load; RocksDB's p99 blows up
/// past its capacity while p2KVS sustains several times higher intensity
/// at sub-ms p99. Latency runs from each call's scheduled slot, so above
/// saturation it grows with the run length reported beside it; compare
/// knees (the lowest offered load whose p99 exceeds 1 ms).
pub fn fig13() -> Report {
    let ops = scaled(20_000);
    let mut rows = Vec::new();
    for rate in [50_000u64, 100_000, 200_000, 400_000, 800_000] {
        let clients: [(&str, Box<dyn KvClient>); 3] = [
            (
                "RocksDB",
                Box::new(setups::rocksdb_single(
                    setups::nvme_env(),
                    &format!("f13-r-{rate}"),
                )),
            ),
            (
                "RocksDB+OBM",
                Box::new(setups::p2kvs(
                    setups::nvme_env(),
                    &format!("f13-o-{rate}"),
                    1,
                    true,
                )),
            ),
            (
                "p2KVS-8",
                Box::new(setups::p2kvs(
                    setups::nvme_env(),
                    &format!("f13-p-{rate}"),
                    8,
                    true,
                )),
            ),
        ];
        for (system, client) in &clients {
            let run = Run {
                rate,
                ..Run::new(16, ops, false)
            };
            let r = drive(&**client, &Micro::new(FillRandom, ops, 128), run);
            rows.push(
                Fields::new()
                    .with("offered_kqps", rate / 1000)
                    .with("system", *system)
                    .float("avg_us", r.latency().mean() / 1e3, 0)
                    .with("p99_us", r.latency().percentile(99.0) / 1000)
                    .float("kqps", r.qps() / 1e3, 0)
                    .float("run_secs", r.elapsed.as_secs_f64(), 2)
                    .with("failed_calls", r.errors),
            );
        }
    }
    let config = Fields::new()
        .with("threads", 16usize)
        .with("ops", ops)
        .with("value_bytes", 128usize);
    Report::figure("fig13", config, rows)
}

/// Fig 14: point-query throughput, workers × OBM, on the NVMe device
/// (`nvme`) and on one 20× slower (`io_bound`): when waits dominate
/// software cost — as they do relative to a 44-core host's per-op CPU
/// share — worker/multiget IO overlap is what matters, and the paper's
/// ordering emerges even on one core.
///
/// Expected shape: without OBM p2KVS ≈ RocksDB; with OBM it scales nearly
/// linearly with workers (multiget + partitioned indexes).
pub fn fig14() -> Report {
    let items = scaled(120_000);
    let reads = scaled(30_000);
    let every = [1, 2, 4, 8].map(|w| [(w, false), (w, true)]).concat();
    let slow = || setups::device_env(slowed(DeviceProfile::nvme_optane(), 20));
    let io_bound = [(1, true), (4, true), (8, false), (8, true)];
    let rows = [
        point_queries("nvme", setups::nvme_env, items, reads, &every),
        point_queries("io_bound", slow, items / 4, reads / 8, &io_bound),
    ];
    let config = Fields::new()
        .with("threads", 32usize)
        .with("items", items)
        .with("reads", reads)
        .with("block_cache_bytes", 512usize << 10)
        .with("io_bound_slowdown", 20u64);
    Report::figure("fig14", config, rows.concat())
}

/// One table of Fig 14: `reads` point queries from 32 threads over
/// `items` loaded on `device`, RocksDB's and then p2KVS's at each
/// `(workers, obm)`. Small per-instance block caches send the reads to
/// the device, as in the paper (dataset >> cache).
fn point_queries(
    table: &str,
    device: fn() -> Arc<MemEnv>,
    items: u64,
    reads: u64,
    p2kvs: &[(usize, bool)],
) -> Vec<Fields> {
    let small_cache = || {
        let mut o = setups::bench_options(device());
        o.block_cache_size = 512 << 10;
        o
    };
    let read = Micro::new(ReadRandom, items, 128);
    let client = LsmClient::new(lsmkv::Db::open(small_cache(), "f14-base").unwrap());
    load(&client, items, hashed_key, 128).expect("preload");
    client.db.flush().unwrap();
    client.db.wait_idle().unwrap();
    let base = drive(&client, &read, Run::new(32, reads, false));
    let row = |system: String, r: &RunResult| {
        Fields::new()
            .with("table", table)
            .with("system", system)
            .float("kqps", r.qps() / 1e3, 1)
            .float("vs_rocksdb", r.qps() / base.qps(), 2)
            .with("failed_calls", r.errors)
    };
    let mut rows = vec![row("RocksDB".into(), &base)];
    for &(workers, obm) in p2kvs {
        let dir = format!("f14-{workers}-{obm}");
        let client = setups::p2kvs_with(small_cache(), &dir, workers, obm);
        load(&client, items, hashed_key, 128).expect("preload");
        for e in client.store.engines() {
            e.flush().unwrap();
            e.wait_idle().unwrap();
        }
        let r = drive(&client, &read, Run::new(32, reads, false));
        let obm = if obm { "+OBM" } else { "" };
        rows.push(row(format!("p2KVS-{workers}{obm}"), &r));
    }
    rows
}

/// `profile` made `factor` times slower: every latency × `factor`, every
/// bandwidth ÷ `factor`.
fn slowed(profile: DeviceProfile, factor: u32) -> DeviceProfile {
    DeviceProfile {
        read_bw: profile.read_bw / u64::from(factor),
        write_bw: profile.write_bw / u64::from(factor),
        read_latency: profile.read_latency * factor,
        write_latency: profile.write_latency * factor,
        sync_latency: profile.sync_latency * factor,
        seek_latency: profile.seek_latency * factor,
        ..profile
    }
}

/// Fig 15: RANGE and SCAN throughput vs scan size. The calls are made
/// directly (a failed one panics), so no call is counted.
///
/// Expected shape: p2KVS wins RANGE across sizes (parallel sub-ranges) and
/// small SCANs; large SCANs converge as read amplification saturates the
/// device.
pub fn fig15() -> Report {
    let load = scaled(80_000);
    // Ordered load so ranges map to index windows.
    let rocks = setups::rocksdb_single(setups::nvme_env(), "f15-rocks");
    let p2 = setups::p2kvs(setups::nvme_env(), "f15-p2", 8, true);
    for i in 0..load {
        let k = ordered_key(i);
        let v = crate::workload::value_of(&k, 128);
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
        // Calls per second of `call` from `ops` random starts.
        let mut rate = |call: &dyn Fn(u64)| {
            let starts: Vec<u64> = (0..ops)
                .map(|_| {
                    rng_state = p2kvs_util::hash::mix64(rng_state + 1);
                    rng_state % load.saturating_sub(size + 1).max(1)
                })
                .collect();
            let t0 = Instant::now();
            starts.into_iter().for_each(call);
            ops as f64 / t0.elapsed().as_secs_f64()
        };
        let end = |s: u64| ordered_key(s + size);
        let rocks_range = rate(&|s| drop(rocks.db.range(&ordered_key(s), &end(s)).unwrap()));
        let p2_range = rate(&|s| drop(p2.store.range(&ordered_key(s), &end(s)).unwrap()));
        let rocks_scan = rate(&|s| drop(rocks.db.scan(&ordered_key(s), size as usize).unwrap()));
        let p2_scan = rate(&|s| drop(p2.store.scan(&ordered_key(s), size as usize).unwrap()));
        rows.push(
            Fields::new()
                .with("size", size)
                .float("range_rocks_ops_s", rocks_range, 0)
                .float("range_p2_ops_s", p2_range, 0)
                .float("range_speedup", p2_range / rocks_range, 2)
                .float("scan_rocks_ops_s", rocks_scan, 0)
                .float("scan_p2_ops_s", p2_scan, 0)
                .float("scan_speedup", p2_scan / rocks_scan, 2)
                .with("failed_calls", 0u64),
        );
    }
    let config = Fields::new()
        .with("threads", 1usize)
        .with("items", load)
        .with("value_bytes", 128usize);
    Report::figure("fig15", config, rows)
}
