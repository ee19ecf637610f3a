//! §3 root-cause analysis experiments (Figs 1, 4, 5, 6, 7, 8).

use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsmkv::{Db, WriteBatch, WriteOptions};
use p2kvs_storage::{DeviceProfile, Env as _};

use crate::artifact::{Fields, Report};
use crate::clients::{LsmClient, MultiLsmClient};
use crate::scaled;
use crate::setups::{self, bench_options};
use crate::workload::MicroKind::{FillRandom, FillSeq, Overwrite, ReadRandom};
use crate::workload::{drive, hashed_key, load, value_of, Micro, Run};

/// Bytes per second as MiB/s.
fn mb_per_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / secs / (1 << 20) as f64
}

/// Fig 1: RocksDB throughput on HDD vs SATA SSD vs NVMe SSD, 1 and 8 user
/// threads, five db_bench operations, 128-byte KVs.
///
/// Expected shape: reads gain orders of magnitude from better devices;
/// writes barely move (CPU-bound foreground path).
pub fn fig1() -> Report {
    let mut rows = Vec::new();
    for (table, threads) in [("1a", 1usize), ("1b", 8)] {
        for profile in [
            DeviceProfile::hdd(),
            DeviceProfile::sata_ssd(),
            DeviceProfile::nvme_optane(),
        ] {
            // Device-scaled op counts (HDD random reads are milliseconds).
            let (w_ops, r_load, r_ops) = match profile.name {
                "hdd" => (scaled(10_000), scaled(40_000), scaled(1_500)),
                "sata-ssd" => (scaled(25_000), scaled(50_000), scaled(12_000)),
                _ => (scaled(50_000), scaled(50_000), scaled(25_000)),
            };
            let mut row = Fields::new()
                .with("table", table)
                .with("threads", threads)
                .with("device", profile.name);
            let mut failed = 0;
            // Write workloads on fresh DBs.
            for (kind, field) in [
                (FillSeq, "fillseq_kqps"),
                (FillRandom, "fillrandom_kqps"),
                (Overwrite, "overwrite_kqps"),
            ] {
                let env = setups::device_env(profile);
                let client = setups::rocksdb_single(env, &format!("f1-{}-w", profile.name));
                if kind.needs_load() {
                    load(&client, w_ops, hashed_key, 128).expect("preload");
                }
                let r = drive(
                    &client,
                    &Micro::new(kind, w_ops, 128),
                    Run::new(threads, w_ops, false),
                );
                failed += r.errors;
                row = row.float(field, r.qps() / 1e3, 1);
            }
            // Read workloads share one loaded DB; a small block cache keeps
            // the dataset mostly uncached (paper: 10M records >> cache).
            let env = setups::device_env(profile);
            let mut opts = bench_options(env.clone());
            opts.block_cache_size = 1 << 20;
            let client = LsmClient::new(Db::open(opts, format!("f1-{}-r", profile.name)).unwrap());
            load(&client, r_load, hashed_key, 128).expect("preload");
            client.db.flush().unwrap();
            client.db.wait_idle().unwrap();
            // readseq: cursor scans in key order (block locality).
            let t0 = Instant::now();
            let mut cursor: Vec<u8> = Vec::new();
            let mut seq_entries = 0u64;
            while seq_entries < r_ops {
                let chunk = client.db.scan(&cursor, 100).unwrap();
                if chunk.is_empty() {
                    cursor.clear();
                    continue;
                }
                seq_entries += chunk.len() as u64;
                cursor = chunk.last().unwrap().0.clone();
                cursor.push(0);
            }
            let readseq_qps = seq_entries as f64 / t0.elapsed().as_secs_f64();
            let r = drive(
                &client,
                &Micro::new(ReadRandom, r_load, 128),
                Run::new(threads, r_ops, false),
            );
            rows.push(
                row.float("readseq_kqps", readseq_qps / 1e3, 1)
                    .float("readrandom_kqps", r.qps() / 1e3, 1)
                    .with("failed_calls", failed + r.errors),
            );
        }
    }
    let config = Fields::new()
        .with("value_bytes", 128usize)
        .with("read_block_cache_bytes", 1usize << 20);
    Report::figure("fig1", config, rows)
}

/// Fig 4: IO bandwidth and CPU over time, one writer on NVMe: a
/// `timeline` row per sampled window (at most 8 per run; they sample the
/// device, so they count no call) and a `run` row per write stream.
///
/// Expected shape: small KVs — writer core pegged, SSD mostly idle
/// (≤ ~1/6 bandwidth); 1 KiB KVs — compaction consumes bandwidth and
/// background CPU while the writer is no longer 100% busy.
pub fn fig4() -> Report {
    let window = Duration::from_millis(250);
    let mut rows = Vec::new();
    for value_bytes in [128usize, 1024] {
        for (kind, order) in [(FillRandom, "random"), (FillSeq, "sequential")] {
            let env = setups::nvme_env();
            let client = setups::rocksdb_single(env.clone(), &format!("f4-{value_bytes}-{order}"));
            let ops = scaled(if value_bytes == 128 { 120_000 } else { 40_000 });
            let (stop, stopped) = mpsc::channel::<()>();
            let sampler = {
                let env = env.clone();
                let db = client.db.clone();
                std::thread::spawn(move || {
                    let mut rows = Vec::new();
                    let mut last_io = env.io_stats();
                    let mut last_bg = db.stats().bg_busy.sum_ns();
                    let start = Instant::now();
                    let mut window_start = start;
                    // One row per window and one for the part window the
                    // drive ended in: at least one, however short the run.
                    loop {
                        let tick = stopped.recv_timeout(window);
                        let io = env.io_stats();
                        let bg = db.stats().bg_busy.sum_ns();
                        let d = io.delta(&last_io);
                        let secs = window_start.elapsed().as_secs_f64().max(1e-9);
                        window_start = Instant::now();
                        rows.push(
                            Fields::new()
                                .with("table", "timeline")
                                .with("value_bytes", value_bytes)
                                .with("order", order)
                                .float("t_s", start.elapsed().as_secs_f64(), 2)
                                .float("wal_mb_s", mb_per_s(d.wal_bytes, secs), 1)
                                .float("flush_mb_s", mb_per_s(d.flush_bytes, secs), 1)
                                .float("compact_mb_s", mb_per_s(d.compaction_bytes, secs), 1)
                                .float(
                                    "bg_cpu_pct",
                                    (bg - last_bg) as f64 / (secs * 1e9) * 100.0,
                                    0,
                                )
                                .with("failed_calls", 0u64),
                        );
                        last_io = io;
                        last_bg = bg;
                        if tick != Err(RecvTimeoutError::Timeout) {
                            return rows;
                        }
                    }
                })
            };
            let r = drive(
                &client,
                &Micro::new(kind, ops, value_bytes),
                Run::new(1, ops, false),
            );
            drop(stop);
            let timeline = sampler.join().unwrap();
            let step = (timeline.len() / 8).max(1);
            rows.extend(timeline.into_iter().step_by(step));
            let io = env.io_stats();
            let write_bw = env.profile().expect("nvme_env is timed").write_bw;
            let secs = r.elapsed.as_secs_f64();
            rows.push(
                Fields::new()
                    .with("table", "run")
                    .with("value_bytes", value_bytes)
                    .with("order", order)
                    .with("ops", r.ops)
                    .float("kqps", r.qps() / 1e3, 1)
                    .float(
                        "write_bw_util_pct",
                        io.bytes_written as f64 / (write_bw as f64 * secs) * 100.0,
                        1,
                    )
                    .float("fg_util_pct", r.fg_busy().as_secs_f64() / secs * 100.0, 0)
                    .with("failed_calls", r.errors),
            );
        }
    }
    let config = Fields::new()
        .with("threads", 1usize)
        .with("window_ms", window.as_millis() as u64);
    Report::figure("fig4", config, rows)
}

/// Fig 5: concurrent random writes — single vs multi instance vs pinning
/// (5a); the pinned single instance's IO bandwidth (5b) and CPU (5c).
///
/// Expected shape: single instance scales poorly (~3× at 32 threads) and
/// plateaus; multi-instance reaches higher peaks; pinning adds ~10%; IO
/// bandwidth stays a small fraction of the device.
pub fn fig5() -> Report {
    let ops = scaled(40_000);
    let fill = Micro::new(FillRandom, ops, 128);
    let (mut rows_a, mut rows_b, mut rows_c) = (Vec::new(), Vec::new(), Vec::new());
    for threads in [1usize, 2, 4, 8, 16, 32] {
        // Single instance, unpinned and pinned user threads.
        let run_single = |pin: bool| {
            let env = setups::nvme_env();
            let client = setups::rocksdb_single(env.clone(), &format!("f5-s{threads}-{pin}"));
            let r = drive(&client, &fill, Run::new(threads, ops, pin));
            (r, env, client)
        };
        let (r_unpin, _, _) = run_single(false);
        let (r_pin, env_s, client_s) = run_single(true);
        // Multi-instance: one instance per thread.
        let env_m = setups::nvme_env();
        let multi = setups::rocksdb_multi(env_m, &format!("f5-m{threads}"), threads);
        let r_multi = drive(&multi, &fill, Run::new(threads, ops, true));
        let row = |table| Fields::new().with("table", table).with("threads", threads);
        rows_a.push(
            row("5a")
                .float("single_kqps", r_unpin.qps() / 1e3, 1)
                .float("single_pin_kqps", r_pin.qps() / 1e3, 1)
                .float("multi_pin_kqps", r_multi.qps() / 1e3, 1)
                .with(
                    "failed_calls",
                    r_unpin.errors + r_pin.errors + r_multi.errors,
                ),
        );
        // IO bandwidth split for the pinned single-instance run.
        let io = env_s.io_stats();
        let secs = r_pin.elapsed.as_secs_f64();
        let write_bw = env_s.profile().expect("nvme_env is timed").write_bw as f64;
        let device_pct = io.bytes_written as f64 / (write_bw * secs) * 100.0;
        rows_b.push(
            row("5b")
                .float("wal_mb_s", mb_per_s(io.wal_bytes, secs), 1)
                .float("flush_mb_s", mb_per_s(io.flush_bytes, secs), 1)
                .float("compact_mb_s", mb_per_s(io.compaction_bytes, secs), 1)
                .float("device_pct", device_pct, 1)
                .with("failed_calls", r_pin.errors),
        );
        // CPU utilizations.
        let fg_util = r_pin.fg_busy().as_secs_f64() / secs / threads as f64;
        let bg_util = client_s.db.stats().bg_busy.sum_ns() as f64 / 1e9 / secs;
        rows_c.push(
            row("5c")
                .float("per_user_thread_pct", fg_util * 100.0, 0)
                .float("background_cores_pct", bg_util * 100.0, 0)
                .with("failed_calls", r_pin.errors),
        );
    }
    let config = Fields::new().with("ops", ops).with("value_bytes", 128usize);
    Report::figure("fig5", config, [rows_a, rows_b, rows_c].concat())
}

/// Fig 6: write-latency breakdown of the single instance: each stage's
/// average µs per write and its share of the total.
///
/// Expected shape: at 1 thread WAL+MemTable dominate (~90%); as threads
/// grow the WAL-lock + MemTable-lock share explodes (> 80% at 32).
pub fn fig6() -> Report {
    let ops = scaled(30_000);
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8, 16, 32] {
        let env = setups::nvme_env();
        let client = setups::rocksdb_single(env, &format!("f6-{threads}"));
        let r = drive(
            &client,
            &Micro::new(FillRandom, ops, 128),
            Run::new(threads, ops, true),
        );
        let snap = client.db.stats().breakdown.snapshot();
        let p = snap.percentages();
        rows.push(
            Fields::new()
                .with("threads", threads)
                .float("total_us", snap.total_us(), 1)
                .float("wal_us", snap.wal_us, 1)
                .float("wal_pct", p[0], 0)
                .float("memtable_us", snap.memtable_us, 1)
                .float("memtable_pct", p[1], 0)
                .float("wal_lock_us", snap.wal_lock_us, 1)
                .float("wal_lock_pct", p[2], 0)
                .float("memtable_lock_us", snap.memtable_lock_us, 1)
                .float("memtable_lock_pct", p[3], 0)
                .float("other_us", snap.other_us, 1)
                .float("other_pct", p[4], 0)
                .with("failed_calls", r.errors),
        );
    }
    let config = Fields::new().with("ops", ops).with("value_bytes", 128usize);
    Report::figure("fig6", config, rows)
}

/// Fig 7: effect of WriteBatch size on the WAL stage. The batches are
/// written directly (a failed write panics), so no call is counted.
///
/// Expected shape: larger batches raise bandwidth and cut CPU seconds per
/// million KVs (fewer IO-stack traversals).
pub fn fig7() -> Report {
    let total_kvs = scaled(200_000);
    let mut rows = Vec::new();
    for batch_bytes in [256usize, 1024, 4096, 16384] {
        let env = setups::nvme_env();
        let mut opts = bench_options(env.clone());
        opts.bench_skip_memtable = true;
        let db = Db::open(opts, format!("f7-{batch_bytes}")).unwrap();
        let per_batch = (batch_bytes / 148).max(1); // 128B value + ~20B key
        let batches = total_kvs / per_batch as u64;
        let t0 = Instant::now();
        let mut busy = Duration::ZERO;
        let mut i = 0u64;
        for _ in 0..batches {
            let mut wb = WriteBatch::new();
            for _ in 0..per_batch {
                let key = hashed_key(i);
                wb.put(&key, &value_of(&key, 128));
                i += 1;
            }
            let t = Instant::now();
            db.write(&WriteOptions::default(), wb).unwrap();
            busy += t.elapsed();
        }
        let secs = t0.elapsed().as_secs_f64();
        rows.push(
            Fields::new()
                .with("batch_bytes", batch_bytes)
                .with("kvs_per_batch", per_batch)
                .float("wal_mb_s", mb_per_s(env.io_stats().wal_bytes, secs), 1)
                .float("kqps", i as f64 / secs / 1e3, 1)
                .float("cpu_s_per_1m_kvs", busy.as_secs_f64() / (i as f64 / 1e6), 2)
                .with("failed_calls", 0u64),
        );
    }
    let config = Fields::new()
        .with("kvs", total_kvs)
        .with("value_bytes", 128usize);
    Report::figure("fig7", config, rows)
}

/// Fig 8: WAL-only (8a, `wal_only`) and MemTable-only (8b,
/// `memtable_only`) thread scaling, single vs multi instance. Every
/// memtable holds the whole run, so no flush interferes with the index
/// test: each row counts its instances' flushes, and [`fig8_gate`] fails
/// a run that had any.
///
/// Expected shape: (a) logging — single instance gains ~2× from batching;
/// multi-instance peaks higher at a few instances (device parallelism
/// bound). (b) indexing — multi-instance scales far better (~10×) than the
/// shared concurrent skiplist (~3–4×).
pub fn fig8() -> Report {
    let ops = scaled(40_000);
    let fill = Micro::new(FillRandom, ops, 128);
    // The run's own bytes four times over (skiplist nodes and key
    // encodings on top of the 148-byte KVs), at least the bench size. The
    // memtable's filter grows with this budget: 1 GiB cost 16 MiB per DB.
    let memtable_size = (ops as usize * 148 * 4).max(1 << 20);
    let mut rows = Vec::new();
    for (table, skip_memtable, disable_wal) in
        [("wal_only", true, false), ("memtable_only", false, true)]
    {
        for threads in [1usize, 2, 4, 8, 16, 32] {
            let open = |env, dir: String| {
                let mut o = bench_options(env);
                o.bench_skip_memtable = skip_memtable;
                o.memtable_size = memtable_size;
                Arc::new(Db::open(o, dir).unwrap())
            };
            let wo = WriteOptions {
                disable_wal,
                ..WriteOptions::default()
            };
            let single = LsmClient {
                db: open(setups::nvme_env(), format!("f8-s-{table}-{threads}")),
                wo,
            };
            let r_single = drive(&single, &fill, Run::new(threads, ops, true));
            let env_m = setups::nvme_env();
            let multi = MultiLsmClient {
                dbs: (0..threads)
                    .map(|i| open(env_m.clone(), format!("f8-m-{table}-{threads}-{i}")))
                    .collect(),
                wo,
            };
            let r_multi = drive(&multi, &fill, Run::new(threads, ops, true));
            let flushes: u64 = multi
                .dbs
                .iter()
                .chain([&single.db])
                .map(|db| db.stats().flushes.load(Ordering::Relaxed))
                .sum();
            rows.push(
                Fields::new()
                    .with("table", table)
                    .with("threads", threads)
                    .float("single_kqps", r_single.qps() / 1e3, 1)
                    .float("multi_kqps", r_multi.qps() / 1e3, 1)
                    .with("flushes", flushes)
                    .with("failed_calls", r_single.errors + r_multi.errors),
            );
        }
    }
    let flushes = rows.iter().map(|r| r.int("flushes")).sum::<u64>();
    let config = Fields::new()
        .with("ops", ops)
        .with("value_bytes", 128usize)
        .with("memtable_bytes", memtable_size);
    Report {
        summary: Fields::new().with("flushes", flushes),
        ..Report::figure("fig8", config, rows)
    }
}

/// Fig 8 measures the WAL and the memtable without flushes: a run that
/// flushed measured something else.
pub fn fig8_gate(summary: &Fields) -> Vec<String> {
    match summary.int("flushes") {
        0 => Vec::new(),
        n => vec![format!("{n} memtable flushes interfered with the runs")],
    }
}
