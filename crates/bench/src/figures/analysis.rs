//! §3 root-cause analysis experiments (Figs 1, 4, 5, 6, 7, 8).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsmkv::{Db, WriteBatch, WriteOptions};
use p2kvs_storage::{DeviceProfile, Env as _};

use crate::clients::{LsmClient, MultiLsmClient};
use crate::setups::{self, bench_options, value_of};
use crate::workload::MicroKind::{FillRandom, FillSeq, Overwrite, ReadRandom};
use crate::workload::{drive, hashed_key, load, Micro, Run};
use crate::{kqps, print_table, scaled};

/// Fig 1: RocksDB throughput on HDD vs SATA SSD vs NVMe SSD, 1 and 8 user
/// threads, five db_bench operations, 128-byte KVs.
///
/// Expected shape: reads gain orders of magnitude from better devices;
/// writes barely move (CPU-bound foreground path).
pub fn fig1() {
    println!("fig1: RocksDB single-instance across device classes (128B KV)");
    for threads in [1usize, 8] {
        let mut rows = Vec::new();
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
            let mut qps = Vec::new();
            // Write workloads on fresh DBs.
            for kind in [FillSeq, FillRandom, Overwrite] {
                let env = setups::device_env(profile);
                let client = setups::rocksdb_single(env, &format!("f1-{}-w", profile.name));
                if kind.needs_load() {
                    load(&client, w_ops, 128).expect("preload");
                }
                let r = drive(
                    &client,
                    &Micro::new(kind, w_ops, 128),
                    Run::new(threads, w_ops, false),
                );
                qps.push(r.qps());
            }
            // Read workloads share one loaded DB; a small block cache keeps
            // the dataset mostly uncached (paper: 10M records >> cache).
            {
                let env = setups::device_env(profile);
                let mut opts = bench_options(env.clone());
                opts.block_cache_size = 1 << 20;
                let client =
                    LsmClient::new(Db::open(opts, format!("f1-{}-r", profile.name)).unwrap());
                load(&client, r_load, 128).expect("preload");
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
                qps.push(readseq_qps);
                qps.push(r.qps());
            }
            rows.push(vec![
                profile.name.to_string(),
                kqps(qps[0]),
                kqps(qps[1]),
                kqps(qps[2]),
                kqps(qps[3]),
                kqps(qps[4]),
            ]);
        }
        print_table(
            &format!(
                "Fig 1{}: KQPS with {threads} user thread(s)",
                if threads == 1 { "a" } else { "b" }
            ),
            &[
                "device",
                "fillseq",
                "fillrandom",
                "overwrite",
                "readseq",
                "readrandom",
            ],
            &rows,
        );
    }
}

/// Fig 4: IO bandwidth and CPU over time, one writer on NVMe.
///
/// Expected shape: small KVs — writer core pegged, SSD mostly idle
/// (≤ ~1/6 bandwidth); 1 KiB KVs — compaction consumes bandwidth and
/// background CPU while the writer is no longer 100% busy.
pub fn fig4() {
    println!("fig4: single-writer bandwidth/CPU timelines on NVMe");
    for (size, label) in [(128usize, "128B"), (1024, "1KB")] {
        for (kind, kname) in [(FillRandom, "random"), (FillSeq, "sequential")] {
            let env = setups::nvme_env();
            let client = setups::rocksdb_single(env.clone(), &format!("f4-{label}-{kname}"));
            let ops = scaled(if size == 128 { 120_000 } else { 40_000 });
            let stop = Arc::new(AtomicBool::new(false));
            let sampler = {
                let stop = stop.clone();
                let env = env.clone();
                let db = client.db.clone();
                std::thread::spawn(move || {
                    let mut rows = Vec::new();
                    let mut last_io = env.io_stats();
                    let mut last_bg = db.stats().bg_busy.sum_ns();
                    let window = Duration::from_millis(250);
                    let start = Instant::now();
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(window);
                        let io = env.io_stats();
                        let bg = db.stats().bg_busy.sum_ns();
                        let d = io.delta(&last_io);
                        let mbps = |b: u64| b as f64 / window.as_secs_f64() / (1 << 20) as f64;
                        rows.push(vec![
                            format!("{:.2}", start.elapsed().as_secs_f64()),
                            format!("{:.1}", mbps(d.wal_bytes)),
                            format!("{:.1}", mbps(d.flush_bytes)),
                            format!("{:.1}", mbps(d.compaction_bytes)),
                            format!(
                                "{:.0}%",
                                (bg - last_bg) as f64 / window.as_nanos() as f64 * 100.0
                            ),
                        ]);
                        last_io = io;
                        last_bg = bg;
                    }
                    rows
                })
            };
            let r = drive(
                &client,
                &Micro::new(kind, ops, size),
                Run::new(1, ops, false),
            );
            stop.store(true, Ordering::Relaxed);
            let mut rows = sampler.join().unwrap();
            let max_rows = 8;
            if rows.len() > max_rows {
                let step = rows.len() / max_rows;
                rows = rows.into_iter().step_by(step.max(1)).collect();
            }
            print_table(
                &format!("Fig 4 {kname} {label}: timeline (writer CPU ~100%)"),
                &["t(s)", "wal MB/s", "flush MB/s", "compact MB/s", "bg cpu"],
                &rows,
            );
            let io = env.io_stats();
            let bw_frac =
                io.bytes_written as f64 / (env.profile().write_bw as f64 * r.elapsed.as_secs_f64());
            println!(
                "   {} ops at {} KQPS; device write-bandwidth utilization {:.1}%; fg util {:.0}%",
                r.ops,
                kqps(r.qps()),
                bw_frac * 100.0,
                r.fg_busy().as_secs_f64() / r.elapsed.as_secs_f64() * 100.0
            );
        }
    }
}

/// Fig 5: concurrent random writes — single vs multi instance vs pinning.
///
/// Expected shape: single instance scales poorly (~3× at 32 threads) and
/// plateaus; multi-instance reaches higher peaks; pinning adds ~10%; IO
/// bandwidth stays a small fraction of the device.
pub fn fig5() {
    println!("fig5: concurrent fillrandom (128B) on NVMe");
    let threads_list = [1usize, 2, 4, 8, 16, 32];
    let ops = scaled(40_000);
    let fill = Micro::new(FillRandom, ops, 128);
    let mut rows_a = Vec::new();
    let mut rows_b = Vec::new();
    let mut rows_c = Vec::new();
    for &threads in &threads_list {
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
        rows_a.push(vec![
            threads.to_string(),
            kqps(r_unpin.qps()),
            kqps(r_pin.qps()),
            kqps(r_multi.qps()),
        ]);
        // IO bandwidth split for the pinned single-instance run.
        let io = env_s.io_stats();
        let secs = r_pin.elapsed.as_secs_f64();
        let mbps = |b: u64| format!("{:.1}", b as f64 / secs / (1 << 20) as f64);
        rows_b.push(vec![
            threads.to_string(),
            mbps(io.wal_bytes),
            mbps(io.flush_bytes),
            mbps(io.compaction_bytes),
            format!(
                "{:.1}%",
                io.bytes_written as f64 / (2200.0 * (1 << 20) as f64 * secs) * 100.0
            ),
        ]);
        // CPU utilizations.
        let fg_util = r_pin.fg_busy().as_secs_f64() / secs / threads as f64;
        let bg_util = client_s.db.stats().bg_busy.sum_ns() as f64 / 1e9 / secs;
        rows_c.push(vec![
            threads.to_string(),
            format!("{:.0}%", fg_util * 100.0),
            format!("{:.0}%", bg_util * 100.0),
        ]);
    }
    print_table(
        "Fig 5a: write KQPS",
        &["threads", "single", "single+pin", "multi-inst+pin"],
        &rows_a,
    );
    print_table(
        "Fig 5b: single-instance IO bandwidth",
        &[
            "threads",
            "wal MB/s",
            "flush MB/s",
            "compact MB/s",
            "of device",
        ],
        &rows_b,
    );
    print_table(
        "Fig 5c: single-instance CPU",
        &["threads", "per-user-thread", "background (cores)"],
        &rows_c,
    );
}

/// Fig 6: write-latency breakdown of the single instance.
///
/// Expected shape: at 1 thread WAL+MemTable dominate (~90%); as threads
/// grow the WAL-lock + MemTable-lock share explodes (> 80% at 32).
pub fn fig6() {
    println!("fig6: single-instance write latency breakdown (128B fillrandom)");
    let ops = scaled(30_000);
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8, 16, 32] {
        let env = setups::nvme_env();
        let client = setups::rocksdb_single(env, &format!("f6-{threads}"));
        drive(
            &client,
            &Micro::new(FillRandom, ops, 128),
            Run::new(threads, ops, true),
        );
        let snap = client.db.stats().breakdown.snapshot();
        let p = snap.percentages();
        rows.push(vec![
            threads.to_string(),
            format!("{:.1}", snap.total_us()),
            format!("{:.1} ({:.0}%)", snap.wal_us, p[0]),
            format!("{:.1} ({:.0}%)", snap.memtable_us, p[1]),
            format!("{:.1} ({:.0}%)", snap.wal_lock_us, p[2]),
            format!("{:.1} ({:.0}%)", snap.memtable_lock_us, p[3]),
            format!("{:.1} ({:.0}%)", snap.other_us, p[4]),
        ]);
    }
    print_table(
        "Fig 6: average per-write µs (share of total)",
        &[
            "threads",
            "total",
            "WAL",
            "MemTable",
            "WAL lock",
            "MemTable lock",
            "Others",
        ],
        &rows,
    );
}

/// Fig 7: effect of WriteBatch size on the WAL stage.
///
/// Expected shape: larger batches raise bandwidth and cut CPU seconds per
/// million KVs (fewer IO-stack traversals).
pub fn fig7() {
    println!("fig7: WriteBatch size vs WAL bandwidth and CPU (memtable disabled)");
    let mut rows = Vec::new();
    for batch_bytes in [256usize, 1024, 4096, 16384] {
        let env = setups::nvme_env();
        let mut opts = bench_options(env.clone());
        opts.bench_skip_memtable = true;
        let db = Db::open(opts, format!("f7-{batch_bytes}")).unwrap();
        let per_batch = (batch_bytes / 148).max(1); // 128B value + ~20B key
        let total_kvs = scaled(200_000);
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
        let elapsed = t0.elapsed();
        let io = env.io_stats();
        rows.push(vec![
            format!("{batch_bytes}"),
            format!("{per_batch}"),
            format!(
                "{:.1}",
                io.wal_bytes as f64 / elapsed.as_secs_f64() / (1 << 20) as f64
            ),
            kqps(i as f64 / elapsed.as_secs_f64()),
            format!("{:.2}", busy.as_secs_f64() / (i as f64 / 1e6)),
        ]);
    }
    print_table(
        "Fig 7: batched WAL appends",
        &[
            "batch bytes",
            "KVs/batch",
            "wal MB/s",
            "KQPS",
            "cpu s per 1M KVs",
        ],
        &rows,
    );
}

/// Fig 8: WAL-only and MemTable-only thread scaling, single vs multi
/// instance.
///
/// Expected shape: (a) logging — single instance gains ~2× from batching;
/// multi-instance peaks higher at a few instances (device parallelism
/// bound). (b) indexing — multi-instance scales far better (~10×) than the
/// shared concurrent skiplist (~3–4×).
pub fn fig8() {
    println!("fig8: WAL-only and MemTable-only scaling (128B)");
    let ops = scaled(40_000);
    let fill = Micro::new(FillRandom, ops, 128);
    let threads_list = [1usize, 2, 4, 8, 16, 32];
    for (stage, skip_memtable, disable_wal) in [
        ("logging (WAL only)", true, false),
        ("MemTable only", false, true),
    ] {
        let mut rows = Vec::new();
        for &threads in &threads_list {
            let mk_opts = |env| {
                let mut o = bench_options(env);
                o.bench_skip_memtable = skip_memtable;
                // Huge memtable: no flush interference in the index test.
                o.memtable_size = 1 << 30;
                o
            };
            let wo = WriteOptions {
                disable_wal,
                ..WriteOptions::default()
            };
            let single = LsmClient {
                wo,
                ..LsmClient::new(
                    Db::open(
                        mk_opts(setups::nvme_env()),
                        format!("f8-s-{stage}-{threads}"),
                    )
                    .unwrap(),
                )
            };
            let r_single = drive(&single, &fill, Run::new(threads, ops, true));
            let env_m = setups::nvme_env();
            let multi = MultiLsmClient {
                dbs: (0..threads)
                    .map(|i| {
                        Arc::new(
                            Db::open(
                                mk_opts(env_m.clone()),
                                format!("f8-m-{stage}-{threads}-{i}"),
                            )
                            .unwrap(),
                        )
                    })
                    .collect(),
                wo,
            };
            let r_multi = drive(&multi, &fill, Run::new(threads, ops, true));
            rows.push(vec![
                threads.to_string(),
                kqps(r_single.qps()),
                kqps(r_multi.qps()),
            ]);
        }
        print_table(
            &format!("Fig 8: {stage} KQPS"),
            &["threads", "single-instance", "multi-instance"],
            &rows,
        );
    }
}
