//! §5.3–5.4 macro benchmarks and sensitivity studies (Table 1, Figs
//! 16–19).

use crate::setups;
use crate::workload::{drive, load, KvClient, Run, Workload, WorkloadKind};
use crate::{kqps, print_table, scaled};

/// Default scaled YCSB sizes (paper: 670M/120M; see DESIGN.md).
fn spec(kind: WorkloadKind, value_size: usize) -> Workload {
    let records = scaled(40_000);
    let ops = match kind {
        WorkloadKind::Load => records,
        WorkloadKind::E => scaled(3_000),
        _ => scaled(25_000),
    };
    Workload {
        value_size,
        ..Workload::table1(kind, records, ops)
    }
}

/// Runs one workload against a fresh system built by `make`.
fn run_one(
    kind: WorkloadKind,
    value_size: usize,
    threads: usize,
    make: &dyn Fn(&str) -> Box<dyn KvClient>,
    tag: &str,
) -> f64 {
    let client = make(tag);
    let spec = spec(kind, value_size);
    if kind != WorkloadKind::Load {
        load(&*client, spec.record_count, spec.value_size).expect("load phase");
    }
    drive(&*client, &spec, Run::new(threads, spec.op_count, false)).qps()
}

/// Table 1: the workload definitions (sanity display; unit tests verify
/// the mixes).
pub fn tab1() {
    let rows: Vec<Vec<String>> = WorkloadKind::all()
        .iter()
        .map(|k| {
            let mix = match k {
                WorkloadKind::Load => "100% PUT",
                WorkloadKind::A => "50% UPDATE / 50% GET",
                WorkloadKind::B => "5% UPDATE / 95% GET",
                WorkloadKind::C => "100% GET",
                WorkloadKind::D => "5% PUT / 95% GET",
                WorkloadKind::E => "5% PUT / 95% SCAN",
                WorkloadKind::F => "50% RMW / 50% GET",
            };
            vec![
                k.name().to_string(),
                mix.to_string(),
                format!("{:?}", k.distribution()),
            ]
        })
        .collect();
    print_table(
        "Table 1: YCSB workloads",
        &["workload", "mix", "distribution"],
        &rows,
    );
}

/// Fig 16: YCSB throughput, RocksDB vs p2KVS-4 vs p2KVS-8 at 8 and 32
/// user threads.
///
/// Expected shape: LOAD gains grow with concurrency (paper: 2.4×→5.2× for
/// p2KVS-8); read-heavy B/C/D gain 1–2×; E is a wash (read amplification
/// offsets parallelism); A/F gain 1.5–3.5×.
pub fn fig16() {
    println!("fig16: YCSB (128B) — RocksDB vs p2KVS");
    for threads in [8usize, 32] {
        let mut rows = Vec::new();
        for kind in WorkloadKind::all() {
            let rocks = run_one(
                kind,
                128,
                threads,
                &|tag| Box::new(setups::rocksdb_single(setups::nvme_env(), tag)),
                &format!("f16-r-{}-{threads}", kind.name()),
            );
            let p4 = run_one(
                kind,
                128,
                threads,
                &|tag| Box::new(setups::p2kvs(setups::nvme_env(), tag, 4, true)),
                &format!("f16-p4-{}-{threads}", kind.name()),
            );
            let p8 = run_one(
                kind,
                128,
                threads,
                &|tag| Box::new(setups::p2kvs(setups::nvme_env(), tag, 8, true)),
                &format!("f16-p8-{}-{threads}", kind.name()),
            );
            rows.push(vec![
                kind.name().to_string(),
                kqps(rocks),
                format!("{} ({:.1}x)", kqps(p4), p4 / rocks),
                format!("{} ({:.1}x)", kqps(p8), p8 / rocks),
            ]);
        }
        print_table(
            &format!("Fig 16: KQPS with {threads} user threads"),
            &["workload", "RocksDB", "p2KVS-4", "p2KVS-8"],
            &rows,
        );
    }
}

/// Fig 17: sensitivity to worker count and OBM (LOAD, A, B, C), normalized
/// to the single-worker no-OBM configuration.
///
/// Expected shape: instances alone give ~3×/5× at 4/8 workers; OBM
/// multiplies writes up to ~2× and reads up to ~5× at low worker counts.
pub fn fig17() {
    println!("fig17: workers × OBM sensitivity (32 user threads)");
    let threads = 32;
    for kind in [
        WorkloadKind::Load,
        WorkloadKind::A,
        WorkloadKind::B,
        WorkloadKind::C,
    ] {
        let mut base = 0.0f64;
        let mut rows = Vec::new();
        for workers in [1usize, 2, 4, 8] {
            let mut cells = vec![workers.to_string()];
            for obm in [false, true] {
                let qps = run_one(
                    kind,
                    128,
                    threads,
                    &|tag| Box::new(setups::p2kvs(setups::nvme_env(), tag, workers, obm)),
                    &format!("f17-{}-{workers}-{obm}", kind.name()),
                );
                if workers == 1 && !obm {
                    base = qps;
                }
                cells.push(format!("{} ({:.1}x)", kqps(qps), qps / base));
            }
            rows.push(cells);
        }
        print_table(
            &format!(
                "Fig 17 workload {}: KQPS (vs 1 worker, no OBM)",
                kind.name()
            ),
            &["workers", "OBM off", "OBM on"],
            &rows,
        );
    }
}

/// Fig 18: sensitivity to KV size (LOAD, A, C) — p2KVS-8 speedup over
/// RocksDB, OBM on vs off.
///
/// Expected shape: small KVs benefit most from OBM; at 16 KiB the
/// OBM-write advantage fades (log-merge savings are small) while reads
/// keep gaining.
pub fn fig18() {
    println!("fig18: KV-size sensitivity (32 user threads)");
    for kind in [WorkloadKind::Load, WorkloadKind::A, WorkloadKind::C] {
        let mut rows = Vec::new();
        for value_size in [128usize, 1024, 4096, 16384] {
            let rocks = run_one(
                kind,
                value_size,
                32,
                &|tag| Box::new(setups::rocksdb_single(setups::nvme_env(), tag)),
                &format!("f18-r-{}-{value_size}", kind.name()),
            );
            let p8_no = run_one(
                kind,
                value_size,
                32,
                &|tag| Box::new(setups::p2kvs(setups::nvme_env(), tag, 8, false)),
                &format!("f18-n-{}-{value_size}", kind.name()),
            );
            let p8 = run_one(
                kind,
                value_size,
                32,
                &|tag| Box::new(setups::p2kvs(setups::nvme_env(), tag, 8, true)),
                &format!("f18-o-{}-{value_size}", kind.name()),
            );
            rows.push(vec![
                format!("{value_size}B"),
                kqps(rocks),
                format!("{:.1}x", p8_no / rocks),
                format!("{:.1}x", p8 / rocks),
            ]);
        }
        print_table(
            &format!(
                "Fig 18 workload {}: p2KVS-8 speedup vs RocksDB",
                kind.name()
            ),
            &["KV size", "RocksDB KQPS", "no OBM", "with OBM"],
            &rows,
        );
    }
}

/// Fig 19: the full YCSB suite at 1 KiB values.
///
/// Expected shape: same ordering as Fig 16 but smaller speedups (large
/// values shrink the per-op software overhead OBM amortizes).
pub fn fig19() {
    println!("fig19: YCSB at 1KB values (32 user threads)");
    let mut rows = Vec::new();
    for kind in WorkloadKind::all() {
        let rocks = run_one(
            kind,
            1024,
            32,
            &|tag| Box::new(setups::rocksdb_single(setups::nvme_env(), tag)),
            &format!("f19-r-{}", kind.name()),
        );
        let p8 = run_one(
            kind,
            1024,
            32,
            &|tag| Box::new(setups::p2kvs(setups::nvme_env(), tag, 8, true)),
            &format!("f19-p8-{}", kind.name()),
        );
        rows.push(vec![
            kind.name().to_string(),
            kqps(rocks),
            format!("{} ({:.1}x)", kqps(p8), p8 / rocks),
        ]);
    }
    print_table(
        "Fig 19: KQPS at 1KB KV",
        &["workload", "RocksDB", "p2KVS-8"],
        &rows,
    );
}
