//! §5.3–5.4 macro benchmarks and sensitivity studies (Table 1, Figs
//! 16–19).

use crate::artifact::{Fields, Report};
use crate::scaled;
use crate::setups;
use crate::workload::{drive, hashed_key, load, KvClient, Run, RunResult, Workload, WorkloadKind};

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

/// The records and op counts of [`spec`], for a report's `config`.
fn sizes() -> Fields {
    Fields::new()
        .with("records", scaled(40_000))
        .with("ops", scaled(25_000))
        .with("ops_e", scaled(3_000))
}

/// A RocksDB-mode single instance.
fn rocksdb(tag: &str) -> Box<dyn KvClient> {
    Box::new(setups::rocksdb_single(setups::nvme_env(), tag))
}

/// A p2KVS store of `workers` workers, OBM on or off.
fn p2kvs(workers: usize, obm: bool) -> impl Fn(&str) -> Box<dyn KvClient> {
    move |tag| Box::new(setups::p2kvs(setups::nvme_env(), tag, workers, obm))
}

/// Runs one workload against a fresh system built by `make`.
fn run_one(
    kind: WorkloadKind,
    value_size: usize,
    threads: usize,
    make: &dyn Fn(&str) -> Box<dyn KvClient>,
    tag: &str,
) -> RunResult {
    let client = make(tag);
    let spec = spec(kind, value_size);
    if kind != WorkloadKind::Load {
        load(&*client, spec.record_count, hashed_key, spec.value_size).expect("load phase");
    }
    drive(&*client, &spec, Run::new(threads, spec.op_count, false))
}

/// Table 1: the workload definitions (sanity display; unit tests verify
/// the mixes).
pub fn tab1() -> Report {
    let rows = WorkloadKind::all()
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
            Fields::new()
                .with("workload", k.name())
                .with("mix", mix)
                .with("distribution", format!("{:?}", k.distribution()))
                .with("failed_calls", 0u64)
        })
        .collect();
    Report::figure("tab1", Fields::new(), rows)
}

/// Fig 16: YCSB throughput, RocksDB vs p2KVS-4 vs p2KVS-8 at 8 (16a) and
/// 32 (16b) user threads; `_x` is the speedup over RocksDB.
///
/// Expected shape: LOAD gains grow with concurrency (paper: 2.4×→5.2× for
/// p2KVS-8); read-heavy B/C/D gain 1–2×; E is a wash (read amplification
/// offsets parallelism); A/F gain 1.5–3.5×.
pub fn fig16() -> Report {
    let mut rows = Vec::new();
    for (table, threads) in [("16a", 8usize), ("16b", 32)] {
        for kind in WorkloadKind::all() {
            let name = kind.name();
            let tag = |system: &str| format!("f16-{system}-{name}-{threads}");
            let rocks = run_one(kind, 128, threads, &rocksdb, &tag("r"));
            let p4 = run_one(kind, 128, threads, &p2kvs(4, true), &tag("p4"));
            let p8 = run_one(kind, 128, threads, &p2kvs(8, true), &tag("p8"));
            rows.push(
                Fields::new()
                    .with("table", table)
                    .with("threads", threads)
                    .with("workload", name)
                    .float("rocksdb_kqps", rocks.qps() / 1e3, 1)
                    .float("p2kvs4_kqps", p4.qps() / 1e3, 1)
                    .float("p2kvs4_x", p4.qps() / rocks.qps(), 1)
                    .float("p2kvs8_kqps", p8.qps() / 1e3, 1)
                    .float("p2kvs8_x", p8.qps() / rocks.qps(), 1)
                    .with("failed_calls", rocks.errors + p4.errors + p8.errors),
            );
        }
    }
    Report::figure("fig16", sizes().with("value_bytes", 128usize), rows)
}

/// Fig 17: sensitivity to worker count and OBM (LOAD, A, B, C: one table
/// each), `_x` normalized to the single-worker no-OBM configuration.
///
/// Expected shape: instances alone give ~3×/5× at 4/8 workers; OBM
/// multiplies writes up to ~2× and reads up to ~5× at low worker counts.
pub fn fig17() -> Report {
    let threads = 32;
    let mut rows = Vec::new();
    for kind in [
        WorkloadKind::Load,
        WorkloadKind::A,
        WorkloadKind::B,
        WorkloadKind::C,
    ] {
        let name = kind.name();
        let mut base = 0.0f64;
        for workers in [1usize, 2, 4, 8] {
            let [off, on] = [false, true].map(|obm| {
                let tag = format!("f17-{name}-{workers}-{obm}");
                run_one(kind, 128, threads, &p2kvs(workers, obm), &tag)
            });
            if workers == 1 {
                base = off.qps();
            }
            rows.push(
                Fields::new()
                    .with("table", name)
                    .with("workers", workers)
                    .float("obm_off_kqps", off.qps() / 1e3, 1)
                    .float("obm_off_x", off.qps() / base, 1)
                    .float("obm_on_kqps", on.qps() / 1e3, 1)
                    .float("obm_on_x", on.qps() / base, 1)
                    .with("failed_calls", off.errors + on.errors),
            );
        }
    }
    let config = sizes()
        .with("threads", threads)
        .with("value_bytes", 128usize);
    Report::figure("fig17", config, rows)
}

/// Fig 18: sensitivity to KV size (LOAD, A, C: one table each) — p2KVS-8
/// speedup over RocksDB, OBM off and on.
///
/// Expected shape: small KVs benefit most from OBM; at 16 KiB the
/// OBM-write advantage fades (log-merge savings are small) while reads
/// keep gaining.
pub fn fig18() -> Report {
    let mut rows = Vec::new();
    for kind in [WorkloadKind::Load, WorkloadKind::A, WorkloadKind::C] {
        let name = kind.name();
        for value_bytes in [128usize, 1024, 4096, 16384] {
            let run = |make: &dyn Fn(&str) -> Box<dyn KvClient>, system: &str| {
                let tag = format!("f18-{system}-{name}-{value_bytes}");
                run_one(kind, value_bytes, 32, make, &tag)
            };
            let rocks = run(&rocksdb, "r");
            let p8_no = run(&p2kvs(8, false), "n");
            let p8 = run(&p2kvs(8, true), "o");
            rows.push(
                Fields::new()
                    .with("table", name)
                    .with("value_bytes", value_bytes)
                    .float("rocksdb_kqps", rocks.qps() / 1e3, 1)
                    .float("no_obm_x", p8_no.qps() / rocks.qps(), 1)
                    .float("with_obm_x", p8.qps() / rocks.qps(), 1)
                    .with("failed_calls", rocks.errors + p8_no.errors + p8.errors),
            );
        }
    }
    Report::figure("fig18", sizes().with("threads", 32usize), rows)
}

/// Fig 19: the full YCSB suite at 1 KiB values; `_x` is the speedup over
/// RocksDB.
///
/// Expected shape: same ordering as Fig 16 but smaller speedups (large
/// values shrink the per-op software overhead OBM amortizes).
pub fn fig19() -> Report {
    let mut rows = Vec::new();
    for kind in WorkloadKind::all() {
        let name = kind.name();
        let rocks = run_one(kind, 1024, 32, &rocksdb, &format!("f19-r-{name}"));
        let p8 = run_one(kind, 1024, 32, &p2kvs(8, true), &format!("f19-p8-{name}"));
        rows.push(
            Fields::new()
                .with("workload", name)
                .float("rocksdb_kqps", rocks.qps() / 1e3, 1)
                .float("p2kvs8_kqps", p8.qps() / 1e3, 1)
                .float("p2kvs8_x", p8.qps() / rocks.qps(), 1)
                .with("failed_calls", rocks.errors + p8.errors),
        );
    }
    let config = sizes()
        .with("threads", 32usize)
        .with("value_bytes", 1024usize);
    Report::figure("fig19", config, rows)
}
