//! Compaction-stall scenario benchmark: write-tail latency on a
//! compaction-heavy YCSB-A-style load, single-queue serial compaction
//! versus multi-queue parallel subcompactions, writing
//! `BENCH_compaction.json`.
//!
//! The scenario is the one the multi-queue device and queue-aware
//! parallel compaction exist for (DESIGN.md §13): a store whose L0
//! keeps tripping the slowdown/stop triggers, so foreground PUTs stall
//! behind compaction. Both configurations run the identical
//! deterministic workload on a device with the *same aggregate*
//! simulated capacity (`with_queues` splits bandwidth, it does not add
//! any); the only differences are queue count, compaction parallelism,
//! and queue affinity:
//!
//! * `baseline` — one submission queue, one compaction thread, no
//!   subcompaction splitting: WAL syncs, flushes, and compaction I/O
//!   all serialize on one device timeline.
//! * `parallel` — four queues with queue affinity on, three compaction
//!   threads, four-way subcompactions spread across queues.
//!
//! The gate: the parallel configuration's write-stall time — seconds
//! writers spent blocked on L0/immutable backpressure, summed from the
//! engines' own `engine_stall_ns_total` counters, best (lowest) round
//! per configuration — must be at least [`MIN_STALL_IMPROVEMENT_X`]×
//! lower than the baseline's, **and** both configurations must
//! converge to byte-identical logical state (an order-independent fold
//! over a full scan) — parallel compaction that drops or duplicates a
//! key is not an optimization. Foreground PUT percentiles (p50, p95,
//! p99, max) are recorded in the artifact for the latency view of the
//! same story; they are reported, not gated, because at device
//! saturation the put tail mixes in WAL-writeback service time that
//! both configurations pay identically.
//! Values derive from the key alone, so the final state is a function
//! of the touched key set, which the fixed seed makes deterministic.
//! No `rand` dependency: the same LCG as the other figures.

use std::path::{Path, PathBuf};
use std::time::Instant;

use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, P2KvsOptions};
use p2kvs_storage::{DeviceProfile, SimEnv};

/// Gate: the parallel configuration's write-stall seconds (best round)
/// must be at least this many times lower than the baseline's (1.25 =
/// 25% less time stalled). Measured headroom is ~1.5–2.0× across
/// seeds and scales; the margin absorbs host scheduler noise.
pub const MIN_STALL_IMPROVEMENT_X: f64 = 1.25;
/// Worker threads (= shards = parallel-config queues: the paper's
/// square layout, worker *i* pinned to queue *i*).
pub const WORKERS: usize = 4;
/// Client threads issuing the foreground workload.
const CLIENTS: usize = 4;
/// YCSB-A: half the ops are writes — write stalls are the measurement.
const PUT_PERCENT: u64 = 50;
/// Measured rounds per configuration; the summary compares best-of
/// (lowest p99), which tames scheduler noise the same way the backup
/// and trace-overhead figures do.
const ROUNDS: usize = 2;
/// Value payload size; large enough that the preload plus updates
/// overflow the tiny memtables many times over.
const VALUE_LEN: usize = 512;

/// One benchmark configuration: device queue layout plus compaction
/// parallelism. Both run the same workload, engine sizing, and device
/// capacity.
#[derive(Debug, Clone, Copy)]
pub struct ConfigSpec {
    /// `baseline` or `parallel`.
    pub name: &'static str,
    /// Submission queues the simulated device exposes.
    pub queues: usize,
    /// Background compaction threads per engine instance.
    pub compaction_threads: usize,
    /// Maximum key-range subcompactions per compaction job.
    pub subcompactions: usize,
}

/// The two measured configurations.
pub const CONFIGS: [ConfigSpec; 2] = [
    ConfigSpec { name: "baseline", queues: 1, compaction_threads: 1, subcompactions: 1 },
    ConfigSpec { name: "parallel", queues: 4, compaction_threads: 3, subcompactions: 4 },
];

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Numerical Recipes LCG constants.
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

fn key_of(i: u64) -> Vec<u8> {
    format!("cst-{i:07}").into_bytes()
}

/// Values derive from the key alone, so re-puts are idempotent and the
/// final logical state depends only on which keys were ever touched —
/// identical across configurations by construction, which is what the
/// read-back fold verifies survived two very different compaction
/// pipelines.
fn value_of(key: &[u8]) -> Vec<u8> {
    let mut h = 0xcbf29ce484222325u64;
    for b in key {
        h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
    }
    let mut v = Vec::with_capacity(VALUE_LEN);
    while v.len() < VALUE_LEN {
        v.extend_from_slice(&h.to_le_bytes());
        h = h.wrapping_mul(0x100000001b3);
    }
    v.truncate(VALUE_LEN);
    v
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for b in bytes {
        h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// One configuration × round measurement.
#[derive(Debug, Clone)]
pub struct CompactionStallResult {
    /// Configuration name (`baseline` or `parallel`).
    pub config: &'static str,
    /// Round index within the configuration.
    pub round: usize,
    /// Foreground ops completed in the window.
    pub ops: u64,
    /// Wall-clock seconds of the window.
    pub wall_secs: f64,
    /// Aggregate foreground throughput over the window.
    pub throughput_ops_sec: f64,
    /// Foreground PUT latency percentiles, nanoseconds. p99 is the
    /// gated number — it is where L0/imm backpressure stalls surface.
    pub p50_put_ns: u64,
    /// PUT p95, nanoseconds.
    pub p95_put_ns: u64,
    /// PUT p99 — the gated number.
    pub p99_put_ns: u64,
    /// Worst PUT seen, nanoseconds.
    pub max_put_ns: u64,
    /// Foreground GET latency percentiles, nanoseconds.
    pub p50_get_ns: u64,
    /// GET p99 (reported, not gated).
    pub p99_get_ns: u64,
    /// Seconds writers spent inside engine write stalls (summed
    /// `engine_stall_ns_total` across instances).
    pub stall_secs: f64,
    /// Bytes of compaction output the device absorbed.
    pub compaction_bytes: u64,
    /// Device submission queues that saw write traffic.
    pub queues_active: usize,
    /// Order-independent fold over a full scan: `count` and the summed
    /// per-entry FNV of key and value. Equal folds = identical state.
    pub read_back_count: u64,
    /// See [`CompactionStallResult::read_back_count`].
    pub read_back_fold: u64,
}

/// The artifact's summary block: best-of-round stall time and PUT p99
/// per configuration, the improvement ratios, and the two gates.
#[derive(Debug, Clone)]
pub struct CompactionStallSummary {
    /// All measured rounds, both configurations.
    pub results: Vec<CompactionStallResult>,
    /// Lowest write-stall seconds across baseline rounds.
    pub best_baseline_stall_secs: f64,
    /// Lowest write-stall seconds across parallel rounds.
    pub best_parallel_stall_secs: f64,
    /// `best_baseline_stall_secs / best_parallel_stall_secs` — how many
    /// times less time the parallel configuration spent stalled. The
    /// gated number.
    pub stall_improvement_x: f64,
    /// Lowest PUT p99 across baseline rounds, nanoseconds (reported).
    pub best_baseline_put_p99_ns: u64,
    /// Lowest PUT p99 across parallel rounds, nanoseconds (reported).
    pub best_parallel_put_p99_ns: u64,
    /// `best_baseline_put_p99_ns / best_parallel_put_p99_ns`
    /// (reported, not gated — see the module docs).
    pub put_p99_x: f64,
    /// Every round of every configuration scanned back the same
    /// `(count, fold)` — parallel compaction lost or duplicated
    /// nothing.
    pub read_back_identical: bool,
    /// `stall_improvement_x >= MIN_STALL_IMPROVEMENT_X` **and**
    /// `read_back_identical` — what the CI job asserts.
    pub within_gate: bool,
}

/// Engine sizing shared by both configurations: memtables and files
/// small enough that the workload tripping over the L0 slowdown/stop
/// triggers is the steady state, not an accident.
fn engine_options(env: p2kvs_storage::EnvRef, spec: ConfigSpec) -> lsmkv::Options {
    let mut lsm = lsmkv::Options::rocksdb_like(env);
    lsm.memtable_size = 48 << 10;
    // Roomy immutable queue, tight L0 triggers: rotation almost never
    // blocks on the (inherently serial) flush, so the write stalls the
    // figure measures are L0-stop waits — the kind whose duration is a
    // compaction job's wall time, which subcompactions divide.
    lsm.max_immutable_memtables = 3;
    // Files much smaller than levels, so every level holds many files
    // and `partition_bounds` has real key boundaries to split
    // subcompactions on — with one file per level the parallel
    // configuration silently degenerates to serial.
    lsm.target_file_size = 16 << 10;
    // A deep, narrow tree: every flush cascades through several
    // levels, so compaction demand is a large multiple of ingest and
    // the serial baseline cannot drain L0 at any ingest rate — the
    // backpressure is structural, not a race the closed-loop clients
    // can pace away.
    lsm.base_level_size = 64 << 10;
    lsm.level_multiplier = 4;
    lsm.l0_compaction_trigger = 4;
    lsm.l0_slowdown_trigger = 5;
    lsm.l0_stop_trigger = 6;
    // A cache big enough to serve the read half of YCSB-A from memory:
    // GETs paying multi-ms simulated block reads would throttle the
    // closed-loop clients long before the write path backpressures,
    // and the write path is the measurement.
    lsm.block_cache_size = 8 << 20;
    // Buffered logging: puts do not pay device time per group, so
    // ingest runs at memtable speed and write tails are set by
    // flush/compaction backpressure — the stalls this figure exists to
    // measure — not by per-op WAL transfer time.
    lsm.sync = lsmkv::SyncPolicy::Buffered;
    lsm.compaction_threads = spec.compaction_threads;
    lsm.subcompactions = spec.subcompactions;
    lsm
}

/// Measures one configuration round: preload, run the 50/50 client
/// window, read the engine/device counters, then fold a full scan for
/// the cross-configuration identity check. Deterministic per
/// `(seed, client index)`.
pub fn measure(spec: ConfigSpec, round: usize, keys: u64, ops: u64, seed: u64) -> CompactionStallResult {
    // A throttled SATA-class device, not the Optane profile: the
    // figure needs background drain (flush + compaction) to lag the
    // memtable-speed ingest so the L0 slowdown/stop triggers actually
    // trip — on the stock profiles this workload never backpressures
    // and there is no stall to measure. Per-stream bandwidth and IO
    // latencies are identical in both configurations; what differs is
    // how much of the device's parallelism the submission layout can
    // *express*: `with_queues` floors per-queue depth at one, so on
    // this low-depth device (2 channels) a single queue holds two IOs
    // in flight while four queues hold four — the paper's core claim
    // that one submission stream cannot keep a parallel SSD busy.
    let mut profile = DeviceProfile::sata_ssd();
    profile.read_bw = 3 << 20;
    profile.write_bw = 3 << 20;
    // Fine-grained writeback: 16 KiB chunks keep any one buffered
    // flush from monopolizing a depth-1 queue for tens of
    // milliseconds, which would swamp the placement signal with
    // chunk-granularity noise.
    profile.writeback_threshold = 16 << 10;
    let env: p2kvs_storage::EnvRef =
        std::sync::Arc::new(SimEnv::with_profile(profile.with_queues(spec.queues)));
    let lsm = engine_options(env, spec);
    let mut opts = P2KvsOptions::with_workers(WORKERS);
    opts.pin_workers = false;
    // Square layout: shards == workers == (parallel) queues, so each
    // worker's WAL/flush traffic has a home queue of its own.
    opts.shards = WORKERS;
    // Cache off: client-side hits would hide the worker-path write
    // stalls being measured.
    opts.cache_capacity = 0;
    let name = format!("cst-{}-{round}", spec.name);
    let store = P2Kvs::open(LsmFactory::new(lsm), &name, opts).unwrap();
    for i in 0..keys {
        let k = key_of(i);
        store.put(&k, &value_of(&k)).unwrap();
    }

    let per_client = (ops / CLIENTS as u64).max(1);
    let began = Instant::now();
    let (mut gets, mut puts) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let store = &store;
                s.spawn(move || {
                    let mut rng = Lcg(seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(c as u64 + 1)));
                    let mut gets = Vec::new();
                    let mut puts = Vec::with_capacity(per_client as usize);
                    for _ in 0..per_client {
                        let key = key_of(rng.next() % keys);
                        if rng.next() % 100 < PUT_PERCENT {
                            let t = Instant::now();
                            store.put(&key, &value_of(&key)).unwrap();
                            puts.push(t.elapsed().as_nanos() as u64);
                        } else {
                            let t = Instant::now();
                            let got = store.get(&key).unwrap();
                            gets.push(t.elapsed().as_nanos() as u64);
                            assert!(got.is_some(), "preloaded key missing");
                        }
                    }
                    (gets, puts)
                })
            })
            .collect();
        let mut gets = Vec::new();
        let mut puts = Vec::new();
        for h in handles {
            let (g, p) = h.join().unwrap();
            gets.extend(g);
            puts.extend(p);
        }
        (gets, puts)
    });
    let wall_secs = began.elapsed().as_secs_f64();
    let ops_done = (gets.len() + puts.len()) as u64;

    // Counters after the window: stall time proves the workload really
    // was backpressured, queue activity proves affinity spread it.
    let snap = store.metrics_snapshot();
    let stall_ns: f64 = snap
        .gauges
        .iter()
        .filter(|(n, _)| n.starts_with("engine_stall_ns_total"))
        .map(|(_, v)| v)
        .sum();
    let compaction_bytes = snap
        .counters
        .iter()
        .find(|(n, _)| n == "p2kvs_device_compaction_bytes_total")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    let queues_active = if spec.queues > 1 {
        (0..spec.queues)
            .filter(|q| {
                snap.counters
                    .iter()
                    .any(|(n, v)| n == &format!("p2kvs_device_q{q}_bytes_written_total") && *v > 0)
            })
            .count()
    } else {
        1
    };

    // The identity fold: order-independent (summed per-entry FNV), so
    // it only depends on the logical contents, not on scan order or
    // SST layout — the two things the configurations legitimately
    // differ in.
    let entries = store.range(b"", &[0xffu8; 12]).unwrap();
    let read_back_count = entries.len() as u64;
    let mut read_back_fold = 0u64;
    for (k, v) in &entries {
        read_back_fold = read_back_fold.wrapping_add(fnv(fnv(0xcbf29ce484222325, k), v));
    }
    store.close();

    gets.sort_unstable();
    puts.sort_unstable();
    CompactionStallResult {
        config: spec.name,
        round,
        ops: ops_done,
        wall_secs,
        throughput_ops_sec: ops_done as f64 / wall_secs.max(1e-9),
        p50_put_ns: crate::percentile(&puts, 0.50),
        p95_put_ns: crate::percentile(&puts, 0.95),
        p99_put_ns: crate::percentile(&puts, 0.99),
        max_put_ns: puts.last().copied().unwrap_or(0),
        p50_get_ns: crate::percentile(&gets, 0.50),
        p99_get_ns: crate::percentile(&gets, 0.99),
        stall_secs: stall_ns / 1e9,
        compaction_bytes,
        queues_active,
        read_back_count,
        read_back_fold,
    }
}

/// Folds rounds into the gated summary: best (lowest) stall time and
/// PUT p99 per configuration, the improvement ratios, the read-back
/// identity check, and the gate verdict.
pub fn summarize(results: Vec<CompactionStallResult>) -> CompactionStallSummary {
    let best_p99 = |config: &str| -> u64 {
        results
            .iter()
            .filter(|r| r.config == config)
            .map(|r| r.p99_put_ns)
            .min()
            .unwrap_or(0)
            .max(1)
    };
    let best_stall = |config: &str| -> f64 {
        results
            .iter()
            .filter(|r| r.config == config)
            .map(|r| r.stall_secs)
            .fold(f64::INFINITY, f64::min)
            .max(1e-9)
    };
    let best_baseline_stall_secs = best_stall("baseline");
    let best_parallel_stall_secs = best_stall("parallel");
    let stall_improvement_x = best_baseline_stall_secs / best_parallel_stall_secs;
    let best_baseline_put_p99_ns = best_p99("baseline");
    let best_parallel_put_p99_ns = best_p99("parallel");
    let put_p99_x = best_baseline_put_p99_ns as f64 / best_parallel_put_p99_ns as f64;
    let read_back_identical = results
        .windows(2)
        .all(|w| w[0].read_back_count == w[1].read_back_count && w[0].read_back_fold == w[1].read_back_fold);
    CompactionStallSummary {
        results,
        best_baseline_stall_secs,
        best_parallel_stall_secs,
        stall_improvement_x,
        best_baseline_put_p99_ns,
        best_parallel_put_p99_ns,
        put_p99_x,
        read_back_identical,
        within_gate: stall_improvement_x >= MIN_STALL_IMPROVEMENT_X && read_back_identical,
    }
}

/// Renders the `BENCH_compaction.json` artifact.
pub fn render_json(summary: &CompactionStallSummary, keys: u64, ops: u64, seed: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        &crate::artifact::RunMeta::new("compaction_stall", seed)
            .num("workers", WORKERS)
            .num("clients", CLIENTS)
            .num("keys", keys)
            .num("ops_per_round", ops)
            .num("rounds", ROUNDS)
            .num("put_percent", PUT_PERCENT)
            .num("value_len", VALUE_LEN)
            .num("min_improvement_x", MIN_STALL_IMPROVEMENT_X)
            .render(),
    );
    s.push_str(&format!(
        "  \"best_baseline_stall_secs\": {:.3}, \"best_parallel_stall_secs\": {:.3},\n",
        summary.best_baseline_stall_secs, summary.best_parallel_stall_secs
    ));
    s.push_str(&format!(
        "  \"stall_improvement_x\": {:.3},\n",
        summary.stall_improvement_x
    ));
    s.push_str(&format!(
        "  \"best_baseline_put_p99_ns\": {}, \"best_parallel_put_p99_ns\": {}, \"put_p99_x\": {:.3},\n",
        summary.best_baseline_put_p99_ns, summary.best_parallel_put_p99_ns, summary.put_p99_x
    ));
    s.push_str(&format!(
        "  \"read_back_identical\": {}, \"within_gate\": {},\n",
        summary.read_back_identical, summary.within_gate
    ));
    s.push_str("  \"results\": [\n");
    for (i, r) in summary.results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"config\": \"{}\", \"round\": {}, \"ops\": {}, \
             \"wall_secs\": {:.3}, \"throughput_ops_sec\": {:.1}, \
             \"p50_put_ns\": {}, \"p95_put_ns\": {}, \"p99_put_ns\": {}, \"max_put_ns\": {}, \
             \"p50_get_ns\": {}, \"p99_get_ns\": {}, \
             \"stall_secs\": {:.3}, \"compaction_bytes\": {}, \
             \"queues_active\": {}, \"read_back_count\": {}, \
             \"read_back_fold\": {}}}{}\n",
            r.config,
            r.round,
            r.ops,
            r.wall_secs,
            r.throughput_ops_sec,
            r.p50_put_ns,
            r.p95_put_ns,
            r.p99_put_ns,
            r.max_put_ns,
            r.p50_get_ns,
            r.p99_get_ns,
            r.stall_secs,
            r.compaction_bytes,
            r.queues_active,
            r.read_back_count,
            r.read_back_fold,
            if i + 1 == summary.results.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Where the artifact goes: `$P2KVS_METRICS_DIR` when set, the working
/// directory otherwise.
pub fn artifact_path() -> PathBuf {
    match std::env::var(crate::artifact::METRICS_DIR_ENV) {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir).join("BENCH_compaction.json"),
        _ => PathBuf::from("BENCH_compaction.json"),
    }
}

/// Runs both configurations for [`ROUNDS`] rounds (16 000 keys, 24k ops
/// per round, scaled by `P2KVS_SCALE`; seed from
/// `P2KVS_COMPACTION_SEED`, default fixed — the same variable the CI
/// job pins) and writes `BENCH_compaction.json` to `path`.
pub fn run_default(path: &Path) -> std::io::Result<CompactionStallSummary> {
    let keys = crate::scaled(16_000);
    let ops = crate::scaled(24_000);
    let seed = std::env::var("P2KVS_COMPACTION_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0_57A11);

    let mut results = Vec::new();
    for round in 0..ROUNDS {
        for spec in CONFIGS {
            results.push(measure(spec, round, keys, ops, seed ^ round as u64));
        }
    }
    let summary = summarize(results);

    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_json(&summary, keys, ops, seed))?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(
        config: &'static str,
        stall_secs: f64,
        count: u64,
        fold: u64,
    ) -> CompactionStallResult {
        CompactionStallResult {
            config,
            round: 0,
            ops: 1000,
            wall_secs: 0.5,
            throughput_ops_sec: 2000.0,
            p50_put_ns: 2_000,
            p95_put_ns: 4_000,
            p99_put_ns: 8_000,
            max_put_ns: 16_000,
            p50_get_ns: 500,
            p99_get_ns: 2_000,
            stall_secs,
            compaction_bytes: 1 << 20,
            queues_active: if config == "parallel" { 4 } else { 1 },
            read_back_count: count,
            read_back_fold: fold,
        }
    }

    #[test]
    fn summary_gates_on_stall_improvement_and_identity() {
        // Half the stall time, identical folds: passes.
        let s = summarize(vec![
            synthetic("baseline", 0.8, 300, 42),
            synthetic("parallel", 0.4, 300, 42),
        ]);
        assert!((s.stall_improvement_x - 2.0).abs() < 1e-9);
        assert!(s.read_back_identical && s.within_gate);
        // Less stalling but the folds disagree: the identity half trips.
        let s = summarize(vec![
            synthetic("baseline", 0.8, 300, 42),
            synthetic("parallel", 0.4, 300, 43),
        ]);
        assert!(!s.read_back_identical && !s.within_gate);
        // Identical folds but no stall improvement: the stall half trips.
        let s = summarize(vec![
            synthetic("baseline", 0.4, 300, 42),
            synthetic("parallel", 0.4, 300, 42),
        ]);
        assert!(s.read_back_identical && !s.within_gate);
    }

    #[test]
    fn tiny_run_converges_to_identical_state_and_renders_schema() {
        let baseline = measure(CONFIGS[0], 0, 300, 2_000, 7);
        let parallel = measure(CONFIGS[1], 0, 300, 2_000, 7);
        assert!(baseline.ops > 0 && parallel.ops > 0);
        assert_eq!(baseline.queues_active, 1);
        assert!(parallel.queues_active >= 2, "affinity spread nothing");
        assert_eq!(baseline.read_back_count, 300, "scan must see every key");
        assert_eq!(baseline.read_back_count, parallel.read_back_count);
        assert_eq!(baseline.read_back_fold, parallel.read_back_fold);
        assert!(baseline.p50_put_ns <= baseline.p99_put_ns);
        let summary = summarize(vec![baseline, parallel]);
        assert!(summary.read_back_identical);
        let json = render_json(&summary, 300, 2_000, 7);
        assert!(json.contains("\"bench\": \"compaction_stall\""));
        assert!(json.contains("\"config\": \"parallel\""));
        assert!(json.contains("stall_improvement_x"));
        let v = crate::artifact::validate_schema(&json);
        assert!(v.is_empty(), "{v:?}");
    }
}
