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
//! The gate: both configurations converge to byte-identical logical
//! state (an order-independent fold over a full scan) — parallel
//! compaction that drops or duplicates a key is not an optimization.
//! The write-stall time — seconds writers spent blocked on L0/immutable
//! backpressure, summed from the engines' own `engine_stall_ns_total`
//! counters, best (lowest) round per configuration — and its
//! baseline/parallel ratio are reported, not gated: the engines read
//! them off a wall clock. So are the foreground PUT percentiles (p50,
//! p95, p99, max), the latency view of the same story.
//! Values derive from the key alone, so the final state is a function
//! of the touched key set, which the fixed seed makes deterministic.

use p2kvs::P2KvsOptions;
use p2kvs_storage::DeviceProfile;
use p2kvs_util::hash::fnv1a64;
use p2kvs_util::rng::Rng;

use crate::artifact::{best_of, Fields, Report};
use crate::setups;
use crate::workload::{self, GateMix, Run};

/// Worker threads (= shards = parallel-config queues: the paper's
/// square layout, worker *i* pinned to queue *i*).
pub const WORKERS: usize = 4;
/// Client threads issuing the foreground workload.
const CLIENTS: usize = 4;
/// YCSB-A: half the ops are writes — write stalls are the measurement.
const PUT_PERCENT: u64 = 50;
/// Measured rounds per configuration; the summary compares best-of
/// (lowest p99), which tames scheduler noise the same way the backup
/// figure does.
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
    ConfigSpec {
        name: "baseline",
        queues: 1,
        compaction_threads: 1,
        subcompactions: 1,
    },
    ConfigSpec {
        name: "parallel",
        queues: 4,
        compaction_threads: 3,
        subcompactions: 4,
    },
];

fn key_of(i: u64) -> Vec<u8> {
    format!("cst-{i:07}").into_bytes()
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
/// the cross-configuration identity check.
fn measure(spec: ConfigSpec, round: usize, keys: u64, ops: u64, seed: u64) -> Fields {
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
    let env = setups::device_env(profile.with_queues(spec.queues));
    let mut opts = P2KvsOptions::with_workers(WORKERS);
    // Square layout: shards == workers == (parallel) queues, so each
    // worker's WAL/flush traffic has a home queue of its own.
    opts.shards = WORKERS;
    // Cache off: client-side hits would hide the worker-path write
    // stalls being measured.
    opts.cache_capacity = 0;
    let name = format!("cst-{}-{round}", spec.name);
    let client = setups::scenario_store(&name, engine_options(env, spec), opts);
    let store = &client.store;
    workload::load(&client, keys, key_of, VALUE_LEN).expect("load");
    let mix = GateMix {
        seed,
        put_percent: PUT_PERCENT,
        value_len: VALUE_LEN,
        pick: |rng: &mut Rng| key_of(rng.below(keys)),
    };
    let r = workload::drive(&client, &mix, Run::new(CLIENTS, ops, false));

    // Counters after the window: stall time proves the workload really
    // was backpressured, queue activity proves affinity spread it.
    let snap = store.metrics_snapshot();
    let stall_ns: f64 = snap
        .gauges
        .iter()
        .filter(|(n, _)| n.starts_with("engine_stall_ns_total"))
        .map(|(_, v)| v)
        .sum();
    let queues_active = (0..spec.queues)
        .filter(|q| snap.counter(&format!("p2kvs_device_q{q}_bytes_written_total")) > Some(0))
        .count()
        .max(1);

    // The identity fold: order-independent (summed per-entry FNV of key
    // and value), so it only depends on the logical contents, not on
    // scan order or SST layout — the two things the configurations
    // legitimately differ in. Equal folds = identical state.
    let entries = store.range(b"", &[0xffu8; 12]).unwrap();
    let fold = entries.iter().fold(0u64, |acc, (k, v)| {
        acc.wrapping_add(fnv1a64(&[k.as_slice(), v].concat()))
    });

    Fields::new()
        .with("config", spec.name)
        .with("round", round)
        .window(r.ops, r.elapsed.as_secs_f64())
        .with("failed_calls", r.errors)
        .with("p50_put_ns", r.writes.quantile(0.50))
        .with("p95_put_ns", r.writes.quantile(0.95))
        .with("p99_put_ns", r.writes.quantile(0.99))
        .with("max_put_ns", r.writes.max())
        .with("p50_get_ns", r.reads.quantile(0.50))
        .with("p99_get_ns", r.reads.quantile(0.99))
        .float("stall_secs", stall_ns / 1e9, 3)
        .with(
            "compaction_bytes",
            snap.counter("p2kvs_device_compaction_bytes_total")
                .unwrap_or(0),
        )
        .with("queues_active", queues_active)
        .with("read_back_count", entries.len())
        .with("read_back_fold", fold)
}

/// Folds rounds into the summary: best (lowest) stall time and PUT p99
/// per configuration and their ratios, reported (see the module docs),
/// and the read-back identity check, gated.
fn summarize(rows: &[Fields]) -> Fields {
    let stall = |config| best_of(rows, "config", config, "stall_secs").max(1e-9);
    let p99 = |config| best_of(rows, "config", config, "p99_put_ns").max(1.0);
    // Every round of every configuration scanned back the same
    // `(count, fold)`: parallel compaction lost or duplicated nothing.
    let identical = rows.windows(2).all(|w| {
        w[0].get("read_back_count") == w[1].get("read_back_count")
            && w[0].get("read_back_fold") == w[1].get("read_back_fold")
    });
    Fields::new()
        .float("best_baseline_stall_secs", stall("baseline"), 3)
        .float("best_parallel_stall_secs", stall("parallel"), 3)
        .float(
            "stall_improvement_x",
            stall("baseline") / stall("parallel"),
            3,
        )
        .with("best_baseline_put_p99_ns", p99("baseline") as u64)
        .with("best_parallel_put_p99_ns", p99("parallel") as u64)
        .float("put_p99_x", p99("baseline") / p99("parallel"), 3)
        .with("read_back_identical", identical)
}

fn run_sized(rounds: usize, keys: u64, ops: u64, seed: u64) -> Report {
    let mut rows = Vec::new();
    for round in 0..rounds {
        for spec in CONFIGS {
            rows.push(measure(spec, round, keys, ops, seed ^ round as u64));
        }
    }
    Report {
        bench: "compaction_stall",
        seed,
        config: Fields::new()
            .with("workers", WORKERS)
            .with("clients", CLIENTS)
            .with("keys", keys)
            .with("ops_per_round", ops)
            .with("rounds", rounds)
            .with("put_percent", PUT_PERCENT)
            .with("value_len", VALUE_LEN),
        summary: summarize(&rows),
        rows,
    }
}

/// Both configurations for [`ROUNDS`] rounds: 16 000 keys, 24k ops per
/// round (scaled by `P2KVS_SCALE`), seeded by `P2KVS_COMPACTION_SEED`.
pub fn run() -> Report {
    run_sized(
        ROUNDS,
        crate::scaled(16_000),
        crate::scaled(24_000),
        crate::seed_from_env("P2KVS_COMPACTION_SEED", 0xC0_57A11),
    )
}

/// Parallel compaction that drops or duplicates a key is not an
/// optimization: both configurations must converge to identical state.
pub fn gate(summary: &Fields) -> Vec<String> {
    if summary.is("read_back_identical") {
        return Vec::new();
    }
    vec!["baseline and parallel configurations read back different state".into()]
}

/// The scenario at a size a unit test can afford.
#[cfg(test)]
pub(crate) fn smoke() -> Report {
    run_sized(1, 300, 2_000, 7)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(config: &'static str, stall_secs: f64, count: u64, fold: u64) -> Fields {
        Fields::new()
            .with("config", config)
            .with("p99_put_ns", 8_000u64)
            .float("stall_secs", stall_secs, 3)
            .with("read_back_count", count)
            .with("read_back_fold", fold)
    }

    #[test]
    fn summary_reports_stall_improvement_and_gates_identity() {
        // Half the stall time, identical folds: passes.
        let s = summarize(&[
            synthetic("baseline", 0.8, 300, 42),
            synthetic("parallel", 0.4, 300, 42),
        ]);
        assert!((s.num("stall_improvement_x") - 2.0).abs() < 1e-9);
        assert!(s.is("read_back_identical") && gate(&s).is_empty());
        // No stall improvement is reported, not gated.
        let s = summarize(&[
            synthetic("baseline", 0.4, 300, 42),
            synthetic("parallel", 0.4, 300, 42),
        ]);
        assert!((s.num("stall_improvement_x") - 1.0).abs() < 1e-9);
        assert!(gate(&s).is_empty());
        // Less stalling but the folds disagree: the gate trips.
        let s = summarize(&[
            synthetic("baseline", 0.8, 300, 42),
            synthetic("parallel", 0.4, 300, 43),
        ]);
        assert!(!s.is("read_back_identical"));
        assert_eq!(gate(&s).len(), 1);
    }

    #[test]
    fn tiny_run_converges_to_identical_state_and_renders_schema() {
        let report = smoke();
        assert_eq!(report.failed_calls(), 0, "a call of the windows failed");
        let (baseline, parallel) = (&report.rows[0], &report.rows[1]);
        assert!(baseline.int("ops") > 0 && parallel.int("ops") > 0);
        assert_eq!(baseline.int("queues_active"), 1);
        assert!(
            parallel.int("queues_active") >= 2,
            "affinity spread nothing"
        );
        assert_eq!(
            baseline.int("read_back_count"),
            300,
            "scan must see every key"
        );
        assert_eq!(
            baseline.int("read_back_fold"),
            parallel.int("read_back_fold")
        );
        assert!(baseline.int("p50_put_ns") <= baseline.int("p99_put_ns"));
        assert!(report.summary.is("read_back_identical"));
        assert!(parallel.has("config", "parallel"));
    }
}
