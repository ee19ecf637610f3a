//! Benchmark harness regenerating every table and figure of the p2KVS
//! paper.
//!
//! Every experiment is an [`artifact::Scenario`]: the paper's figures and
//! tables ([`FIGURES`]) and the feature gates ([`SCENARIOS`]). The one
//! binary, `repro` (`cargo run -p p2kvs-bench --release --bin repro --
//! <id>... | figures | gates | all`), runs each through
//! [`artifact::run_scenario`]: one [`artifact::Report`] printed, written
//! as `BENCH_<id>.json` and judged. See `DESIGN.md` §4 for the experiment
//! index and `EXPERIMENTS.md` for recorded results. All experiments run
//! on the simulated Optane NVMe device unless stated otherwise, with op
//! counts scaled by the `P2KVS_SCALE` environment variable (default 1.0 ≈
//! tens of seconds per figure).

pub mod artifact;
pub mod backupload;
pub mod cachebench;
pub mod clients;
pub mod compstall;
pub mod figures;
pub mod scaninterf;
pub mod setups;
pub mod skew;
pub mod workload;

use figures::{analysis, baselines, evaluation, macrobench, portability};

/// The feature gates, in the order `repro -- gates` runs them: one scenario
/// per feature that still guards behaviour, each answering one question
/// (see `DESIGN.md` §4 and the module docs).
pub const SCENARIOS: [artifact::Scenario; 5] = [
    artifact::Scenario {
        id: "backup_under_load",
        artifact: "BENCH_backup",
        question: "foreground latency: online backup streaming vs idle",
        run: backupload::run,
        gate: backupload::gate,
    },
    artifact::Scenario {
        id: "scan_interference",
        artifact: "BENCH_scan",
        question: "point-GET latency under a concurrent full-store scan",
        run: scaninterf::run,
        gate: scaninterf::gate,
    },
    artifact::Scenario {
        id: "skew_rebalance",
        artifact: "BENCH_skew",
        question: "zipfian tenant skew: static map vs skew-aware rebalancing",
        run: skew::run,
        gate: skew::gate,
    },
    artifact::Scenario {
        id: "cache_hitrate",
        artifact: "BENCH_cache",
        question: "zipfian hot-set read cache: capacity sweep (% of hot-set bytes)",
        run: cachebench::run,
        gate: cachebench::gate,
    },
    artifact::Scenario {
        id: "compaction_stall",
        artifact: "BENCH_compaction",
        question: "write stalls: serial single-queue vs parallel multi-queue compaction",
        run: compstall::run,
        gate: compstall::gate,
    },
];

/// The paper's figures and tables, in the order `repro -- figures` runs
/// them. Each reports its measurements; none has a gate yet apart from
/// Fig 8's count of flushes (see `EXPERIMENTS.md` for the claims).
pub const FIGURES: [artifact::Scenario; 20] = [
    figure(
        "fig1",
        "BENCH_fig1",
        "Fig 1: RocksDB single-instance KQPS by device class, 128 B KV (1a: 1 thread, 1b: 8)",
        analysis::fig1,
    ),
    figure(
        "fig4",
        "BENCH_fig4",
        "Fig 4: one writer on NVMe: bandwidth and CPU timeline, and the run's utilization",
        analysis::fig4,
    ),
    figure(
        "fig5",
        "BENCH_fig5",
        "Fig 5: concurrent fillrandom, 128 B: KQPS (5a), single-instance IO (5b) and CPU (5c)",
        analysis::fig5,
    ),
    figure(
        "fig6",
        "BENCH_fig6",
        "Fig 6: single-instance average per-write us by stage (128 B fillrandom)",
        analysis::fig6,
    ),
    figure(
        "fig7",
        "BENCH_fig7",
        "Fig 7: WriteBatch size vs WAL bandwidth and CPU (memtable skipped)",
        analysis::fig7,
    ),
    artifact::Scenario {
        id: "fig8",
        artifact: "BENCH_fig8",
        question: "Fig 8: WAL-only and MemTable-only KQPS, single vs multi instance (128 B)",
        run: analysis::fig8,
        gate: analysis::fig8_gate,
    },
    figure(
        "tab1",
        "BENCH_tab1",
        "Table 1: YCSB workloads",
        macrobench::tab1,
    ),
    figure(
        "fig12",
        "BENCH_fig12",
        "Fig 12 / Table 2: 16-thread fillrandom (128 B): KQPS, IO amp, bandwidth; memory, CPU",
        evaluation::fig12,
    ),
    figure(
        "fig13",
        "BENCH_fig13",
        "Fig 13: fillrandom latency (us, from each call's slot) vs offered load, 16 threads",
        evaluation::fig13,
    ),
    figure(
        "fig14",
        "BENCH_fig14",
        "Fig 14: point-query KQPS, 32 threads, dataset >> cache (io_bound: device 20x slower)",
        evaluation::fig14,
    ),
    figure(
        "fig15",
        "BENCH_fig15",
        "Fig 15: RANGE and SCAN ops/s by scan size, one user thread",
        evaluation::fig15,
    ),
    figure(
        "fig16",
        "BENCH_fig16",
        "Fig 16: YCSB KQPS (128 B), RocksDB vs p2KVS-4/8 (16a: 8 threads, 16b: 32)",
        macrobench::fig16,
    ),
    figure(
        "fig17",
        "BENCH_fig17",
        "Fig 17: KQPS by workers and OBM, 32 threads (x: vs 1 worker without OBM)",
        macrobench::fig17,
    ),
    figure(
        "fig18",
        "BENCH_fig18",
        "Fig 18: p2KVS-8 speedup over RocksDB by KV size, 32 threads",
        macrobench::fig18,
    ),
    figure(
        "fig19",
        "BENCH_fig19",
        "Fig 19: YCSB KQPS at 1 KB KV, 32 threads",
        macrobench::fig19,
    ),
    figure(
        "fig20",
        "BENCH_fig20",
        "Fig 20: YCSB KQPS, KVell vs p2KVS (128 B, 32 threads)",
        baselines::fig20,
    ),
    figure(
        "fig21",
        "BENCH_fig21",
        "Fig 21: utilization under fillrandom (CPU in % of one core; per-core: busiest worker)",
        baselines::fig21,
    ),
    figure(
        "fig22",
        "BENCH_fig22",
        "Fig 22: LevelDB vs p2KVS over LevelDB, random write/read KQPS (threads = instances)",
        portability::fig22,
    ),
    figure(
        "fig23",
        "BENCH_fig23",
        "Fig 23: WiredTiger vs p2KVS over WiredTiger, write/read KQPS (threads = instances)",
        portability::fig23,
    ),
    figure(
        "ablate",
        "BENCH_ablate",
        "Ablations: OBM batch bound M, 4 workers; hash partitioning under zipfian skew",
        portability::ablate,
    ),
];

/// A figure's scenario: it reports, and only a failed call fails it.
const fn figure(
    id: &'static str,
    artifact: &'static str,
    question: &'static str,
    run: fn() -> artifact::Report,
) -> artifact::Scenario {
    artifact::Scenario {
        id,
        artifact,
        question,
        run,
        gate: artifact::ungated,
    }
}

/// The value of `var` parsed as a `T`, `default` when the variable is
/// unset. A value that does not parse panics naming the variable: falling
/// back would replay another schedule, or run at another scale, than the
/// one the caller asked for.
fn from_env<T: std::str::FromStr>(var: &str, what: &str, default: T) -> T {
    match std::env::var(var) {
        Err(_) => default,
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("{var} must be {what}, not {s:?}")),
    }
}

/// `P2KVS_SCALE`: the factor every op count is multiplied by (default 1).
pub fn scale() -> f64 {
    from_env("P2KVS_SCALE", "a number", 1.0f64).clamp(0.001, 1000.0)
}

/// Returns `n` scaled by `P2KVS_SCALE` (min 1).
pub fn scaled(n: u64) -> u64 {
    ((n as f64 * scale()) as u64).max(1)
}

/// The seed a scenario's op streams derive from: `var` when it is set
/// (CI pins it, so a red run names a reproducible schedule), else
/// `default`. The value is decimal; anything else panics.
pub fn seed_from_env(var: &str, default: u64) -> u64 {
    from_env(var, "a decimal u64", default)
}

#[cfg(test)]
mod tests {
    #[test]
    fn scaled_respects_min() {
        assert!(super::scaled(10) >= 1);
    }

    /// The hex form CI's comments print beside each seed is not a seed.
    #[test]
    #[should_panic(expected = "P2KVS_UNPARSABLE_TEST_SEED must be a decimal u64")]
    fn an_unparsable_seed_panics_naming_its_variable() {
        std::env::set_var("P2KVS_UNPARSABLE_TEST_SEED", "0xCAC4E5EED");
        super::seed_from_env("P2KVS_UNPARSABLE_TEST_SEED", 7);
    }
}
