//! Benchmark harness regenerating every table and figure of the p2KVS
//! paper.
//!
//! The `repro` binary (`cargo run -p p2kvs-bench --release --bin repro --
//! <id>`) has one subcommand per figure/table and the `gates` binary
//! (`... --bin gates -- <id>|all`) one per feature gate ([`SCENARIOS`]);
//! see `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for
//! recorded results. All
//! experiments run on the simulated Optane NVMe device unless stated
//! otherwise, with op counts scaled by the `P2KVS_SCALE` environment
//! variable (default 1.0 ≈ tens of seconds per figure).

pub mod artifact;
pub mod backupload;
pub mod cachebench;
pub mod clients;
pub mod compstall;
pub mod elastic;
pub mod figures;
pub mod scaninterf;
pub mod setups;
pub mod skew;
pub mod traceov;
pub mod workload;

/// The feature gates, in the order `gates -- all` runs them: one scenario
/// per feature that still guards behaviour, each answering one question
/// (see `DESIGN.md` §4 and the module docs).
pub const SCENARIOS: [artifact::Scenario; 7] = [
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
    artifact::Scenario {
        id: "elastic_scale",
        artifact: "BENCH_elastic",
        question: "diurnal ramp 1x -> 8x -> 1x: auto-scaled pool vs static 8 workers",
        run: elastic::run,
        gate: elastic::gate,
    },
    artifact::Scenario {
        id: "trace_overhead",
        artifact: "BENCH_trace",
        question: "span tracing overhead: disabled vs default 1/64 sampling",
        run: traceov::run,
        gate: traceov::gate,
    },
];

/// `P2KVS_SCALE`: the factor every op count is multiplied by (default 1).
pub fn scale() -> f64 {
    std::env::var("P2KVS_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.001, 1000.0)
}

/// Returns `n` scaled by `P2KVS_SCALE` (min 1).
pub fn scaled(n: u64) -> u64 {
    ((n as f64 * scale()) as u64).max(1)
}

/// The seed a scenario's op streams derive from: `var` when it is set
/// (CI pins it, so a red run names a reproducible schedule), else
/// `default`.
pub fn seed_from_env(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The `p`-quantile (`0.0..=1.0`) of an ascending-sorted sample, by
/// nearest rank; 0 for an empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Simple fixed-width table printer used by every figure.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!(
                "{:<w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", out.trim_end());
    };
    line(header.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a throughput as `K ops/s`.
pub fn kqps(qps: f64) -> String {
    format!("{:.1}", qps / 1e3)
}

/// Formats bytes as MiB.
pub fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1 << 20) as f64)
}

#[cfg(test)]
mod tests {
    #[test]
    fn scaled_respects_min() {
        assert!(super::scaled(10) >= 1);
    }

    #[test]
    fn percentile_is_nearest_rank_and_total() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(super::percentile(&sample, 0.0), 1);
        assert_eq!(super::percentile(&sample, 0.50), 51);
        assert_eq!(super::percentile(&sample, 0.99), 99);
        assert_eq!(super::percentile(&sample, 1.0), 100);
        assert_eq!(super::percentile(&[], 0.99), 0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(super::kqps(12_345.0), "12.3");
        assert_eq!(super::mib(3 << 20), "3.0");
        super::print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }
}
