//! Benchmark harness regenerating every table and figure of the p2KVS
//! paper.
//!
//! The `repro` binary (`cargo run -p p2kvs-bench --release --bin repro --
//! <id>`) has one subcommand per figure/table; see `DESIGN.md` §4 for the
//! experiment index and `EXPERIMENTS.md` for recorded results. All
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

/// Returns `n` scaled by `P2KVS_SCALE` (min 1).
pub fn scaled(n: u64) -> u64 {
    let scale = std::env::var("P2KVS_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.001, 1000.0);
    ((n as f64 * scale) as u64).max(1)
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
