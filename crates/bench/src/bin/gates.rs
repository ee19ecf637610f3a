//! `gates`: runs the feature gates.
//!
//! ```text
//! cargo run -p p2kvs-bench --release --bin gates -- <id> [<id> ...]
//! cargo run -p p2kvs-bench --release --bin gates -- all
//! ```
//!
//! Ids: backup_under_load scan_interference skew_rebalance cache_hitrate
//! compaction_stall elastic_scale trace_overhead. Each run prints its
//! table and writes `BENCH_<name>.json` into `$P2KVS_METRICS_DIR` when
//! set, the working directory otherwise; op counts scale with
//! `P2KVS_SCALE` and each scenario's seed comes from its `P2KVS_*_SEED`
//! variable (default fixed). **Exits 1 when a gate fails**, 2 on an
//! unknown id.

use p2kvs_bench::{artifact, SCENARIOS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = SCENARIOS.iter().map(|s| s.id).collect();
    let unknown = args
        .iter()
        .find(|a| *a != "all" && !ids.contains(&a.as_str()));
    if args.is_empty() || unknown.is_some() {
        if let Some(id) = unknown {
            eprintln!("unknown scenario id: {id}");
        }
        eprintln!("usage: gates <id>... | all   (ids: {})", ids.join(" "));
        std::process::exit(2);
    }
    let all = args.iter().any(|a| a == "all");
    let mut ok = true;
    for scenario in SCENARIOS
        .iter()
        .filter(|s| all || args.iter().any(|a| a == s.id))
    {
        ok &= artifact::run_gate(scenario).expect("write the artifact");
    }
    if !ok {
        std::process::exit(1);
    }
}
