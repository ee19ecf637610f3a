//! `repro`: runs the paper's figures and the feature gates.
//!
//! ```text
//! cargo run -p p2kvs-bench --release --bin repro -- <id> [<id> ...]
//! cargo run -p p2kvs-bench --release --bin repro -- figures | gates | all
//! ```
//!
//! Ids: the figures fig1 fig4 fig5 fig6 fig7 fig8 tab1 fig12 fig13 fig14
//! fig15 fig16 fig17 fig18 fig19 fig20 fig21 fig22 fig23 ablate
//! (`figures`), and the gates backup_under_load scan_interference
//! skew_rebalance cache_hitrate compaction_stall (`gates`);
//! `all` is both. Each scenario prints its tables and writes
//! `BENCH_<name>.json` into `$P2KVS_METRICS_DIR` when set, the working
//! directory otherwise; with the variable set, every store it closes also
//! writes its metrics snapshot there. Op counts scale with `P2KVS_SCALE`
//! and each gate's seed comes from its `P2KVS_*_SEED` variable (default
//! fixed). **Exits 1 when a scenario fails** (its gate, or any failed
//! call), 2 on an unknown id.

use p2kvs_bench::artifact::{run_scenario, Scenario};
use p2kvs_bench::{FIGURES, SCENARIOS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let every = || FIGURES.iter().chain(&SCENARIOS);
    let (mut chosen, mut unknown): (Vec<&Scenario>, bool) = (Vec::new(), false);
    for arg in &args {
        let group: Vec<&Scenario> = match arg.as_str() {
            "figures" => FIGURES.iter().collect(),
            "gates" => SCENARIOS.iter().collect(),
            "all" => every().collect(),
            id => every().filter(|s| s.id == id).collect(),
        };
        if group.is_empty() {
            eprintln!("unknown scenario id: {arg}");
            unknown = true;
        }
        chosen.extend(group);
    }
    if chosen.is_empty() || unknown {
        let ids: Vec<&str> = every().map(|s| s.id).collect();
        eprintln!(
            "usage: repro <id>... | figures | gates | all   (ids: {})",
            ids.join(" ")
        );
        std::process::exit(2);
    }
    let mut ok = true;
    for scenario in chosen {
        ok &= run_scenario(scenario).expect("write the artifact");
    }
    if !ok {
        std::process::exit(1);
    }
}
