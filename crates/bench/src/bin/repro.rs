//! `repro`: regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p p2kvs-bench --release --bin repro -- <id> [<id> ...]
//! cargo run -p p2kvs-bench --release --bin repro -- all
//! ```
//!
//! Ids: fig1 fig4 fig5 fig6 fig7 fig8 tab1 fig12 tab2 fig13 fig14 fig15
//! fig16 fig17 fig18 fig19 fig20 fig21 fig22 fig23 ablate.
//! Scale op counts with `P2KVS_SCALE` (e.g. `P2KVS_SCALE=0.2` for a quick
//! pass).

use p2kvs_bench::{artifact, figures, workload};

fn run(id: &str) -> bool {
    let t0 = std::time::Instant::now();
    // Stores closed during this experiment write their final metrics
    // snapshot as `<id>-<seq>.metrics.json` under P2KVS_METRICS_DIR.
    artifact::set_experiment(id);
    match id {
        "fig1" => figures::analysis::fig1(),
        "fig4" => figures::analysis::fig4(),
        "fig5" => figures::analysis::fig5(),
        "fig6" => figures::analysis::fig6(),
        "fig7" => figures::analysis::fig7(),
        "fig8" => figures::analysis::fig8(),
        "tab1" => figures::macrobench::tab1(),
        "fig12" | "tab2" => figures::evaluation::fig12_tab2(),
        "fig13" => figures::evaluation::fig13(),
        "fig14" => figures::evaluation::fig14(),
        "fig15" => figures::evaluation::fig15(),
        "fig16" => figures::macrobench::fig16(),
        "fig17" => figures::macrobench::fig17(),
        "fig18" => figures::macrobench::fig18(),
        "fig19" => figures::macrobench::fig19(),
        "fig20" => figures::baselines::fig20(),
        "fig21" => figures::baselines::fig21(),
        "fig22" => figures::portability::fig22(),
        "fig23" => figures::portability::fig23(),
        "ablate" => figures::portability::ablate(),
        other => {
            eprintln!("unknown experiment id: {other}");
            return false;
        }
    }
    println!("[{id} done in {:.1}s]", t0.elapsed().as_secs_f64());
    // A table whose rows counted failed calls measured nothing.
    match workload::take_failed_calls() {
        0 => true,
        failed => {
            eprintln!("{id}: {failed} calls failed");
            false
        }
    }
}

const ALL: &[&str] = &[
    "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "tab1", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "ablate",
];

fn main() {
    // Metrics artifacts default on for repro runs; export
    // P2KVS_METRICS_DIR="" to disable or point it elsewhere.
    if std::env::var_os(p2kvs_bench::artifact::METRICS_DIR_ENV).is_none() {
        std::env::set_var(p2kvs_bench::artifact::METRICS_DIR_ENV, "repro_metrics");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: repro <id>... | all   (ids: {})", ALL.join(" "));
        std::process::exit(2);
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let mut ok = true;
    for id in ids {
        ok &= run(id);
    }
    if !ok {
        std::process::exit(2);
    }
}
