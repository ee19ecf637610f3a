//! `p2kvs-benchmark`: the repository's one end-to-end benchmark.
//!
//! ```text
//! p2kvs-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--dump-trace FILE]
//! p2kvs-benchmark --selftest
//! ```
//!
//! A run prints a header (everything needed to compare it with another
//! run), every metric by name with its unit, and as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. See
//! `benchmark/README.md`.

mod gen;
mod micro;
mod run;
mod selftest;
mod setup;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::Workload;

fn usage() -> ExitCode {
    eprintln!(
        "usage: p2kvs-benchmark --workload {{fill|read_hot|read_cold|mixed}} \
         [--seed N] [--seconds S] [--trace 0|1] [--dump-trace FILE]\n       \
         p2kvs-benchmark --selftest"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    for var in setup::FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("refusing to run with {var} set: results would not be comparable");
            return ExitCode::from(2);
        }
    }
    let mut cfg = run::Config {
        workload: Workload::Fill,
        seed: 1,
        seconds: 30.0,
        trace: false,
        dump_trace: None,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        match arg.as_str() {
            "--selftest" => return selftest::run(),
            "--workload" => workload = Workload::parse(&value()),
            "--seed" => match value().parse() {
                Ok(n) => cfg.seed = n,
                Err(_) => return usage(),
            },
            "--seconds" => match value().parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 60.0 => cfg.seconds = s,
                _ => return usage(),
            },
            "--trace" => match value().as_str() {
                "0" => cfg.trace = false,
                "1" => cfg.trace = true,
                _ => return usage(),
            },
            "--dump-trace" => cfg.dump_trace = Some(value().into()),
            _ => return usage(),
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    cfg.workload = workload;

    print_header(&cfg);
    let out = run::run(&cfg);
    for (name, secs) in &out.phases {
        println!("# phase {name}: {secs:.3} s");
    }
    println!("# client calls per measured pass: {}", out.calls);
    for m in &out.metrics.0 {
        match m.samples {
            Some(n) => println!("{} = {} {} ({n} samples)", m.name, m.value, m.unit),
            None => println!("{} = {} {}", m.name, m.value, m.unit),
        }
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn env_or_unknown(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unknown".to_string())
}

/// Everything a reader needs to decide whether two runs are comparable.
fn print_header(cfg: &run::Config) {
    let store = setup::store_options();
    println!("# p2kvs-benchmark workload={} seed={} seconds={} trace={}",
        cfg.workload.name(), cfg.seed, cfg.seconds, u8::from(cfg.trace));
    println!(
        "# build=rustc+stubs rustc=\"{}\" git_rev={} nproc={}",
        env_or_unknown("P2KVS_BENCH_RUSTC"),
        env_or_unknown("P2KVS_BENCH_REV"),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!(
        "# store: P2KvsOptions::with_workers({}) read_cache={} MiB trace_sample={} \
         metrics={} flight_recorder={} queue_affinity={} balancer={}",
        setup::WORKERS,
        store.cache_capacity >> 20,
        store.trace_sample,
        store.metrics,
        store.flight_recorder,
        store.queue_affinity,
        if store.balance_interval.is_some() { "on" } else { "off" },
    );
    println!(
        "# engine: lsmkv rocksdb_like memtable={} KiB target_file={} KiB base_level={} MiB \
         block_cache={} MiB flush_policy={:?}",
        setup::MEMTABLE_SIZE >> 10,
        setup::TARGET_FILE_SIZE >> 10,
        setup::BASE_LEVEL_SIZE >> 20,
        setup::BLOCK_CACHE_SIZE >> 20,
        setup::FLUSH_POLICY,
    );
    let device = setup::device();
    println!(
        "# device: SimEnv {} queues={} queue_depth={}",
        device.name, device.queues, device.queue_depth
    );
    println!(
        "# load: {} client threads, closed loop; keys {} B, values {} B; loaded records {}; \
         hot subset {}; zipfian theta {}",
        setup::CLIENTS,
        gen::KEY_LEN,
        gen::VALUE_LEN,
        workloads::KEYS,
        workloads::HOT_KEYS,
        gen::THETA,
    );
}
