//! Trace-overhead benchmark: the accessing pipeline with span tracing
//! disabled versus the default 1-in-64 sample rate, writing
//! `BENCH_trace.json`.
//!
//! Tracing is only free to leave on in production if the sampled path
//! costs nothing measurable on the *hot* pipeline. This bench makes the
//! comparison deliberately adversarial: the store runs on [`MemEnv`]
//! (no simulated device latency to hide behind), several user threads
//! drive blocking puts/gets through the queues, and the two
//! configurations differ **only** in `trace_sample` (0 = head sampling
//! off, the branch compiled in but never taken, vs 64 = the default;
//! slow groups keep their spans in both). Each thread
//! owns a disjoint key range, so the fold of every GET result is
//! byte-deterministic — the gate requires the checksums of both
//! configurations to be identical, proving tracing never changed a
//! result, and (at full scale) **< 5%** throughput loss at the default
//! sample rate.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use p2kvs::P2KvsOptions;
use p2kvs_storage::MemEnv;
use p2kvs_util::hash::{fnv1a64, mix64};
use p2kvs_util::rng::Rng;

use crate::artifact::{Fields, Report};
use crate::setups;

/// Throughput budget: the sampled configuration may cost at most this
/// fraction of the untraced configuration's throughput.
pub const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Alternating measurement rounds per configuration; the best round is
/// compared so scheduler noise penalizes neither side.
const ROUNDS: usize = 3;

const THREADS: usize = 4;
const KEYS_PER_THREAD: u64 = 4_000;

/// One round of one configuration — `disabled` (`trace_sample = 0`) or
/// `sampled` (the default rate): `threads` user threads of a seeded 3:1
/// put:get mix, `ops_per_thread` blocking ops each, every thread
/// confined to its own `keys_per_thread` key range (GET results
/// therefore depend only on that thread's own put stream —
/// deterministic under any interleaving).
fn measure(
    config: &'static str,
    trace_sample: u64,
    round: usize,
    threads: usize,
    ops_per_thread: u64,
    keys_per_thread: u64,
    seed: u64,
) -> Fields {
    let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
    let mut lsm = lsmkv::Options::rocksdb_like(env);
    lsm.memtable_size = 4 << 20;
    let mut opts = P2KvsOptions::with_workers(2);
    // Cache off: the overhead under test is tracing on the worker
    // round-trip; cached GETs would never reach it.
    opts.cache_capacity = 0;
    opts.trace_sample = trace_sample;
    let store = setups::scenario_store("trace-ov", lsm, opts);

    let began = Instant::now();
    let checksum = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let store = &store;
                s.spawn(move || {
                    let mut rng = Rng::new(seed ^ (t as u64) << 32);
                    let mut sum = 0u64;
                    for i in 0..ops_per_thread {
                        let r = rng.next_u64();
                        let key = format!("t{t:02}k{:06}", r % keys_per_thread);
                        if (r >> 32) & 3 == 3 {
                            let got = store.get(key.as_bytes()).unwrap();
                            sum ^=
                                mix64(fnv1a64(key.as_bytes()) ^ got.as_deref().map_or(0, fnv1a64));
                        } else {
                            let value = format!("v{t:02}-{i:08}-{:016x}", rng.next_u64());
                            store.put(key.as_bytes(), value.as_bytes()).unwrap();
                        }
                    }
                    sum
                })
            })
            .collect();
        // XOR-fold: associative and commutative, so the total is
        // independent of thread completion order.
        handles
            .into_iter()
            .fold(0u64, |acc, h| acc ^ h.join().unwrap())
    });
    let wall = began.elapsed().as_secs_f64();
    // Head-sampled spans in the store's (bounded) span ring at the end of
    // the run. The tail-kept spans of slow groups are not counted: both
    // configurations keep those.
    let spans = store
        .trace_spans()
        .iter()
        .filter(|s| !s.tail_kept())
        .count();
    store.close();
    // The comparison must be real on both sides.
    match trace_sample {
        0 => assert_eq!(spans, 0, "disabled run recorded spans"),
        _ => assert!(spans > 0, "sampled run recorded no spans"),
    }

    let ops = threads as u64 * ops_per_thread;
    Fields::new()
        .with("config", config)
        .with("trace_sample", trace_sample)
        .with("round", round)
        .with("ops", ops)
        .float("wall_secs", wall, 6)
        .float("throughput_ops_sec", ops as f64 / wall.max(1e-9), 1)
        .with("read_checksum", checksum)
        .with("spans_recorded", spans)
}

/// The best round of each configuration is compared, so scheduler noise
/// penalizes neither side; a negative overhead is noise in tracing's
/// favor.
fn summarize(rows: &[Fields]) -> Fields {
    let best = |config: &str| {
        rows.iter()
            .filter(|r| r.has("config", config))
            .map(|r| r.num("throughput_ops_sec"))
            .fold(0.0f64, f64::max)
    };
    let (disabled, sampled) = (best("disabled"), best("sampled"));
    let summary = Fields::new()
        .with(
            "read_checksums_identical",
            rows.windows(2)
                .all(|w| w[0].get("read_checksum") == w[1].get("read_checksum")),
        )
        .float("best_disabled_ops_sec", disabled, 1)
        .float("best_sampled_ops_sec", sampled, 1)
        .float(
            "overhead_pct",
            100.0 * (1.0 - sampled / disabled.max(1e-9)),
            3,
        )
        .float("budget_pct", OVERHEAD_BUDGET_PCT, 0);
    let within_budget = gate(&summary, true).is_empty();
    summary.with("within_budget", within_budget)
}

fn run_sized(rounds: usize, ops_per_thread: u64, keys_per_thread: u64, seed: u64) -> Report {
    let mut rows = Vec::with_capacity(2 * rounds);
    for round in 0..rounds {
        for (config, sample) in [("disabled", 0), ("sampled", 64)] {
            rows.push(measure(
                config,
                sample,
                round,
                THREADS,
                ops_per_thread,
                keys_per_thread,
                seed,
            ));
        }
    }
    Report {
        bench: "trace_overhead",
        seed,
        config: Fields::new()
            .with("threads", THREADS)
            .with("ops_per_thread", ops_per_thread)
            .with("keys_per_thread", keys_per_thread)
            .with("rounds", rounds)
            .with("default_trace_sample", 64u64),
        summary: summarize(&rows),
        rows,
    }
}

/// [`ROUNDS`] alternating rounds per configuration of 4 user threads ×
/// 60k ops (scaled by `P2KVS_SCALE`), seeded by `P2KVS_TRACE_SEED`.
pub fn run() -> Report {
    run_sized(
        ROUNDS,
        crate::scaled(60_000),
        KEYS_PER_THREAD,
        crate::seed_from_env("P2KVS_TRACE_SEED", 0x7AC3_0FF5),
    )
}

/// Tracing must never change a result; at full scale the sampled
/// configuration must also cost under [`OVERHEAD_BUDGET_PCT`] of the
/// untraced throughput.
pub fn gate(summary: &Fields, full_scale: bool) -> Vec<String> {
    let mut failed = Vec::new();
    if !summary.is("read_checksums_identical") {
        failed.push("tracing changed a GET result: the read checksums diverge".into());
    }
    let overhead = summary.num("overhead_pct");
    if full_scale && overhead >= OVERHEAD_BUDGET_PCT {
        failed.push(format!(
            "tracing overhead {overhead:.2}% exceeds the {OVERHEAD_BUDGET_PCT}% budget"
        ));
    }
    failed
}

/// The scenario at a size a unit test can afford.
#[cfg(test)]
pub(crate) fn smoke() -> Report {
    run_sized(1, 4_000, 200, 11)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksums_are_deterministic_and_trace_independent() {
        let a = measure("disabled", 0, 0, 2, 2_000, 200, 11);
        let b = measure("sampled", 1, 0, 2, 2_000, 200, 11);
        assert_eq!(
            a.get("read_checksum"),
            b.get("read_checksum"),
            "tracing changed results"
        );
        assert_ne!(a.int("read_checksum"), 0, "fold must cover real GET hits");
        assert_eq!(a.int("spans_recorded"), 0);
        assert!(b.int("spans_recorded") > 0, "sample=1 must record spans");
        assert!(a.num("throughput_ops_sec") > 0.0 && b.num("throughput_ops_sec") > 0.0);
        // A different seed walks a different history.
        let c = measure("disabled", 0, 0, 2, 2_000, 200, 12);
        assert_ne!(a.get("read_checksum"), c.get("read_checksum"));
    }

    #[test]
    fn artifact_conforms_to_schema() {
        let row = |config: &'static str, throughput: f64, checksum: u64| {
            Fields::new()
                .with("config", config)
                .float("throughput_ops_sec", throughput, 1)
                .with("read_checksum", checksum)
        };
        // 2 % slower, same reads: within budget. The best round counts.
        let s = summarize(&[
            row("disabled", 2000.0, 42),
            row("sampled", 1500.0, 42),
            row("sampled", 1960.0, 42),
        ]);
        assert!((s.num("overhead_pct") - 2.0).abs() < 1e-9);
        assert!(s.is("within_budget") && gate(&s, true).is_empty());
        // 5 % slower: over, at full scale only.
        let s = summarize(&[row("disabled", 2000.0, 42), row("sampled", 1900.0, 42)]);
        assert!(!s.is("within_budget"));
        assert_eq!(gate(&s, true).len(), 1);
        assert!(gate(&s, false).is_empty());
        // A diverging checksum fails at every scale.
        let s = summarize(&[row("disabled", 2000.0, 42), row("sampled", 2000.0, 43)]);
        assert_eq!(gate(&s, false).len(), 1);
    }
}
