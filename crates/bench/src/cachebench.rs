//! Hot-set read-cache benchmark: zipfian GET traffic against the
//! lock-free client-side cache, writing `BENCH_cache.json`.
//!
//! Three questions, one artifact:
//!
//! 1. **Hit-rate sweep** — how much of the zipfian (θ=0.99) hot set
//!    must the cache hold before most GETs never touch a worker? The
//!    sweep sizes the cache at 0 / 25 / 50 / 100 % of the *hot-set
//!    bytes* (the smallest rank prefix carrying [`HOT_MASS`] of the
//!    request mass, charged at value + key + per-record overhead) and
//!    reports hit rate and GET latency percentiles for each point. At
//!    the full-hot-set point the cache must serve ≥ 90 % of GETs with a
//!    p50 under 5 µs — the queue round-trip is gone from the median.
//! 2. **Miss-path overhead** — reading keys that are *never* repeated,
//!    so every lookup misses and fills, how much slower is cache-on
//!    than cache-off? This is the regression CI gates at 3 %
//!    (`cache_hitrate` exits non-zero past it).
//! 3. **Skew recovery** — the skew bench's pinned unlucky draw, run a
//!    third way: balancer *and* cache. Migration flushes cost the
//!    cached configuration its hot entries on every handoff, so this
//!    doubles as a coherence-pressure benchmark; the cached balanced
//!    store must still beat the unbalanced static baseline (≥ 1.0×).
//!
//! Reads are compared byte for byte across every configuration — a cache
//! serving stale or corrupt bytes fails the gate, not just the numbers.

use std::time::Instant;

use p2kvs::{P2Kvs, P2KvsOptions};

use crate::artifact::{Fields, Report, Value};
use crate::setups::{self, Sample};
use crate::skew;
use crate::workload::Zipf;

/// Worker threads every configuration runs.
pub const WORKERS: usize = 4;
/// Zipfian skew parameter (YCSB default), over individual keys here.
pub const THETA: f64 = 0.99;
/// Request mass the "hot set" covers.
pub const HOT_MASS: f64 = 0.95;
/// Value bytes per key (the paper's YCSB value size band).
const VALUE_LEN: usize = 100;
/// Client threads issuing the zipfian workload.
const CLIENTS: usize = 4;
/// Cache-size sweep points, in percent of the hot-set bytes.
pub const SWEEP_PCT: [u64; 4] = [0, 25, 50, 100];
/// Gate: all-miss traffic may run at most this much slower cache-on.
pub const MISS_OVERHEAD_BUDGET_PCT: f64 = 3.0;
/// Gate: hit rate with the whole hot set cached.
pub const FULL_HIT_RATE_TARGET: f64 = 0.90;
/// Gate: GET p50 with the whole hot set cached, nanoseconds (exclusive).
pub const FULL_P50_TARGET_NS: f64 = 5_000.0;

fn key_of(rank: u64) -> Vec<u8> {
    format!("c{rank:07}").into_bytes()
}

fn open_store(name: &str, cache_capacity: usize) -> P2Kvs<lsmkv::Db> {
    let mut opts = P2KvsOptions::with_workers(WORKERS);
    opts.cache_capacity = cache_capacity;
    setups::scenario_store(name, setups::scenario_engine(setups::nvme_env()), opts)
}

/// The hot set for a `keys`-rank zipfian: how many leading ranks carry
/// [`HOT_MASS`] of the traffic, and what they cost to cache (key +
/// value + per-record overhead).
pub fn hot_set(keys: u64) -> (u64, u64) {
    let zipf = Zipf::new(keys as usize, THETA);
    let hot = zipf.head_count(HOT_MASS) as u64;
    let bytes: u64 = (0..hot)
        .map(|r| (key_of(r).len() + VALUE_LEN) as u64 + p2kvs::cache::RECORD_OVERHEAD)
        .sum();
    (hot, bytes)
}

/// Measures one sweep point (cache sized at `pct_of_hot` % of the hot
/// set, 0 = off): load, zipfian warmup (fills the cache), then a measured
/// GET-only window. Rank order == popularity order, so
/// [`Zipf::head_count`] describes exactly the keys that get hot. Returns
/// the row plus the readback sample for the identity check.
fn measure_hitrate(
    pct_of_hot: u64,
    capacity_bytes: u64,
    keys: u64,
    warmup_ops: u64,
    measure_ops: u64,
    seed: u64,
) -> (Fields, Sample) {
    let store = open_store(
        &format!("cache-sweep-{pct_of_hot}"),
        capacity_bytes as usize,
    );
    setups::load(&store, (0..keys).map(key_of), VALUE_LEN);
    let zipf = Zipf::new(keys as usize, THETA);
    let pick = |rng: &mut p2kvs_util::rng::Rng| key_of(zipf.rank(rng.unit()) as u64);
    let drive = |ops: u64, seed: u64| {
        setups::drive(
            &store,
            CLIENTS,
            ops / CLIENTS as u64,
            seed,
            0,
            VALUE_LEN,
            pick,
        )
    };
    drive(warmup_ops, seed ^ 0xAA55_77EE);

    let before = store.metrics_snapshot();
    let began = Instant::now();
    let lat = drive(measure_ops, seed).gets;
    let wall_secs = began.elapsed().as_secs_f64();
    let after = store.metrics_snapshot();

    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let (hits, misses) = (delta("p2kvs_cache_hits"), delta("p2kvs_cache_misses"));
    let row = Fields::new()
        .with("pct_of_hot", pct_of_hot)
        .with("capacity_bytes", capacity_bytes)
        .window(lat.len() as u64, wall_secs)
        .float(
            "hit_rate",
            hits as f64 / ((hits + misses) as f64).max(1.0),
            4,
        )
        .with("p50_get_ns", crate::percentile(&lat, 0.50))
        .with("p99_get_ns", crate::percentile(&lat, 0.99))
        .with("hits", hits)
        .with("misses", misses)
        .with("evictions", delta("p2kvs_cache_evictions"));
    let sample = setups::readback(&store, pick);
    store.close();
    (row, sample)
}

/// The miss-path overhead in percent (`(on/off - 1) × 100`: positive =
/// the cache slowed misses down): `rounds` disjoint single-pass key
/// slices through a cache-off and a cache-on store. No key is ever read
/// twice, so every cache-on lookup is a miss followed by a worker-side
/// fill — the pure overhead path. Comparing the fastest round per
/// configuration damps scheduler noise on loaded CI runners.
fn measure_miss_overhead(keys_total: u64, rounds: u64) -> f64 {
    let keys_per_round = (keys_total / rounds).max(1);
    let keys = keys_per_round * rounds;
    let off = open_store("cache-miss-off", 0);
    let on = open_store("cache-miss-on", 64 << 20);
    setups::load(&off, (0..keys).map(key_of), VALUE_LEN);
    setups::load(&on, (0..keys).map(key_of), VALUE_LEN);

    let pass = |store: &P2Kvs<lsmkv::Db>, round: u64| -> f64 {
        let began = Instant::now();
        for i in round * keys_per_round..(round + 1) * keys_per_round {
            assert!(store.get(&key_of(i)).unwrap().is_some());
        }
        began.elapsed().as_secs_f64()
    };
    let (mut off_secs, mut on_secs) = (f64::MAX, f64::MAX);
    for round in 0..rounds {
        off_secs = off_secs.min(pass(&off, round));
        on_secs = on_secs.min(pass(&on, round));
    }
    // The measurement is only valid if it really was all-miss.
    assert_eq!(
        on.metrics_snapshot()
            .counter("p2kvs_cache_hits")
            .unwrap_or(0),
        0,
        "single-pass reads must never hit"
    );
    off.close();
    on.close();
    (on_secs / off_secs.max(1e-12) - 1.0) * 100.0
}

/// The skew scenario's pinned unlucky draw run three ways (identical
/// workload and seed): static map, balanced map, balanced map plus the
/// read cache — the `skew_recovery` object of the summary.
fn measure_skew_recovery(
    cache_capacity: usize,
    keys_per_tenant: u64,
    warmup_ops: u64,
    measure_ops: u64,
    seed: u64,
) -> Fields {
    let run = |config, balance, cache| {
        let (row, sample) = skew::measure(
            config,
            balance,
            cache,
            keys_per_tenant,
            warmup_ops,
            measure_ops,
            seed,
        );
        (row.num("throughput_ops_sec"), sample)
    };
    let (stat, a) = run("static", false, 0);
    let (bal, b) = run("balanced", true, 0);
    let (cached, c) = run("balanced_cached", true, cache_capacity);
    Fields::new()
        .float("static_ops_sec", stat, 1)
        .float("balanced_ops_sec", bal, 1)
        .float("balanced_cached_ops_sec", cached, 1)
        .float("cached_over_static", cached / stat.max(1e-9), 3)
        .with("reads_identical", a == b && b == c)
}

/// The whole scenario, every full-scale op count passed through `sized`:
/// 20k zipfian keys, 200k warmup and 120k measured GETs per sweep point
/// (two-touch admission needs a longer warmup than a fill-on-first-miss
/// cache would: tail keys of the hot set must recur twice to be cached);
/// 60k single-pass keys for the miss path; the skew scenario's own sizes
/// for the recovery comparison.
fn run_sized(sized: fn(u64) -> u64, seed: u64) -> Report {
    let keys = sized(20_000);
    let (hot_keys, hot_bytes) = hot_set(keys);
    let mut rows = Vec::new();
    let mut samples = Vec::new();
    for pct in SWEEP_PCT {
        let capacity = hot_bytes * pct / 100;
        let (row, sample) =
            measure_hitrate(pct, capacity, keys, sized(200_000), sized(120_000), seed);
        rows.push(row);
        samples.push(sample);
    }
    let full = rows.last().expect("sweep ran");
    let miss_overhead_pct = measure_miss_overhead(sized(60_000), 3);
    let skew_recovery =
        measure_skew_recovery(16 << 20, sized(2_000), sized(60_000), sized(120_000), seed);
    Report {
        bench: "cache_hitrate",
        seed,
        config: Fields::new()
            .with("workers", WORKERS)
            .with("keys", keys)
            .float("theta", THETA, 2)
            .with("value_len", VALUE_LEN)
            .float("hot_mass", HOT_MASS, 2)
            .with("hot_set_keys", hot_keys)
            .with("hot_set_bytes", hot_bytes),
        summary: Fields::new()
            .with("reads_identical", samples.windows(2).all(|w| w[0] == w[1]))
            .float("hit_rate_full", full.num("hit_rate"), 4)
            .with("p50_get_ns_full", full.int("p50_get_ns"))
            .float("miss_overhead_pct", miss_overhead_pct, 3)
            .with("skew_recovery", Value::Object(skew_recovery)),
        rows,
    }
}

/// Op counts scaled by `P2KVS_SCALE`, seeded by `P2KVS_CACHE_SEED`.
pub fn run() -> Report {
    run_sized(
        crate::scaled,
        crate::seed_from_env("P2KVS_CACHE_SEED", 0xCAC4_E5EED),
    )
}

/// Reads identical everywhere; at full scale also: miss-path overhead
/// within budget, the full hot set serving [`FULL_HIT_RATE_TARGET`] of
/// GETs with the queue round-trip gone from the median, and balancer +
/// cache no slower than the unlucky static layout.
pub fn gate(summary: &Fields, full_scale: bool) -> Vec<String> {
    let Value::Object(skew) = summary.get("skew_recovery") else {
        panic!("skew_recovery is an object");
    };
    let mut failed = Vec::new();
    if !(summary.is("reads_identical") && skew.is("reads_identical")) {
        failed.push("cached and uncached configurations returned different reads".into());
    }
    if !full_scale {
        return failed;
    }
    let overhead = summary.num("miss_overhead_pct");
    if overhead > MISS_OVERHEAD_BUDGET_PCT {
        failed.push(format!(
            "miss-path overhead {overhead:.2}% exceeds the {MISS_OVERHEAD_BUDGET_PCT}% budget"
        ));
    }
    let hit_rate = summary.num("hit_rate_full");
    if hit_rate < FULL_HIT_RATE_TARGET {
        failed.push(format!(
            "full-hot-set hit rate {:.1}% is under the {:.0}% target",
            hit_rate * 100.0,
            FULL_HIT_RATE_TARGET * 100.0
        ));
    }
    let p50 = summary.num("p50_get_ns_full");
    if p50 >= FULL_P50_TARGET_NS {
        failed.push(format!(
            "full-hot-set GET p50 {:.1}us is not under the {:.0}us target",
            p50 / 1e3,
            FULL_P50_TARGET_NS / 1e3
        ));
    }
    let recovery = skew.num("cached_over_static");
    if recovery < 1.0 {
        failed.push(format!(
            "balanced+cache is {recovery:.3}x the static baseline (want >= 1.0x)"
        ));
    }
    failed
}

/// The scenario at a size a unit test can afford.
#[cfg(test)]
pub(crate) fn smoke() -> Report {
    run_sized(|n| n / 50, 7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_set_is_a_strict_subset_carrying_most_mass() {
        let (hot, bytes) = hot_set(2_000);
        assert!(hot >= 1 && hot < 2_000, "hot set {hot} of 2000");
        // θ=0.99 is weakly skewed at this scale: the hot set is large in
        // keys but still a strict subset, and its byte cost is exact.
        assert_eq!(
            bytes,
            (0..hot)
                .map(|r| (key_of(r).len() + VALUE_LEN) as u64 + p2kvs::cache::RECORD_OVERHEAD)
                .sum::<u64>()
        );
    }

    #[test]
    fn tiny_sweep_point_hits_and_validates() {
        let keys = 400;
        let (_, hot_bytes) = hot_set(keys);
        let (off, a) = measure_hitrate(0, 0, keys, 2_000, 2_000, 7);
        let (full, b) = measure_hitrate(100, hot_bytes, keys, 2_000, 2_000, 7);
        assert_eq!(a, b, "reads must not depend on the cache");
        assert_eq!(off.num("hit_rate"), 0.0);
        assert!(
            full.num("hit_rate") > 0.5,
            "hit rate {} with the full hot set",
            full.num("hit_rate")
        );
        assert!(full.int("p50_get_ns") <= full.int("p99_get_ns"));
        assert!(full.int("hits") > 0 && off.int("hits") == 0);
        assert!(measure_miss_overhead(2_000, 2).is_finite());
    }

    fn summary(overhead: f64, hit_rate: f64, p50: u64, recovery: f64, identical: bool) -> Fields {
        Fields::new()
            .with("reads_identical", true)
            .float("hit_rate_full", hit_rate, 4)
            .with("p50_get_ns_full", p50)
            .float("miss_overhead_pct", overhead, 3)
            .with(
                "skew_recovery",
                Value::Object(
                    Fields::new()
                        .float("cached_over_static", recovery, 3)
                        .with("reads_identical", identical),
                ),
            )
    }

    #[test]
    fn gate_trips_on_each_threshold_and_on_identity() {
        assert!(gate(&summary(2.9, 0.93, 400, 1.5, true), true).is_empty());
        for (bad, why) in [
            (summary(3.1, 0.93, 400, 1.5, true), "miss-path"),
            (summary(2.9, 0.89, 400, 1.5, true), "hit rate"),
            (summary(2.9, 0.93, 5_000, 1.5, true), "p50"),
            (summary(2.9, 0.93, 400, 0.99, true), "static baseline"),
            (summary(2.9, 0.93, 400, 1.5, false), "different reads"),
        ] {
            let failed = gate(&bad, true);
            assert_eq!(failed.len(), 1, "{failed:?}");
            assert!(failed[0].contains(why), "{failed:?}");
        }
        // Below full scale only identity is judged.
        assert!(gate(&summary(50.0, 0.1, 90_000, 0.2, true), false).is_empty());
        assert_eq!(
            gate(&summary(50.0, 0.1, 90_000, 0.2, false), false).len(),
            1
        );
    }
}
