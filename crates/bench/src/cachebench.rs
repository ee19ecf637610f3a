//! Hot-set read-cache benchmark: zipfian GET traffic against the
//! lock-free client-side cache, writing `BENCH_cache.json`.
//!
//! One question: how much of the zipfian (θ=0.99) hot set must the
//! cache hold before most GETs never touch a worker? The sweep sizes the
//! cache at 0 / 25 / 50 / 100 % of the *hot-set bytes* (the smallest
//! rank prefix carrying [`HOT_MASS`] of the request mass, charged at
//! value + key + per-record overhead) and reports hit rate and GET
//! latency percentiles for each point. The gate is a count: at the
//! full-hot-set point the cache serves at least
//! [`FULL_HIT_RATE_TARGET`] of GETs.
//!
//! Reads are compared byte for byte across every configuration — a cache
//! serving stale or corrupt bytes fails the gate, not just the numbers.

use p2kvs::P2KvsOptions;
use p2kvs_util::rng::Rng;

use crate::artifact::{Fields, Report};
use crate::clients::P2Client;
use crate::setups;
use crate::workload::{self, GateMix, Run, Sample, Zipf};

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
/// Gate: hit rate with the whole hot set cached.
pub const FULL_HIT_RATE_TARGET: f64 = 0.90;

fn key_of(rank: u64) -> Vec<u8> {
    format!("c{rank:07}").into_bytes()
}

fn open_store(name: &str, cache_capacity: usize) -> P2Client<lsmkv::Db> {
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
    let client = open_store(
        &format!("cache-sweep-{pct_of_hot}"),
        capacity_bytes as usize,
    );
    let store = &client.store;
    workload::load(&client, keys, key_of, VALUE_LEN).expect("load");
    let zipf = Zipf::new(keys as usize, THETA);
    let pick = |rng: &mut Rng| key_of(zipf.rank(rng.unit()) as u64);
    let gets = |ops: u64, seed: u64| {
        let mix = GateMix {
            seed,
            put_percent: 0,
            value_len: VALUE_LEN,
            pick,
        };
        workload::drive(&client, &mix, Run::new(CLIENTS, ops, false))
    };
    let warmup = gets(warmup_ops, seed ^ 0xAA55_77EE);

    let before = store.metrics_snapshot();
    let r = gets(measure_ops, seed);
    let after = store.metrics_snapshot();

    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let (hits, misses) = (delta("p2kvs_cache_hits"), delta("p2kvs_cache_misses"));
    let row = Fields::new()
        .with("pct_of_hot", pct_of_hot)
        .with("capacity_bytes", capacity_bytes)
        .window(r.ops, r.elapsed.as_secs_f64())
        .with("failed_calls", warmup.errors + r.errors)
        .float(
            "hit_rate",
            hits as f64 / ((hits + misses) as f64).max(1.0),
            4,
        )
        .with("p50_get_ns", r.reads.quantile(0.50))
        .with("p99_get_ns", r.reads.quantile(0.99))
        .with("hits", hits)
        .with("misses", misses)
        .with("evictions", delta("p2kvs_cache_evictions"));
    let sample = workload::readback(&client, pick);
    (row, sample)
}

/// The whole scenario, every full-scale op count passed through `sized`:
/// 20k zipfian keys, 200k warmup and 120k measured GETs per point of
/// `sweep` (two-touch admission needs a longer warmup than a
/// fill-on-first-miss cache would: tail keys of the hot set must recur
/// twice to be cached). The scenario sweeps [`SWEEP_PCT`].
fn run_sized(sized: fn(u64) -> u64, seed: u64, sweep: [u64; 4]) -> Report {
    let keys = sized(20_000);
    let (hot_keys, hot_bytes) = hot_set(keys);
    let mut rows = Vec::new();
    let mut samples = Vec::new();
    for pct in sweep {
        let capacity = hot_bytes * pct / 100;
        let (row, sample) =
            measure_hitrate(pct, capacity, keys, sized(200_000), sized(120_000), seed);
        rows.push(row);
        samples.push(sample);
    }
    let hit_rate_full = rows.last().expect("sweep ran").num("hit_rate");
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
            .float("hit_rate_full", hit_rate_full, 4),
        rows,
    }
}

/// Op counts scaled by `P2KVS_SCALE`, seeded by `P2KVS_CACHE_SEED`.
pub fn run() -> Report {
    run_sized(
        crate::scaled,
        crate::seed_from_env("P2KVS_CACHE_SEED", 0xCAC4_E5EED),
        SWEEP_PCT,
    )
}

/// Reads identical everywhere, and the full hot set serving
/// [`FULL_HIT_RATE_TARGET`] of GETs.
pub fn gate(summary: &Fields) -> Vec<String> {
    let mut failed = Vec::new();
    if !summary.is("reads_identical") {
        failed.push("cached and uncached configurations returned different reads".into());
    }
    let hit_rate = summary.num("hit_rate_full");
    if hit_rate < FULL_HIT_RATE_TARGET {
        failed.push(format!(
            "full-hot-set hit rate {:.1}% is under the {:.0}% target",
            hit_rate * 100.0,
            FULL_HIT_RATE_TARGET * 100.0
        ));
    }
    failed
}

/// The scenario at a size a unit test can afford.
#[cfg(test)]
pub(crate) fn smoke() -> Report {
    run_sized(|n| n / 50, 7, SWEEP_PCT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_set_is_a_strict_subset_carrying_most_mass() {
        let (hot, bytes) = hot_set(2_000);
        assert!((1..2_000).contains(&hot), "hot set {hot} of 2000");
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
        assert_eq!(off.int("failed_calls") + full.int("failed_calls"), 0);
        assert_eq!(off.num("hit_rate"), 0.0);
        assert!(
            full.num("hit_rate") > 0.5,
            "hit rate {} with the full hot set",
            full.num("hit_rate")
        );
        assert!(full.int("p50_get_ns") <= full.int("p99_get_ns"));
        assert!(full.int("hits") > 0 && off.int("hits") == 0);
    }

    fn summary(hit_rate: f64, identical: bool) -> Fields {
        Fields::new()
            .with("reads_identical", identical)
            .float("hit_rate_full", hit_rate, 4)
    }

    #[test]
    fn gate_fails_a_store_whose_cache_is_off() {
        let report = run_sized(|n| n / 50, 7, [0; 4]);
        assert!(report.rows.iter().all(|r| r.int("capacity_bytes") == 0));
        let failed = gate(&report.summary);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains("hit rate"), "{failed:?}");
    }

    #[test]
    fn gate_trips_on_each_threshold_and_on_identity() {
        assert!(gate(&summary(0.90, true)).is_empty());
        for (bad, why) in [
            (summary(0.89, true), "hit rate"),
            (summary(0.93, false), "different reads"),
        ] {
            let failed = gate(&bad);
            assert_eq!(failed.len(), 1, "{failed:?}");
            assert!(failed[0].contains(why), "{failed:?}");
        }
    }
}
