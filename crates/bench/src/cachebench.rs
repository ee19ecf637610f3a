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
//! Reads are verified byte-identical across every configuration — a
//! cache serving stale or corrupt bytes fails the run, not just the
//! numbers. Deterministic: a fixed LCG, no `rand` dependency.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, P2KvsOptions};
use p2kvs_storage::{DeviceProfile, SimEnv};

use crate::skew::Zipf;

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
/// Keys sampled for the cross-configuration byte-identity check.
const READBACK_SAMPLE: u64 = 2_000;
/// Cache-size sweep points, in percent of the hot-set bytes.
pub const SWEEP_PCT: [u64; 4] = [0, 25, 50, 100];

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 48) as f64
    }
}

fn key_of(rank: u64) -> Vec<u8> {
    format!("c{rank:07}").into_bytes()
}

/// Values derive from the key alone (same discipline as the skew
/// bench): identical across every configuration by construction, so a
/// mismatch can only come from the cache.
fn value_of(key: &[u8]) -> Vec<u8> {
    let mut h = 0xcbf29ce484222325u64;
    for b in key {
        h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
    }
    let mut v = Vec::with_capacity(VALUE_LEN);
    while v.len() < VALUE_LEN {
        v.extend_from_slice(&h.to_le_bytes());
        h = h.wrapping_mul(0x100000001b3);
    }
    v.truncate(VALUE_LEN);
    v
}

fn open_store(name: &str, cache_capacity: usize) -> P2Kvs<lsmkv::Db> {
    let env: p2kvs_storage::EnvRef = Arc::new(SimEnv::with_profile(DeviceProfile::nvme_optane()));
    let mut lsm = lsmkv::Options::rocksdb_like(env);
    lsm.memtable_size = 256 << 10;
    lsm.target_file_size = 1 << 20;
    lsm.block_cache_size = 256 << 10;
    let mut opts = P2KvsOptions::with_workers(WORKERS);
    opts.pin_workers = false;
    opts.cache_capacity = cache_capacity;
    P2Kvs::open(LsmFactory::new(lsm), name, opts).unwrap()
}

fn load(store: &P2Kvs<lsmkv::Db>, keys: u64) {
    for i in 0..keys {
        let k = key_of(i);
        store.put(&k, &value_of(&k)).unwrap();
    }
}

/// Runs `ops` zipfian GETs over `keys` ranks split across [`CLIENTS`]
/// threads, returning sorted latencies. Rank order == popularity order,
/// so [`Zipf::head_count`] describes exactly the keys that get hot.
fn drive(store: &P2Kvs<lsmkv::Db>, keys: u64, ops: u64, seed: u64) -> Vec<u64> {
    let zipf = Zipf::new(keys as usize, THETA);
    let per_client = ops / CLIENTS as u64;
    let mut lat: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let zipf = &zipf;
                s.spawn(move || {
                    let mut rng = Lcg(seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(c as u64 + 1)));
                    let mut lat = Vec::with_capacity(per_client as usize);
                    for _ in 0..per_client {
                        let key = key_of(zipf.rank(rng.unit()) as u64);
                        let began = Instant::now();
                        let got = store.get(&key).unwrap();
                        lat.push(began.elapsed().as_nanos() as u64);
                        assert!(got.is_some(), "preloaded key missing");
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    lat.sort_unstable();
    lat
}

fn readback(store: &P2Kvs<lsmkv::Db>, keys: u64) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
    let zipf = Zipf::new(keys as usize, THETA);
    let mut rng = Lcg(0x0ddba11);
    (0..READBACK_SAMPLE)
        .map(|_| {
            let key = key_of(zipf.rank(rng.unit()) as u64);
            let got = store.get(&key).unwrap();
            (key, got)
        })
        .collect()
}

fn cache_counter(snap: &p2kvs::MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
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

/// One sweep point's measurements.
#[derive(Debug, Clone)]
pub struct HitRateResult {
    /// Cache size as a percentage of the hot-set bytes (0 = off).
    pub pct_of_hot: u64,
    /// Configured cache capacity in bytes.
    pub capacity_bytes: u64,
    /// GETs completed in the measurement window.
    pub ops: u64,
    /// Wall-clock seconds of the window.
    pub wall_secs: f64,
    /// Aggregate GET throughput over the window.
    pub throughput_ops_sec: f64,
    /// Window hits / (hits + misses); 0 when the cache is off.
    pub hit_rate: f64,
    /// GET latency p50 over the window, nanoseconds.
    pub p50_get_ns: u64,
    /// GET latency p99 over the window, nanoseconds.
    pub p99_get_ns: u64,
    /// Raw window counters for auditability.
    pub hits: u64,
    /// Cache misses in the window.
    pub misses: u64,
    /// CLOCK evictions in the window.
    pub evictions: u64,
}

/// Measures one sweep point: load, zipfian warmup (fills the cache),
/// then a measured GET-only window. Returns the result plus the
/// deterministic readback sample for the identity check.
pub fn measure_hitrate(
    pct_of_hot: u64,
    capacity_bytes: u64,
    keys: u64,
    warmup_ops: u64,
    measure_ops: u64,
    seed: u64,
) -> (HitRateResult, Vec<(Vec<u8>, Option<Vec<u8>>)>) {
    let store = open_store(&format!("cache-sweep-{pct_of_hot}"), capacity_bytes as usize);
    load(&store, keys);
    drive(&store, keys, warmup_ops, seed ^ 0xAA55_77EE);

    let before = store.metrics_snapshot();
    let began = Instant::now();
    let lat = drive(&store, keys, measure_ops, seed);
    let wall_secs = began.elapsed().as_secs_f64();
    let after = store.metrics_snapshot();

    let hits = cache_counter(&after, "p2kvs_cache_hits") - cache_counter(&before, "p2kvs_cache_hits");
    let misses =
        cache_counter(&after, "p2kvs_cache_misses") - cache_counter(&before, "p2kvs_cache_misses");
    let evictions = cache_counter(&after, "p2kvs_cache_evictions")
        - cache_counter(&before, "p2kvs_cache_evictions");
    let ops = lat.len() as u64;
    let result = HitRateResult {
        pct_of_hot,
        capacity_bytes,
        ops,
        wall_secs,
        throughput_ops_sec: ops as f64 / wall_secs.max(1e-9),
        hit_rate: hits as f64 / ((hits + misses) as f64).max(1.0),
        p50_get_ns: crate::percentile(&lat, 0.50),
        p99_get_ns: crate::percentile(&lat, 0.99),
        hits,
        misses,
        evictions,
    };
    let sample = readback(&store, keys);
    store.close();
    (result, sample)
}

/// The miss-path overhead measurement: cache-on vs cache-off over reads
/// that never repeat a key.
#[derive(Debug, Clone)]
pub struct MissPathResult {
    /// Keys read (each exactly once) per round.
    pub keys_per_round: u64,
    /// Rounds driven; the fastest round per configuration is compared.
    pub rounds: u64,
    /// Fastest all-miss round, cache off, seconds.
    pub off_secs: f64,
    /// Fastest all-miss round, cache on, seconds.
    pub on_secs: f64,
    /// `(on/off - 1) × 100`: positive = the cache slowed misses down.
    pub overhead_pct: f64,
}

/// Drives `rounds` disjoint single-pass key slices through a cache-off
/// and a cache-on store. No key is ever read twice, so every cache-on
/// lookup is a miss followed by a worker-side fill — the pure overhead
/// path. Comparing the fastest round per configuration damps scheduler
/// noise on loaded CI runners.
pub fn measure_miss_overhead(keys_total: u64, rounds: u64, _seed: u64) -> MissPathResult {
    let keys_per_round = (keys_total / rounds).max(1);
    let keys = keys_per_round * rounds;
    let off = open_store("cache-miss-off", 0);
    let on = open_store("cache-miss-on", 64 << 20);
    load(&off, keys);
    load(&on, keys);

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
    let snap = on.metrics_snapshot();
    assert_eq!(
        cache_counter(&snap, "p2kvs_cache_hits"),
        0,
        "single-pass reads must never hit"
    );
    off.close();
    on.close();
    MissPathResult {
        keys_per_round,
        rounds,
        off_secs,
        on_secs,
        overhead_pct: (on_secs / off_secs.max(1e-12) - 1.0) * 100.0,
    }
}

/// The skew-recovery comparison: static, balanced, and balanced+cache.
#[derive(Debug, Clone)]
pub struct SkewRecovery {
    /// Aggregate throughput of the unlucky static layout.
    pub static_ops_sec: f64,
    /// Aggregate throughput with the balancer, cache off.
    pub balanced_ops_sec: f64,
    /// Aggregate throughput with the balancer *and* the read cache.
    pub balanced_cached_ops_sec: f64,
    /// `balanced_cached / static` — the headline recovery ratio.
    pub cached_over_static: f64,
    /// Readback byte-identity across all three configurations.
    pub reads_identical: bool,
}

/// Runs the skew bench's pinned unlucky draw three ways (identical
/// workload and seed): static map, balanced map, balanced map plus the
/// read cache. Panics if any configuration's reads diverge.
pub fn measure_skew_recovery(
    cache_capacity: usize,
    keys_per_tenant: u64,
    warmup_ops: u64,
    measure_ops: u64,
    seed: u64,
) -> SkewRecovery {
    use crate::skew;
    let (stat, a) =
        skew::measure_cached("static", false, 0, keys_per_tenant, warmup_ops, measure_ops, seed);
    let (bal, b) =
        skew::measure_cached("balanced", true, 0, keys_per_tenant, warmup_ops, measure_ops, seed);
    let (cached, c) = skew::measure_cached(
        "balanced_cached",
        true,
        cache_capacity,
        keys_per_tenant,
        warmup_ops,
        measure_ops,
        seed,
    );
    let reads_identical = a == b && b == c;
    assert!(
        reads_identical,
        "cached and uncached configurations must return byte-identical reads"
    );
    SkewRecovery {
        static_ops_sec: stat.throughput_ops_sec,
        balanced_ops_sec: bal.throughput_ops_sec,
        balanced_cached_ops_sec: cached.throughput_ops_sec,
        cached_over_static: cached.throughput_ops_sec / stat.throughput_ops_sec.max(1e-9),
        reads_identical,
    }
}

/// Everything one full bench run produced.
pub struct CacheBenchSummary {
    /// The hit-rate sweep, in [`SWEEP_PCT`] order.
    pub results: Vec<HitRateResult>,
    /// Hot-set rank count at [`HOT_MASS`].
    pub hot_keys: u64,
    /// Hot-set cache cost in bytes.
    pub hot_bytes: u64,
    /// Byte-identity across every sweep configuration.
    pub reads_identical: bool,
    /// The miss-path overhead measurement.
    pub miss: MissPathResult,
    /// The three-way skew-recovery comparison.
    pub skew: SkewRecovery,
}

/// Renders the `BENCH_cache.json` artifact.
pub fn render_json(summary: &CacheBenchSummary, keys: u64, seed: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        &crate::artifact::RunMeta::new("cache_hitrate", seed)
            .num("workers", WORKERS)
            .num("keys", keys)
            .num("theta", THETA)
            .num("value_len", VALUE_LEN)
            .num("hot_mass", HOT_MASS)
            .num("hot_set_keys", summary.hot_keys)
            .num("hot_set_bytes", summary.hot_bytes)
            .render(),
    );
    s.push_str(&format!("  \"reads_identical\": {},\n", summary.reads_identical));
    let full = summary.results.last();
    s.push_str(&format!(
        "  \"hit_rate_full\": {:.4},\n",
        full.map_or(0.0, |r| r.hit_rate)
    ));
    s.push_str(&format!(
        "  \"p50_get_ns_full\": {},\n",
        full.map_or(0, |r| r.p50_get_ns)
    ));
    s.push_str(&format!(
        "  \"miss_overhead_pct\": {:.3},\n",
        summary.miss.overhead_pct
    ));
    s.push_str(&format!(
        "  \"skew_recovery\": {{\"static_ops_sec\": {:.1}, \"balanced_ops_sec\": {:.1}, \
         \"balanced_cached_ops_sec\": {:.1}, \"cached_over_static\": {:.3}, \
         \"reads_identical\": {}}},\n",
        summary.skew.static_ops_sec,
        summary.skew.balanced_ops_sec,
        summary.skew.balanced_cached_ops_sec,
        summary.skew.cached_over_static,
        summary.skew.reads_identical,
    ));
    s.push_str("  \"results\": [\n");
    for (i, r) in summary.results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"pct_of_hot\": {}, \"capacity_bytes\": {}, \"ops\": {}, \
             \"wall_secs\": {:.3}, \"throughput_ops_sec\": {:.1}, \"hit_rate\": {:.4}, \
             \"p50_get_ns\": {}, \"p99_get_ns\": {}, \"hits\": {}, \"misses\": {}, \
             \"evictions\": {}}}{}\n",
            r.pct_of_hot,
            r.capacity_bytes,
            r.ops,
            r.wall_secs,
            r.throughput_ops_sec,
            r.hit_rate,
            r.p50_get_ns,
            r.p99_get_ns,
            r.hits,
            r.misses,
            r.evictions,
            if i + 1 == summary.results.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Where the artifact goes: `$P2KVS_METRICS_DIR` when set, the working
/// directory otherwise.
pub fn artifact_path() -> PathBuf {
    match std::env::var(crate::artifact::METRICS_DIR_ENV) {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir).join("BENCH_cache.json"),
        _ => PathBuf::from("BENCH_cache.json"),
    }
}

/// Runs the full bench (20k zipfian keys, 200k warmup and 120k measured
/// GETs per sweep point, scaled by `P2KVS_SCALE`; seed from
/// `P2KVS_CACHE_SEED`, default fixed) and writes `BENCH_cache.json` to
/// `path`. Panics if any configuration's reads diverge.
pub fn run_default(path: &Path) -> std::io::Result<CacheBenchSummary> {
    let keys = crate::scaled(20_000);
    // Two-touch admission needs a longer warmup than a fill-on-first-miss
    // cache would: tail keys of the hot set must recur twice to be cached.
    let warmup_ops = crate::scaled(200_000);
    let measure_ops = crate::scaled(120_000);
    let seed = std::env::var("P2KVS_CACHE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xCAC4_E5EED);

    let (hot_keys, hot_bytes) = hot_set(keys);
    let mut results = Vec::new();
    let mut samples = Vec::new();
    for pct in SWEEP_PCT {
        let capacity = hot_bytes * pct / 100;
        let (r, sample) = measure_hitrate(pct, capacity, keys, warmup_ops, measure_ops, seed);
        results.push(r);
        samples.push(sample);
    }
    let reads_identical = samples.windows(2).all(|w| w[0] == w[1]);
    assert!(
        reads_identical,
        "sweep configurations must return byte-identical reads"
    );

    let miss = measure_miss_overhead(crate::scaled(60_000), 3, seed);
    let skew = measure_skew_recovery(
        16 << 20,
        crate::scaled(2_000),
        crate::scaled(60_000),
        crate::scaled(120_000),
        seed,
    );

    let summary = CacheBenchSummary { results, hot_keys, hot_bytes, reads_identical, miss, skew };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_json(&summary, keys, seed))?;
    Ok(summary)
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
        assert_eq!(off.hit_rate, 0.0);
        assert!(full.hit_rate > 0.5, "hit rate {} with the full hot set", full.hit_rate);
        assert!(full.p50_get_ns <= full.p99_get_ns);
        assert!(full.hits > 0 && off.hits == 0);

        let miss = measure_miss_overhead(2_000, 2, 7);
        assert!(miss.overhead_pct.is_finite());

        let summary = CacheBenchSummary {
            results: vec![off, full],
            hot_keys: hot_set(keys).0,
            hot_bytes,
            reads_identical: true,
            miss,
            skew: SkewRecovery {
                static_ops_sec: 1000.0,
                balanced_ops_sec: 1100.0,
                balanced_cached_ops_sec: 1500.0,
                cached_over_static: 1.5,
                reads_identical: true,
            },
        };
        let json = render_json(&summary, keys, 7);
        assert!(json.contains("\"bench\": \"cache_hitrate\""));
        assert!(json.contains("\"miss_overhead_pct\""));
        assert!(json.contains("\"cached_over_static\""));
        let v = crate::artifact::validate_schema(&json);
        assert!(v.is_empty(), "{v:?}");
    }
}
