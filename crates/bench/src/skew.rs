//! Skew-rebalancing benchmark: zipfian tenant traffic over a static
//! shard map versus the skew-aware balancer, writing `BENCH_skew.json`.
//!
//! The scenario is the one the two-level shard map exists for: a
//! multi-tenant store where each tenant lives in its own shard and
//! tenant popularity is zipfian (θ=0.99, the YCSB default). Under the
//! paper's static `shard → worker` assignment, whichever worker owns
//! the hot tenants saturates while the rest idle; the balancer migrates
//! shard *ownership* (no data movement) until per-worker load evens
//! out.
//!
//! The tenant → shard placement pins the common unlucky draw where the
//! two most popular tenants land on the same worker of the round-robin
//! map (probability ≈ `1/workers` under random placement). That is
//! deliberate: it is exactly the collision a static layout cannot
//! escape and the balancer exists to fix — when the draw is lucky,
//! static and balanced coincide and there is nothing to measure.
//!
//! Both configurations run the identical deterministic workload over
//! identically loaded stores (values derive from the key alone, so
//! thread interleaving cannot desynchronize them); [`run_default`]
//! verifies the read results are byte-identical between them and
//! reports per-worker throughput spread, busy-time spread, and GET
//! latency percentiles. No `rand` dependency: a fixed LCG keeps every
//! run reproducible.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, P2KvsOptions, Partitioner};
use p2kvs_storage::{DeviceProfile, SimEnv};

/// Worker threads both configurations run.
pub const WORKERS: usize = 4;
/// Tenants (= shards): `4×` the workers, the store's own default ratio.
pub const TENANTS: usize = 16;
/// Zipfian skew parameter (YCSB default).
pub const THETA: f64 = 0.99;
/// Fraction of workload ops that are writes (YCSB-B flavor).
const PUT_PERCENT: u64 = 5;
/// Client threads issuing the workload.
const CLIENTS: usize = 4;
/// Keys sampled for the cross-configuration byte-identity check.
const READBACK_SAMPLE: u64 = 2_000;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Numerical Recipes LCG constants.
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    /// Uniform f64 in `[0, 1)` from the 48 bits [`Lcg::next`] yields.
    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 48) as f64
    }
}

/// Zipfian sampler over `n` ranks via an explicit CDF table — `n` is
/// small (one rank per tenant), so table lookup beats the usual
/// rejection method and is exact.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution: rank `r` has mass `∝ 1/(r+1)^theta`.
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Maps a uniform draw to a rank.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }

    /// Smallest count of leading (hottest) ranks whose combined mass
    /// reaches `mass` — the cache bench's hot-set size.
    pub fn head_count(&self, mass: f64) -> usize {
        (self.cdf.partition_point(|c| *c < mass) + 1).min(self.cdf.len())
    }
}

/// Routes `t{tt:02}…` keys to one shard per tenant. Tenant ids are
/// popularity ranks (tenant 00 is the hottest); [`tenant_shard`] is the
/// placement table described in the module docs.
pub struct TenantPartitioner {
    tenants: usize,
}

impl TenantPartitioner {
    /// One shard per tenant.
    pub fn new(tenants: usize) -> TenantPartitioner {
        TenantPartitioner { tenants: tenants.max(1) }
    }
}

impl Partitioner for TenantPartitioner {
    fn shard_of(&self, key: &[u8]) -> usize {
        let t = if key.len() >= 3 {
            ((key[1].wrapping_sub(b'0')) as usize) * 10 + (key[2].wrapping_sub(b'0')) as usize
        } else {
            0
        };
        tenant_shard(t % self.tenants, self.tenants)
    }

    fn partitions(&self) -> usize {
        self.tenants
    }
}

/// Tenant → shard placement: identity, except the second-hottest tenant
/// trades shards with the tenant [`WORKERS`] slots down — putting it on
/// the same round-robin worker as tenant 0 (see the module docs for why
/// the benchmark pins this draw).
pub fn tenant_shard(t: usize, tenants: usize) -> usize {
    if tenants > WORKERS {
        if t == 1 {
            return WORKERS;
        }
        if t == WORKERS {
            return 1;
        }
    }
    t
}

fn key_of(tenant: usize, i: u64) -> Vec<u8> {
    format!("t{tenant:02}-{i:06}").into_bytes()
}

/// Values derive from the key alone, so re-puts are idempotent and the
/// final state is identical no matter how client threads interleave.
fn value_of(key: &[u8]) -> Vec<u8> {
    let mut h = 0xcbf29ce484222325u64;
    for b in key {
        h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
    }
    let mut v = Vec::with_capacity(100);
    while v.len() < 100 {
        v.extend_from_slice(&h.to_le_bytes());
        h = h.wrapping_mul(0x100000001b3);
    }
    v.truncate(100);
    v
}

fn spread(deltas: &[u64]) -> f64 {
    let max = deltas.iter().copied().max().unwrap_or(0).max(1) as f64;
    let min = deltas.iter().copied().min().unwrap_or(0).max(1) as f64;
    max / min
}

/// One configuration's measurements.
#[derive(Debug, Clone)]
pub struct SkewResult {
    /// `static` (no rebalancing) or `balanced`.
    pub config: &'static str,
    /// Worker threads.
    pub workers: usize,
    /// Virtual shards (= tenants).
    pub shards: usize,
    /// Ownership migrations the balancer performed before measuring.
    pub migrations: u64,
    /// Ops completed in the measurement window.
    pub ops: u64,
    /// Wall-clock seconds of the measurement window.
    pub wall_secs: f64,
    /// Aggregate throughput over the window.
    pub throughput_ops_sec: f64,
    /// GET latency p50 over the window, nanoseconds.
    pub p50_get_ns: u64,
    /// GET latency p99 over the window, nanoseconds.
    pub p99_get_ns: u64,
    /// Per-worker ops completed during the window.
    pub worker_ops: Vec<u64>,
    /// Busiest/idlest worker by window ops — the throughput spread.
    pub ops_spread: f64,
    /// Busiest/idlest worker by window service time.
    pub busy_spread: f64,
}

fn open_store(name: &str, cache_capacity: usize) -> P2Kvs<lsmkv::Db> {
    // The paper's simulated NVMe device: per-op cost is real enough
    // that worker busy-time reflects work done, not allocator noise.
    let env: p2kvs_storage::EnvRef = Arc::new(SimEnv::with_profile(DeviceProfile::nvme_optane()));
    let mut lsm = lsmkv::Options::rocksdb_like(env);
    lsm.memtable_size = 256 << 10;
    lsm.target_file_size = 1 << 20;
    lsm.block_cache_size = 256 << 10;
    let mut opts = P2KvsOptions::with_workers(WORKERS);
    opts.pin_workers = false;
    // 0 for the paper configurations: hits served client-side would
    // bypass the very worker imbalance this bench measures. The cache
    // bench layers it back on via [`measure_cached`].
    opts.cache_capacity = cache_capacity;
    opts.partitioner = Some(Arc::new(TenantPartitioner::new(TENANTS)));
    P2Kvs::open(LsmFactory::new(lsm), name, opts).unwrap()
}

/// Total cache hits so far (0 with the cache off). Window deltas count
/// toward `ops`: hits are completed GETs the workers never see.
fn cache_hits(store: &P2Kvs<lsmkv::Db>) -> u64 {
    store
        .metrics_snapshot()
        .counter("p2kvs_cache_hits")
        .unwrap_or(0)
}

fn load(store: &P2Kvs<lsmkv::Db>, keys_per_tenant: u64) {
    for t in 0..TENANTS {
        for i in 0..keys_per_tenant {
            let k = key_of(t, i);
            let v = value_of(&k);
            store.put(&k, &v).unwrap();
        }
    }
}

/// Runs `ops` zipfian-tenant ops split over [`CLIENTS`] threads,
/// returning sorted GET latencies. Deterministic: each thread's op
/// stream depends only on `(seed, thread index)`.
fn drive(store: &P2Kvs<lsmkv::Db>, keys_per_tenant: u64, ops: u64, seed: u64) -> Vec<u64> {
    let zipf = Zipf::new(TENANTS, THETA);
    let per_client = ops / CLIENTS as u64;
    let mut lat: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let zipf = &zipf;
                s.spawn(move || {
                    let mut rng = Lcg(seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(c as u64 + 1)));
                    let mut lat = Vec::with_capacity(per_client as usize);
                    for _ in 0..per_client {
                        let tenant = zipf.rank(rng.unit());
                        let key = key_of(tenant, rng.next() % keys_per_tenant);
                        if rng.next() % 100 < PUT_PERCENT {
                            store.put(&key, &value_of(&key)).unwrap();
                        } else {
                            let began = Instant::now();
                            let got = store.get(&key).unwrap();
                            lat.push(began.elapsed().as_nanos() as u64);
                            assert!(got.is_some(), "preloaded key missing");
                        }
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

/// Deterministic sample readback used for the cross-configuration
/// byte-identity check.
fn readback(store: &P2Kvs<lsmkv::Db>, keys_per_tenant: u64) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
    let zipf = Zipf::new(TENANTS, THETA);
    let mut rng = Lcg(0x0ddba11);
    (0..READBACK_SAMPLE)
        .map(|_| {
            let key = key_of(zipf.rank(rng.unit()), rng.next() % keys_per_tenant);
            let got = store.get(&key).unwrap();
            (key, got)
        })
        .collect()
}

/// Measures one configuration: load, zipfian warmup (which feeds the
/// per-shard gauges), optional rebalancing to convergence, then a
/// measured window. Returns the result and the readback sample.
pub fn measure(
    config: &'static str,
    balance: bool,
    keys_per_tenant: u64,
    warmup_ops: u64,
    measure_ops: u64,
    seed: u64,
) -> (SkewResult, Vec<(Vec<u8>, Option<Vec<u8>>)>) {
    measure_cached(config, balance, 0, keys_per_tenant, warmup_ops, measure_ops, seed)
}

/// [`measure`] with a client-side read cache of `cache_capacity` bytes
/// (0 = off, the paper configuration). The cache bench uses this to
/// show the hot-set cache recovering throughput the balancer alone
/// leaves on the table — workload, placement, and seeds are identical,
/// so results stay byte-comparable across all configurations.
pub fn measure_cached(
    config: &'static str,
    balance: bool,
    cache_capacity: usize,
    keys_per_tenant: u64,
    warmup_ops: u64,
    measure_ops: u64,
    seed: u64,
) -> (SkewResult, Vec<(Vec<u8>, Option<Vec<u8>>)>) {
    let store = open_store(config, cache_capacity);
    load(&store, keys_per_tenant);

    // Warmup: builds the per-shard service-time signal the balancer
    // differentiates. The static configuration runs it too so both
    // stores enter the window with identical cache/compaction state.
    // The balanced configuration ticks between rounds — the
    // deterministic equivalent of `balance_interval`: each tick plans
    // from the load window the previous round built (a tick sees only
    // the delta since the last one, so back-to-back ticks with no
    // traffic in between would plan nothing).
    const WARMUP_ROUNDS: u64 = 4;
    for round in 0..WARMUP_ROUNDS {
        drive(
            &store,
            keys_per_tenant,
            warmup_ops / WARMUP_ROUNDS,
            seed ^ 0xAA55_77EE ^ round,
        );
        if balance {
            store.rebalance_once().unwrap();
        }
    }

    let before = store.snapshot();
    let hits_before = cache_hits(&store);
    let began = Instant::now();
    let lat = drive(&store, keys_per_tenant, measure_ops, seed);
    let wall_secs = began.elapsed().as_secs_f64();
    let after = store.snapshot();
    let hits_after = cache_hits(&store);

    let worker_ops: Vec<u64> = after
        .workers
        .iter()
        .zip(&before.workers)
        .map(|(a, b)| a.ops.saturating_sub(b.ops))
        .collect();
    let worker_busy: Vec<u64> = after
        .workers
        .iter()
        .zip(&before.workers)
        .map(|(a, b)| a.busy.saturating_sub(b.busy).as_nanos() as u64)
        .collect();
    // Cache hits complete on the client thread and never reach a
    // worker; counting only worker deltas would report the cached
    // configuration's misses as its whole throughput.
    let ops: u64 = worker_ops.iter().sum::<u64>() + hits_after.saturating_sub(hits_before);
    let result = SkewResult {
        config,
        workers: store.workers(),
        shards: store.shards(),
        migrations: store.migrations(),
        ops,
        wall_secs,
        throughput_ops_sec: ops as f64 / wall_secs.max(1e-9),
        p50_get_ns: crate::percentile(&lat, 0.50),
        p99_get_ns: crate::percentile(&lat, 0.99),
        ops_spread: spread(&worker_ops),
        busy_spread: spread(&worker_busy),
        worker_ops,
    };
    let sample = readback(&store, keys_per_tenant);
    store.close();
    (result, sample)
}

/// `static`'s per-worker throughput spread over `balanced`'s (>1 means
/// rebalancing evened the load).
pub fn spread_improvement(results: &[SkewResult]) -> f64 {
    let find = |c: &str| results.iter().find(|r| r.config == c).map(|r| r.ops_spread);
    match (find("static"), find("balanced")) {
        (Some(s), Some(b)) if b > 0.0 => s / b,
        _ => 0.0,
    }
}

/// `balanced` aggregate throughput over `static`'s.
pub fn throughput_improvement(results: &[SkewResult]) -> f64 {
    let find = |c: &str| {
        results
            .iter()
            .find(|r| r.config == c)
            .map(|r| r.throughput_ops_sec)
    };
    match (find("static"), find("balanced")) {
        (Some(s), Some(b)) if s > 0.0 => b / s,
        _ => 0.0,
    }
}

/// Renders the `BENCH_skew.json` artifact.
pub fn render_json(
    results: &[SkewResult],
    keys_per_tenant: u64,
    identical: bool,
    seed: u64,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        &crate::artifact::RunMeta::new("skew_rebalance", seed)
            .num("tenants", TENANTS)
            .num("theta", THETA)
            .num("keys_per_tenant", keys_per_tenant)
            .render(),
    );
    s.push_str(&format!("  \"reads_identical\": {identical},\n"));
    s.push_str(&format!(
        "  \"spread_improvement\": {:.3},\n",
        spread_improvement(results)
    ));
    s.push_str(&format!(
        "  \"throughput_improvement\": {:.3},\n",
        throughput_improvement(results)
    ));
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let worker_ops: Vec<String> = r.worker_ops.iter().map(|o| o.to_string()).collect();
        s.push_str(&format!(
            "    {{\"config\": \"{}\", \"workers\": {}, \"shards\": {}, \
             \"migrations\": {}, \"ops\": {}, \"wall_secs\": {:.3}, \
             \"throughput_ops_sec\": {:.1}, \"p50_get_ns\": {}, \
             \"p99_get_ns\": {}, \"worker_ops\": [{}], \
             \"ops_spread\": {:.3}, \"busy_spread\": {:.3}}}{}\n",
            r.config,
            r.workers,
            r.shards,
            r.migrations,
            r.ops,
            r.wall_secs,
            r.throughput_ops_sec,
            r.p50_get_ns,
            r.p99_get_ns,
            worker_ops.join(", "),
            r.ops_spread,
            r.busy_spread,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Where the artifact goes: `$P2KVS_METRICS_DIR` when set, the working
/// directory otherwise.
pub fn artifact_path() -> PathBuf {
    match std::env::var(crate::artifact::METRICS_DIR_ENV) {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir).join("BENCH_skew.json"),
        _ => PathBuf::from("BENCH_skew.json"),
    }
}

/// Runs both configurations (2 000 keys × 16 tenants, 60k warmup and
/// 120k measured ops, scaled by `P2KVS_SCALE`; seed from
/// `P2KVS_SKEW_SEED`, default fixed) and writes `BENCH_skew.json` to
/// `path`. Panics if the configurations disagree on any read — the
/// rebalancer must be invisible to results.
pub fn run_default(path: &Path) -> std::io::Result<Vec<SkewResult>> {
    let keys_per_tenant = crate::scaled(2_000);
    let warmup_ops = crate::scaled(60_000);
    let measure_ops = crate::scaled(120_000);
    let seed = std::env::var("P2KVS_SKEW_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD15C_0B5E);

    let (stat, stat_sample) =
        measure("static", false, keys_per_tenant, warmup_ops, measure_ops, seed);
    let (bal, bal_sample) =
        measure("balanced", true, keys_per_tenant, warmup_ops, measure_ops, seed);
    let identical = stat_sample == bal_sample;
    assert!(
        identical,
        "static and balanced configurations must return byte-identical reads"
    );

    let results = vec![stat, bal];
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_json(&results, keys_per_tenant, identical, seed))?;
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_a_distribution() {
        let z = Zipf::new(16, THETA);
        assert!((z.cdf.last().copied().unwrap() - 1.0).abs() < 1e-12);
        assert!(z.cdf.windows(2).all(|w| w[0] < w[1]));
        // The hottest rank carries by far the most mass.
        assert!(z.cdf[0] > 0.25);
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999), 15);
    }

    #[test]
    fn hot_tenants_collide_on_one_worker() {
        // Ranks 0 and 1 must land on shards the round-robin map assigns
        // to the same worker — the draw the benchmark pins.
        let s0 = tenant_shard(0, TENANTS);
        let s1 = tenant_shard(1, TENANTS);
        assert_ne!(s0, s1, "distinct shards");
        assert_eq!(s0 % WORKERS, s1 % WORKERS, "same round-robin worker");
        // ...and the table stays a permutation.
        let mut seen: Vec<usize> = (0..TENANTS).map(|t| tenant_shard(t, TENANTS)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..TENANTS).collect::<Vec<_>>());
    }

    #[test]
    fn partitioner_routes_by_tenant_prefix() {
        let p = TenantPartitioner::new(TENANTS);
        assert_eq!(p.partitions(), TENANTS);
        for t in 0..TENANTS {
            assert_eq!(p.shard_of(&key_of(t, 42)), tenant_shard(t, TENANTS));
        }
    }

    #[test]
    fn tiny_run_balances_and_reads_identically() {
        let (stat, a) = measure("static", false, 50, 3_000, 3_000, 7);
        let (bal, b) = measure("balanced", true, 50, 3_000, 3_000, 7);
        assert_eq!(a, b, "reads must not depend on the shard map");
        assert_eq!(stat.migrations, 0);
        assert!(bal.migrations >= 1, "skewed warmup must trigger moves");
        assert!(stat.ops > 0 && bal.ops > 0);
        assert!(stat.p50_get_ns <= stat.p99_get_ns);
        let json = render_json(&[stat, bal], 50, true, 7);
        assert!(json.contains("\"bench\": \"skew_rebalance\""));
        assert!(json.contains("\"config\": \"balanced\""));
        assert!(json.contains("spread_improvement"));
        let v = crate::artifact::validate_schema(&json);
        assert!(v.is_empty(), "{v:?}");
    }
}
