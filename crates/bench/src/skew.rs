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
//! identically loaded stores; [`run`] records whether their reads are
//! byte-identical and reports per-worker throughput spread, busy-time
//! spread, and GET latency percentiles.

use std::sync::Arc;
use std::time::Instant;

use p2kvs::{P2Kvs, P2KvsOptions, Partitioner};
use p2kvs_util::rng::Rng;

use crate::artifact::{Fields, Report, Value};
use crate::setups::{self, Sample};
use crate::workload::Zipf;

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
const VALUE_LEN: usize = 100;

/// Routes `t{tt:02}…` keys to one shard per tenant. Tenant ids are
/// popularity ranks (tenant 00 is the hottest); [`tenant_shard`] is the
/// placement table described in the module docs.
pub struct TenantPartitioner {
    tenants: usize,
}

impl TenantPartitioner {
    /// One shard per tenant.
    pub fn new(tenants: usize) -> TenantPartitioner {
        TenantPartitioner {
            tenants: tenants.max(1),
        }
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

/// A key of a zipfian-popular tenant.
fn pick_key(zipf: &Zipf, keys_per_tenant: u64, rng: &mut Rng) -> Vec<u8> {
    let tenant = zipf.rank(rng.unit());
    key_of(tenant, rng.below(keys_per_tenant))
}

fn spread(deltas: &[u64]) -> f64 {
    let max = deltas.iter().copied().max().unwrap_or(0).max(1) as f64;
    let min = deltas.iter().copied().min().unwrap_or(0).max(1) as f64;
    max / min
}

/// Total cache hits so far (0 with the cache off). Window deltas count
/// toward `ops`: hits are completed GETs the workers never see.
fn cache_hits(store: &P2Kvs<lsmkv::Db>) -> u64 {
    store
        .metrics_snapshot()
        .counter("p2kvs_cache_hits")
        .unwrap_or(0)
}

/// Measures one configuration: load, zipfian warmup (which feeds the
/// per-shard gauges), rebalancing to convergence when `balance`, then a
/// measured window. Returns the row and the readback sample.
///
/// `cache_capacity` is 0 for this scenario's own configurations: hits
/// served client-side would bypass the very worker imbalance it measures.
/// The cache scenario layers it back on to show the hot-set cache
/// recovering throughput the balancer alone leaves on the table —
/// workload, placement, and seeds are identical, so results stay
/// byte-comparable across all configurations.
pub fn measure(
    config: &'static str,
    balance: bool,
    cache_capacity: usize,
    keys_per_tenant: u64,
    warmup_ops: u64,
    measure_ops: u64,
    seed: u64,
) -> (Fields, Sample) {
    let mut opts = P2KvsOptions::with_workers(WORKERS);
    opts.cache_capacity = cache_capacity;
    opts.partitioner = Some(Arc::new(TenantPartitioner::new(TENANTS)));
    let store = setups::scenario_store(config, setups::scenario_engine(setups::nvme_env()), opts);
    let keys = (0..TENANTS).flat_map(|t| (0..keys_per_tenant).map(move |i| key_of(t, i)));
    setups::load(&store, keys, VALUE_LEN);

    let zipf = Zipf::new(TENANTS, THETA);
    let drive = |ops: u64, seed: u64| {
        setups::drive(
            &store,
            CLIENTS,
            ops / CLIENTS as u64,
            seed,
            PUT_PERCENT,
            VALUE_LEN,
            |rng| pick_key(&zipf, keys_per_tenant, rng),
        )
    };
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
        drive(warmup_ops / WARMUP_ROUNDS, seed ^ 0xAA55_77EE ^ round);
        if balance {
            store.rebalance_once().unwrap();
        }
    }

    let before = store.snapshot();
    let hits_before = cache_hits(&store);
    let began = Instant::now();
    let lat = drive(measure_ops, seed);
    let wall_secs = began.elapsed().as_secs_f64();
    let after = store.snapshot();

    let deltas = |f: fn(&p2kvs::stats::WorkerSnapshot) -> u64| -> Vec<u64> {
        after
            .workers
            .iter()
            .zip(&before.workers)
            .map(|(a, b)| f(a).saturating_sub(f(b)))
            .collect()
    };
    let worker_ops = deltas(|w| w.ops);
    let worker_busy = deltas(|w| w.busy.as_nanos() as u64);
    // Cache hits complete on the client thread and never reach a
    // worker; counting only worker deltas would report the cached
    // configuration's misses as its whole throughput.
    let ops = worker_ops.iter().sum::<u64>() + cache_hits(&store).saturating_sub(hits_before);
    let row = Fields::new()
        .with("config", config)
        .with("workers", store.workers())
        .with("shards", store.shards())
        .with("migrations", store.migrations())
        .window(ops, wall_secs)
        .with("p50_get_ns", crate::percentile(&lat.gets, 0.50))
        .with("p99_get_ns", crate::percentile(&lat.gets, 0.99))
        .with(
            "worker_ops",
            Value::List(worker_ops.iter().map(|o| (*o).into()).collect()),
        )
        .float("ops_spread", spread(&worker_ops), 3)
        .float("busy_spread", spread(&worker_busy), 3);
    let sample = setups::readback(&store, |rng| pick_key(&zipf, keys_per_tenant, rng));
    store.close();
    (row, sample)
}

fn run_sized(keys_per_tenant: u64, warmup_ops: u64, measure_ops: u64, seed: u64) -> Report {
    let (stat, stat_sample) = measure(
        "static",
        false,
        0,
        keys_per_tenant,
        warmup_ops,
        measure_ops,
        seed,
    );
    let (bal, bal_sample) = measure(
        "balanced",
        true,
        0,
        keys_per_tenant,
        warmup_ops,
        measure_ops,
        seed,
    );
    Report {
        bench: "skew_rebalance",
        seed,
        config: Fields::new()
            .with("tenants", TENANTS)
            .float("theta", THETA, 2)
            .with("keys_per_tenant", keys_per_tenant),
        // Both ratios read >1 when rebalancing helped: `static`'s
        // per-worker throughput spread over `balanced`'s, and
        // `balanced`'s aggregate throughput over `static`'s.
        summary: Fields::new()
            .with("reads_identical", stat_sample == bal_sample)
            .float(
                "spread_improvement",
                stat.num("ops_spread") / bal.num("ops_spread"),
                3,
            )
            .float(
                "throughput_improvement",
                bal.num("throughput_ops_sec") / stat.num("throughput_ops_sec").max(1e-9),
                3,
            ),
        rows: vec![stat, bal],
    }
}

/// Both configurations over 2 000 keys × 16 tenants, 60k warmup and 120k
/// measured ops (scaled by `P2KVS_SCALE`), seeded by `P2KVS_SKEW_SEED`.
pub fn run() -> Report {
    run_sized(
        crate::scaled(2_000),
        crate::scaled(60_000),
        crate::scaled(120_000),
        crate::seed_from_env("P2KVS_SKEW_SEED", 0xD15C_0B5E),
    )
}

/// The rebalancer must be invisible to reads; the improvements are
/// reported, not gated.
pub fn gate(summary: &Fields, _full_scale: bool) -> Vec<String> {
    if summary.is("reads_identical") {
        return Vec::new();
    }
    vec!["static and balanced configurations returned different reads".into()]
}

/// The scenario at a size a unit test can afford.
#[cfg(test)]
pub(crate) fn smoke() -> Report {
    run_sized(50, 3_000, 3_000, 7)
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
        let report = smoke();
        let (stat, bal) = (&report.rows[0], &report.rows[1]);
        assert!(
            report.summary.is("reads_identical"),
            "reads must not depend on the shard map"
        );
        assert_eq!(stat.int("migrations"), 0);
        assert!(
            bal.int("migrations") >= 1,
            "skewed warmup must trigger moves"
        );
        assert!(stat.int("ops") > 0 && bal.int("ops") > 0);
        assert!(stat.int("p50_get_ns") <= stat.int("p99_get_ns"));
        assert!(bal.has("config", "balanced"));
    }

    #[test]
    fn gate_holds_only_identical_reads() {
        let summary = |identical: bool| {
            Fields::new()
                .with("reads_identical", identical)
                .float("spread_improvement", 0.9, 3)
                .float("throughput_improvement", 0.9, 3)
        };
        assert!(gate(&summary(true), true).is_empty());
        assert_eq!(
            gate(&summary(false), false).len(),
            1,
            "identity is gated at every scale"
        );
    }
}
