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
//!
//! The balancer plans from the ops each shard served, and with the cache
//! off those are a function of the seed alone: every client thread issues
//! a fixed, seeded op list. So one seed makes the same moves every run,
//! and [`gate`] can hold the ops spread to a bound
//! ([`MIN_SPREAD_IMPROVEMENT`]) — a ratio of counts, not of clock
//! readings.

use std::sync::Arc;

use p2kvs::{P2KvsOptions, Partitioner};
use p2kvs_util::rng::Rng;

use crate::artifact::{Fields, Report, Value};
use crate::setups;
use crate::workload::{self, GateMix, Run, Sample, Zipf};

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
/// The gate: the static map's per-worker ops spread must be at least this
/// many times the balanced one's. At `P2KVS_SCALE=0.05` seeds 1–40
/// measured 2.03–2.59× (EXPERIMENTS.md "Planned from counts").
pub const MIN_SPREAD_IMPROVEMENT: f64 = 2.0;
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

/// Measures one configuration: load, zipfian warmup (which feeds the
/// per-shard op counts), a balancer tick after each warmup round when
/// `balance`, then a measured window. Returns the row and the readback
/// sample.
fn measure(
    config: &'static str,
    balance: bool,
    keys_per_tenant: u64,
    warmup_ops: u64,
    measure_ops: u64,
    seed: u64,
) -> (Fields, Sample) {
    let mut opts = P2KvsOptions::with_workers(WORKERS);
    // Cache off: hits served client-side would bypass the very worker
    // imbalance the scenario measures.
    opts.cache_capacity = 0;
    opts.partitioner = Some(Arc::new(TenantPartitioner::new(TENANTS)));
    let client = setups::scenario_store(config, setups::scenario_engine(setups::nvme_env()), opts);
    let store = &client.store;
    let key = |i: u64| key_of((i / keys_per_tenant) as usize, i % keys_per_tenant);
    workload::load(&client, TENANTS as u64 * keys_per_tenant, key, VALUE_LEN).expect("load");

    let zipf = Zipf::new(TENANTS, THETA);
    let pick = |rng: &mut Rng| pick_key(&zipf, keys_per_tenant, rng);
    let drive = |ops: u64, seed: u64| {
        let mix = GateMix {
            seed,
            put_percent: PUT_PERCENT,
            value_len: VALUE_LEN,
            pick,
        };
        workload::drive(&client, &mix, Run::new(CLIENTS, ops, false))
    };
    // Warmup: builds the per-shard op counts the balancer
    // differentiates. The static configuration runs it too so both
    // stores enter the window with identical cache/compaction state.
    // The balanced configuration ticks between rounds — the
    // deterministic equivalent of `balance_interval`: each tick plans
    // from the load window the previous round built (a tick sees only
    // the delta since the last one, so back-to-back ticks with no
    // traffic in between would plan nothing).
    const WARMUP_ROUNDS: u64 = 4;
    let mut failed_calls = 0;
    for round in 0..WARMUP_ROUNDS {
        failed_calls += drive(warmup_ops / WARMUP_ROUNDS, seed ^ 0xAA55_77EE ^ round).errors;
        if balance {
            store.rebalance_once().unwrap();
        }
    }

    let before = store.snapshot();
    let r = drive(measure_ops, seed);
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
    let ops = worker_ops.iter().sum::<u64>();
    let row = Fields::new()
        .with("config", config)
        .with("workers", store.workers())
        .with("shards", store.shards())
        .with("migrations", store.migrations())
        .window(ops, r.elapsed.as_secs_f64())
        .with("failed_calls", failed_calls + r.errors)
        .with("p50_get_ns", r.reads.quantile(0.50))
        .with("p99_get_ns", r.reads.quantile(0.99))
        .with(
            "worker_ops",
            Value::List(worker_ops.iter().map(|o| (*o).into()).collect()),
        )
        .float("ops_spread", spread(&worker_ops), 3)
        .float("busy_spread", spread(&worker_busy), 3)
        .with(
            "shard_owners",
            Value::List(store.shard_owners().into_iter().map(Into::into).collect()),
        );
    let sample = workload::readback(&client, pick);
    (row, sample)
}

/// Runs both configurations. `tick` lets the balanced one tick; a run
/// without ticks is the negative control of [`gate`].
fn run_sized(
    keys_per_tenant: u64,
    warmup_ops: u64,
    measure_ops: u64,
    seed: u64,
    tick: bool,
) -> Report {
    let (stat, stat_sample) = measure(
        "static",
        false,
        keys_per_tenant,
        warmup_ops,
        measure_ops,
        seed,
    );
    let (bal, bal_sample) = measure(
        "balanced",
        tick,
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
        true,
    )
}

/// The rebalancer must be invisible to reads and must cut the per-worker
/// ops spread by [`MIN_SPREAD_IMPROVEMENT`]; the throughput ratio is
/// reported, not gated (it reads a clock).
pub fn gate(summary: &Fields) -> Vec<String> {
    let mut failed = Vec::new();
    if !summary.is("reads_identical") {
        failed.push("static and balanced configurations returned different reads".into());
    }
    let improvement = summary.num("spread_improvement");
    if improvement < MIN_SPREAD_IMPROVEMENT {
        failed.push(format!(
            "balancing cut the ops spread only {improvement:.3}x \
             (bound {MIN_SPREAD_IMPROVEMENT:.1}x)"
        ));
    }
    failed
}

/// The scenario at a size a unit test can afford.
#[cfg(test)]
pub(crate) fn smoke() -> Report {
    run_sized(50, 3_000, 3_000, 7, true)
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
        assert_eq!(report.failed_calls(), 0, "a call of the windows failed");
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
                .float("spread_improvement", 2.4, 3)
                .float("throughput_improvement", 0.9, 3)
        };
        assert!(gate(&summary(true)).is_empty());
        assert_eq!(gate(&summary(false)).len(), 1);
    }

    #[test]
    fn gate_fails_a_balancer_that_never_ticks() {
        let report = run_sized(50, 3_000, 3_000, 7, false);
        assert_eq!(report.rows[1].int("migrations"), 0);
        let failed = gate(&report.summary);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains("ops spread"), "{failed:?}");
    }

    #[test]
    fn one_seed_makes_the_same_moves() {
        let plan = |r: &Report| {
            let bal = &r.rows[1];
            (
                bal.int("migrations"),
                bal.get("worker_ops").clone(),
                bal.get("shard_owners").clone(),
            )
        };
        let (a, b) = (smoke(), smoke());
        assert!(a.rows[1].int("migrations") >= 1);
        assert_eq!(plan(&a), plan(&b));
    }
}
