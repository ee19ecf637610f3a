//! Diurnal elastic-scaling benchmark: a load ramp (1× → 8× → 1×) over
//! the utilization-driven auto-scaling pool versus a statically
//! over-provisioned store, writing `BENCH_elastic.json`.
//!
//! The scenario is the one `P2Kvs::scale_workers` exists for: offered
//! load follows a diurnal curve — quiet, a ramp to an 8× peak, quiet
//! again — and a fixed pool must be provisioned for the peak, burning
//! seven idle threads for most of the day. The elastic configuration
//! opens at one worker with a [`p2kvs::ScalePolicy`] and lets the
//! balancer clock resize the pool: each deterministic
//! [`p2kvs::P2Kvs::rebalance_once`] tick compares the interval's aggregate
//! service time against what the live workers should absorb at the
//! target utilization and spawns or drain-retires one worker.
//!
//! Offered load is modeled open-loop-ishly by concurrency: phase `m`
//! drives `m` client threads (the "1×→8×→1×" multiplier), each issuing
//! the same deterministic op stream. Values derive from the key alone,
//! so the two configurations — which run identical phase schedules —
//! must return byte-identical reads.
//!
//! One count is gated beside that identity, **provisioning**: the
//! elastic pool's live worker count, sampled after every tick and
//! averaged, is at least [`PROVISIONING_BUDGET`]× lower than the static
//! configuration's fixed [`MAX_WORKERS`]. Each configuration's
//! steady-state GET p99 (each phase's final round, after the pool has
//! adapted) and their ratio are reported, not gated.

use std::time::Instant;

use p2kvs::{P2KvsOptions, ScalePolicy};
use p2kvs_util::histogram::Histogram;
use p2kvs_util::rng::Rng;

use crate::artifact::{Fields, Report};
use crate::clients::P2Client;
use crate::setups;
use crate::workload::{self, GateMix, Run, Sample};

/// Peak pool size: the static configuration provisions this many
/// workers for the whole run; the elastic one may grow up to it.
pub const MAX_WORKERS: usize = 8;
/// Virtual shards — `2×` the peak so the balancer can spread load even
/// at full fan-out.
pub const SHARDS: usize = 16;
/// The diurnal load curve: client-thread multiplier per phase.
pub const PHASES: [usize; 7] = [1, 2, 4, 8, 4, 2, 1];
/// Rounds per phase; each round ends in one balancer tick, so the
/// elastic pool gets this many resize opportunities per load level.
/// The last round of each phase is the steady-state latency measurement.
pub const ROUNDS_PER_PHASE: usize = 3;
/// Provisioning gate: static avg workers ≥ this × elastic avg workers.
pub const PROVISIONING_BUDGET: f64 = 2.0;
/// Fraction of ops that are writes.
const PUT_PERCENT: u64 = 5;
const VALUE_LEN: usize = 100;

fn key_of(i: u64) -> Vec<u8> {
    format!("e{i:08}").into_bytes()
}

fn open_store(name: &str, elastic: bool) -> P2Client<lsmkv::Db> {
    let mut opts = P2KvsOptions::with_workers(if elastic { 1 } else { MAX_WORKERS });
    opts.shards = SHARDS;
    // No client-side cache: hits served off-worker would hide the very
    // queueing the pool size determines.
    opts.cache_capacity = 0;
    if elastic {
        // cooldown 0: with a handful of deterministic ticks per phase,
        // sitting ticks out would starve the ramp.
        opts.scale = Some(ScalePolicy {
            target_util: 0.6,
            min_workers: 1,
            max_workers: MAX_WORKERS,
            cooldown: 0,
        });
    }
    setups::scenario_store(name, setups::scenario_engine(setups::nvme_env()), opts)
}

/// Measures one configuration (`elastic` or `static`) across the whole
/// diurnal schedule. Each round — `load_x` client threads, 95/5
/// read/write over the preloaded keyspace — ends in one balancer tick.
/// Returns the phase rows (GET percentiles from the phase's final,
/// steady-state round), the live-worker count sampled after every tick,
/// and the readback sample.
fn measure(
    config: &'static str,
    keys: u64,
    ops_per_client: u64,
    seed: u64,
) -> (Vec<Fields>, Vec<usize>, Sample) {
    let client = open_store(config, config == "elastic");
    let store = &client.store;
    workload::load(&client, keys, key_of, VALUE_LEN).expect("load");
    let pick = |rng: &mut Rng| key_of(rng.below(keys));
    let mut rows = Vec::with_capacity(PHASES.len());
    let mut samples = Vec::new();
    for (phase, &load_x) in PHASES.iter().enumerate() {
        let began = Instant::now();
        let mut phase_workers = 0usize;
        let mut last_round_gets = Histogram::new();
        let mut failed_calls = 0;
        for round in 0..ROUNDS_PER_PHASE {
            let mix = GateMix {
                seed: seed ^ ((phase as u64) << 8) ^ round as u64,
                put_percent: PUT_PERCENT,
                value_len: VALUE_LEN,
                pick,
            };
            let run = Run::new(load_x, load_x as u64 * ops_per_client, false);
            let r = workload::drive(&client, &mix, run);
            failed_calls += r.errors;
            last_round_gets = r.reads;
            store.rebalance_once().unwrap();
            phase_workers += store.workers();
            samples.push(store.workers());
        }
        rows.push(
            Fields::new()
                .with("config", config)
                .with("phase", phase)
                .with("load_x", load_x)
                .float(
                    "workers_avg",
                    phase_workers as f64 / ROUNDS_PER_PHASE as f64,
                    2,
                )
                .with("workers_end", store.workers())
                .window(
                    (load_x * ROUNDS_PER_PHASE) as u64 * ops_per_client,
                    began.elapsed().as_secs_f64(),
                )
                .with("failed_calls", failed_calls)
                .with("p50_get_ns", last_round_gets.quantile(0.50))
                .with("p99_get_ns", last_round_gets.quantile(0.99)),
        );
    }
    let sample = workload::readback(&client, pick);
    (rows, samples, sample)
}

fn avg(samples: &[usize]) -> f64 {
    samples.iter().sum::<usize>() as f64 / samples.len().max(1) as f64
}

/// Builds the summary from both configurations' phase rows and per-tick
/// live-worker samples.
fn summarize(
    elastic_rows: &[Fields],
    elastic_samples: &[usize],
    static_rows: &[Fields],
    static_samples: &[usize],
    reads_identical: bool,
) -> Fields {
    // The reported p99 is the worst steady-state phase p99: the elastic
    // pool should hold latency at every load level once adapted, not
    // just on average.
    let worst = |rows: &[Fields]| rows.iter().map(|r| r.int("p99_get_ns")).max().unwrap_or(0);
    let (elastic_p99, static_p99) = (worst(elastic_rows), worst(static_rows));
    let p99_ratio = elastic_p99 as f64 / (static_p99 as f64).max(1.0);
    let improvement = avg(static_samples) / avg(elastic_samples).max(1e-9);
    Fields::new()
        .with("reads_identical", reads_identical)
        .float("elastic_avg_workers", avg(elastic_samples), 3)
        .float("static_avg_workers", avg(static_samples), 3)
        .with(
            "elastic_peak_workers",
            elastic_samples.iter().copied().max().unwrap_or(0),
        )
        .float("provisioning_improvement", improvement, 3)
        .with("elastic_p99_ns", elastic_p99)
        .with("static_p99_ns", static_p99)
        .float("p99_ratio", p99_ratio, 3)
}

fn run_sized(keys: u64, ops_per_client: u64, seed: u64) -> Report {
    let (el_rows, el_samples, el_sample) = measure("elastic", keys, ops_per_client, seed);
    let (st_rows, st_samples, st_sample) = measure("static", keys, ops_per_client, seed);
    let phases: Vec<String> = PHASES.iter().map(|p| p.to_string()).collect();
    Report {
        bench: "elastic_scale",
        seed,
        config: Fields::new()
            .with("max_workers", MAX_WORKERS)
            .with("shards", SHARDS)
            .with("rounds_per_phase", ROUNDS_PER_PHASE)
            .with("keys", keys)
            .with("ops_per_client", ops_per_client)
            .float("provisioning_budget", PROVISIONING_BUDGET, 1)
            .with("phases", phases.join(",").as_str()),
        summary: summarize(
            &el_rows,
            &el_samples,
            &st_rows,
            &st_samples,
            el_sample == st_sample,
        ),
        rows: [el_rows, st_rows].concat(),
    }
}

/// Both configurations over the diurnal schedule: 10k keys, 4k ops per
/// client per round (scaled by `P2KVS_SCALE`), seeded by
/// `P2KVS_ELASTIC_SEED`.
pub fn run() -> Report {
    run_sized(
        crate::scaled(10_000),
        crate::scaled(4_000),
        crate::seed_from_env("P2KVS_ELASTIC_SEED", 0xE1A5_71C5),
    )
}

/// Resizing must be invisible to reads, and the elastic pool must
/// provision [`PROVISIONING_BUDGET`]× fewer workers on average. The
/// second holds trivially when the pool never grows.
pub fn gate(summary: &Fields) -> Vec<String> {
    let mut failed = Vec::new();
    if !summary.is("reads_identical") {
        failed.push("elastic and static configurations returned different reads".into());
    }
    let improvement = summary.num("provisioning_improvement");
    if improvement < PROVISIONING_BUDGET {
        failed.push(format!(
            "elastic pool only saves {improvement:.2}x workers (budget {PROVISIONING_BUDGET:.1}x)"
        ));
    }
    failed
}

/// The scenario's own key count and half its ops: a worker serves a
/// memtable GET in ~2 µs, so with a few hundred ops per client the
/// client threads' start-up outweighs the work between two ticks and the
/// peak never reads as 60 % of one worker. One smoke runs at a time: on a
/// two-core host two at once halve each other's worker, and neither peak
/// reads as 60 % of one.
#[cfg(test)]
pub(crate) fn smoke() -> Report {
    static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    run_sized(10_000, 2_000, 7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_curve_ramps_up_and_back_down() {
        assert_eq!(PHASES[0], 1);
        assert_eq!(*PHASES.iter().max().unwrap(), MAX_WORKERS);
        assert_eq!(PHASES[PHASES.len() - 1], 1);
        // Monotone up then monotone down.
        let peak = PHASES.iter().position(|&p| p == MAX_WORKERS).unwrap();
        assert!(PHASES[..=peak].windows(2).all(|w| w[0] <= w[1]));
        assert!(PHASES[peak..].windows(2).all(|w| w[0] >= w[1]));
    }

    fn row(config: &'static str, p99: u64) -> Fields {
        Fields::new().with("config", config).with("p99_get_ns", p99)
    }

    #[test]
    fn summary_gates_and_json_schema() {
        let s = summarize(
            &[row("elastic", 1200), row("elastic", 1400)],
            &[1, 2, 2, 3],
            &[row("static", 1000), row("static", 1000)],
            &[8, 8, 8, 8],
            true,
        );
        assert_eq!(s.int("elastic_p99_ns"), 1400, "the worst phase is reported");
        assert!((s.num("p99_ratio") - 1.4).abs() < 1e-9);
        assert_eq!(s.int("elastic_peak_workers"), 3);
        assert!((s.num("elastic_avg_workers") - 2.0).abs() < 1e-9);
        assert!((s.num("provisioning_improvement") - 4.0).abs() < 1e-9);
        assert!(gate(&s).is_empty());
    }

    #[test]
    fn summary_flags_budget_violations() {
        let summary = |identical| {
            summarize(
                &[row("elastic", 2000)],
                &[5, 5],
                &[row("static", 1000)],
                &[8, 8],
                identical,
            )
        };
        // 2.0x the static p99 is reported; 1.6x fewer workers trips.
        let failed = gate(&summary(true));
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains("saves 1.60x"), "{failed:?}");
        assert_eq!(gate(&summary(false)).len(), 2, "and so do different reads");
    }

    /// A half-size end-to-end run: the elastic pool must actually move
    /// (grow past one worker under the ramp, end the quiet tail below
    /// the peak), the static pool must stay pinned, and the two must
    /// read back identically.
    #[test]
    fn tiny_run_scales_and_reads_identically() {
        let report = smoke();
        assert_eq!(report.failed_calls(), 0, "a call of the windows failed");
        let (elastic, fixed) = report.rows.split_at(PHASES.len());
        assert!(
            report.summary.is("reads_identical"),
            "reads must not depend on the pool size"
        );
        assert!(
            fixed
                .iter()
                .all(|r| r.int("workers_end") == MAX_WORKERS as u64),
            "static pool pinned"
        );
        assert!(
            report.summary.int("elastic_peak_workers") > 1,
            "the ramp never grew the elastic pool: {elastic:?}"
        );
        assert!(
            elastic.last().unwrap().int("workers_end") < MAX_WORKERS as u64,
            "the quiet tail never shrank the pool: {elastic:?}"
        );
        assert!(
            report.summary.num("elastic_avg_workers") < report.summary.num("static_avg_workers")
        );
    }
}
