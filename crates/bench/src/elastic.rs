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
//! [`P2Kvs::rebalance_once`] tick compares the interval's aggregate
//! service time against what the live workers should absorb at the
//! target utilization and spawns or drain-retires one worker.
//!
//! Offered load is modeled open-loop-ishly by concurrency: phase `m`
//! drives `m` client threads (the "1×→8×→1×" multiplier), each issuing
//! the same deterministic op stream. Values derive from the key alone,
//! so the two configurations — which run identical phase schedules —
//! must return byte-identical reads; [`run_default`] verifies that.
//!
//! Two gates ride in the artifact (asserted by the `elastic_scale`
//! binary, checked in CI):
//!
//! * **latency**: the elastic configuration's steady-state GET p99
//!   (each phase's final round, after the pool has adapted) stays
//!   within [`P99_BUDGET`]× of the statically over-provisioned p99;
//! * **provisioning**: the elastic pool's time-averaged live worker
//!   count is at least [`PROVISIONING_BUDGET`]× lower than the static
//!   configuration's fixed [`MAX_WORKERS`].
//!
//! No `rand` dependency: the same fixed LCG as the skew bench keeps
//! every run reproducible.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, P2KvsOptions, ScalePolicy};
use p2kvs_storage::{DeviceProfile, SimEnv};

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
/// The last round of each phase is the steady-state measurement the
/// latency gate reads.
pub const ROUNDS_PER_PHASE: usize = 3;
/// Latency gate: elastic steady-state GET p99 ≤ this × static p99.
pub const P99_BUDGET: f64 = 1.5;
/// Provisioning gate: static avg workers ≥ this × elastic avg workers.
pub const PROVISIONING_BUDGET: f64 = 2.0;
/// Fraction of ops that are writes.
const PUT_PERCENT: u64 = 5;
/// Keys sampled for the cross-configuration byte-identity check.
const READBACK_SAMPLE: u64 = 2_000;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Numerical Recipes LCG constants.
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

fn key_of(i: u64) -> Vec<u8> {
    format!("e{i:08}").into_bytes()
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

/// One phase of one configuration.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// `elastic` or `static`.
    pub config: &'static str,
    /// Phase index into [`PHASES`].
    pub phase: usize,
    /// The phase's load multiplier (= client threads).
    pub load_x: usize,
    /// Mean live workers over the phase's rounds (sampled after every
    /// tick). Constant [`MAX_WORKERS`] for the static configuration.
    pub workers_avg: f64,
    /// Live workers after the phase's last tick.
    pub workers_end: usize,
    /// Ops completed across the phase.
    pub ops: u64,
    /// Wall-clock seconds of the phase.
    pub wall_secs: f64,
    /// Aggregate throughput over the phase.
    pub throughput_ops_sec: f64,
    /// GET p50 over the phase's final (steady-state) round, ns.
    pub p50_get_ns: u64,
    /// GET p99 over the phase's final (steady-state) round, ns.
    pub p99_get_ns: u64,
}

/// The whole run: both configurations' phases plus the two gates.
#[derive(Debug, Clone)]
pub struct ElasticSummary {
    /// Phase rows, elastic first.
    pub results: Vec<PhaseResult>,
    /// Time-averaged live workers, elastic configuration.
    pub elastic_avg_workers: f64,
    /// Time-averaged live workers, static configuration (= pool size).
    pub static_avg_workers: f64,
    /// Peak live workers the elastic pool reached.
    pub elastic_peak_workers: usize,
    /// `static_avg_workers / elastic_avg_workers`.
    pub provisioning_improvement: f64,
    /// Steady-state GET p99 across phases, elastic, ns.
    pub elastic_p99_ns: u64,
    /// Steady-state GET p99 across phases, static, ns.
    pub static_p99_ns: u64,
    /// `elastic_p99_ns / static_p99_ns`.
    pub p99_ratio: f64,
    /// `p99_ratio <= P99_BUDGET`.
    pub latency_within_budget: bool,
    /// `provisioning_improvement >= PROVISIONING_BUDGET`.
    pub provisioning_within_budget: bool,
    /// Both configurations returned byte-identical reads.
    pub reads_identical: bool,
}

fn open_store(name: &str, elastic: bool) -> P2Kvs<lsmkv::Db> {
    let env: p2kvs_storage::EnvRef = Arc::new(SimEnv::with_profile(DeviceProfile::nvme_optane()));
    let mut lsm = lsmkv::Options::rocksdb_like(env);
    lsm.memtable_size = 256 << 10;
    lsm.target_file_size = 1 << 20;
    lsm.block_cache_size = 256 << 10;
    let mut opts = P2KvsOptions::with_workers(if elastic { 1 } else { MAX_WORKERS });
    opts.shards = SHARDS;
    opts.pin_workers = false;
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
    P2Kvs::open(LsmFactory::new(lsm), name, opts).unwrap()
}

fn load(store: &P2Kvs<lsmkv::Db>, keys: u64) {
    for i in 0..keys {
        let k = key_of(i);
        store.put(&k, &value_of(&k)).unwrap();
    }
}

/// Runs one round: `clients` threads each issue `ops_per_client`
/// deterministic ops (95/5 read/write over the preloaded keyspace) and
/// the round ends with one balancer tick. Returns the round's sorted
/// GET latencies and the completed op count.
fn drive_round(
    store: &P2Kvs<lsmkv::Db>,
    keys: u64,
    clients: usize,
    ops_per_client: u64,
    seed: u64,
) -> (Vec<u64>, u64) {
    let mut lat: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = Lcg(seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(c as u64 + 1)));
                    let mut lat = Vec::with_capacity(ops_per_client as usize);
                    for _ in 0..ops_per_client {
                        let key = key_of(rng.next() % keys);
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
    let ops = clients as u64 * ops_per_client;
    lat.sort_unstable();
    store.rebalance_once().unwrap();
    (lat, ops)
}

/// Deterministic sample readback used for the cross-configuration
/// byte-identity check.
fn readback(store: &P2Kvs<lsmkv::Db>, keys: u64) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
    let mut rng = Lcg(0x0ddba11);
    (0..READBACK_SAMPLE)
        .map(|_| {
            let key = key_of(rng.next() % keys);
            let got = store.get(&key).unwrap();
            (key, got)
        })
        .collect()
}

/// Measures one configuration across the whole diurnal schedule.
/// Returns the phase rows, the per-round live-worker samples, and the
/// readback sample.
pub fn measure(
    config: &'static str,
    elastic: bool,
    keys: u64,
    ops_per_client: u64,
    seed: u64,
) -> (Vec<PhaseResult>, Vec<usize>, Vec<(Vec<u8>, Option<Vec<u8>>)>) {
    let store = open_store(config, elastic);
    load(&store, keys);
    let mut rows = Vec::with_capacity(PHASES.len());
    let mut samples = Vec::new();
    for (phase, &load_x) in PHASES.iter().enumerate() {
        let began = Instant::now();
        let mut phase_ops = 0u64;
        let mut phase_workers = 0usize;
        let mut last_round_lat = Vec::new();
        for round in 0..ROUNDS_PER_PHASE {
            let (lat, ops) = drive_round(
                &store,
                keys,
                load_x,
                ops_per_client,
                seed ^ ((phase as u64) << 8) ^ round as u64,
            );
            phase_ops += ops;
            let live = store.workers();
            phase_workers += live;
            samples.push(live);
            last_round_lat = lat;
        }
        let wall_secs = began.elapsed().as_secs_f64();
        rows.push(PhaseResult {
            config,
            phase,
            load_x,
            workers_avg: phase_workers as f64 / ROUNDS_PER_PHASE as f64,
            workers_end: store.workers(),
            ops: phase_ops,
            wall_secs,
            throughput_ops_sec: phase_ops as f64 / wall_secs.max(1e-9),
            p50_get_ns: crate::percentile(&last_round_lat, 0.50),
            p99_get_ns: crate::percentile(&last_round_lat, 0.99),
        });
    }
    let sample = readback(&store, keys);
    store.close();
    (rows, samples, sample)
}

fn avg(samples: &[usize]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<usize>() as f64 / samples.len() as f64
}

/// Builds the summary (gates included) from both configurations' rows.
pub fn summarize(
    elastic_rows: Vec<PhaseResult>,
    elastic_samples: &[usize],
    static_rows: Vec<PhaseResult>,
    static_samples: &[usize],
    reads_identical: bool,
) -> ElasticSummary {
    // The gate p99 is the worst steady-state phase p99: the elastic
    // pool must hold latency at every load level once adapted, not just
    // on average.
    let worst = |rows: &[PhaseResult]| rows.iter().map(|r| r.p99_get_ns).max().unwrap_or(0);
    let elastic_p99_ns = worst(&elastic_rows);
    let static_p99_ns = worst(&static_rows);
    let p99_ratio = elastic_p99_ns as f64 / (static_p99_ns as f64).max(1.0);
    let elastic_avg_workers = avg(elastic_samples);
    let static_avg_workers = avg(static_samples);
    let provisioning_improvement = static_avg_workers / elastic_avg_workers.max(1e-9);
    let elastic_peak_workers = elastic_samples.iter().copied().max().unwrap_or(0);
    let mut results = elastic_rows;
    results.extend(static_rows);
    ElasticSummary {
        results,
        elastic_avg_workers,
        static_avg_workers,
        elastic_peak_workers,
        provisioning_improvement,
        elastic_p99_ns,
        static_p99_ns,
        p99_ratio,
        latency_within_budget: p99_ratio <= P99_BUDGET,
        provisioning_within_budget: provisioning_improvement >= PROVISIONING_BUDGET,
        reads_identical,
    }
}

/// Renders the `BENCH_elastic.json` artifact.
pub fn render_json(summary: &ElasticSummary, keys: u64, ops_per_client: u64, seed: u64) -> String {
    let phases: Vec<String> = PHASES.iter().map(|p| p.to_string()).collect();
    let mut s = String::from("{\n");
    s.push_str(
        &crate::artifact::RunMeta::new("elastic_scale", seed)
            .num("max_workers", MAX_WORKERS)
            .num("shards", SHARDS)
            .num("rounds_per_phase", ROUNDS_PER_PHASE)
            .num("keys", keys)
            .num("ops_per_client", ops_per_client)
            .num("p99_budget", P99_BUDGET)
            .num("provisioning_budget", PROVISIONING_BUDGET)
            .text("phases", &phases.join(","))
            .render(),
    );
    s.push_str(&format!("  \"reads_identical\": {},\n", summary.reads_identical));
    s.push_str(&format!(
        "  \"elastic_avg_workers\": {:.3},\n  \"static_avg_workers\": {:.3},\n  \
         \"elastic_peak_workers\": {},\n  \"provisioning_improvement\": {:.3},\n  \
         \"provisioning_within_budget\": {},\n  \"elastic_p99_ns\": {},\n  \
         \"static_p99_ns\": {},\n  \"p99_ratio\": {:.3},\n  \"latency_within_budget\": {},\n",
        summary.elastic_avg_workers,
        summary.static_avg_workers,
        summary.elastic_peak_workers,
        summary.provisioning_improvement,
        summary.provisioning_within_budget,
        summary.elastic_p99_ns,
        summary.static_p99_ns,
        summary.p99_ratio,
        summary.latency_within_budget,
    ));
    s.push_str("  \"results\": [\n");
    for (i, r) in summary.results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"config\": \"{}\", \"phase\": {}, \"load_x\": {}, \
             \"workers_avg\": {:.2}, \"workers_end\": {}, \"ops\": {}, \
             \"wall_secs\": {:.3}, \"throughput_ops_sec\": {:.1}, \
             \"p50_get_ns\": {}, \"p99_get_ns\": {}}}{}\n",
            r.config,
            r.phase,
            r.load_x,
            r.workers_avg,
            r.workers_end,
            r.ops,
            r.wall_secs,
            r.throughput_ops_sec,
            r.p50_get_ns,
            r.p99_get_ns,
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
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir).join("BENCH_elastic.json"),
        _ => PathBuf::from("BENCH_elastic.json"),
    }
}

/// Runs both configurations over the diurnal schedule (10k keys, 4k
/// ops per client per round, scaled by `P2KVS_SCALE`; seed from
/// `P2KVS_ELASTIC_SEED`, default fixed) and writes
/// `BENCH_elastic.json` to `path`. Panics if the configurations
/// disagree on any read — resizing must be invisible to results. The
/// perf gates are *not* asserted here (the `elastic_scale` binary owns
/// that exit code); they ride in the summary and the artifact.
pub fn run_default(path: &Path) -> std::io::Result<ElasticSummary> {
    let keys = crate::scaled(10_000);
    let ops_per_client = crate::scaled(4_000);
    let seed = std::env::var("P2KVS_ELASTIC_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xE1A5_71C5);

    let (el_rows, el_samples, el_sample) = measure("elastic", true, keys, ops_per_client, seed);
    let (st_rows, st_samples, st_sample) = measure("static", false, keys, ops_per_client, seed);
    let identical = el_sample == st_sample;
    assert!(
        identical,
        "elastic and static configurations must return byte-identical reads"
    );

    let summary = summarize(el_rows, &el_samples, st_rows, &st_samples, identical);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_json(&summary, keys, ops_per_client, seed))?;
    Ok(summary)
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

    #[test]
    fn summary_gates_and_json_schema() {
        let row = |config: &'static str, phase: usize, p99: u64| PhaseResult {
            config,
            phase,
            load_x: PHASES[phase],
            workers_avg: if config == "static" { 8.0 } else { 2.0 },
            workers_end: if config == "static" { 8 } else { 2 },
            ops: 1000,
            wall_secs: 0.5,
            throughput_ops_sec: 2000.0,
            p50_get_ns: p99 / 4,
            p99_get_ns: p99,
        };
        let s = summarize(
            vec![row("elastic", 0, 1200), row("elastic", 1, 1400)],
            &[1, 2, 2, 3],
            vec![row("static", 0, 1000), row("static", 1, 1000)],
            &[8, 8, 8, 8],
            true,
        );
        assert_eq!(s.elastic_p99_ns, 1400, "gate reads the worst phase");
        assert!((s.p99_ratio - 1.4).abs() < 1e-9);
        assert!(s.latency_within_budget);
        assert_eq!(s.elastic_peak_workers, 3);
        assert!((s.elastic_avg_workers - 2.0).abs() < 1e-9);
        assert!((s.provisioning_improvement - 4.0).abs() < 1e-9);
        assert!(s.provisioning_within_budget);
        let json = render_json(&s, 10_000, 4_000, 7);
        assert!(json.contains("\"bench\": \"elastic_scale\""));
        assert!(json.contains("\"config\": \"elastic\""));
        assert!(json.contains("provisioning_improvement"));
        assert!(json.contains("latency_within_budget"));
        let v = crate::artifact::validate_schema(&json);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn summary_flags_budget_violations() {
        let row = |config: &'static str, p99: u64, w: f64| PhaseResult {
            config,
            phase: 0,
            load_x: 1,
            workers_avg: w,
            workers_end: w as usize,
            ops: 1,
            wall_secs: 0.1,
            throughput_ops_sec: 10.0,
            p50_get_ns: p99 / 4,
            p99_get_ns: p99,
        };
        let s = summarize(
            vec![row("elastic", 2000, 5.0)],
            &[5, 5],
            vec![row("static", 1000, 8.0)],
            &[8, 8],
            true,
        );
        assert!(!s.latency_within_budget, "2.0x p99 must trip the gate");
        assert!(!s.provisioning_within_budget, "1.6x avg must trip the gate");
    }

    /// A half-size end-to-end run: the elastic pool must actually move
    /// (grow past one worker under the ramp, end the quiet tail below
    /// the peak), the static pool must stay pinned, and the two must
    /// read back identically. Timing-derived gates are asserted by the
    /// binary, not here — a loaded CI box must not flake this test.
    /// (The scenario's own key count and half its ops: a worker serves a
    /// memtable GET in ~2 µs, so with a few hundred ops per client the
    /// client threads' start-up outweighs the work between two ticks
    /// and the peak never reads as 60 % of one worker.)
    #[test]
    fn tiny_run_scales_and_reads_identically() {
        let (el_rows, el_samples, a) = measure("elastic", true, 10_000, 2_000, 7);
        let (st_rows, st_samples, b) = measure("static", false, 10_000, 2_000, 7);
        assert_eq!(a, b, "reads must not depend on the pool size");
        assert!(st_samples.iter().all(|&w| w == MAX_WORKERS), "static pool pinned");
        assert!(
            el_samples.iter().copied().max().unwrap() > 1,
            "the ramp never grew the elastic pool: {el_samples:?}"
        );
        assert!(
            *el_samples.last().unwrap() < MAX_WORKERS,
            "the quiet tail never shrank the pool: {el_samples:?}"
        );
        let s = summarize(el_rows, &el_samples, st_rows, &st_samples, true);
        assert!(s.elastic_avg_workers < s.static_avg_workers);
        let json = render_json(&s, 10_000, 2_000, 7);
        let v = crate::artifact::validate_schema(&json);
        assert!(v.is_empty(), "{v:?}");
    }
}
