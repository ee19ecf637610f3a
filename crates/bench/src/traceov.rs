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
//! byte-deterministic — the artifact asserts the checksums of both
//! configurations are identical before comparing throughput, proving
//! tracing never changed a result. The budget (enforced by the
//! `trace-overhead` CI job via the `trace_overhead` binary's exit code)
//! is **< 5%** throughput loss at the default sample rate.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, P2KvsOptions};
use p2kvs_storage::MemEnv;
use p2kvs_util::hash::{fnv1a64, mix64};

/// Throughput budget: the sampled configuration may cost at most this
/// fraction of the untraced configuration's throughput.
pub const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Alternating measurement rounds per configuration; the best round is
/// compared so scheduler noise penalizes neither side.
const ROUNDS: usize = 3;

/// One configuration's measurement from one round.
#[derive(Debug, Clone)]
pub struct TraceOvResult {
    /// `disabled` (`trace_sample = 0`) or `sampled` (default rate).
    pub config: &'static str,
    /// The `trace_sample` the store ran with.
    pub trace_sample: u64,
    /// Measurement round (0-based).
    pub round: usize,
    /// Blocking ops completed across all user threads.
    pub ops: u64,
    /// Wall-clock for the measured phase.
    pub wall_secs: f64,
    /// `ops / wall_secs`.
    pub throughput_ops_sec: f64,
    /// Deterministic fold of every GET result (thread-order free).
    pub read_checksum: u64,
    /// Head-sampled spans in the store's (bounded) span ring at the end
    /// of the run — 0 when disabled, > 0 when sampled (asserted by
    /// [`run_default`]). The tail-kept spans of slow groups are not
    /// counted: both configurations keep those.
    pub spans_recorded: u64,
}

/// Everything [`run_default`] measured, pre-digested for the artifact
/// and the CI gate.
pub struct TraceOvSummary {
    /// Per-round measurements, both configurations.
    pub results: Vec<TraceOvResult>,
    /// Best-round throughput with tracing disabled.
    pub best_disabled: f64,
    /// Best-round throughput at the default sample rate.
    pub best_sampled: f64,
    /// `100 × (1 - sampled/disabled)`; negative = noise in tracing's
    /// favor.
    pub overhead_pct: f64,
    /// Whether `overhead_pct` is under [`OVERHEAD_BUDGET_PCT`].
    pub within_budget: bool,
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Numerical Recipes LCG constants.
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// Runs `threads` user threads of an LCG-driven 3:1 put:get mix for
/// `ops_per_thread` blocking ops each, every thread confined to its own
/// `keys_per_thread` key range (GET results therefore depend only on
/// that thread's own put stream — deterministic under any
/// interleaving). Returns (ops, wall, checksum, spans).
fn measure(
    config: &'static str,
    trace_sample: u64,
    round: usize,
    threads: usize,
    ops_per_thread: u64,
    keys_per_thread: u64,
    seed: u64,
) -> TraceOvResult {
    let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
    let mut lsm = lsmkv::Options::rocksdb_like(env);
    lsm.memtable_size = 4 << 20;
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    // Cache off: the overhead under test is tracing on the worker
    // round-trip; cached GETs would never reach it.
    opts.cache_capacity = 0;
    opts.trace_sample = trace_sample;
    let store = P2Kvs::open(LsmFactory::new(lsm), "trace-ov", opts).unwrap();

    let began = Instant::now();
    let checksum = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let store = &store;
                s.spawn(move || {
                    let mut rng = Lcg(mix64(seed ^ (t as u64) << 32));
                    let mut sum = 0u64;
                    for i in 0..ops_per_thread {
                        let r = rng.next();
                        let key = format!("t{t:02}k{:06}", r % keys_per_thread);
                        if r % 4 == 3 {
                            let got = store.get(key.as_bytes()).unwrap();
                            sum ^= mix64(
                                fnv1a64(key.as_bytes())
                                    ^ got.as_deref().map_or(0, fnv1a64),
                            );
                        } else {
                            let value = format!("v{t:02}-{i:08}-{:016x}", rng.next());
                            store.put(key.as_bytes(), value.as_bytes()).unwrap();
                        }
                    }
                    sum
                })
            })
            .collect();
        // XOR-fold: associative and commutative, so the total is
        // independent of thread completion order.
        handles.into_iter().fold(0u64, |acc, h| acc ^ h.join().unwrap())
    });
    let wall = began.elapsed().as_secs_f64();
    let spans = store
        .trace_spans()
        .iter()
        .filter(|s| !s.tail_kept())
        .count() as u64;
    store.close();

    let ops = threads as u64 * ops_per_thread;
    TraceOvResult {
        config,
        trace_sample,
        round,
        ops,
        wall_secs: wall,
        throughput_ops_sec: ops as f64 / wall.max(1e-9),
        read_checksum: checksum,
        spans_recorded: spans,
    }
}

/// Renders the `BENCH_trace.json` artifact.
pub fn render_json(
    summary: &TraceOvSummary,
    threads: usize,
    ops_per_thread: u64,
    keys_per_thread: u64,
    seed: u64,
    identical: bool,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        &crate::artifact::RunMeta::new("trace_overhead", seed)
            .num("threads", threads)
            .num("ops_per_thread", ops_per_thread)
            .num("keys_per_thread", keys_per_thread)
            .num("rounds", ROUNDS)
            .num("default_trace_sample", 64)
            .render(),
    );
    s.push_str(&format!("  \"read_checksums_identical\": {identical},\n"));
    s.push_str(&format!(
        "  \"best_disabled_ops_sec\": {:.1},\n",
        summary.best_disabled
    ));
    s.push_str(&format!(
        "  \"best_sampled_ops_sec\": {:.1},\n",
        summary.best_sampled
    ));
    s.push_str(&format!("  \"overhead_pct\": {:.3},\n", summary.overhead_pct));
    s.push_str(&format!("  \"budget_pct\": {OVERHEAD_BUDGET_PCT},\n"));
    s.push_str(&format!("  \"within_budget\": {},\n", summary.within_budget));
    s.push_str("  \"results\": [\n");
    for (i, r) in summary.results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"config\": \"{}\", \"trace_sample\": {}, \"round\": {}, \
             \"ops\": {}, \"wall_secs\": {:.6}, \"throughput_ops_sec\": {:.1}, \
             \"read_checksum\": {}, \"spans_recorded\": {}}}{}\n",
            r.config,
            r.trace_sample,
            r.round,
            r.ops,
            r.wall_secs,
            r.throughput_ops_sec,
            r.read_checksum,
            r.spans_recorded,
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
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir).join("BENCH_trace.json"),
        _ => PathBuf::from("BENCH_trace.json"),
    }
}

/// Runs the comparison (4 user threads × 60k ops scaled by
/// `P2KVS_SCALE`, seed from `P2KVS_TRACE_SEED`, [`ROUNDS`] alternating
/// rounds per configuration) and writes `BENCH_trace.json` to `path`.
/// Panics if the configurations disagree on any GET fold or if sampling
/// recorded no spans — the comparison must be real on both sides.
pub fn run_default(path: &Path) -> std::io::Result<TraceOvSummary> {
    let threads = 4;
    let ops_per_thread = crate::scaled(60_000);
    let keys_per_thread = 4_000;
    let seed = std::env::var("P2KVS_TRACE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x7AC3_0FF5);

    let mut results = Vec::with_capacity(2 * ROUNDS);
    for round in 0..ROUNDS {
        results.push(measure(
            "disabled", 0, round, threads, ops_per_thread, keys_per_thread, seed,
        ));
        results.push(measure(
            "sampled", 64, round, threads, ops_per_thread, keys_per_thread, seed,
        ));
    }
    let identical = results.windows(2).all(|w| w[0].read_checksum == w[1].read_checksum);
    assert!(identical, "tracing changed a GET result — checksums diverge");
    for r in &results {
        match r.config {
            "disabled" => assert_eq!(r.spans_recorded, 0, "disabled run recorded spans"),
            _ => assert!(r.spans_recorded > 0, "sampled run recorded no spans"),
        }
    }

    let best = |config: &str| {
        results
            .iter()
            .filter(|r| r.config == config)
            .map(|r| r.throughput_ops_sec)
            .fold(0.0f64, f64::max)
    };
    let (best_disabled, best_sampled) = (best("disabled"), best("sampled"));
    let overhead_pct = 100.0 * (1.0 - best_sampled / best_disabled.max(1e-9));
    let summary = TraceOvSummary {
        results,
        best_disabled,
        best_sampled,
        overhead_pct,
        within_budget: overhead_pct < OVERHEAD_BUDGET_PCT,
    };

    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(
        path,
        render_json(&summary, threads, ops_per_thread, keys_per_thread, seed, identical),
    )?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksums_are_deterministic_and_trace_independent() {
        let a = measure("disabled", 0, 0, 2, 2_000, 200, 11);
        let b = measure("sampled", 1, 0, 2, 2_000, 200, 11);
        assert_eq!(a.read_checksum, b.read_checksum, "tracing changed results");
        assert_ne!(a.read_checksum, 0, "fold must cover real GET hits");
        assert_eq!(a.spans_recorded, 0);
        assert!(b.spans_recorded > 0, "sample=1 must record spans");
        assert!(a.throughput_ops_sec > 0.0 && b.throughput_ops_sec > 0.0);
        // A different seed walks a different history.
        let c = measure("disabled", 0, 0, 2, 2_000, 200, 12);
        assert_ne!(a.read_checksum, c.read_checksum);
    }

    #[test]
    fn artifact_conforms_to_schema() {
        let mk = |config: &'static str, sample, thr| TraceOvResult {
            config,
            trace_sample: sample,
            round: 0,
            ops: 1000,
            wall_secs: 0.5,
            throughput_ops_sec: thr,
            read_checksum: 42,
            spans_recorded: sample.min(1),
        };
        let summary = TraceOvSummary {
            results: vec![mk("disabled", 0, 2000.0), mk("sampled", 64, 1960.0)],
            best_disabled: 2000.0,
            best_sampled: 1960.0,
            overhead_pct: 2.0,
            within_budget: true,
        };
        let json = render_json(&summary, 4, 1000, 100, 7, true);
        assert!(json.contains("\"bench\": \"trace_overhead\""));
        assert!(json.contains("\"overhead_pct\": 2.000"));
        assert!(json.contains("\"within_budget\": true"));
        let v = crate::artifact::validate_schema(&json);
        assert!(v.is_empty(), "{v:?}");
    }
}
