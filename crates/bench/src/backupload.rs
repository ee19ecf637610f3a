//! Backup-under-load scenario benchmark: foreground GET/PUT latency
//! while a GSN-consistent online backup streams, versus idle, writing
//! `BENCH_backup.json`.
//!
//! The scenario is the one `P2Kvs::backup` exists for: a store serving
//! live traffic that must be snapshotted without going read-only. Each
//! round runs the identical deterministic client workload twice — once
//! undisturbed (`idle`), once with a backup cut partway into the
//! measured window (`streaming`), so the freeze stall, the per-shard
//! snapshot markers, and the background streamer all land inside the
//! measured interval. The gate: foreground GET and PUT p99 while
//! streaming may be at most [`DEGRADATION_BUDGET_X`]× their idle
//! best — an online backup that doubles tail latency is not online.
//!
//! Every streaming round also proves it measured a *real* backup: the
//! cut must capture at least the preloaded key count, and the directory
//! must restore to a store serving the expected values (values derive
//! from the key alone, so any GSN-consistent cut reads back
//! identically). No `rand` dependency: a fixed LCG keeps every run
//! reproducible.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, P2KvsOptions};
use p2kvs_storage::{DeviceProfile, SimEnv};

/// Gate: streaming-phase p99 (GET and PUT, each) must stay within this
/// multiple of the idle-phase best.
pub const DEGRADATION_BUDGET_X: f64 = 2.0;
/// Worker threads the store runs.
pub const WORKERS: usize = 3;
/// Virtual shards (3× workers keeps freeze markers per-worker plural).
const SHARDS: usize = 9;
/// Client threads issuing the foreground workload.
const CLIENTS: usize = 3;
/// Fraction of workload ops that are writes (YCSB-A-leaning: writes
/// are what the freeze window visibly stalls).
const PUT_PERCENT: u64 = 20;
/// Measured rounds per phase; the summary compares best-of (lowest
/// p99), which tames scheduler noise the same way `traceov` does.
const ROUNDS: usize = 2;
/// The cut lands after `ops / CUT_AT_DIVISOR` foreground ops — deep
/// enough into the window that both phases start identically warm.
const CUT_AT_DIVISOR: u64 = 8;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Numerical Recipes LCG constants.
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

fn key_of(i: u64) -> Vec<u8> {
    format!("blr-{i:07}").into_bytes()
}

/// Values derive from the key alone, so re-puts are idempotent: any
/// GSN-consistent cut holds `value_of(k)` for every key it holds, no
/// matter how clients interleaved with the freeze.
fn value_of(key: &[u8]) -> Vec<u8> {
    let mut h = 0xcbf29ce484222325u64;
    for b in key {
        h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
    }
    let mut v = Vec::with_capacity(120);
    while v.len() < 120 {
        v.extend_from_slice(&h.to_le_bytes());
        h = h.wrapping_mul(0x100000001b3);
    }
    v.truncate(120);
    v
}

/// One phase × round measurement.
#[derive(Debug, Clone)]
pub struct BackupLoadResult {
    /// `idle` (no backup) or `streaming` (backup cut mid-window).
    pub phase: &'static str,
    /// Round index within the phase.
    pub round: usize,
    /// Foreground ops completed in the window.
    pub ops: u64,
    /// Wall-clock seconds of the window.
    pub wall_secs: f64,
    /// Aggregate foreground throughput over the window.
    pub throughput_ops_sec: f64,
    /// Foreground GET latency percentiles over the window, nanoseconds.
    pub p50_get_ns: u64,
    /// GET p99 — the gated number.
    pub p99_get_ns: u64,
    /// Foreground PUT latency percentiles over the window, nanoseconds.
    pub p50_put_ns: u64,
    /// PUT p99 — the gated number.
    pub p99_put_ns: u64,
    /// Foreground ops already completed when the backup cut (0 idle).
    pub cut_at_op: u64,
    /// Entries the backup captured (0 idle).
    pub backup_entries: u64,
    /// Cut + stream wall-clock seconds (0 idle).
    pub backup_wall_secs: f64,
}

/// The artifact's summary block: best-of-round p99s per phase and the
/// degradation ratios the CI job gates on.
#[derive(Debug, Clone)]
pub struct BackupLoadSummary {
    /// All measured rounds, both phases.
    pub results: Vec<BackupLoadResult>,
    /// Lowest GET p99 across idle rounds, nanoseconds.
    pub best_idle_get_p99_ns: u64,
    /// Lowest GET p99 across streaming rounds, nanoseconds.
    pub best_streaming_get_p99_ns: u64,
    /// Lowest PUT p99 across idle rounds, nanoseconds.
    pub best_idle_put_p99_ns: u64,
    /// Lowest PUT p99 across streaming rounds, nanoseconds.
    pub best_streaming_put_p99_ns: u64,
    /// `best_streaming_get_p99_ns / best_idle_get_p99_ns`.
    pub degradation_x_get: f64,
    /// `best_streaming_put_p99_ns / best_idle_put_p99_ns`.
    pub degradation_x_put: f64,
    /// Both ratios within [`DEGRADATION_BUDGET_X`].
    pub within_budget: bool,
}

/// Measures one phase round: preload, run the client window, and when
/// `stream` cut an online backup once the window is warm, wait for the
/// streamer *concurrently with the window*, then restore-verify the
/// directory. Deterministic per `(seed, client index)`.
pub fn measure(
    phase: &'static str,
    stream: bool,
    round: usize,
    keys: u64,
    ops: u64,
    seed: u64,
) -> BackupLoadResult {
    // The paper's simulated NVMe device: the streamer's reads and the
    // backup files' writes cost real simulated time, so the overlap the
    // bench measures is storage contention, not just CPU.
    let env: p2kvs_storage::EnvRef = std::sync::Arc::new(SimEnv::with_profile(DeviceProfile::nvme_optane()));
    let mut lsm = lsmkv::Options::rocksdb_like(env);
    lsm.memtable_size = 256 << 10;
    lsm.target_file_size = 1 << 20;
    lsm.block_cache_size = 256 << 10;
    let mut opts = P2KvsOptions::with_workers(WORKERS);
    opts.pin_workers = false;
    opts.shards = SHARDS;
    // Cache off: hits served client-side would hide the worker-path
    // stall the freeze window causes — the very thing being measured.
    opts.cache_capacity = 0;
    let name = format!("blr-{phase}-{round}");
    let store = P2Kvs::open(LsmFactory::new(lsm.clone()), &name, opts.clone()).unwrap();
    for i in 0..keys {
        let k = key_of(i);
        store.put(&k, &value_of(&k)).unwrap();
    }

    let per_client = (ops / CLIENTS as u64).max(1);
    let cut_target = (ops / CUT_AT_DIVISOR).clamp(1, per_client * CLIENTS as u64 - 1);
    let done = AtomicU64::new(0);
    let began = Instant::now();
    let (mut gets, mut puts, backup) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let store = &store;
                let done = &done;
                s.spawn(move || {
                    let mut rng = Lcg(seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(c as u64 + 1)));
                    let mut gets = Vec::with_capacity(per_client as usize);
                    let mut puts = Vec::new();
                    for _ in 0..per_client {
                        let key = key_of(rng.next() % keys);
                        if rng.next() % 100 < PUT_PERCENT {
                            let t = Instant::now();
                            store.put(&key, &value_of(&key)).unwrap();
                            puts.push(t.elapsed().as_nanos() as u64);
                        } else {
                            let t = Instant::now();
                            let got = store.get(&key).unwrap();
                            gets.push(t.elapsed().as_nanos() as u64);
                            assert!(got.is_some(), "preloaded key missing");
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    (gets, puts)
                })
            })
            .collect();
        // The cut lands mid-window: the freeze stall, the marker acks,
        // and (held by `wait` here, concurrent with the clients) the
        // whole streamer run all overlap the measured interval.
        let backup = if stream {
            while done.load(Ordering::Relaxed) < cut_target {
                std::thread::yield_now();
            }
            let cut_at = done.load(Ordering::Relaxed);
            let cut_began = Instant::now();
            let report = store
                .backup(format!("{name}-backup"))
                .expect("cut under load")
                .wait()
                .expect("stream under load");
            Some((cut_at, report.entries, cut_began.elapsed().as_secs_f64()))
        } else {
            None
        };
        let mut gets = Vec::new();
        let mut puts = Vec::new();
        for h in handles {
            let (g, p) = h.join().unwrap();
            gets.extend(g);
            puts.extend(p);
        }
        (gets, puts, backup)
    });
    let wall_secs = began.elapsed().as_secs_f64();
    let ops_done = (gets.len() + puts.len()) as u64;

    let (cut_at_op, backup_entries, backup_wall_secs) = backup.unwrap_or((0, 0, 0.0));
    if stream {
        assert!(
            backup_entries >= keys,
            "{phase} round {round}: cut lost keys ({backup_entries} < {keys})"
        );
        // The measured backup is a real one: it restores, and every
        // sampled key reads back its key-derived value.
        let restored = P2Kvs::restore(
            LsmFactory::new(lsm),
            format!("{name}-backup"),
            format!("{name}-restored"),
            opts,
        )
        .expect("restore the measured backup");
        for i in (0..keys).step_by(199) {
            let k = key_of(i);
            assert_eq!(
                restored.get(&k).unwrap().as_deref(),
                Some(value_of(&k).as_slice()),
                "restored copy lost key {i}"
            );
        }
        restored.close();
    }
    store.close();

    gets.sort_unstable();
    puts.sort_unstable();
    BackupLoadResult {
        phase,
        round,
        ops: ops_done,
        wall_secs,
        throughput_ops_sec: ops_done as f64 / wall_secs.max(1e-9),
        p50_get_ns: crate::percentile(&gets, 0.50),
        p99_get_ns: crate::percentile(&gets, 0.99),
        p50_put_ns: crate::percentile(&puts, 0.50),
        p99_put_ns: crate::percentile(&puts, 0.99),
        cut_at_op,
        backup_entries,
        backup_wall_secs,
    }
}

/// Folds rounds into the gated summary: best (lowest) p99 per phase per
/// op kind, degradation ratios, and the budget verdict.
pub fn summarize(results: Vec<BackupLoadResult>) -> BackupLoadSummary {
    let best = |phase: &str, f: fn(&BackupLoadResult) -> u64| -> u64 {
        results
            .iter()
            .filter(|r| r.phase == phase)
            .map(f)
            .min()
            .unwrap_or(0)
            .max(1)
    };
    let best_idle_get_p99_ns = best("idle", |r| r.p99_get_ns);
    let best_streaming_get_p99_ns = best("streaming", |r| r.p99_get_ns);
    let best_idle_put_p99_ns = best("idle", |r| r.p99_put_ns);
    let best_streaming_put_p99_ns = best("streaming", |r| r.p99_put_ns);
    let degradation_x_get = best_streaming_get_p99_ns as f64 / best_idle_get_p99_ns as f64;
    let degradation_x_put = best_streaming_put_p99_ns as f64 / best_idle_put_p99_ns as f64;
    BackupLoadSummary {
        results,
        best_idle_get_p99_ns,
        best_streaming_get_p99_ns,
        best_idle_put_p99_ns,
        best_streaming_put_p99_ns,
        degradation_x_get,
        degradation_x_put,
        within_budget: degradation_x_get <= DEGRADATION_BUDGET_X
            && degradation_x_put <= DEGRADATION_BUDGET_X,
    }
}

/// Renders the `BENCH_backup.json` artifact.
pub fn render_json(summary: &BackupLoadSummary, keys: u64, ops: u64, seed: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        &crate::artifact::RunMeta::new("backup_under_load", seed)
            .num("workers", WORKERS)
            .num("shards", SHARDS)
            .num("clients", CLIENTS)
            .num("keys", keys)
            .num("ops_per_round", ops)
            .num("rounds", ROUNDS)
            .num("put_percent", PUT_PERCENT)
            .num("budget_x", DEGRADATION_BUDGET_X)
            .render(),
    );
    s.push_str(&format!(
        "  \"best_idle_get_p99_ns\": {}, \"best_streaming_get_p99_ns\": {},\n",
        summary.best_idle_get_p99_ns, summary.best_streaming_get_p99_ns
    ));
    s.push_str(&format!(
        "  \"best_idle_put_p99_ns\": {}, \"best_streaming_put_p99_ns\": {},\n",
        summary.best_idle_put_p99_ns, summary.best_streaming_put_p99_ns
    ));
    s.push_str(&format!(
        "  \"degradation_x_get\": {:.3}, \"degradation_x_put\": {:.3},\n",
        summary.degradation_x_get, summary.degradation_x_put
    ));
    s.push_str(&format!("  \"within_budget\": {},\n", summary.within_budget));
    s.push_str("  \"results\": [\n");
    for (i, r) in summary.results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"phase\": \"{}\", \"round\": {}, \"ops\": {}, \
             \"wall_secs\": {:.3}, \"throughput_ops_sec\": {:.1}, \
             \"p50_get_ns\": {}, \"p99_get_ns\": {}, \
             \"p50_put_ns\": {}, \"p99_put_ns\": {}, \
             \"cut_at_op\": {}, \"backup_entries\": {}, \
             \"backup_wall_secs\": {:.3}}}{}\n",
            r.phase,
            r.round,
            r.ops,
            r.wall_secs,
            r.throughput_ops_sec,
            r.p50_get_ns,
            r.p99_get_ns,
            r.p50_put_ns,
            r.p99_put_ns,
            r.cut_at_op,
            r.backup_entries,
            r.backup_wall_secs,
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
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir).join("BENCH_backup.json"),
        _ => PathBuf::from("BENCH_backup.json"),
    }
}

/// Runs both phases for [`ROUNDS`] rounds (8 000 keys, 60k ops per
/// round, scaled by `P2KVS_SCALE`; seed from `P2KVS_BACKUP_SEED`,
/// default fixed — the same variable the backup crash matrix honors)
/// and writes `BENCH_backup.json` to `path`.
pub fn run_default(path: &Path) -> std::io::Result<BackupLoadSummary> {
    let keys = crate::scaled(8_000);
    let ops = crate::scaled(60_000);
    let seed = std::env::var("P2KVS_BACKUP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xBAC_CAB5);

    let mut results = Vec::new();
    for round in 0..ROUNDS {
        results.push(measure("idle", false, round, keys, ops, seed ^ round as u64));
        results.push(measure("streaming", true, round, keys, ops, seed ^ round as u64));
    }
    let summary = summarize(results);

    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_json(&summary, keys, ops, seed))?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(phase: &'static str, get_p99: u64, put_p99: u64) -> BackupLoadResult {
        BackupLoadResult {
            phase,
            round: 0,
            ops: 1000,
            wall_secs: 0.5,
            throughput_ops_sec: 2000.0,
            p50_get_ns: get_p99 / 4,
            p99_get_ns: get_p99,
            p50_put_ns: put_p99 / 4,
            p99_put_ns: put_p99,
            cut_at_op: if phase == "streaming" { 125 } else { 0 },
            backup_entries: if phase == "streaming" { 400 } else { 0 },
            backup_wall_secs: if phase == "streaming" { 0.1 } else { 0.0 },
        }
    }

    #[test]
    fn summary_gates_on_the_worse_of_get_and_put() {
        // GETs fine, PUTs 3× over: the gate must trip.
        let s = summarize(vec![
            synthetic("idle", 1_000, 2_000),
            synthetic("streaming", 1_500, 6_000),
        ]);
        assert!((s.degradation_x_get - 1.5).abs() < 1e-9);
        assert!((s.degradation_x_put - 3.0).abs() < 1e-9);
        assert!(!s.within_budget);
        // Both within 2×: passes.
        let s = summarize(vec![
            synthetic("idle", 1_000, 2_000),
            synthetic("streaming", 1_900, 3_900),
        ]);
        assert!(s.within_budget);
    }

    #[test]
    fn tiny_run_streams_a_real_backup_and_renders_schema() {
        let idle = measure("idle", false, 0, 400, 2_000, 7);
        let streaming = measure("streaming", true, 0, 400, 2_000, 7);
        assert!(idle.ops > 0 && streaming.ops > 0);
        assert_eq!(idle.backup_entries, 0);
        assert!(streaming.backup_entries >= 400, "cut captured the preload");
        assert!(streaming.cut_at_op >= 1, "cut landed inside the window");
        assert!(idle.p50_get_ns <= idle.p99_get_ns);
        assert!(streaming.p50_put_ns <= streaming.p99_put_ns);
        let summary = summarize(vec![idle, streaming]);
        let json = render_json(&summary, 400, 2_000, 7);
        assert!(json.contains("\"bench\": \"backup_under_load\""));
        assert!(json.contains("\"phase\": \"streaming\""));
        assert!(json.contains("degradation_x_get"));
        let v = crate::artifact::validate_schema(&json);
        assert!(v.is_empty(), "{v:?}");
    }
}
