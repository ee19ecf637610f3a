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
//! measured interval. Foreground GET and PUT p99 while streaming, and
//! their ratio to the idle best, are reported.
//!
//! The gate is that every streaming round measured a *real* backup: the
//! cut captured at least the preloaded key count, and the directory
//! restores to a store serving the expected values (values derive from
//! the key alone, so any GSN-consistent cut reads back identically).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, P2KvsOptions};
use p2kvs_util::rng::Rng;

use crate::artifact::{best_of, Fields, Report};
use crate::setups;
use crate::workload::{self, value_of, GateMix, Run};

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
/// p99), which tames scheduler noise.
const ROUNDS: usize = 2;
/// The cut lands after `ops / CUT_AT_DIVISOR` foreground ops — deep
/// enough into the window that both phases start identically warm.
const CUT_AT_DIVISOR: u64 = 8;
const VALUE_LEN: usize = 120;

fn key_of(i: u64) -> Vec<u8> {
    format!("blr-{i:07}").into_bytes()
}

/// Whether the backup `{name}-backup` restores to a store that serves
/// every sampled key its key-derived value.
fn restores(lsm: lsmkv::Options, name: &str, opts: P2KvsOptions, keys: u64) -> bool {
    let Ok(restored) = P2Kvs::restore(
        LsmFactory::new(lsm),
        format!("{name}-backup"),
        format!("{name}-restored"),
        opts,
    ) else {
        return false;
    };
    let served = (0..keys)
        .step_by(199)
        .map(key_of)
        .all(|k| restored.get(&k).ok().flatten() == Some(value_of(&k, VALUE_LEN)));
    restored.close();
    served
}

/// Measures one round of a phase — `idle` (no backup) or `streaming`:
/// preload, run the client window, and when streaming cut an online
/// backup once the window is warm, wait for the streamer *concurrently
/// with the window*, then verify the backup: it holds at least the
/// preloaded keys and [`restores`].
fn measure(phase: &'static str, round: usize, keys: u64, ops: u64, seed: u64) -> Fields {
    // The streamer's reads and the backup files' writes cost real
    // simulated time, so the overlap the bench measures is storage
    // contention, not just CPU.
    let lsm = setups::scenario_engine(setups::nvme_env());
    let mut opts = P2KvsOptions::with_workers(WORKERS);
    opts.shards = SHARDS;
    // Cache off: hits served client-side would hide the worker-path
    // stall the freeze window causes — the very thing being measured.
    opts.cache_capacity = 0;
    let name = format!("blr-{phase}-{round}");
    let client = setups::scenario_store(&name, lsm.clone(), opts.clone());
    let store = &client.store;
    workload::load(&client, keys, key_of, VALUE_LEN).expect("load");

    let cut_target = (ops / CUT_AT_DIVISOR).clamp(1, ops.max(2) - 1);
    // Ops issued so far (the stream asks for a key once per op).
    let issued = AtomicU64::new(0);
    let mix = GateMix {
        seed,
        put_percent: PUT_PERCENT,
        value_len: VALUE_LEN,
        pick: |rng: &mut Rng| {
            issued.fetch_add(1, Ordering::Relaxed);
            key_of(rng.below(keys))
        },
    };
    let began = Instant::now();
    let (r, backup) = std::thread::scope(|s| {
        // The cut lands mid-window: the freeze stall, the marker acks,
        // and (held by `wait` here, concurrent with the clients) the
        // whole streamer run all overlap the measured interval.
        let backup = (phase == "streaming").then(|| {
            s.spawn(|| {
                while issued.load(Ordering::Relaxed) < cut_target {
                    std::thread::yield_now();
                }
                let cut_at = issued.load(Ordering::Relaxed);
                let cut_began = Instant::now();
                let report = store
                    .backup(format!("{name}-backup"))
                    .expect("cut under load")
                    .wait()
                    .expect("stream under load");
                (cut_at, report.entries, cut_began.elapsed().as_secs_f64())
            })
        });
        let r = workload::drive(&client, &mix, Run::new(CLIENTS, ops, false));
        (r, backup.map(|b| b.join().expect("backup thread")))
    });
    let wall_secs = began.elapsed().as_secs_f64();

    let (cut_at_op, backup_entries, backup_wall_secs) = backup.unwrap_or((0, 0, 0.0));
    let verified = backup.is_some() && backup_entries >= keys && restores(lsm, &name, opts, keys);

    Fields::new()
        .with("phase", phase)
        .with("round", round)
        .window(r.ops, wall_secs)
        .with("failed_calls", r.errors)
        .with("p50_get_ns", r.reads.quantile(0.50))
        .with("p99_get_ns", r.reads.quantile(0.99))
        .with("p50_put_ns", r.writes.quantile(0.50))
        .with("p99_put_ns", r.writes.quantile(0.99))
        .with("cut_at_op", cut_at_op)
        .with("backup_entries", backup_entries)
        .float("backup_wall_secs", backup_wall_secs, 3)
        .with("backup_verified", verified)
}

/// Folds rounds into the summary: best (lowest) p99 per phase per op
/// kind and the degradation ratios, reported, and whether every
/// streaming round's backup verified, gated.
fn summarize(rows: &[Fields]) -> Fields {
    let best = |phase, field| best_of(rows, "phase", phase, field).max(1.0);
    let (idle_get, streaming_get) = (best("idle", "p99_get_ns"), best("streaming", "p99_get_ns"));
    let (idle_put, streaming_put) = (best("idle", "p99_put_ns"), best("streaming", "p99_put_ns"));
    Fields::new()
        .with("best_idle_get_p99_ns", idle_get as u64)
        .with("best_streaming_get_p99_ns", streaming_get as u64)
        .with("best_idle_put_p99_ns", idle_put as u64)
        .with("best_streaming_put_p99_ns", streaming_put as u64)
        .float("degradation_x_get", streaming_get / idle_get, 3)
        .float("degradation_x_put", streaming_put / idle_put, 3)
        .with(
            "every_backup_verified",
            rows.iter()
                .filter(|r| r.has("phase", "streaming"))
                .all(|r| r.is("backup_verified")),
        )
}

fn run_sized(rounds: usize, keys: u64, ops: u64, seed: u64) -> Report {
    let mut rows = Vec::new();
    for round in 0..rounds {
        rows.push(measure("idle", round, keys, ops, seed ^ round as u64));
        rows.push(measure("streaming", round, keys, ops, seed ^ round as u64));
    }
    Report {
        bench: "backup_under_load",
        seed,
        config: Fields::new()
            .with("workers", WORKERS)
            .with("shards", SHARDS)
            .with("clients", CLIENTS)
            .with("keys", keys)
            .with("ops_per_round", ops)
            .with("rounds", rounds)
            .with("put_percent", PUT_PERCENT),
        summary: summarize(&rows),
        rows,
    }
}

/// Both phases for [`ROUNDS`] rounds: 8 000 keys, 60k ops per round
/// (scaled by `P2KVS_SCALE`), seeded by `P2KVS_BACKUP_SEED` — the same
/// variable the backup crash matrix honors.
pub fn run() -> Report {
    run_sized(
        ROUNDS,
        crate::scaled(8_000),
        crate::scaled(60_000),
        crate::seed_from_env("P2KVS_BACKUP_SEED", 0xBAC_CAB5),
    )
}

/// Every backup cut under load must be a real one: it holds the preload
/// and restores to the key-derived values.
pub fn gate(summary: &Fields) -> Vec<String> {
    if summary.is("every_backup_verified") {
        return Vec::new();
    }
    vec!["a backup cut under load lost keys or did not restore to the written values".into()]
}

/// The scenario at a size a unit test can afford.
#[cfg(test)]
pub(crate) fn smoke() -> Report {
    run_sized(1, 400, 2_000, 7)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(phase: &'static str, get_p99: u64, put_p99: u64, verified: bool) -> Fields {
        Fields::new()
            .with("phase", phase)
            .with("p99_get_ns", get_p99)
            .with("p99_put_ns", put_p99)
            .with("backup_verified", verified)
    }

    #[test]
    fn summary_gates_on_every_streaming_backup_verifying() {
        // PUT p99 3× the idle best is reported, not gated; an idle round
        // cuts no backup and does not count. The best round of each phase
        // is the one compared.
        let s = summarize(&[
            synthetic("idle", 1_000, 2_000, false),
            synthetic("streaming", 5_000, 9_000, true),
            synthetic("streaming", 1_500, 6_000, true),
        ]);
        assert!((s.num("degradation_x_get") - 1.5).abs() < 1e-9);
        assert!((s.num("degradation_x_put") - 3.0).abs() < 1e-9);
        assert!(s.is("every_backup_verified") && gate(&s).is_empty());
        // One streaming round whose backup did not verify trips it.
        let s = summarize(&[
            synthetic("idle", 1_000, 2_000, false),
            synthetic("streaming", 1_000, 2_000, true),
            synthetic("streaming", 1_000, 2_000, false),
        ]);
        assert!(!s.is("every_backup_verified"));
        assert_eq!(gate(&s).len(), 1);
    }

    #[test]
    fn tiny_run_streams_a_real_backup_and_renders_schema() {
        let report = smoke();
        assert_eq!(report.failed_calls(), 0, "a call of the windows failed");
        let (idle, streaming) = (&report.rows[0], &report.rows[1]);
        assert!(idle.int("ops") > 0 && streaming.int("ops") > 0);
        assert_eq!(idle.int("backup_entries"), 0);
        assert!(
            streaming.int("backup_entries") >= 400,
            "cut captured the preload"
        );
        assert!(
            streaming.int("cut_at_op") >= 1,
            "cut landed inside the window"
        );
        assert!(idle.int("p50_get_ns") <= idle.int("p99_get_ns"));
        assert!(streaming.int("p50_put_ns") <= streaming.int("p99_put_ns"));
        assert!(streaming.has("phase", "streaming"));
        assert!(streaming.is("backup_verified") && report.summary.is("every_backup_verified"));
    }
}
