//! Crash-point recovery matrix across the storage/WAL/GSN stack.
//!
//! Drives the seeded workload from `p2kvs_integration_tests::crash` over
//! a [`p2kvs_storage::FaultyEnv`], power-fails the store at each sampled
//! globally numbered sync point, recovers through `P2Kvs::open`, and
//! validates the recovered state against the acked-writes oracle:
//!
//! * no acked-Ok write (`SyncPolicy::Always`) may be lost,
//! * per key, recovery lands on the effect of some issue-order prefix no
//!   older than the last acked write,
//! * cross-instance transactions are atomic — all-present (mandatory when
//!   the commit was acked) or all-absent,
//! * the flight-recorder journal (`FLIGHT.log`) recovers as a gap-free
//!   sequence rooted at the creation-time `store_open` record — a crash
//!   may truncate its tail but never punch holes in the history.
//!
//! Reproduce a run locally with the seed printed in CI:
//! `P2KVS_CRASH_SEED=<n> cargo test -p p2kvs-integration-tests --release
//! --test crash_matrix`.

use p2kvs_integration_tests::crash::{
    dry_run_queue_sync_points, dry_run_sync_points, run_crash_scenario, run_queue_crash_point,
    sample_points, unfiltered_partial_txn, Scenario, QUEUE_MATRIX_QUEUES,
};

/// Default seed; override with `P2KVS_CRASH_SEED` to explore.
const DEFAULT_SEED: u64 = 0xCAFE_F00D;

fn seed() -> u64 {
    match std::env::var("P2KVS_CRASH_SEED") {
        Ok(s) => s.parse().expect("P2KVS_CRASH_SEED must be a u64"),
        Err(_) => DEFAULT_SEED,
    }
}

/// Crashes `scenario` at every one of `points` and fails on any recovery
/// violation. Returns how many points actually crashed and how many
/// recovered flight-recorder records (each already checked gap-free).
fn run_matrix(label: &str, scenario: &Scenario, points: &[u64]) -> (usize, usize) {
    let seed = seed();
    let mut crashed = 0usize;
    let mut journaled = 0usize;
    let mut failures = Vec::new();
    for &point in points {
        let out = run_crash_scenario(seed, point, scenario);
        if out.crashed {
            crashed += 1;
        }
        if out.recovered_flight > 0 {
            journaled += 1;
        }
        for v in out.violations {
            failures.push(format!("seed {seed}, sync point {point} ({label}): {v}"));
        }
    }
    assert!(
        failures.is_empty(),
        "{} recovery violations ({label}):\n{}",
        failures.len(),
        failures.join("\n")
    );
    (crashed, journaled)
}

/// The matrix proper: every one of the first 160 sync points plus a
/// stride over the rest — at least 200 crash points all told, each run
/// on a fresh env, each recovery checked against the oracle.
#[test]
fn crash_matrix_recovers_at_every_sampled_sync_point() {
    let seed = seed();
    let total = dry_run_sync_points(seed);
    assert!(
        total >= 220,
        "workload exposes only {total} sync points — matrix space too small"
    );
    let points = sample_points(total);
    assert!(points.len() >= 200, "only {} points sampled", points.len());

    let (crashed, journaled) = run_matrix("plain", &Scenario::plain(), &points);
    // Late points may not fire when a run's engine-internal interleaving
    // merges a few more group commits than the dry run; the bulk must.
    assert!(
        crashed >= 200,
        "only {crashed} of {} sampled points actually crashed (seed {seed})",
        points.len()
    );
    // The flight recorder is not vacuous: only crashes that land inside
    // store creation (before the journal's own first syncs) may recover
    // an empty FLIGHT.log, so the bulk of the matrix must bring records
    // back (each already checked gap-free above).
    assert!(
        journaled >= points.len() / 2,
        "only {journaled} of {} crash points recovered flight records (seed {seed})",
        points.len()
    );
}

/// The handoff matrix: the same oracle discipline, but the store opens
/// with shards decoupled from workers and every workload round ends
/// with an epoch-fenced shard migration, so sampled crash points land
/// before, during, and after handoffs. Recovery reopens under a fresh
/// round-robin map — no acked write may depend on which worker owned a
/// shard when the power failed. Sampled at a stride to bound CI time.
#[test]
fn crash_matrix_recovers_across_shard_migrations() {
    let seed = seed();
    let total = dry_run_sync_points(seed);
    // The migration store opens twice as many instances, so its sync
    // numbering shifts relative to the dry run; a stride over the dry
    // run's range still covers creation, handoff, and steady state.
    let points: Vec<u64> = (1..=total).step_by(5).collect();
    let (crashed, journaled) = run_matrix("migration", &Scenario::migration(), &points);
    assert!(
        crashed >= points.len() / 2,
        "only {crashed} of {} sampled points actually crashed (seed {seed})",
        points.len()
    );
    // Handoffs are journaled (`handoff_out`/`shard_install`); the bulk
    // of the migration matrix must recover those histories gap-free.
    assert!(
        journaled >= points.len() / 2,
        "only {journaled} of {} migration crash points recovered flight records (seed {seed})",
        points.len()
    );
}

/// The elastic-pool matrix: the same oracle discipline, but every
/// workload round ends with a `scale_workers` call thrashing the pool
/// around its opening size — even rounds grow a worker (fresh ring,
/// journaled `worker_spawn`), odd rounds retire two (every owned shard
/// drained through the epoch-fenced handoff, rings closed, threads
/// joined, journaled `worker_retire`). Sampled crash points land
/// before, between, and after the per-shard drains of an in-flight
/// retirement. Recovery reopens at the fixed size: no acked write may
/// depend on how many workers were alive — or which were mid-drain —
/// when the power failed, and the flight journal must come back
/// gap-free. Sampled at a stride to bound CI time.
#[test]
fn crash_matrix_recovers_during_scale() {
    let seed = seed();
    let total = dry_run_sync_points(seed);
    // Scale operations add their own durable journal syncs, so the live
    // run's numbering shifts relative to the dry run; a stride over the
    // dry run's range still covers creation, in-flight drains, spawns,
    // and steady state.
    let points: Vec<u64> = (1..=total).step_by(5).collect();
    let (crashed, journaled) = run_matrix("scale", &Scenario::scale(), &points);
    assert!(
        crashed >= points.len() / 2,
        "only {crashed} of {} sampled points actually crashed (seed {seed})",
        points.len()
    );
    // Spawns and retirements are journaled durably; the bulk of the
    // matrix must recover those histories gap-free.
    assert!(
        journaled >= points.len() / 2,
        "only {journaled} of {} scale crash points recovered flight records (seed {seed})",
        points.len()
    );
}

/// The cached matrix: the migration layout with the hot-record read
/// cache enabled and per-round reads warming it, so crash points land
/// while cached entries, write invalidations, and handoff-driven cache
/// flushes are in flight. The cache is volatile — the oracle contract
/// is identical — and every recovery must journal a fresh `cache_flush`
/// reset record sequenced after everything it recovered (the cached
/// scenario's `post_check`). Sampled at a stride to bound CI
/// time.
#[test]
fn crash_matrix_recovers_with_the_read_cache_enabled() {
    let seed = seed();
    let total = dry_run_sync_points(seed);
    // The cached store opens the same instances as the migration
    // layout; reads and cache traffic add no syncs (the cache is
    // memory-only and its journal records are non-durable), so a stride
    // over the dry run's range covers creation, warm cache, handoff
    // flushes, and steady state.
    let points: Vec<u64> = (1..=total).step_by(7).collect();
    let (crashed, _) = run_matrix("cached", &Scenario::cached(), &points);
    assert!(
        crashed >= points.len() / 2,
        "only {crashed} of {} sampled points actually crashed (seed {seed})",
        points.len()
    );
}

/// The subcompaction matrix: the workload runs with parallel compaction
/// (two background jobs, three-way subcompactions) on a four-queue
/// device with queue affinity on, and the power fails at the Nth sync
/// **of one submission queue** — so sampled points land mid-compaction,
/// after some subcompactions synced their output and before their
/// siblings did. Recovery must satisfy the standard oracle contract and
/// a full scan of the recovered store must read every referenced SST:
/// no version set may install truncated compaction output.
#[test]
fn crash_matrix_recovers_mid_subcompaction_on_every_queue() {
    let seed = seed();
    let per_queue = dry_run_queue_sync_points(seed);
    let mut sampled = 0usize;
    let mut crashed = 0usize;
    let mut failures = Vec::new();
    for (queue, &total) in per_queue.iter().enumerate().take(QUEUE_MATRIX_QUEUES) {
        assert!(
            total >= 10,
            "queue {queue} exposes only {total} sync points — affinity routed \
             nothing there ({per_queue:?})"
        );
        // Per-queue numbering keeps the target deterministic even though
        // concurrent compaction threads shuffle the global order; a
        // stride over each queue's range covers WAL-only points, flush
        // output, and mid-subcompaction output syncs.
        for point in (1..=total).step_by(6) {
            sampled += 1;
            let out = run_queue_crash_point(seed, queue, point);
            if out.crashed {
                crashed += 1;
            }
            for v in out.violations {
                failures.push(format!("seed {seed}, queue {queue}, sync point {point}: {v}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} recovery violations in the queue matrix:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // Off-home-queue sync counts vary with compaction scheduling, so a
    // tail of sampled points may not fire; the bulk must.
    assert!(
        crashed >= sampled / 2,
        "only {crashed} of {sampled} sampled queue points actually crashed (seed {seed})"
    );
}

/// Negative control: the oracle and the GSN rollback are not vacuous.
/// Replaying the same crash states *without* the recovery filter must
/// expose a partially applied cross-instance transaction at some crash
/// point — the state §4.5's rollback exists to hide — while the real
/// recovery path at that very point reports none.
#[test]
fn unfiltered_replay_exposes_partial_transactions() {
    let seed = seed();
    let total = dry_run_sync_points(seed);
    let mut found = None;
    for point in 1..=total {
        if let Some((present, of)) = unfiltered_partial_txn(seed, point) {
            found = Some((point, present, of));
            break;
        }
    }
    let (point, present, of) = found.expect(
        "no crash point left a partial transaction visible to unfiltered replay — \
         the atomicity half of the oracle would be vacuous",
    );
    assert!(present > 0 && present < of);
    let out = run_crash_scenario(seed, point, &Scenario::plain());
    assert!(
        out.violations.is_empty(),
        "filtered recovery at sync point {point} must hide the partial txn: {:?}",
        out.violations
    );
}
