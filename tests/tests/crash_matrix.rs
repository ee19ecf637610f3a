//! Crash-point recovery matrix across the storage/WAL/GSN stack.
//!
//! Drives the seeded workload from `p2kvs_integration_tests::crash`
//! over a [`p2kvs_storage::FaultyEnv`], power-fails the store at sampled
//! sync points, recovers through `P2Kvs::open`, and validates every
//! recovered store (`Run::recover`) — whatever the scenario:
//!
//! * no acked-Ok write (`SyncPolicy::Always`) may be lost,
//! * per key, recovery lands on the effect of some issue-order prefix no
//!   older than the last acked write,
//! * cross-instance transactions are atomic — all-present (mandatory when
//!   the commit was acked) or all-absent,
//! * the flight-recorder journal (`FLIGHT.log`) recovers as a gap-free
//!   sequence rooted at the creation-time `store_open` record — a crash
//!   may truncate its tail but never punch holes in the history,
//! * a full scan reads every SST the recovered version sets reference,
//! * plus the scenario's own checks (the cached scenarios' cache reset,
//!   the combined scenario's backup restore or rejection).
//!
//! Reproduce a run locally with the seed printed in CI:
//! `P2KVS_CRASH_SEED=<n> cargo test -p p2kvs-integration-tests --release
//! --test crash_matrix`.

use p2kvs_integration_tests::crash::{
    crash_at, crash_on_queue, dry_run, run, run_matrix, sample_points, unfiltered_partial_txn,
    Scenario,
};

/// Default seed; override with `P2KVS_CRASH_SEED` to explore.
const DEFAULT_SEED: u64 = 0xCAFE_F00D;

fn seed() -> u64 {
    match std::env::var("P2KVS_CRASH_SEED") {
        Ok(s) => s.parse().expect("P2KVS_CRASH_SEED must be a u64"),
        Err(_) => DEFAULT_SEED,
    }
}

/// The plain scenario's sync-point space: the range every stride below
/// samples. Scenarios that open more instances or add journal syncs
/// shift their numbering relative to it, but a stride over it still
/// covers creation, their disturbances, and steady state.
fn plain_total() -> u64 {
    dry_run(seed(), &Scenario::plain())[0]
}

/// The matrix proper: every one of the first 160 sync points plus a
/// stride over the rest — at least 200 crash points all told, each run
/// on a fresh env, each recovery checked against the oracle.
#[test]
fn crash_matrix_recovers_at_every_sampled_sync_point() {
    let total = plain_total();
    assert!(total >= 220, "workload exposes only {total} sync points");
    let points = sample_points(total);
    assert!(points.len() >= 200, "only {} points sampled", points.len());
    let plans = points.into_iter().map(crash_at);
    let t = run_matrix(seed(), "plain", &Scenario::plain(), plans);
    // Late points may not fire when a run's engine-internal interleaving
    // merges a few more group commits than the dry run; the bulk must.
    assert!(
        t.crashed >= 200,
        "only {} of {} points crashed",
        t.crashed,
        t.runs
    );
}

/// The handoff matrix: the store opens with shards decoupled from
/// workers and every workload round ends with an epoch-fenced shard
/// migration, so sampled crash points land before, during, and after
/// handoffs. Recovery reopens under a fresh round-robin map — no acked
/// write may depend on which worker owned a shard when the power
/// failed, and the journaled handoffs must come back gap-free.
#[test]
fn crash_matrix_recovers_across_shard_migrations() {
    let plans = (1..=plain_total()).step_by(5).map(crash_at);
    run_matrix(seed(), "migration", &Scenario::migration(), plans);
}

/// The cached matrix: the migration layout with the hot-record read
/// cache enabled and per-round reads warming it, so crash points land
/// while cached entries, write invalidations, and handoffs of shards
/// with cached entries are in flight. The cache is volatile — the oracle contract
/// is identical — and every recovery must journal a fresh `cache_flush`
/// reset record sequenced after everything it recovered.
#[test]
fn crash_matrix_recovers_with_the_read_cache_enabled() {
    let plans = (1..=plain_total()).step_by(7).map(crash_at);
    run_matrix(seed(), "cached", &Scenario::cached(), plans);
}

/// The subcompaction matrix: parallel compaction (two background jobs,
/// three-way subcompactions) on a four-queue device with queue affinity
/// on, and the power fails at the Nth sync **of one submission queue**
/// — so sampled points land mid-compaction, after some subcompactions
/// synced their output and before their siblings did. No version set
/// may install truncated compaction output.
#[test]
fn crash_matrix_recovers_mid_subcompaction_on_every_queue() {
    let scenario = Scenario::subcompaction();
    let per_queue = dry_run(seed(), &scenario);
    for (queue, &total) in per_queue.iter().enumerate() {
        assert!(
            total >= 10,
            "queue {queue} exposes only {total} sync points ({per_queue:?})"
        );
    }
    // Per-queue numbering keeps each target deterministic even though
    // concurrent compaction threads shuffle the global order.
    let plans = per_queue.iter().enumerate().flat_map(|(queue, &total)| {
        (1..=total)
            .step_by(6)
            .map(move |point| crash_on_queue(queue, point))
    });
    run_matrix(seed(), "queue", &scenario, plans);
}

/// Every feature crashed in one run: the read cache warmed and a shard
/// handed off every round, an online backup cut at round 2 and
/// streaming under them, and parallel compaction spreading
/// output over a four-queue device. Beyond every check above, a
/// completed backup must restore to its cut and a partial one must be
/// rejected — and the matrix must see both.
#[test]
fn crash_matrix_recovers_with_every_feature_at_once() {
    let scenario = Scenario::combined();
    let total: u64 = dry_run(seed(), &scenario).iter().sum();
    let plans = (1..=total).step_by(9).map(crash_at);
    run_matrix(seed(), "combined", &scenario, plans);
}

/// Negative control: the oracle and the GSN rollback are not vacuous.
/// Replaying the same crash states *without* the recovery filter must
/// expose a partially applied cross-instance transaction at some crash
/// point — the state §4.5's rollback exists to hide — while the real
/// recovery path at that very point reports none.
#[test]
fn unfiltered_replay_exposes_partial_transactions() {
    let seed = seed();
    let (point, present, of) = (1..=plain_total())
        .find_map(|p| unfiltered_partial_txn(seed, p).map(|(n, of)| (p, n, of)))
        .expect("no crash point left a partial transaction visible to unfiltered replay");
    assert!(present > 0 && present < of);
    let out = run(seed, &Scenario::plain(), crash_at(point)).recover();
    assert!(
        out.violations.is_empty(),
        "filtered recovery at sync point {point} must hide the partial txn: {:?}",
        out.violations
    );
}
