//! The backup-torture matrix: GSN-consistent online snapshots under
//! power failure.
//!
//! Drives `Scenario::backup` from `p2kvs_integration_tests::crash` —
//! the migration workload with an **online backup** cut mid-stream
//! (round 2 of 8) and streamed concurrently with three more rounds of
//! writes, migrations, and cross-instance transactions — power-failing
//! at sampled globally numbered sync points. Crash points therefore
//! land before the cut, inside the freeze window, mid-stream, on the
//! backup's own file syncs, and after the `MANIFEST` sync. Every run
//! validates (`Run::recover`, as for every scenario):
//!
//! * the primary store recovers per the standard acked-writes oracle —
//!   taking a backup must never weaken crash recovery,
//! * a **completed** backup (durable `MANIFEST`) restores to a store
//!   holding exactly the cut-time acked state: no acked write missing,
//!   nothing from past the horizon leaking in (post-cut transactions
//!   use fresh keys and must be absent), flight journal gap-free with
//!   the cut's own `backup_begin`/`backup_complete` provenance,
//! * an **incomplete** backup directory is rejected by `P2Kvs::restore`
//!   with a clean `Error::Backup` — never a fabricated store.
//!
//! Reproduce a run locally with the seed printed in CI:
//! `P2KVS_BACKUP_SEED=<n> cargo test -p p2kvs-integration-tests
//! --release --test backup_matrix`.

use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, WriteOp};
use p2kvs_integration_tests::crash::{crash_at, dry_run, run_matrix, Scenario, WORKERS};

/// Default seed; override with `P2KVS_BACKUP_SEED` to explore.
const DEFAULT_SEED: u64 = 0xBAC_CAB5;

fn seed() -> u64 {
    match std::env::var("P2KVS_BACKUP_SEED") {
        Ok(s) => s.parse().expect("P2KVS_BACKUP_SEED must be a u64"),
        Err(_) => DEFAULT_SEED,
    }
}

/// The matrix proper: a stride over the full sync-point space (the
/// backup streamer runs concurrently with foreground syncs, so the
/// numbering shifts run-to-run — each run validates against its own
/// observed acks and its own backup fate). Some crashes must leave a
/// completed backup that restored to the horizon, and some a partial
/// directory that restore rejected.
#[test]
fn backup_matrix_recovers_and_restores_at_every_sampled_sync_point() {
    let scenario = Scenario::backup();
    let total = dry_run(seed(), &scenario)[0];
    assert!(total >= 220, "workload exposes only {total} sync points");
    let plans = (1..=total).step_by(5).map(crash_at);
    run_matrix(seed(), "backup", &scenario, plans);
}

/// Regression: a `scan` whose cursors were handed over by a migration
/// must neither wedge a subsequent backup freeze nor lose its place.
/// The scan here holds live cursors on every shard, every shard then
/// changes owner (cursor state crossing in the shard's handoff slot),
/// and a backup cuts right behind the replays — the freeze
/// marker forks the engine snapshot without touching the scan table, so
/// the backup completes and the cursor resumes exactly where it parked.
#[test]
fn a_scan_parked_by_migration_never_wedges_the_backup() {
    let engine_opts = lsmkv::Options::for_test();
    let mut opts = Scenario::migration().options;
    opts.scan_chunk_entries = 32; // many small pulls: cursors stay open
    let store = P2Kvs::open(
        LsmFactory::new(engine_opts.clone()),
        "scan-db",
        opts.clone(),
    )
    .expect("open");
    let n = 2000u32;
    for i in 0..n {
        store
            .put(
                format!("scan-{i:05}").as_bytes(),
                format!("v{i}").as_bytes(),
            )
            .expect("put");
    }
    let mut iter = store.iter().expect("open scan");
    let mut got = Vec::new();
    for _ in 0..100 {
        got.push(
            iter.next_entry()
                .expect("scan chunk")
                .expect("2000 entries"),
        );
    }
    // Park the open cursors: every shard changes owner mid-scan.
    let owners = store.shard_owners();
    for (s, &owner) in owners.iter().enumerate() {
        store
            .migrate_shard(s, (owner + 1) % WORKERS)
            .expect("migrate");
    }
    // The freeze markers land behind the replayed parcels on the new
    // owners; the backup must complete with the scan still open.
    let report = store
        .backup("scan-backup")
        .expect("cut")
        .wait()
        .expect("stream");
    assert_eq!(report.entries, n as u64, "every acked write is in the cut");
    // A write past the cut, while the scan is still parked mid-key-space.
    store
        .write_batch(vec![WriteOp::Put {
            key: b"zzz-post".to_vec(),
            value: b"1".to_vec(),
        }])
        .expect("post-cut write");
    // The parked scan resumes exactly where it left off and sees a
    // consistent ordered view.
    while let Some(e) = iter.next_entry().expect("scan resumes") {
        got.push(e);
    }
    drop(iter);
    assert!(got.len() >= n as usize, "scan lost entries: {}", got.len());
    for (i, (k, v)) in got.iter().take(n as usize).enumerate() {
        assert_eq!(k, format!("scan-{i:05}").as_bytes(), "order broke at {i}");
        assert_eq!(v, format!("v{i}").as_bytes(), "value broke at {i}");
    }
    // The restored copy holds every pre-cut write and not the post-cut one.
    let restored = P2Kvs::restore(
        LsmFactory::new(engine_opts),
        "scan-backup",
        "scan-restored",
        opts,
    )
    .expect("restore");
    for i in (0..n).step_by(97) {
        assert_eq!(
            restored
                .get(format!("scan-{i:05}").as_bytes())
                .expect("read")
                .as_deref(),
            Some(format!("v{i}").as_bytes()),
            "restored copy lost key {i}"
        );
    }
    assert_eq!(
        restored.get(b"zzz-post").expect("read"),
        None,
        "post-cut write leaked"
    );
}
