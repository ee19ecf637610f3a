//! Backup/restore stress: repeated GSN-consistent online snapshots cut
//! and streamed while writers, a reader and a shard migrator hammer the
//! store — under a deliberately thrashing 16 KiB read cache, so every
//! cycle interleaves CLOCK evictions, fills, write invalidations and
//! handoffs with the freeze markers.
//!
//! Each cycle restores the snapshot into a fresh directory and checks:
//!
//! * the restored store opens and serves every key it holds with a
//!   stable value (the copy is quiescent — two reads through the
//!   fill-then-hit cache path must agree with a full engine scan, so a
//!   stale carried-over cache entry has nowhere to hide);
//! * the restored store journaled its **cold-start cache reset** — a
//!   `cache_flush` of the sentinel shard sequenced after everything the
//!   backed-up flight journal recovered — proving a restore never
//!   trusts cache state from the source store's life;
//! * the recovered journal carries the cut's own `backup_begin` /
//!   `backup_complete` provenance, gap-free.
//!
//! CI runs this file under `--release` to shake out orderings the debug
//! interleavings miss.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use p2kvs::engine::LsmFactory;
use p2kvs::{JournalKind, P2Kvs, P2KvsOptions};

/// Distinct keys the writers cycle over. At ~140 bytes a record the hot
/// set is ~70 KiB — several times the 16 KiB cache budget, so the CLOCK
/// hand is always moving.
const KEYS: u64 = 512;
/// Online backup/restore cycles the test drives.
const CYCLES: usize = 5;
/// Concurrent writer threads.
const WRITERS: usize = 3;
/// The store's workers.
const WORKERS: usize = 3;

fn store_options() -> P2KvsOptions {
    let mut o = P2KvsOptions::with_workers(WORKERS);
    o.shards = 6;
    o.cache_capacity = 16 << 10; // thrashing by design
    o
}

fn stress_key(n: u64) -> Vec<u8> {
    format!("bs-{:04}", n % KEYS).into_bytes()
}

fn stress_value(writer: usize, seq: u64) -> Vec<u8> {
    // Self-describing and padded past cache-friendly sizes.
    format!("w{writer}-{seq}-{:x<120}", "").into_bytes()
}

fn value_is_well_formed(v: &[u8]) -> bool {
    v.len() >= 120 && v.starts_with(b"w") && v.iter().filter(|&&b| b == b'-').count() >= 2
}

#[test]
fn repeated_online_backups_under_concurrent_load_restore_cleanly() {
    let engine_opts = lsmkv::Options::for_test();
    let store = Arc::new(
        P2Kvs::open(
            LsmFactory::new(engine_opts.clone()),
            "bstress",
            store_options(),
        )
        .unwrap(),
    );
    // Seed every key so restores always have a full key space to check.
    for n in 0..KEYS {
        store.put(&stress_key(n), &stress_value(9, 0)).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    for w in 0..WRITERS {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        threads.push(thread::spawn(move || {
            let mut seq = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let n = seq
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(w as u64 + 1);
                store.put(&stress_key(n), &stress_value(w, seq)).unwrap();
                seq += 1;
            }
        }));
    }
    {
        // Reader: hammers the thrashing cache; every value surfaced must
        // be one some writer actually produced, never torn or stale-mixed.
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        threads.push(thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Some(v) = store.get(&stress_key(n)).unwrap() {
                    assert!(value_is_well_formed(&v), "corrupt read: {v:?}");
                }
                n = n.wrapping_add(7);
            }
        }));
    }
    {
        // Migrator: walks shard ownership around the workers so freeze
        // markers keep racing handoffs.
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        threads.push(thread::spawn(move || {
            let shards = store.shards();
            let mut r = 0usize;
            while !stop.load(Ordering::Relaxed) {
                store.migrate_shard(r % shards, (r + 1) % WORKERS).unwrap();
                r += 1;
                thread::sleep(std::time::Duration::from_millis(2));
            }
        }));
    }

    for cycle in 0..CYCLES {
        let backup_dir = format!("bstress-backup-{cycle}");
        let restore_dir = format!("bstress-restore-{cycle}");
        let report = store
            .backup(&backup_dir)
            .expect("cut under load")
            .wait()
            .expect("stream under load");
        assert_eq!(report.shards as usize, store.shards());
        assert!(
            report.entries >= KEYS,
            "cycle {cycle}: cut lost keys ({} < {KEYS})",
            report.entries
        );
        let restored = P2Kvs::restore(
            LsmFactory::new(engine_opts.clone()),
            &backup_dir,
            &restore_dir,
            store_options(),
        )
        .expect("restore under load");
        // The copy is quiescent: a full scan is its ground truth. Every
        // get — first the cache fill, then the hit — must agree with it,
        // so a stale entry carried over from the source's cache (or from
        // a previous cycle) cannot hide.
        let snapshot = restored.scan(b"", usize::MAX / 4).unwrap();
        assert!(
            snapshot.len() >= KEYS as usize,
            "cycle {cycle}: restore lost keys"
        );
        for (k, v) in &snapshot {
            assert!(
                value_is_well_formed(v),
                "cycle {cycle}: corrupt restored value"
            );
            for pass in 0..2 {
                assert_eq!(
                    restored.get(k).unwrap().as_deref(),
                    Some(v.as_slice()),
                    "cycle {cycle} pass {pass}: cached read diverged from the engine"
                );
            }
        }
        // Cold-start contract: the restore journaled a fresh cache reset
        // sequenced after everything the backup's journal brought back.
        let recovered = restored.recovered_flight_records();
        let recovered_max = recovered.last().map_or(0, |r| r.seq);
        let kinds: Vec<JournalKind> = recovered.iter().map(|r| r.kind).collect();
        assert!(
            kinds.contains(&JournalKind::BackupBegin)
                && kinds.contains(&JournalKind::BackupComplete),
            "cycle {cycle}: recovered journal lacks the cut's provenance: {kinds:?}"
        );
        assert!(
            p2kvs::obs::sequence_gap(recovered).is_none(),
            "cycle {cycle}: recovered journal has a hole"
        );
        let live = restored.flight_records(usize::MAX);
        assert!(
            live.iter().any(|r| r.kind == JournalKind::CacheFlush
                && r.a == u64::MAX
                && r.seq > recovered_max),
            "cycle {cycle}: restore journaled no cold-start cache reset after seq {recovered_max}"
        );
        restored.close();
    }

    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().unwrap();
    }
    // The primary survived it all: every key still reads well-formed.
    for n in 0..KEYS {
        let v = store.get(&stress_key(n)).unwrap().expect("seeded key");
        assert!(value_is_well_formed(&v));
    }
    // … and the routing fence held throughout: no worker ever forwarded
    // a request for a shard it had already handed away.
    let snap = store.snapshot();
    let rerouted: u64 = snap.workers.iter().map(|w| w.rerouted).sum();
    assert_eq!(rerouted, 0, "a request was routed under a displaced map");
    assert!(snap.migrations > 0, "the migrator never moved a shard");
}
