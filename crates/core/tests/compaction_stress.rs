//! Release-mode stress of the parallel, queue-aware compaction path:
//! concurrent background compaction jobs with key-range subcompactions
//! on a four-queue device, hammered by writers, overwriters, deleters,
//! and point readers.
//!
//! Invariants exercised:
//!
//! * every key reads back exactly its last written value once the churn
//!   stops — overlapping subcompactions must never resurrect an
//!   overwritten version or drop a live key behind a tombstone;
//! * a full scan after the run is sorted, duplicate-free, and matches
//!   the oracle key count exactly;
//! * the run really did compact (nonzero compaction traffic) and the
//!   queue-affine placement really did spread output across submission
//!   queues — the stress is not silently running the serial path;
//! * a serial single-queue store fed the same operation sequence
//!   converges to byte-identical logical contents.
//!
//! CI runs this file under `--release`; the op counts are sized so the
//! debug build still finishes in seconds on one core.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, P2KvsOptions};
use p2kvs_storage::{DeviceProfile, EnvRef, MemEnv};

const KEYS_PER_WRITER: usize = if cfg!(debug_assertions) { 400 } else { 1_500 };
const ROUNDS_PER_WRITER: usize = if cfg!(debug_assertions) { 4 } else { 10 };
const WRITERS: usize = 4;
const QUEUES: usize = 4;

fn key_of(writer: usize, i: usize) -> Vec<u8> {
    format!("w{writer}-k{i:06}").into_bytes()
}

/// Values carry the (writer, key, round) identity plus padding so the
/// tree takes real bytes and compactions actually cascade.
fn value_of(writer: usize, i: usize, round: usize) -> Vec<u8> {
    let mut v = format!("v{writer}-{i:06}-r{round:03}-").into_bytes();
    v.resize(128, b'.');
    v
}

/// Tiny memtables and files over an instant multi-queue device: the
/// churn below rolls the tree through hundreds of flushes and
/// multi-level compactions in seconds, with parallel jobs and four-way
/// subcompactions racing the foreground traffic.
fn churn_options(env: EnvRef, threads: usize, subcompactions: usize) -> lsmkv::Options {
    let mut lsm = lsmkv::Options::rocksdb_like(env);
    lsm.memtable_size = 16 << 10;
    lsm.max_immutable_memtables = 2;
    // Files much smaller than levels so `partition_bounds` has real key
    // boundaries to split subcompactions on.
    lsm.target_file_size = 4 << 10;
    lsm.base_level_size = 16 << 10;
    lsm.level_multiplier = 4;
    lsm.l0_compaction_trigger = 2;
    lsm.l0_slowdown_trigger = 6;
    lsm.l0_stop_trigger = 10;
    lsm.sync = lsmkv::SyncPolicy::Buffered;
    lsm.compaction_threads = threads;
    lsm.subcompactions = subcompactions;
    lsm
}

fn open_store(
    name: &str,
    queues: usize,
    threads: usize,
    subcompactions: usize,
) -> P2Kvs<lsmkv::Db> {
    let env: EnvRef = Arc::new(MemEnv::with_profile(
        DeviceProfile::instant().with_queues(queues),
    ));
    let mut opts = P2KvsOptions::with_workers(WRITERS);
    opts.shards = WRITERS;
    opts.cache_capacity = 0;
    P2Kvs::open(
        LsmFactory::new(churn_options(env, threads, subcompactions)),
        name,
        opts,
    )
    .unwrap()
}

/// Order-independent fold over logical contents (summed per-entry FNV),
/// insensitive to scan order and SST layout.
fn contents_fold(entries: &[(Vec<u8>, Vec<u8>)]) -> u64 {
    let fnv = |mut h: u64, bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    };
    let mut fold = 0u64;
    for (k, v) in entries {
        fold = fold.wrapping_add(fnv(fnv(0xcbf29ce484222325, k), v));
    }
    fold
}

#[test]
fn parallel_subcompactions_survive_concurrent_churn() {
    let store = open_store("comp-stress", QUEUES, 3, 4);

    // Preload every writer's slice so point readers always have a target.
    for w in 0..WRITERS {
        for i in 0..KEYS_PER_WRITER {
            store.put(&key_of(w, i), &value_of(w, i, 0)).unwrap();
        }
    }

    let stop = AtomicBool::new(false);
    let point_reads = AtomicUsize::new(0);
    thread::scope(|s| {
        // Each writer owns a disjoint key slice and rewrites it round by
        // round, deleting a sliding third of the slice and restoring it
        // the next round — so compactions constantly merge overwrites
        // and tombstones from every shard at once.
        for w in 0..WRITERS {
            let store = &store;
            s.spawn(move || {
                for round in 1..=ROUNDS_PER_WRITER {
                    for i in 0..KEYS_PER_WRITER {
                        if (i + round) % 3 == 0 && round < ROUNDS_PER_WRITER {
                            store.delete(&key_of(w, i)).unwrap();
                        } else {
                            store.put(&key_of(w, i), &value_of(w, i, round)).unwrap();
                        }
                    }
                }
            });
        }

        // Two point readers walk foreign slices while compactions churn:
        // a key is either absent (deleted this round) or carries a value
        // stamped with its own identity — never a torn or foreign value.
        for r in 0..2usize {
            let store = &store;
            let stop = &stop;
            let point_reads = &point_reads;
            s.spawn(move || {
                let mut i = r;
                while !stop.load(Ordering::Acquire) {
                    let w = i % WRITERS;
                    let k = i % KEYS_PER_WRITER;
                    if let Some(v) = store.get(&key_of(w, k)).unwrap() {
                        let prefix = format!("v{w}-{k:06}-r");
                        assert!(
                            v.starts_with(prefix.as_bytes()),
                            "key w{w}-k{k} read a foreign value"
                        );
                    }
                    point_reads.fetch_add(1, Ordering::Relaxed);
                    i += 13;
                }
            });
        }

        // Writers finish, then release the readers.
        while point_reads.load(Ordering::Relaxed) == 0 {
            thread::yield_now();
        }
        // The scope joins writer threads before readers see `stop`, so
        // flip it from a dedicated watcher once writers are done.
        let store = &store;
        let stop = &stop;
        s.spawn(move || {
            // Writers are the first WRITERS spawns; simplest determinism:
            // poll until every slice reads back its final round somewhere.
            loop {
                let settled = (0..WRITERS).all(|w| {
                    store
                        .get(&key_of(w, KEYS_PER_WRITER - 1))
                        .unwrap()
                        .map(|v| {
                            v.starts_with(
                                format!("v{w}-{:06}-r{ROUNDS_PER_WRITER:03}", KEYS_PER_WRITER - 1)
                                    .as_bytes(),
                            )
                        })
                        .unwrap_or(false)
                });
                if settled {
                    break;
                }
                thread::yield_now();
            }
            stop.store(true, Ordering::Release);
        });
    });
    assert!(point_reads.load(Ordering::Relaxed) > 0, "readers never ran");

    // Final oracle check: the last round writes every key (no deletes),
    // so all slices must be complete with round-stamped values.
    let entries = store.range(b"", &[0xffu8; 16]).unwrap();
    assert_eq!(
        entries.len(),
        WRITERS * KEYS_PER_WRITER,
        "scan lost or grew keys"
    );
    assert!(entries.windows(2).all(|p| p[0].0 < p[1].0), "scan unsorted");
    for w in 0..WRITERS {
        for i in 0..KEYS_PER_WRITER {
            let v = store
                .get(&key_of(w, i))
                .unwrap()
                .expect("final-round key missing");
            assert_eq!(v, value_of(w, i, ROUNDS_PER_WRITER));
        }
    }

    // The run must have exercised the parallel path, not degenerated:
    // real compaction traffic, spread across more than one queue.
    let snap = store.metrics_snapshot();
    let compaction_bytes = snap
        .counters
        .iter()
        .find(|(n, _)| n == "p2kvs_device_compaction_bytes_total")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(compaction_bytes > 0, "the stress never compacted");
    let queues_active = (0..QUEUES)
        .filter(|q| {
            snap.counters
                .iter()
                .any(|(n, v)| n == &format!("p2kvs_device_q{q}_bytes_written_total") && *v > 0)
        })
        .count();
    assert!(
        queues_active >= 2,
        "affinity routed all traffic to one queue ({queues_active} active)"
    );
    store.close();
}

#[test]
fn parallel_and_serial_compaction_converge_identically() {
    // One deterministic single-threaded op sequence, replayed into a
    // parallel multi-queue store and a serial single-queue store; the
    // logical contents must be byte-identical however the background
    // work was scheduled and placed.
    let mut folds = Vec::new();
    for (name, queues, threads, subs) in [("conv-par", QUEUES, 3, 4), ("conv-ser", 1, 1, 1)] {
        let store = open_store(name, queues, threads, subs);
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        for _ in 0..(WRITERS * KEYS_PER_WRITER * 2) {
            let w = (next() % WRITERS as u64) as usize;
            let i = (next() % KEYS_PER_WRITER as u64) as usize;
            match next() % 10 {
                0 => store.delete(&key_of(w, i)).unwrap(),
                r => store
                    .put(&key_of(w, i), &value_of(w, i, r as usize))
                    .unwrap(),
            }
        }
        let entries = store.range(b"", &[0xffu8; 16]).unwrap();
        folds.push((entries.len(), contents_fold(&entries)));
        store.close();
    }
    assert_eq!(
        folds[0], folds[1],
        "parallel and serial compaction diverged: {folds:?}"
    );
}
