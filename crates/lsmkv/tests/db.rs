//! End-to-end tests of the `lsmkv` engine: write/read paths, flushes,
//! compactions, recovery, snapshots, concurrency, and the engine modes the
//! p2KVS paper layers on (RocksDB-like / LevelDB-like / PebblesDB-like).

use std::sync::Arc;

use lsmkv::{CompactionStyle, Db, Options, ReadOptions, SyncPolicy, WriteBatch, WriteOptions};
use p2kvs_storage::{Env, EnvRef, MemEnv};

fn small_opts(env: EnvRef) -> Options {
    let mut o = Options::rocksdb_like(env);
    o.memtable_size = 32 << 10;
    o.target_file_size = 16 << 10;
    o.base_level_size = 64 << 10;
    o.block_cache_size = 128 << 10;
    o
}

fn wo() -> WriteOptions {
    WriteOptions::default()
}

#[test]
fn put_get_delete_roundtrip() {
    let db = Db::open(Options::for_test(), "db").unwrap();
    db.put(&wo(), b"hello", b"world").unwrap();
    assert_eq!(db.get(b"hello").unwrap().unwrap(), b"world");
    assert_eq!(db.get(b"missing").unwrap(), None);
    db.delete(&wo(), b"hello").unwrap();
    assert_eq!(db.get(b"hello").unwrap(), None);
}

#[test]
fn overwrite_returns_latest() {
    let db = Db::open(Options::for_test(), "db").unwrap();
    for i in 0..10 {
        db.put(&wo(), b"k", format!("v{i}").as_bytes()).unwrap();
    }
    assert_eq!(db.get(b"k").unwrap().unwrap(), b"v9");
}

#[test]
fn write_batch_is_atomic_and_ordered() {
    let db = Db::open(Options::for_test(), "db").unwrap();
    let mut b = WriteBatch::new();
    b.put(b"a", b"1");
    b.put(b"b", b"2");
    b.delete(b"a");
    db.write(&wo(), b).unwrap();
    assert_eq!(db.get(b"a").unwrap(), None);
    assert_eq!(db.get(b"b").unwrap().unwrap(), b"2");
}

#[test]
fn empty_batch_is_noop() {
    let db = Db::open(Options::for_test(), "db").unwrap();
    db.write(&wo(), WriteBatch::new()).unwrap();
    assert_eq!(db.visible_sequence(), 0);
}

#[test]
fn data_survives_memtable_flush() {
    let env: EnvRef = Arc::new(MemEnv::new());
    let db = Db::open(small_opts(env), "db").unwrap();
    let n = 2000;
    for i in 0..n {
        db.put(&wo(), format!("key{i:06}").as_bytes(), format!("value{i}").as_bytes())
            .unwrap();
    }
    db.flush().unwrap();
    assert!(db.num_files_at_level(0) > 0 || db.level_sizes()[1..].iter().any(|&s| s > 0));
    for i in (0..n).step_by(37) {
        assert_eq!(
            db.get(format!("key{i:06}").as_bytes()).unwrap().unwrap(),
            format!("value{i}").as_bytes(),
            "key{i:06} after flush"
        );
    }
}

#[test]
fn compaction_keeps_data_readable() {
    let env: EnvRef = Arc::new(MemEnv::new());
    let db = Db::open(small_opts(env), "db").unwrap();
    let n = 8000;
    // Overwrite in several passes to force multi-level compaction.
    for pass in 0..3 {
        for i in 0..n {
            db.put(
                &wo(),
                format!("key{i:06}").as_bytes(),
                format!("pass{pass}-{i}").as_bytes(),
            )
            .unwrap();
        }
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();
    let stats = db.stats();
    assert!(
        stats.compactions.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "workload must trigger compactions"
    );
    for i in (0..n).step_by(61) {
        assert_eq!(
            db.get(format!("key{i:06}").as_bytes()).unwrap().unwrap(),
            format!("pass2-{i}").as_bytes()
        );
    }
    // Deeper levels must be populated.
    let sizes = db.level_sizes();
    assert!(sizes[1..].iter().any(|&s| s > 0), "levels: {sizes:?}");
}

#[test]
fn deletes_survive_flush_and_compaction() {
    let env: EnvRef = Arc::new(MemEnv::new());
    let db = Db::open(small_opts(env), "db").unwrap();
    for i in 0..3000 {
        db.put(&wo(), format!("k{i:06}").as_bytes(), b"v").unwrap();
    }
    for i in (0..3000).step_by(2) {
        db.delete(&wo(), format!("k{i:06}").as_bytes()).unwrap();
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();
    for i in 0..3000 {
        let got = db.get(format!("k{i:06}").as_bytes()).unwrap();
        if i % 2 == 0 {
            assert_eq!(got, None, "k{i:06} should be deleted");
        } else {
            assert_eq!(got.unwrap(), b"v");
        }
    }
}

#[test]
fn recovery_replays_wal() {
    let env: EnvRef = Arc::new(MemEnv::new());
    {
        let db = Db::open(Options::rocksdb_like(env.clone()), "db").unwrap();
        for i in 0..500 {
            db.put(&wo(), format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        // Drop without flush: data only in WAL + memtable.
    }
    let db = Db::open(Options::rocksdb_like(env), "db").unwrap();
    for i in (0..500).step_by(17) {
        assert_eq!(
            db.get(format!("k{i}").as_bytes()).unwrap().unwrap(),
            format!("v{i}").as_bytes()
        );
    }
    assert!(db.visible_sequence() >= 500);
}

#[test]
fn recovery_after_power_failure_keeps_synced_prefix() {
    let env = Arc::new(MemEnv::new());
    let env_ref: EnvRef = env.clone();
    {
        let mut opts = Options::rocksdb_like(env_ref.clone());
        opts.sync = SyncPolicy::Always;
        let db = Db::open(opts, "db").unwrap();
        for i in 0..50 {
            db.put(&wo(), format!("s{i}").as_bytes(), b"synced").unwrap();
        }
        db.crash(); // Simulate a crash: no final sync.
    }
    env.fs().power_failure();
    let db = Db::open(Options::rocksdb_like(env_ref), "db").unwrap();
    for i in 0..50 {
        assert_eq!(
            db.get(format!("s{i}").as_bytes()).unwrap().unwrap(),
            b"synced",
            "synced write s{i} lost"
        );
    }
}

#[test]
fn recovery_filter_skips_tagged_batches() {
    let env: EnvRef = Arc::new(MemEnv::new());
    {
        let db = Db::open(Options::rocksdb_like(env.clone()), "db").unwrap();
        let mut committed = WriteBatch::new();
        committed.put(b"committed", b"yes");
        committed.set_gsn(5);
        db.write(&wo(), committed).unwrap();
        let mut uncommitted = WriteBatch::new();
        uncommitted.put(b"uncommitted", b"no");
        uncommitted.set_gsn(9);
        db.write(&wo(), uncommitted).unwrap();
        db.crash();
    }
    // Roll back everything with GSN > 5 (p2KVS transaction recovery).
    let filter: lsmkv::db::RecoveryFilter = Arc::new(|gsn| gsn <= 5);
    let db = Db::open_with_recovery_filter(Options::rocksdb_like(env), "db", Some(filter)).unwrap();
    assert_eq!(db.get(b"committed").unwrap().unwrap(), b"yes");
    assert_eq!(db.get(b"uncommitted").unwrap(), None);
}

#[test]
fn concurrent_writers_all_land() {
    let env: EnvRef = Arc::new(MemEnv::new());
    let db = Arc::new(Db::open(small_opts(env), "db").unwrap());
    const THREADS: usize = 8;
    const PER: usize = 500;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..PER {
                    db.put(
                        &wo(),
                        format!("t{t}-k{i:05}").as_bytes(),
                        format!("t{t}-v{i}").as_bytes(),
                    )
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(db.visible_sequence(), (THREADS * PER) as u64);
    for t in 0..THREADS {
        for i in (0..PER).step_by(53) {
            assert_eq!(
                db.get(format!("t{t}-k{i:05}").as_bytes()).unwrap().unwrap(),
                format!("t{t}-v{i}").as_bytes()
            );
        }
    }
    // Group commit must actually have grouped some writes.
    let stats = db.stats();
    let groups = stats.write_groups.load(std::sync::atomic::Ordering::Relaxed);
    let writes = stats.writes.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(writes, (THREADS * PER) as u64);
    assert!(groups <= writes);
}

/// A write group's followers insert into the memtable their leader
/// captured, and with pipelined writes the next leader may already have
/// switched that memtable out: the flush has to wait for them, or an acked
/// write is in neither the table nor any memtable.
#[test]
fn writes_still_inserting_when_their_memtable_is_switched_out_are_flushed() {
    for round in 0..30 {
        let mut opts = small_opts(Arc::new(MemEnv::new()));
        // A switch every few dozen writes, a group in flight at most of them.
        opts.memtable_size = 2 << 10;
        opts.max_immutable_memtables = 8;
        opts.l0_slowdown_trigger = 1000;
        opts.l0_stop_trigger = 2000;
        let db = Arc::new(Db::open(opts, "db").unwrap());
        let threads: Vec<_> = (0..6u64)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..300u64 {
                        db.put(&wo(), format!("t{t}-{i:04}").as_bytes(), b"acked")
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        db.flush().unwrap();
        for t in 0..6u64 {
            for i in 0..300u64 {
                let key = format!("t{t}-{i:04}");
                assert!(
                    db.get(key.as_bytes()).unwrap().is_some(),
                    "round {round}: {key} lost"
                );
            }
        }
    }
}

#[test]
fn concurrent_writers_without_rocksdb_optimizations() {
    // LevelDB mode: no concurrent memtable, no pipelining.
    let env: EnvRef = Arc::new(MemEnv::new());
    let db = Arc::new(Db::open(Options::leveldb_like(env), "db").unwrap());
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..300 {
                    db.put(&wo(), format!("t{t}-{i}").as_bytes(), b"v").unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for t in 0..4 {
        assert_eq!(db.get(format!("t{t}-0").as_bytes()).unwrap().unwrap(), b"v");
        assert_eq!(db.get(format!("t{t}-299").as_bytes()).unwrap().unwrap(), b"v");
    }
}

#[test]
fn readers_race_writers_without_torn_reads() {
    let env: EnvRef = Arc::new(MemEnv::new());
    let db = Arc::new(Db::open(small_opts(env), "db").unwrap());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                // Writes are two entries that must be observed together.
                let mut b = WriteBatch::new();
                b.put(b"pair-x", format!("{i}").as_bytes());
                b.put(b"pair-y", format!("{i}").as_bytes());
                db.write(&WriteOptions::default(), b).unwrap();
                i += 1;
            }
        })
    };
    for _ in 0..300 {
        let snap = db.snapshot();
        let ropts = ReadOptions {
            snapshot: Some(snap.sequence()),
            ..ReadOptions::default()
        };
        let x = db.get_with(&ropts, b"pair-x").unwrap();
        let y = db.get_with(&ropts, b"pair-y").unwrap();
        assert_eq!(x, y, "snapshot must never observe a torn batch");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
}

#[test]
fn snapshot_pins_old_values() {
    let db = Db::open(Options::for_test(), "db").unwrap();
    db.put(&wo(), b"k", b"old").unwrap();
    let snap = db.snapshot();
    db.put(&wo(), b"k", b"new").unwrap();
    db.delete(&wo(), b"k2").unwrap();
    let ropts = ReadOptions {
        snapshot: Some(snap.sequence()),
        ..ReadOptions::default()
    };
    assert_eq!(db.get_with(&ropts, b"k").unwrap().unwrap(), b"old");
    assert_eq!(db.get(b"k").unwrap().unwrap(), b"new");
}

#[test]
fn snapshot_survives_flush_and_compaction() {
    let env: EnvRef = Arc::new(MemEnv::new());
    let db = Db::open(small_opts(env), "db").unwrap();
    db.put(&wo(), b"pinned", b"v1").unwrap();
    let snap = db.snapshot();
    // Bury the old version under lots of newer data.
    for i in 0..5000 {
        db.put(&wo(), format!("fill{i:06}").as_bytes(), &[0u8; 64]).unwrap();
    }
    db.put(&wo(), b"pinned", b"v2").unwrap();
    db.flush().unwrap();
    db.wait_idle().unwrap();
    let ropts = ReadOptions {
        snapshot: Some(snap.sequence()),
        ..ReadOptions::default()
    };
    assert_eq!(db.get_with(&ropts, b"pinned").unwrap().unwrap(), b"v1");
    assert_eq!(db.get(b"pinned").unwrap().unwrap(), b"v2");
}

/// `multiget` must answer exactly what a `get` of each key answers.
fn assert_multiget_matches_get(db: &Db, opts: &ReadOptions, keys: &[Vec<u8>]) {
    let batch = db.multiget_with(opts, keys).unwrap();
    assert_eq!(batch.len(), keys.len());
    for (key, got) in keys.iter().zip(&batch) {
        let single = db.get_with(opts, key).unwrap();
        assert_eq!(
            *got,
            single,
            "mismatch for {:?}",
            String::from_utf8_lossy(key)
        );
    }
}

fn key(i: usize) -> Vec<u8> {
    format!("k{i:05}").into_bytes()
}

#[test]
fn multiget_matches_get_across_memtable_l0_and_deep_levels() {
    // Without filters every covering table is read, so a key that L0 does
    // not hold goes through one round per level.
    for bloom_bits_per_key in [10, 0] {
        multiget_matches_get_across_the_tree(bloom_bits_per_key);
    }
}

fn multiget_matches_get_across_the_tree(bloom_bits_per_key: usize) {
    let env: EnvRef = Arc::new(MemEnv::new());
    let mut opts = small_opts(env);
    opts.bloom_bits_per_key = bloom_bits_per_key;
    let db = Db::open(opts, "db").unwrap();
    // Generation 0 settles into the deep levels.
    for i in 0..4000 {
        db.put(&wo(), &key(i), format!("deep{i}").as_bytes())
            .unwrap();
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();
    assert!(
        db.level_sizes()[1..].iter().sum::<u64>() > 0,
        "nothing below L0"
    );
    let snap = db.snapshot();
    // Generation 1 shadows part of it from L0: overwrites and tombstones.
    for i in (0..4000).step_by(5) {
        db.put(&wo(), &key(i), format!("l0-{i}").as_bytes())
            .unwrap();
    }
    for i in (0..4000).step_by(11) {
        db.delete(&wo(), &key(i)).unwrap();
    }
    db.flush().unwrap();
    // Generation 2 stays in the memtable.
    for i in (0..4000).step_by(13) {
        db.put(&wo(), &key(i), format!("mem{i}").as_bytes())
            .unwrap();
    }
    for i in (0..4000).step_by(17) {
        db.delete(&wo(), &key(i)).unwrap();
    }

    // Every third key (all generations, live and deleted), keys never
    // written, and one key several times over.
    let mut keys: Vec<Vec<u8>> = (0..4000).step_by(3).map(key).collect();
    keys.extend([b"absent".to_vec(), b"k".to_vec(), b"zzz".to_vec()]);
    keys.extend([key(1), key(55), key(1), key(55), key(1)]);
    let latest = ReadOptions::default();
    assert_multiget_matches_get(&db, &latest, &keys);
    assert_eq!(
        db.multiget(&[key(1), key(55)]).unwrap()[0].as_deref(),
        Some(&b"deep1"[..])
    );
    assert_eq!(
        db.multiget(&[key(55)]).unwrap()[0],
        None,
        "tombstone in L0 hides the deep value"
    );
    assert!(db.multiget(&[]).unwrap().is_empty());
    // The same keys through the other read options.
    let uncached = ReadOptions {
        skip_cache: true,
        ..latest
    };
    assert_multiget_matches_get(&db, &uncached, &keys);
    let pinned = ReadOptions {
        snapshot: Some(snap.sequence()),
        ..latest
    };
    assert_multiget_matches_get(&db, &pinned, &keys);
    assert_eq!(
        db.multiget_with(&pinned, &[key(55)]).unwrap()[0].as_deref(),
        Some(&b"deep55"[..]),
        "the snapshot predates the tombstone"
    );
}

#[test]
fn multiget_reads_an_immutable_memtable() {
    // A flush that cannot finish leaves its memtable immutable for good:
    // the one way to hold an imm still while reading it.
    let faulty = Arc::new(p2kvs_storage::FaultyEnv::over_mem());
    let db = Db::open(small_opts(faulty.clone()), "db").unwrap();
    for i in 0..200 {
        db.put(&wo(), &key(i), b"flushed").unwrap();
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();
    for i in (0..200).step_by(2) {
        db.put(&wo(), &key(i), b"imm").unwrap();
    }
    db.delete(&wo(), &key(4)).unwrap();
    faulty.set_plan(p2kvs_storage::FaultPlan {
        fail_sync: Some(faulty.sync_points() + 1),
        ..Default::default()
    });
    db.flush().expect_err("the flush's table sync was failed");
    let keys: Vec<Vec<u8>> = (0..210).map(key).collect();
    let got = db.multiget(&keys).unwrap();
    assert_eq!(got[2].as_deref(), Some(&b"imm"[..]));
    assert_eq!(got[3].as_deref(), Some(&b"flushed"[..]));
    assert_eq!(got[4], None);
    assert_eq!(got[205], None);
    assert_multiget_matches_get(&db, &ReadOptions::default(), &keys);
}

#[test]
fn multiget_reads_a_block_two_keys_share_once() {
    let env: EnvRef = Arc::new(MemEnv::new());
    let db = Db::open(small_opts(env.clone()), "db").unwrap();
    for i in 0..2000 {
        db.put(&wo(), &key(i), b"value").unwrap();
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();
    // Bypassing the block cache makes every lookup need its block from
    // the device; the first call also opens the tables.
    let uncached = ReadOptions {
        skip_cache: true,
        ..ReadOptions::default()
    };
    db.multiget_with(&uncached, &[key(10), key(1990)]).unwrap();
    let reads = |keys: &[Vec<u8>]| {
        let before = env.io_stats().read_ops;
        let got = db.multiget_with(&uncached, keys).unwrap();
        assert!(got.iter().all(|v| v.as_deref() == Some(&b"value"[..])));
        env.io_stats().read_ops - before
    };
    assert_eq!(reads(&[key(10)]), 1);
    assert_eq!(reads(&[key(10), key(11)]), 1, "neighbours share a block");
    assert_eq!(
        reads(&[key(10), key(10), key(10)]),
        1,
        "duplicates share a block"
    );
    assert_eq!(reads(&[key(10), key(1990)]), 2);
}

#[test]
fn multiget_fails_on_a_read_error_or_a_damaged_block() {
    let faulty = Arc::new(p2kvs_storage::FaultyEnv::over_mem());
    let mut opts = small_opts(faulty.clone());
    opts.block_cache_size = 0;
    let db = Db::open(opts, "db").unwrap();
    for i in 0..2000 {
        db.put(&wo(), &key(i), format!("v{i}").as_bytes()).unwrap();
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();
    let keys: Vec<Vec<u8>> = (0..2000).step_by(50).map(key).collect();
    let expected: Vec<Option<Vec<u8>>> = (0..2000)
        .step_by(50)
        .map(|i| Some(format!("v{i}").into_bytes()))
        .collect();
    assert_eq!(db.multiget(&keys).unwrap(), expected);

    // A failed read in the middle of the batch fails the call; it does not
    // turn into a missing key.
    faulty.set_plan(p2kvs_storage::FaultPlan {
        fail_read: Some(faulty.reads() + 5),
        ..Default::default()
    });
    let err = db.multiget(&keys).unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");
    assert_eq!(
        db.multiget(&keys).unwrap(),
        expected,
        "the fault was one-shot"
    );

    // One flipped byte in the first data block of every table: the batch
    // that touches it reports corruption, never a value.
    let dir = std::path::Path::new("db");
    for name in faulty.list_dir(dir).unwrap() {
        if name.to_string_lossy().ends_with(".sst") {
            let path = dir.join(name);
            let mut bytes = p2kvs_storage::env::read_all(&*faulty, &path).unwrap();
            bytes[10] ^= 0x40;
            p2kvs_storage::env::write_all(&*faulty, &path, &bytes).unwrap();
        }
    }
    let err = db.multiget(&keys).unwrap_err();
    assert!(matches!(err, lsmkv::Error::Corruption(_)), "{err}");
}

#[test]
fn iterator_scans_in_order_across_all_components() {
    let env: EnvRef = Arc::new(MemEnv::new());
    let db = Db::open(small_opts(env), "db").unwrap();
    // Data spread across SSTs (flushed) and the live memtable.
    for i in (0..1000).filter(|i| i % 2 == 0) {
        db.put(&wo(), format!("k{i:05}").as_bytes(), b"disk").unwrap();
    }
    db.flush().unwrap();
    for i in (0..1000).filter(|i| i % 2 == 1) {
        db.put(&wo(), format!("k{i:05}").as_bytes(), b"mem").unwrap();
    }
    let mut it = db.iter().unwrap();
    it.seek_to_first();
    let mut count = 0;
    let mut last = Vec::new();
    while it.valid() {
        assert!(it.key() > &last[..], "out of order at {count}");
        last = it.key().to_vec();
        count += 1;
        it.next();
    }
    assert_eq!(count, 1000);
}

#[test]
fn scan_and_range_semantics() {
    let db = Db::open(Options::for_test(), "db").unwrap();
    for i in 0..100 {
        db.put(&wo(), format!("k{i:03}").as_bytes(), format!("{i}").as_bytes())
            .unwrap();
    }
    let scan = db.scan(b"k010", 5).unwrap();
    assert_eq!(scan.len(), 5);
    assert_eq!(scan[0].0, b"k010");
    assert_eq!(scan[4].0, b"k014");
    let range = db.range(b"k095", b"k099").unwrap();
    assert_eq!(range.len(), 4, "end is exclusive");
    assert_eq!(range.last().unwrap().0, b"k098");
    assert!(db.range(b"x", b"z").unwrap().is_empty());
}

#[test]
fn pebblesdb_mode_compacts_with_lower_write_amp() {
    let env_leveled: EnvRef = Arc::new(MemEnv::new());
    let env_frag: EnvRef = Arc::new(MemEnv::new());
    let run = |env: EnvRef, style: CompactionStyle| -> (u64, u64) {
        let mut opts = small_opts(env.clone());
        opts.compaction_style = style;
        let db = Db::open(opts, "db").unwrap();
        for pass in 0..4 {
            for i in 0..4000u64 {
                db.put(
                    &wo(),
                    format!("key{:06}", (i * 2654435761) % 4000).as_bytes(),
                    format!("p{pass}-{i}").as_bytes(),
                )
                .unwrap();
            }
        }
        db.flush().unwrap();
        db.wait_idle().unwrap();
        // Verify reads still work in fragmented mode.
        assert!(db.get(b"key000000").unwrap().is_some());
        let user = db
            .stats()
            .user_bytes_written
            .load(std::sync::atomic::Ordering::Relaxed);
        drop(db);
        (env.io_stats().bytes_written, user)
    };
    let (leveled_io, leveled_user) = run(env_leveled, CompactionStyle::Leveled);
    let (frag_io, frag_user) = run(env_frag, CompactionStyle::Fragmented);
    let leveled_wa = leveled_io as f64 / leveled_user as f64;
    let frag_wa = frag_io as f64 / frag_user as f64;
    assert!(
        frag_wa < leveled_wa,
        "fragmented WA {frag_wa:.2} should beat leveled {leveled_wa:.2}"
    );
}

#[test]
fn disable_wal_writes_skip_log() {
    let env: EnvRef = Arc::new(MemEnv::new());
    let db = Db::open(Options::rocksdb_like(env.clone()), "db").unwrap();
    let before = env.io_stats().wal_bytes;
    let mut opts = WriteOptions::default();
    opts.disable_wal = true;
    for i in 0..100 {
        db.put(&opts, format!("k{i}").as_bytes(), b"v").unwrap();
    }
    db.sync_wal().unwrap();
    assert_eq!(env.io_stats().wal_bytes, before, "disable_wal must not touch the log");
    assert_eq!(db.get(b"k7").unwrap().unwrap(), b"v");
}

#[test]
fn stats_track_write_breakdown() {
    let db = Db::open(Options::for_test(), "db").unwrap();
    for i in 0..200 {
        db.put(&wo(), format!("k{i}").as_bytes(), b"v").unwrap();
    }
    let snap = db.stats().breakdown.snapshot();
    assert!(snap.total_us() > 0.0);
    let p = snap.percentages();
    assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-6);
}

#[test]
fn memory_usage_reports_sane_values() {
    let db = Db::open(Options::for_test(), "db").unwrap();
    let before = db.approximate_memory_usage();
    for i in 0..500 {
        db.put(&wo(), format!("k{i:04}").as_bytes(), &[1u8; 128]).unwrap();
    }
    assert!(db.approximate_memory_usage() > before);
}

#[test]
fn reopen_after_clean_close_keeps_everything() {
    let env: EnvRef = Arc::new(MemEnv::new());
    {
        let db = Db::open(small_opts(env.clone()), "db").unwrap();
        for i in 0..3000 {
            db.put(&wo(), format!("k{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        db.flush().unwrap();
        for i in 3000..3500 {
            db.put(&wo(), format!("k{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        // Drop = clean close (syncs WAL).
    }
    let db = Db::open(small_opts(env), "db").unwrap();
    for i in (0..3500).step_by(101) {
        assert_eq!(
            db.get(format!("k{i:05}").as_bytes()).unwrap().unwrap(),
            format!("v{i}").as_bytes()
        );
    }
}

#[test]
fn many_reopens_accumulate_correctly() {
    let env: EnvRef = Arc::new(MemEnv::new());
    for round in 0..5 {
        let db = Db::open(small_opts(env.clone()), "db").unwrap();
        for i in 0..200 {
            db.put(
                &wo(),
                format!("r{round}-k{i}").as_bytes(),
                format!("{round}").as_bytes(),
            )
            .unwrap();
        }
        // Every previous round must still be intact.
        for r in 0..=round {
            assert_eq!(
                db.get(format!("r{r}-k0").as_bytes()).unwrap().unwrap(),
                format!("{r}").as_bytes()
            );
        }
    }
}

#[test]
fn transient_wal_sync_error_does_not_wedge_writes() {
    // A failed WAL sync must fail only the affected group. Before the
    // publish-on-error fix, the reserved sequence range was never
    // published and every later write group waited forever.
    let faulty = Arc::new(p2kvs_storage::FaultyEnv::over_mem());
    let mut opts = Options::rocksdb_like(faulty.clone());
    opts.sync = SyncPolicy::Always;
    let db = Arc::new(Db::open(opts, "db").unwrap());
    db.put(&wo(), b"before", b"1").unwrap();

    faulty.set_plan(p2kvs_storage::FaultPlan {
        fail_sync: Some(faulty.sync_points() + 1),
        ..Default::default()
    });
    let err = db.put(&wo(), b"failed", b"2").unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");

    // The next write must complete (bounded wait, not a join that could
    // hang the whole test binary on regression).
    let (tx, rx) = std::sync::mpsc::channel();
    let db2 = db.clone();
    std::thread::spawn(move || {
        let r = db2.put(&wo(), b"after", b"3").map_err(|e| e.to_string());
        let _ = tx.send(r);
    });
    let outcome = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("write after transient WAL error must not hang");
    outcome.expect("retry after transient WAL error must succeed");
    assert_eq!(db.get(b"before").unwrap().unwrap(), b"1");
    assert_eq!(db.get(b"after").unwrap().unwrap(), b"3");
    // The failed group's data must not be visible.
    assert_eq!(db.get(b"failed").unwrap(), None);
}

#[test]
fn injected_read_error_surfaces_at_open() {
    // Recovery reads (CURRENT/MANIFEST/WAL) must propagate injected IO
    // errors as errors, not panic or silently succeed.
    let faulty = Arc::new(p2kvs_storage::FaultyEnv::over_mem());
    {
        let mut opts = Options::rocksdb_like(faulty.clone());
        opts.sync = SyncPolicy::Always;
        let db = Db::open(opts, "db").unwrap();
        db.put(&wo(), b"k", b"v").unwrap();
    }
    faulty.set_plan(p2kvs_storage::FaultPlan {
        fail_read: Some(faulty.reads() + 1),
        ..Default::default()
    });
    let opts = Options::rocksdb_like(faulty.clone());
    let err = match Db::open(opts, "db") {
        Ok(_) => panic!("open must fail on an injected recovery read error"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("injected fault"), "{err}");
    // One-shot: the retry recovers everything.
    let db = Db::open(Options::rocksdb_like(faulty), "db").unwrap();
    assert_eq!(db.get(b"k").unwrap().unwrap(), b"v");
}

#[test]
fn parallel_compaction_db_matches_serial_db() {
    // Differential end-to-end check: the same operation stream applied to
    // a single-threaded-compaction DB and to a multi-threaded, partitioned
    // one must leave byte-identical live contents.
    let run = |threads: usize, subs: usize| {
        let mut opts = small_opts(Arc::new(MemEnv::new()));
        opts.compaction_threads = threads;
        opts.subcompactions = subs;
        let db = Db::open(opts, "db").unwrap();
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..6000u64 {
            x = x.wrapping_mul(0xd1342543de82ef95).wrapping_add(1);
            let key = format!("user{:06}", x % 2000);
            if x % 11 == 0 {
                db.delete(&wo(), key.as_bytes()).unwrap();
            } else {
                db.put(&wo(), key.as_bytes(), format!("val-{i}-{x:x}").as_bytes())
                    .unwrap();
            }
        }
        db.flush().unwrap();
        db.wait_idle().unwrap();
        let all = db.range(b"", b"\x7f").unwrap();
        assert!(!all.is_empty());
        (all, db.level_sizes())
    };
    let (serial, _) = run(1, 1);
    let (parallel, _) = run(3, 4);
    assert_eq!(serial, parallel, "live contents diverged under parallel compaction");
}

#[test]
fn concurrent_level_compactions_keep_db_consistent() {
    // Hammer a small-memtable DB so L0→L1 and deeper compactions overlap
    // in time, then verify every surviving key reads back correctly.
    let mut opts = small_opts(Arc::new(MemEnv::new()));
    opts.compaction_threads = 3;
    opts.subcompactions = 4;
    opts.memtable_size = 16 << 10;
    let db = Arc::new(Db::open(opts, "db").unwrap());
    let threads: Vec<_> = (0..3u64)
        .map(|t| {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..1500u64 {
                    let key = format!("w{t}-{:05}", i % 500);
                    db.put(&wo(), key.as_bytes(), format!("{t}:{i}").as_bytes())
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();
    for t in 0..3u64 {
        for k in 0..500u64 {
            let key = format!("w{t}-{k:05}");
            let got = db.get(key.as_bytes()).unwrap();
            // Last write for this key was iteration 1000+k.
            assert_eq!(
                got.as_deref(),
                Some(format!("{t}:{}", 1000 + k).as_bytes()),
                "key {key}"
            );
        }
    }
    assert!(db.stats().compactions.load(std::sync::atomic::Ordering::Relaxed) > 0);
}

#[test]
fn compaction_spreads_output_over_queues() {
    // On a multi-queue device with a pinned home queue, sustained write
    // load must land flush/WAL bytes on the home queue and compaction
    // bytes on the other queues.
    use p2kvs_storage::{DeviceProfile, SimEnv};
    let env = Arc::new(SimEnv::with_profile(DeviceProfile::instant().with_queues(4)));
    let mut opts = small_opts(env.clone());
    opts.compaction_threads = 2;
    opts.subcompactions = 3;
    opts.io_queue = Some(0);
    let db = Db::open(opts, "db").unwrap();
    for i in 0..4000u64 {
        let key = format!("user{:06}", i % 1200);
        db.put(&wo(), key.as_bytes(), vec![b'x'; 100].as_slice()).unwrap();
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();
    let snap = env.io_stats();
    assert!(snap.queues[0].bytes_written > 0, "home queue idle: {:?}", snap.queues[0]);
    let off_home: u64 = (1..4).map(|q| snap.queues[q].bytes_written).sum();
    assert!(
        off_home > 0,
        "compaction wrote nothing off the home queue; per-queue: {:?}",
        (0..4).map(|q| snap.queues[q].bytes_written).collect::<Vec<_>>()
    );
}

#[test]
fn compaction_over_a_damaged_table_fails_and_installs_nothing() {
    let env = Arc::new(MemEnv::new());
    let mut opts = small_opts(env.clone());
    opts.memtable_size = 1 << 20; // Tables appear only when flushed.
    let db = Db::open(opts, "db").unwrap();
    let write_table = |t: usize| {
        for i in 0..200 {
            db.put(&wo(), &key(i), format!("t{t}-{i}").as_bytes())
                .unwrap();
        }
        db.flush()
    };
    // One table short of the L0 trigger: nothing compacts yet.
    for t in 0..3 {
        write_table(t).unwrap();
    }
    db.wait_idle().unwrap();
    assert_eq!(db.num_files_at_level(0), 3);
    let dir = std::path::Path::new("db");
    let tables = |env: &MemEnv| {
        let mut names: Vec<_> = env
            .list_dir(dir)
            .unwrap()
            .into_iter()
            .filter(|n| n.to_string_lossy().ends_with(".sst"))
            .collect();
        names.sort();
        names
    };
    let inputs = tables(&env);
    assert_eq!(inputs.len(), 3);
    // One flipped bit in the first data block of the middle table.
    let path = dir.join(&inputs[1]);
    let mut bytes = p2kvs_storage::env::read_all(&*env, &path).unwrap();
    bytes[10] ^= 0x40;
    p2kvs_storage::env::write_all(&*env, &path, &bytes).unwrap();

    // The fourth table sets off an L0→L1 compaction over all four. The
    // flush may already see the failed job.
    let _ = write_table(3);
    let err = db.wait_idle().unwrap_err();
    assert!(err.to_string().contains("crc mismatch"), "{err}");
    assert_eq!(db.num_files_at_level(0), 4, "no input was retired");
    assert_eq!(db.num_files_at_level(1), 0, "no output was installed");
    let left = tables(&env);
    assert!(inputs.iter().all(|t| left.contains(t)), "{left:?}");
    // The newest table shadows the damaged one: reads go on.
    assert_eq!(db.get(&key(7)).unwrap().unwrap(), b"t3-7");
}

/// Options the store fixture below was written with.
fn fixture_opts(env: EnvRef) -> Options {
    let mut o = small_opts(env);
    o.memtable_size = 8 << 10;
    o.target_file_size = 4 << 10;
    o.base_level_size = 16 << 10;
    o
}

/// Keys the store fixture holds and what each reads as: three passes of
/// overwrites over 700 keys, every ninth key deleted in the last.
fn fixture_contents() -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
    (0..700)
        .map(|i| (key(i), (i % 9 != 0).then(|| format!("p2-{i}").into_bytes())))
        .collect()
}

/// Writes the store fixture with the engine as it is at this commit:
/// every file of the directory as `name_len: u16 | name | len: u32 | bytes`.
/// The committed `fixtures/store-d6b1ec8.bin` and `store-5574fc9.bin` are
/// this test's output at those commits; run it with `--ignored` to cut a
/// fixture of a later format.
#[test]
#[ignore]
fn write_store_fixture() {
    let env = Arc::new(MemEnv::new());
    {
        let db = Db::open(fixture_opts(env.clone()), "db").unwrap();
        for pass in 0..3 {
            for i in 0..700 {
                if pass == 2 && i % 9 == 0 {
                    db.delete(&wo(), &key(i)).unwrap();
                } else {
                    db.put(&wo(), &key(i), format!("p{pass}-{i}").as_bytes())
                        .unwrap();
                }
            }
            if pass < 2 {
                db.flush().unwrap();
            }
        }
        // The tail of the last pass stays in the WAL.
        db.wait_idle().unwrap();
        db.sync_wal().unwrap();
        assert!(db.level_sizes()[1..].iter().any(|&s| s > 0));
    }
    let dir = std::path::Path::new("db");
    let mut out = Vec::new();
    let mut names = env.list_dir(dir).unwrap();
    names.sort();
    for name in names {
        let bytes = p2kvs_storage::env::read_all(&*env, &dir.join(&name)).unwrap();
        let name = name.to_string_lossy().into_owned();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    let path = std::env::temp_dir().join("lsmkv-store-fixture.bin");
    std::fs::write(&path, out).unwrap();
    println!("fixture written to {}", path.display());
}

/// Unpacks a store fixture into a fresh env; returns it and the number of
/// tables it held.
fn unpack_fixture(mut blob: &[u8]) -> (Arc<MemEnv>, usize) {
    let env = Arc::new(MemEnv::new());
    let dir = std::path::Path::new("db");
    env.create_dir_all(dir).unwrap();
    let mut tables = 0;
    while !blob.is_empty() {
        let (name_len, rest) = blob.split_at(2);
        let (name, rest) = rest.split_at(u16::from_le_bytes(name_len.try_into().unwrap()) as usize);
        let (len, rest) = rest.split_at(4);
        let (bytes, rest) = rest.split_at(u32::from_le_bytes(len.try_into().unwrap()) as usize);
        let name = std::str::from_utf8(name).unwrap();
        tables += usize::from(name.ends_with(".sst"));
        p2kvs_storage::env::write_all(&*env, &dir.join(name), bytes).unwrap();
        blob = rest;
    }
    (env, tables)
}

/// The fixture's contents read back from `db`, and still do after keys
/// beside the old ones have pushed every old table through a compaction.
fn assert_fixture_reads_back_and_compacts(db: &Db) {
    let contents = fixture_contents();
    let check = |db: &Db| {
        for (k, v) in &contents {
            assert_eq!(&db.get(k).unwrap(), v, "{}", String::from_utf8_lossy(k));
        }
        let live: Vec<_> = contents
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.clone()?)))
            .collect();
        assert_eq!(db.scan(b"", 10_000).unwrap(), live);
    };
    check(db);
    for round in 0..3 {
        for i in 0..700 {
            db.put(
                &wo(),
                format!("{}x", String::from_utf8(key(i)).unwrap()).as_bytes(),
                &[round; 24],
            )
            .unwrap();
        }
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();
    assert!(
        db.stats()
            .compactions
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
    );
    let left: usize = contents.len();
    assert_eq!(
        db.scan(b"", 10_000).unwrap().len(),
        left - left.div_ceil(9) + 700
    );
    for (k, v) in &contents {
        assert_eq!(&db.get(k).unwrap(), v);
    }
}

/// On-disk format: a store written by the commit before the background
/// data path was rebuilt opens under this one, reads back what was
/// written, and survives having its tables compacted by the new readers.
#[test]
fn store_written_by_an_earlier_commit_opens_and_reads_back() {
    let (env, tables) = unpack_fixture(include_bytes!("fixtures/store-d6b1ec8.bin"));
    assert!(tables >= 3, "{tables}");
    let db = Db::open(fixture_opts(env), "db").unwrap();
    assert_fixture_reads_back_and_compacts(&db);
}

/// Tree shape: `fixtures/store-5574fc9.bin` is `write_store_fixture`'s
/// output at the last commit whose flushes were cut at `target_file_size`.
/// Its L0 holds the two halves of one flush; they are two runs to this
/// engine's triggers, and they open, read and compact like any others.
#[test]
fn store_with_a_two_file_flush_in_l0_opens_and_compacts_to_the_same_contents() {
    let (env, _) = unpack_fixture(include_bytes!("fixtures/store-5574fc9.bin"));
    let db = Db::open(fixture_opts(env), "db").unwrap();
    // Newest first: the WAL tail this open flushed, then the old flush.
    let l0 = db.files_at_level(0);
    assert_eq!(l0.len(), 3);
    let (second, first) = (&l0[1], &l0[2]);
    assert_eq!(second.number, first.number + 1);
    assert!(first.largest < second.smallest, "halves of one sorted run");
    let halves = [first.number, second.number];
    assert_fixture_reads_back_and_compacts(&db);
    assert!(db
        .files_at_level(0)
        .iter()
        .all(|f| !halves.contains(&f.number)));
}
