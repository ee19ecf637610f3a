//! What the tree looks like after flushes and compactions: a flush is one
//! L0 file, the L0 triggers count flushes, and files with nothing beneath
//! them change level by a manifest edit alone.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lsmkv::options::FRAGMENT_MERGE_THRESHOLD;
use lsmkv::types::user_key;
use lsmkv::version::edit::FileMetaData;
use lsmkv::{CompactionStyle, Db, Options, WriteOptions};
use p2kvs_storage::{Env, EnvRef, FaultEvent, FaultPlan, FaultyEnv, MemEnv};

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Flushes happen only where a test asks for one (the memtable never
/// fills), tables are cut at 4 KiB, and L1 is `base_level_size` large.
fn opts(env: EnvRef, base_level_size: u64) -> Options {
    let mut o = Options::rocksdb_like(env);
    o.memtable_size = 1 << 20;
    o.target_file_size = 4 << 10;
    o.base_level_size = base_level_size;
    o.block_cache_size = 128 << 10;
    o
}

fn key(i: usize) -> Vec<u8> {
    format!("key{i:05}").into_bytes()
}

fn value(i: usize) -> Vec<u8> {
    format!("v{i:<120}").into_bytes()
}

fn files(db: &Db, level: usize) -> Vec<FileMetaData> {
    db.files_at_level(level)
        .iter()
        .map(|f| f.meta().clone())
        .collect()
}

#[test]
fn a_flush_is_one_l0_file_and_the_trigger_counts_flushes() {
    let o = opts(Arc::new(MemEnv::new()), 1 << 20);
    let (trigger, target) = (o.l0_compaction_trigger, o.target_file_size as u64);
    let db = Db::open(o, "db").unwrap();
    let wo = WriteOptions::default();
    for flush in 0..trigger {
        // Each memtable holds several target files' worth of entries.
        for i in 0..400 {
            db.put(&wo, &key(i * trigger + flush), &[flush as u8; 100])
                .unwrap();
        }
        assert_eq!(db.num_files_at_level(0), flush);
        assert_eq!(load(&db.stats().levels[0].jobs), 0, "after {flush} flushes");
        db.flush().unwrap();
    }
    db.wait_idle().unwrap();
    let l0 = &db.stats().levels[0];
    assert_eq!(load(&db.stats().flushes), trigger as u64);
    assert!(load(&db.stats().flush_bytes_written) > trigger as u64 * 4 * target);
    assert_eq!(
        (
            load(&l0.jobs),
            load(&l0.files_in),
            load(&l0.bytes_overlapped)
        ),
        (1, trigger as u64, 0)
    );
    assert_eq!(load(&l0.bytes_in), load(&db.stats().flush_bytes_written));
    assert_eq!(db.num_files_at_level(0), 0);
    // Compaction outputs are still cut at the target size.
    let l1 = files(&db, 1);
    assert!(l1.len() > 4 * trigger, "{}", l1.len());
    assert!(l1.iter().all(|f| f.size < 2 * target));
}

/// Builds, under an L1 too large to overflow, an L1 of many small files
/// with nothing beneath it: four flushes of interleaved keys, the last one
/// deleting every tenth key while a snapshot keeps the deleted versions
/// (and so the tombstones) alive through the L0→L1 merge. Returns L1's
/// files.
fn build_l1(env: EnvRef) -> Vec<FileMetaData> {
    let db = Db::open(opts(env, 1 << 20), "db").unwrap();
    let wo = WriteOptions::default();
    let mut snapshot = None;
    for flush in 0..4 {
        for i in (flush..1600).step_by(4) {
            db.put(&wo, &key(i), &value(i)).unwrap();
        }
        if flush == 3 {
            snapshot = Some(db.snapshot());
            for i in (0..1600).step_by(10) {
                db.delete(&wo, &key(i)).unwrap();
            }
        }
        db.flush().unwrap();
    }
    db.wait_idle().unwrap();
    drop(snapshot);
    assert_eq!(db.num_files_at_level(0) + db.num_files_at_level(2), 0);
    let l1 = files(&db, 1);
    assert!(l1.len() > 40, "{}", l1.len());
    assert_eq!(l1.iter().map(|f| f.entries).sum::<u64>(), 1600 + 160);
    l1
}

fn assert_contents(db: &Db) {
    for i in 0..1600 {
        let expect = (i % 10 != 0).then(|| value(i));
        assert_eq!(db.get(&key(i)).unwrap(), expect, "key {i}");
    }
    assert_eq!(db.scan(b"", 10_000).unwrap().len(), 1600 - 160);
}

/// L1 and L2 together hold exactly `built`, every file at one level and
/// as it was written. Returns how many are in L2.
fn assert_same_files(db: &Db, built: &[FileMetaData]) -> usize {
    let l2 = files(db, 2);
    let mut found: Vec<FileMetaData> = files(db, 1).into_iter().chain(l2.clone()).collect();
    found.sort_by_key(|f| f.number);
    assert_eq!(found, built, "number, size, bounds and entry count");
    l2.len()
}

#[test]
fn files_with_nothing_beneath_them_move_down_unrewritten() {
    let env = Arc::new(MemEnv::new());
    let mut built = build_l1(env.clone());
    built.sort_by_key(|f| f.number);

    // The same store under an L1 target of 32 KiB: L1 is several times
    // over (more than one job's worth, less than L2's target), L2 is
    // empty, so every pick has nothing beneath it.
    let before = env.io_stats();
    let db = Db::open(opts(env.clone(), 32 << 10), "db").unwrap();
    db.wait_idle().unwrap();
    let stats = db.stats();
    let l1 = &stats.levels[1];
    let moved = assert_same_files(&db, &built);
    assert!(moved > 30, "{moved}");
    assert_eq!(load(&l1.files_moved), moved as u64);
    assert_eq!(
        load(&l1.bytes_moved),
        files(&db, 2).iter().map(|f| f.size).sum::<u64>()
    );
    assert!(db.level_sizes()[1] <= 32 << 10);
    // Not one table byte was written or read for it: the device saw the
    // MANIFEST records (and the reopen's fresh MANIFEST) and nothing else.
    assert_eq!((load(&l1.jobs), load(&l1.bytes_written)), (0, 0));
    assert_eq!(
        load(&stats.compactions) + load(&stats.compaction_bytes_written),
        0
    );
    let delta = env.io_stats().delta(&before);
    assert_eq!(
        delta.compaction_bytes + delta.flush_bytes + delta.wal_bytes,
        0
    );
    assert_eq!(delta.bytes_written, load(&stats.manifest_bytes_written));
    assert_eq!(delta.bytes_written, stats.device_bytes_written());
    let dir = std::path::Path::new("db");
    let tables: BTreeMap<String, u64> = env
        .list_dir(dir)
        .unwrap()
        .iter()
        .map(|n| n.to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".sst"))
        .map(|n| (n.clone(), env.file_size(&dir.join(&n)).unwrap()))
        .collect();
    let expect = built
        .iter()
        .map(|f| (format!("{:06}.sst", f.number), f.size));
    assert_eq!(tables, expect.collect());
    // Tombstones moved with their files: a rewrite with no snapshot left
    // would have dropped them and the versions they shadow.
    assert_eq!(
        files(&db, 2)
            .iter()
            .chain(&files(&db, 1))
            .map(|f| f.entries)
            .sum::<u64>(),
        1600 + 160
    );
    assert_contents(&db);
    let placed = (files(&db, 1), files(&db, 2));
    drop(db);

    // Reopening replays "delete at L1, add at L2" of one file number.
    let db = Db::open(opts(env.clone(), 32 << 10), "db").unwrap();
    db.wait_idle().unwrap();
    assert_eq!((files(&db, 1), files(&db, 2)), placed);
    assert_contents(&db);
}

#[test]
fn an_l0_file_is_rewritten_even_with_nothing_beneath_it() {
    let mut o = opts(Arc::new(MemEnv::new()), 1 << 20);
    o.l0_compaction_trigger = 1;
    let db = Db::open(o, "db").unwrap();
    for i in 0..100 {
        db.put(&WriteOptions::default(), &key(i), b"v").unwrap();
    }
    db.flush().unwrap();
    db.wait_idle().unwrap();
    let l0 = &db.stats().levels[0];
    assert_eq!((load(&l0.jobs), load(&l0.files_moved)), (1, 0));
    assert!(load(&l0.bytes_written) > 0);
    assert_eq!((db.num_files_at_level(0), db.num_files_at_level(1)), (0, 1));
}

#[test]
fn fragmented_levels_are_merged_never_moved() {
    let mut o = opts(Arc::new(MemEnv::new()), 16 << 10);
    o.compaction_style = CompactionStyle::Fragmented;
    let db = Db::open(o, "db").unwrap();
    let wo = WriteOptions::default();
    // Disjoint key ranges per flush: nothing a fragment is appended over
    // ever overlaps it. Enough flushes to fill L1 past the merge threshold
    // several times over.
    let flushes = 8 * FRAGMENT_MERGE_THRESHOLD;
    for flush in 0..flushes {
        for i in 0..100 {
            db.put(&wo, &key(flush * 100 + i), &[1u8; 64]).unwrap();
        }
        db.flush().unwrap();
    }
    db.wait_idle().unwrap();
    let stats = db.stats();
    assert!(
        load(&stats.levels[1].jobs) > 0,
        "fragments were merged below L0"
    );
    assert_eq!(
        stats
            .levels
            .iter()
            .map(|l| load(&l.files_moved))
            .sum::<u64>(),
        0
    );
    for i in (0..flushes * 100).step_by(7) {
        assert_eq!(db.get(&key(i)).unwrap().unwrap(), [1u8; 64]);
    }
}

#[test]
fn a_power_failure_at_any_sync_of_a_move_leaves_each_file_at_one_level() {
    // Every sync point of "reopen under the small L1 target and move files
    // down until it fits": the reopen's own two MANIFEST syncs, then one
    // per move.
    let run = |crash_at: Option<u64>| {
        let faulty = Arc::new(FaultyEnv::over_mem());
        let mut built = build_l1(faulty.clone());
        built.sort_by_key(|f| f.number);
        let base = faulty.sync_points();
        faulty.set_plan(FaultPlan {
            crash_at_sync: crash_at.map(|k| base + k),
            ..FaultPlan::default()
        });
        // Counted before the handle drops: its last act is a WAL sync.
        let mut syncs = 0;
        if let Ok(db) = Db::open(opts(faulty.clone(), 32 << 10), "db") {
            let idle = db.wait_idle();
            syncs = faulty.sync_points() - base;
            assert_eq!(idle.is_err(), crash_at.is_some());
        }
        (syncs, faulty, built)
    };
    let (syncs, _, _) = run(None);
    assert!(syncs > 3, "{syncs}");
    let mut crashed_in_a_move = 0;
    for k in 1..=syncs {
        let (_, faulty, built) = run(Some(k));
        let events = faulty.events();
        let [FaultEvent::Crash { path, .. }] = events.as_slice() else {
            panic!("sync {k}: {events:?}");
        };
        let at_manifest = path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("MANIFEST"));
        faulty.heal();
        // Under the large target nothing moves any more: what the
        // crashed run made durable is what this open finds.
        let db = Db::open(opts(faulty.clone(), 1 << 20), "db").unwrap();
        db.wait_idle().unwrap();
        let moved = assert_same_files(&db, &built);
        assert_contents(&db);
        crashed_in_a_move += usize::from(at_manifest && k > 2);
        assert!(moved == 0 || k > 3, "sync {k}: {moved} files in L2");
    }
    assert!(crashed_in_a_move > 1, "{crashed_in_a_move}");
}

/// An L0→L1 job over an L2 closes an output where an L2 file ends, once
/// the output holds a quarter of the target size: each L1 file then lies
/// inside as few L2 files as its data allows, and the L1→L2 job that later
/// takes it rewrites no L2 file it only grazes.
#[test]
fn l1_outputs_end_where_l2_files_end() {
    let env = Arc::new(MemEnv::new());
    let wo = WriteOptions::default();
    let fill = |db: &Db, value_len: usize| {
        for flush in 0..4 {
            for i in (flush..1600).step_by(4) {
                db.put(&wo, &key(i), &vec![b'v'; value_len]).unwrap();
            }
            db.flush().unwrap();
        }
        db.wait_idle().unwrap();
    };
    // L2: an L1 of 4 KiB files over every key, moved down whole under an
    // L1 target smaller than one file (and an L2 target that holds them).
    let db = Db::open(opts(env.clone(), 1 << 20), "db").unwrap();
    fill(&db, 120);
    drop(db);
    let mut o = opts(env.clone(), 2 << 10);
    o.level_multiplier = 1000;
    let db = Db::open(o, "db").unwrap();
    db.wait_idle().unwrap();
    let l2 = files(&db, 2);
    assert_eq!((db.num_files_at_level(1), db.num_files_at_level(3)), (0, 0));
    assert!(l2.len() > 40, "{}", l2.len());
    drop(db);

    // Every key again, a fifth as large: the L0→L1 job finds about a
    // quarter of a target file's worth of data under each L2 file.
    let o = opts(env.clone(), 1 << 20);
    let floor = o.target_file_size as u64 / 4;
    let db = Db::open(o, "db").unwrap();
    fill(&db, 24);
    assert_eq!(files(&db, 2), l2, "L2 is not rewritten");
    let l1 = files(&db, 1);
    assert!(l1.len() > 10, "{}", l1.len());
    let l2_ends: Vec<&[u8]> = l2.iter().map(|f| user_key(&f.largest)).collect();
    let (last, cut) = l1.split_last().unwrap();
    assert_eq!(user_key(&last.largest), key(1599));
    for f in cut.iter().filter(|f| f.size >= floor) {
        assert!(
            l2_ends.contains(&user_key(&f.largest)),
            "L1 file {} ({} B) ends at {:?}, inside an L2 file",
            f.number,
            f.size,
            String::from_utf8_lossy(user_key(&f.largest))
        );
    }
    assert!(cut.iter().filter(|f| f.size >= floor).count() > 20);
    for i in (0..1600).step_by(7) {
        assert_eq!(db.get(&key(i)).unwrap().unwrap(), vec![b'v'; 24]);
    }
}
