//! The write-amplification ledger on one shard's share of the
//! benchmark's `fill`: unique uniformly-hashed keys into a tree of the
//! benchmark's shape (1 MiB memtable, 512 KiB files, 4 MiB base level,
//! ×10, ≈ 56 MB per shard), every size divided by 16 so that the run
//! takes a second or two; and the same tree under a stream of updates to
//! a few hundred keys. Run with `--nocapture` for the per-level tables.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lsmkv::{CompactionStyle, Db, DbEvent, DbStats, Options, WriteOptions};
use p2kvs_storage::{Env, MemEnv};
use p2kvs_util::rng::Rng;

const RECORDS: u64 = 24_000;
/// What a 64 KiB memtable holds of these records.
const RECORDS_PER_FLUSH: u64 = 375;
const KEY_LEN: usize = 20;
const VALUE_LEN: usize = 128;

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Bytes per user byte.
fn per_user_byte(stats: &DbStats, bytes: u64) -> f64 {
    bytes as f64 / load(&stats.user_bytes_written) as f64
}

/// Writes `RECORDS` records to a fresh store, record `i` under key number
/// `key_of(i)`, lets it settle, checks the ledger against the device and
/// against the job events, and returns the store's statistics.
fn fill(style: CompactionStyle, mut key_of: impl FnMut(u64) -> u64) -> Arc<DbStats> {
    let env = Arc::new(MemEnv::new());
    let mut opts = Options::rocksdb_like(env.clone());
    opts.memtable_size = 1 << 20; // never fills: the test flushes
    opts.target_file_size = 32 << 10;
    opts.base_level_size = 256 << 10;
    opts.compaction_style = style;
    let db = Db::open(opts, "db").unwrap();
    // (rewritten, moved) output bytes, as the finish events report them.
    let events = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let seen = events.clone();
    db.install_event_hook(Arc::new(move |ev| {
        if let DbEvent::CompactionFinish {
            output_bytes,
            ok: true,
            moved,
            ..
        } = *ev
        {
            let sum = if moved { &seen.1 } else { &seen.0 };
            sum.fetch_add(output_bytes, Ordering::Relaxed);
        }
    }));

    let mut rng = Rng::new(0x5eed);
    let wo = WriteOptions::default();
    for i in 0..RECORDS {
        let key = format!("user{:016x}", p2kvs_util::hash::mix64(key_of(i)));
        let value: Vec<u8> = (0..VALUE_LEN / 8)
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect();
        assert_eq!((key.len(), value.len()), (KEY_LEN, VALUE_LEN));
        db.put(&wo, key.as_bytes(), &value).unwrap();
        // A memtable's worth, flushed and settled before the next: which
        // runs and files each job finds is then a function of the stream
        // alone, not of how the background threads were scheduled.
        if (i + 1) % RECORDS_PER_FLUSH == 0 {
            db.flush().unwrap();
            db.wait_idle().unwrap();
        }
    }

    // Dropping the handle joins the background threads: every finish
    // event has been delivered.
    let (stats, sizes) = (db.stats().clone(), db.level_sizes());
    drop(db);
    println!("{style:?}, {RECORDS} records, levels {sizes:?}");
    print!("{}", stats.write_amp_table());
    // Payload plus each record's tag and length bytes.
    assert_eq!(
        load(&stats.user_bytes_written),
        RECORDS * (KEY_LEN + VALUE_LEN + 4) as u64
    );

    // The ledger's rows are everything the device was asked to write.
    let device = env.io_stats().bytes_written;
    let ledger = stats.device_bytes_written();
    assert!(
        (device as f64 - ledger as f64).abs() <= 0.01 * device as f64,
        "device {device} B, ledger {ledger} B"
    );
    // The counter the benchmark reads is still flush + compaction output.
    let rewritten: u64 = stats.levels.iter().map(|l| load(&l.bytes_written)).sum();
    assert_eq!(
        load(&stats.compaction_bytes_written),
        load(&stats.flush_bytes_written) + rewritten
    );
    // A move is reported as a move, with the bytes it moved.
    let moved: u64 = stats.levels.iter().map(|l| load(&l.bytes_moved)).sum();
    assert_eq!((load(&events.0), load(&events.1)), (rewritten, moved));
    if style == CompactionStyle::Fragmented {
        assert_eq!(moved, 0);
    }
    stats
}

#[test]
fn leveled_fill_stays_under_the_ceiling_and_the_ledger_adds_up() {
    let stats = fill(CompactionStyle::Leveled, |i| i);
    let write_amp = per_user_byte(&stats, stats.device_bytes_written());
    println!("leveled write_amp {write_amp:.3}");
    // 6.98 as measured; 7.69 while outputs were cut by size alone, whose
    // L1 files each ended inside an L2 file (L1→L2 3.19 → 2.66). The
    // engine before this ledger existed — two L0 files per flush, one file
    // per job below L0, no moves — writes 11.07× on this stream (commit
    // 5574fc9, device bytes over user bytes), which is also what it writes
    // on the benchmark's `fill`. The ceiling sits just above the
    // measurement.
    assert!(write_amp < 7.3, "{write_amp}");
}

#[test]
fn fragmented_fill_is_in_the_same_table_and_the_ledger_adds_up() {
    let stats = fill(CompactionStyle::Fragmented, |i| i);
    let write_amp = per_user_byte(&stats, stats.device_bytes_written());
    println!("fragmented write_amp {write_amp:.3}");
}

/// Updates drawn uniformly from 500 keys: a memtable's 375 records hold
/// about 264 distinct keys, and the flush writes only each one's newest
/// version, so L0 receives fewer bytes than the user wrote.
#[test]
fn a_flush_of_updates_writes_less_than_the_user_did() {
    let mut rng = Rng::new(0x0bda7e);
    let stats = fill(CompactionStyle::Leveled, |_| rng.below(500));
    let flush = per_user_byte(&stats, load(&stats.flush_bytes_written));
    println!("updates: flush {flush:.3}");
    // 0.737 as measured; 1.045, as for unique keys, while a flush wrote
    // every version. The ceiling sits just above the measurement.
    assert!(flush < 0.8, "{flush}");
}
