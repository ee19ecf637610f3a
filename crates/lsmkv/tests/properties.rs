//! Seeded differential tests of the engine's core structures and formats.
//!
//! Each property runs through [`check`], which draws one input per case
//! from a seed and, when a case fails, names the seed and prints the input.

use std::sync::Arc;

use lsmkv::batch::WriteBatch;
use lsmkv::memtable::MemTable;
use lsmkv::sst::{Block, BlockBuilder, TableBuilder, TableConfig, TableReader};
use lsmkv::types::{internal_cmp, make_internal_key, user_key, ValueType};
use lsmkv::wal::{LogReader, LogWriter};
use p2kvs_storage::{Env, MemEnv};
use p2kvs_util::rng::{check, Rng};

/// `len` drawn from the half-open range, then that many random bytes.
fn bytes(rng: &mut Rng, len: std::ops::Range<u64>) -> Vec<u8> {
    let mut out = vec![0u8; rng.range(len) as usize];
    for chunk in out.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
    out
}

fn arb_key(rng: &mut Rng) -> Vec<u8> {
    bytes(rng, 1..40)
}

fn arb_value(rng: &mut Rng) -> Vec<u8> {
    bytes(rng, 0..200)
}

/// A key of `1..max_key` bytes with a put (`Some`) or a delete, evenly.
fn arb_op(rng: &mut Rng, max_key: u64) -> (Vec<u8>, Option<Vec<u8>>) {
    let key = bytes(rng, 1..max_key);
    (key, (rng.below(2) == 0).then(|| arb_value(rng)))
}

/// The WAL reproduces any sequence of records byte-for-byte.
#[test]
fn wal_roundtrips_arbitrary_records() {
    check(
        "wal_roundtrips_arbitrary_records",
        64,
        |rng| rng.vec_of(1..30, |rng| bytes(rng, 0..70_000)),
        |records| {
            let env = MemEnv::new();
            let path = std::path::Path::new("p.log");
            let mut w = LogWriter::new(env.new_writable(path).unwrap());
            for r in &records {
                w.add_record(r).unwrap();
            }
            w.sync().unwrap();
            drop(w);
            let mut reader = LogReader::new(env.new_sequential(path).unwrap());
            let mut buf = Vec::new();
            for expect in &records {
                assert!(reader.read_record(&mut buf).unwrap());
                assert_eq!(&buf, expect);
            }
            assert!(!reader.read_record(&mut buf).unwrap());
        },
    );
}

/// A truncated WAL never yields wrong records — only a (possibly
/// shorter) prefix of what was written.
#[test]
fn wal_truncation_yields_prefix() {
    check(
        "wal_truncation_yields_prefix",
        64,
        |rng| {
            (
                rng.vec_of(1..20, |rng| bytes(rng, 1..500)),
                rng.next_u64() as u16,
            )
        },
        |(records, cut)| {
            let env = MemEnv::new();
            let path = std::path::Path::new("p.log");
            let mut w = LogWriter::new(env.new_writable(path).unwrap());
            for r in &records {
                w.add_record(r).unwrap();
            }
            w.sync().unwrap();
            drop(w);
            let mut data = p2kvs_storage::env::read_all(&env, path).unwrap();
            let cut = (cut as usize) % (data.len() + 1);
            data.truncate(cut);
            p2kvs_storage::env::write_all(&env, path, &data).unwrap();
            let mut reader = LogReader::new(env.new_sequential(path).unwrap());
            let mut buf = Vec::new();
            let mut i = 0;
            while let Ok(true) = reader.read_record(&mut buf) {
                assert!(i < records.len());
                assert_eq!(&buf, &records[i], "record {} corrupted by truncation", i);
                i += 1;
            }
        },
    );
}

/// WriteBatch encodes/decodes any op sequence faithfully.
#[test]
fn write_batch_roundtrip() {
    check(
        "write_batch_roundtrip",
        64,
        |rng| {
            (
                rng.vec_of(0..40, |rng| arb_op(rng, 40)),
                rng.next_u64(),
                rng.below(1 << 50),
            )
        },
        |(ops, gsn, seq)| {
            let mut b = WriteBatch::new();
            b.set_gsn(gsn);
            b.set_sequence(seq);
            for (k, v) in &ops {
                match v {
                    Some(v) => b.put(k, v),
                    None => b.delete(k),
                }
            }
            let decoded = WriteBatch::from_data(b.data()).unwrap();
            assert_eq!(decoded.gsn(), gsn);
            assert_eq!(decoded.sequence(), seq);
            assert_eq!(decoded.count() as usize, ops.len());
            for (op, (k, v)) in decoded.iter().zip(&ops) {
                match (op.unwrap(), v) {
                    (lsmkv::BatchOp::Put { key, value }, Some(ev)) => {
                        assert_eq!(key, &k[..]);
                        assert_eq!(value, &ev[..]);
                    }
                    (lsmkv::BatchOp::Delete { key }, None) => assert_eq!(key, &k[..]),
                    other => panic!("op kind mismatch: {:?}", other.0),
                }
            }
        },
    );
}

/// MemTable lookups agree with a BTreeMap model at every snapshot.
#[test]
fn memtable_matches_model() {
    check(
        "memtable_matches_model",
        64,
        |rng| (rng.vec_of(1..150, |rng| arb_op(rng, 40)), rng.range(1..200)),
        |(ops, probe_seq)| {
            let mem = MemTable::new();
            let mut model_at: Vec<std::collections::BTreeMap<Vec<u8>, Option<Vec<u8>>>> =
                Vec::new();
            let mut model = std::collections::BTreeMap::new();
            for (i, (k, v)) in ops.iter().enumerate() {
                let seq = i as u64 + 1;
                match v {
                    Some(v) => {
                        mem.add(seq, ValueType::Value, k, v);
                        model.insert(k.clone(), Some(v.clone()));
                    }
                    None => {
                        mem.add(seq, ValueType::Deletion, k, b"");
                        model.insert(k.clone(), None);
                    }
                }
                model_at.push(model.clone());
            }
            let snap = (probe_seq as usize).min(ops.len());
            let model = &model_at[snap - 1];
            for (k, _) in &ops {
                let got = match mem.get(k, snap as u64) {
                    lsmkv::memtable::MemGet::Found(v) => Some(Some(v)),
                    lsmkv::memtable::MemGet::Deleted => Some(None),
                    lsmkv::memtable::MemGet::NotFound => None,
                };
                assert_eq!(got, model.get(k).cloned(), "key {:?} at seq {}", k, snap);
            }
        },
    );
}

/// Blocks reproduce arbitrary sorted entry sets and seek correctly.
#[test]
fn block_roundtrip_and_seek() {
    check(
        "block_roundtrip_and_seek",
        64,
        |rng| {
            let keys: std::collections::BTreeSet<_> =
                rng.vec_of(1..120, arb_key).into_iter().collect();
            (keys, rng.range(1..32) as usize)
        },
        |(mut keys, restart)| {
            let keys: Vec<Vec<u8>> = std::mem::take(&mut keys).into_iter().collect();
            let mut b = BlockBuilder::new(restart);
            for (i, k) in keys.iter().enumerate() {
                let ik = make_internal_key(k, 1, ValueType::Value);
                b.add(&ik, format!("v{i}").as_bytes());
            }
            let block = Arc::new(Block::new(Arc::new(b.finish().to_vec())).unwrap());
            // Full iteration returns everything in order.
            let mut it = block.iter();
            it.seek_to_first();
            for k in &keys {
                assert!(it.valid());
                assert_eq!(user_key(it.key()), &k[..]);
                it.next();
            }
            assert!(!it.valid());
            // Seeking an arbitrary existing key lands on it.
            let probe = &keys[keys.len() / 2];
            let target = make_internal_key(probe, u64::MAX >> 8, ValueType::Value);
            it.seek(&target);
            assert!(it.valid());
            assert_eq!(user_key(it.key()), &probe[..]);
        },
    );
}

/// Tables reproduce arbitrary sorted entries through build + read.
#[test]
fn table_roundtrip() {
    check(
        "table_roundtrip",
        64,
        |rng| {
            let entries: std::collections::BTreeMap<_, _> = rng
                .vec_of(1..300, |rng| (arb_key(rng), arb_value(rng)))
                .into_iter()
                .collect();
            (entries, rng.range(128..2048) as usize)
        },
        |(entries, block_size)| {
            let env = MemEnv::new();
            let path = std::path::Path::new("prop.sst");
            let mut b = TableBuilder::new(
                env.new_writable(path).unwrap(),
                TableConfig {
                    block_size,
                    restart_interval: 8,
                    bloom_bits_per_key: 10,
                },
            );
            for (i, (k, v)) in entries.iter().enumerate() {
                let ik = make_internal_key(k, i as u64 + 1, ValueType::Value);
                b.add(&ik, v).unwrap();
            }
            let summary = b.finish().unwrap();
            assert_eq!(summary.entries as usize, entries.len());
            let reader = Arc::new(
                TableReader::open(
                    env.new_random_access(path).unwrap(),
                    summary.file_size,
                    1,
                    None,
                )
                .unwrap(),
            );
            for (k, v) in &entries {
                let lookup = make_internal_key(k, u64::MAX >> 8, ValueType::Value);
                let (ik, got) = reader.get(&lookup, false).unwrap().expect("present key");
                assert_eq!(user_key(&ik), &k[..]);
                assert_eq!(&got, v);
            }
        },
    );
}

/// Internal-key ordering is a strict total order consistent with
/// (user_key asc, seq desc).
#[test]
fn internal_key_order_properties() {
    check(
        "internal_key_order_properties",
        64,
        |rng| {
            (
                arb_key(rng),
                arb_key(rng),
                rng.below(1 << 40),
                rng.below(1 << 40),
            )
        },
        |(a, b, sa, sb)| {
            let ka = make_internal_key(&a, sa, ValueType::Value);
            let kb = make_internal_key(&b, sb, ValueType::Value);
            let ord = internal_cmp(&ka, &kb);
            assert_eq!(internal_cmp(&kb, &ka), ord.reverse());
            if a == b {
                assert_eq!(ord, sb.cmp(&sa), "same user key orders by seq desc");
            } else {
                assert_eq!(
                    ord,
                    a.cmp(&b),
                    "different user keys order lexicographically"
                );
            }
        },
    );
}

/// Whole-DB property: any single-threaded history matches a model,
/// before and after flush + compaction + reopen.
#[test]
fn db_matches_model_through_flush_and_reopen() {
    check(
        "db_matches_model_through_flush_and_reopen",
        12,
        |rng| rng.vec_of(1..200, |rng| arb_op(rng, 12)),
        |ops| {
            let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
            let mut opts = lsmkv::Options::rocksdb_like(env.clone());
            opts.memtable_size = 8 << 10; // Force frequent flushes.
            opts.target_file_size = 4 << 10;
            opts.base_level_size = 16 << 10;
            let mut model = std::collections::BTreeMap::new();
            {
                let db = lsmkv::Db::open(opts.clone(), "pdb").unwrap();
                let wo = lsmkv::WriteOptions::default();
                for (k, v) in &ops {
                    match v {
                        Some(v) => {
                            db.put(&wo, k, v).unwrap();
                            model.insert(k.clone(), v.clone());
                        }
                        None => {
                            db.delete(&wo, k).unwrap();
                            model.remove(k);
                        }
                    }
                }
                db.flush().unwrap();
                db.wait_idle().unwrap();
                for (k, _) in &ops {
                    assert_eq!(db.get(k).unwrap(), model.get(k).cloned());
                }
                // Iterator equals model iteration.
                let mut it = db.iter().unwrap();
                it.seek_to_first();
                for (mk, mv) in &model {
                    assert!(it.valid(), "iterator ended early at {:?}", mk);
                    assert_eq!(it.key(), &mk[..]);
                    assert_eq!(it.value(), &mv[..]);
                    it.next();
                }
                assert!(!it.valid());
            }
            let db = lsmkv::Db::open(opts, "pdb").unwrap();
            for (k, _) in &ops {
                assert_eq!(
                    db.get(k).unwrap(),
                    model.get(k).cloned(),
                    "post-reopen {:?}",
                    k
                );
            }
        },
    );
}

/// One step of [`db_reads_match_model_while_versions_span_memtables_and_tables`].
#[derive(Debug)]
enum Step {
    Put(u64, Vec<u8>),
    Delete(u64),
    /// `Db::flush`: every memtable so far goes to a table.
    Flush,
    /// `get` of one key and `multiget` of the whole key space.
    Read(u64),
}

/// Whole-DB property: reads agree with a model at random points of a
/// history, while the newest version of a key may sit in the active
/// memtable, an immutable one or a table — the state in which a memtable
/// filter that lost a key would return an older value or none. Every key
/// starts with a value in a table, so each delete hides a flushed value.
#[test]
fn db_reads_match_model_while_versions_span_memtables_and_tables() {
    const KEYS: u64 = 48;
    check(
        "db_reads_match_model_while_versions_span_memtables_and_tables",
        16,
        |rng| {
            rng.vec_of(100..400, |rng| {
                let key = rng.below(KEYS + 2);
                match rng.below(20) {
                    0 => Step::Flush,
                    1..=5 => Step::Read(key),
                    6..=9 => Step::Delete(key),
                    _ => Step::Put(key, bytes(rng, 0..200)),
                }
            })
        },
        |steps| {
            let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
            let mut opts = lsmkv::Options::rocksdb_like(env);
            // A switch every hundred or so writes; the filter is 32 words,
            // sparse enough that a key missing from it reads as absent.
            opts.memtable_size = 16 << 10;
            opts.max_immutable_memtables = 4;
            opts.target_file_size = 8 << 10;
            opts.base_level_size = 32 << 10;
            let db = lsmkv::Db::open(opts, "pdb").unwrap();
            let wo = lsmkv::WriteOptions::default();
            let key = |k: u64| format!("key-{k:03}").into_bytes();
            // Keys KEYS and KEYS + 1 are never written before they are
            // read, unless a step writes them.
            let all: Vec<Vec<u8>> = (0..KEYS + 2).map(key).collect();
            let mut model = std::collections::BTreeMap::new();
            for k in 0..KEYS {
                db.put(&wo, &key(k), b"base").unwrap();
                model.insert(key(k), b"base".to_vec());
            }
            db.flush().unwrap();
            for (i, step) in steps.iter().enumerate() {
                match step {
                    Step::Put(k, v) => {
                        db.put(&wo, &key(*k), v).unwrap();
                        model.insert(key(*k), v.clone());
                    }
                    Step::Delete(k) => {
                        db.delete(&wo, &key(*k)).unwrap();
                        model.remove(&key(*k));
                    }
                    Step::Flush => db.flush().unwrap(),
                    Step::Read(k) => {
                        let k = key(*k);
                        assert_eq!(db.get(&k).unwrap(), model.get(&k).cloned(), "step {i}");
                        let want: Vec<_> = all.iter().map(|k| model.get(k).cloned()).collect();
                        assert_eq!(db.multiget(&all).unwrap(), want, "multiget at step {i}");
                    }
                }
            }
        },
    );
}

/// Differential property for the tentpole: for any operation stream
/// and any subcompaction fan-out, the multi-threaded range-partitioned
/// compactor leaves level contents byte-identical to the
/// single-threaded compactor — same live keys, same values, same
/// iterator order.
#[test]
fn parallel_compaction_is_equivalent_to_serial() {
    check(
        "parallel_compaction_is_equivalent_to_serial",
        24,
        |rng| {
            (
                rng.vec_of(1..300, |rng| arb_op(rng, 10)),
                rng.range(2..6) as usize,
                rng.range(2..4) as usize,
            )
        },
        |(ops, subs, threads)| {
            let run = |compaction_threads: usize, subcompactions: usize| {
                let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
                let mut opts = lsmkv::Options::rocksdb_like(env);
                opts.memtable_size = 4 << 10; // Force frequent flush + compaction.
                opts.target_file_size = 2 << 10;
                opts.base_level_size = 8 << 10;
                opts.compaction_threads = compaction_threads;
                opts.subcompactions = subcompactions;
                let db = lsmkv::Db::open(opts, "pdb").unwrap();
                let wo = lsmkv::WriteOptions::default();
                for (k, v) in &ops {
                    match v {
                        Some(v) => db.put(&wo, k, v).unwrap(),
                        None => db.delete(&wo, k).unwrap(),
                    }
                }
                db.flush().unwrap();
                db.wait_idle().unwrap();
                let mut it = db.iter().unwrap();
                it.seek_to_first();
                let mut out = Vec::new();
                while it.valid() {
                    out.push((it.key().to_vec(), it.value().to_vec()));
                    it.next();
                }
                out
            };
            let serial = run(1, 1);
            let parallel = run(threads, subs);
            assert_eq!(serial, parallel);
        },
    );
}

/// Tree-shape property: a uniform stream long enough to build three
/// levels makes the picker take multi-file runs and move files with
/// nothing beneath them; every read along the way, after the tree has
/// settled and after a reopen agrees with a model.
#[test]
fn reads_match_model_while_levels_fill_by_runs_and_moves() {
    use std::sync::atomic::Ordering;
    check(
        "reads_match_model_while_levels_fill_by_runs_and_moves",
        4,
        // The stream is drawn from the seed inside the property: a failing
        // case prints two numbers, not four thousand operations.
        |rng| (rng.next_u64(), rng.range(3000..4500)),
        |(seed, ops)| {
            let mut rng = Rng::new(seed);
            let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
            let mut opts = lsmkv::Options::rocksdb_like(env);
            opts.memtable_size = 16 << 10;
            opts.target_file_size = 4 << 10;
            opts.base_level_size = 16 << 10;
            opts.level_multiplier = 4;
            let key = |i: u64| format!("key{i:05}").into_bytes();
            let mut model = std::collections::BTreeMap::new();
            let check_all =
                |db: &lsmkv::Db, model: &std::collections::BTreeMap<Vec<u8>, Vec<u8>>| {
                    for i in 0..4000 {
                        assert_eq!(
                            db.get(&key(i)).unwrap().as_ref(),
                            model.get(&key(i)),
                            "key {i}"
                        );
                    }
                    let live: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                    assert_eq!(db.scan(b"", 10_000).unwrap(), live);
                };
            {
                let db = lsmkv::Db::open(opts.clone(), "pdb").unwrap();
                let wo = lsmkv::WriteOptions::default();
                for _ in 0..ops {
                    let k = key(rng.below(4000));
                    if rng.below(10) == 0 {
                        db.delete(&wo, &k).unwrap();
                        model.remove(&k);
                    } else {
                        let v = bytes(&mut rng, 60..140);
                        db.put(&wo, &k, &v).unwrap();
                        model.insert(k, v);
                    }
                    let probe = key(rng.below(4000));
                    assert_eq!(db.get(&probe).unwrap().as_ref(), model.get(&probe));
                }
                db.flush().unwrap();
                db.wait_idle().unwrap();
                check_all(&db, &model);
                let sizes = db.level_sizes();
                assert!(sizes[3] > 0, "three levels below L0: {sizes:?}");
                let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
                let below_l0 = &db.stats().levels[1..];
                assert!(below_l0.iter().any(|l| load(&l.files_moved) > 0), "no move");
                assert!(
                    below_l0.iter().any(|l| load(&l.files_in) > load(&l.jobs)),
                    "no multi-file pick"
                );
            }
            let db = lsmkv::Db::open(opts, "pdb").unwrap();
            check_all(&db, &model);
        },
    );
}
