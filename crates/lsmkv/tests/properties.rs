//! Property-based tests of the engine's core structures and formats.

use std::sync::Arc;

use proptest::prelude::*;

use lsmkv::batch::WriteBatch;
use lsmkv::memtable::MemTable;
use lsmkv::sst::{Block, BlockBuilder, TableBuilder, TableConfig, TableReader};
use lsmkv::types::{internal_cmp, make_internal_key, user_key, ValueType};
use lsmkv::wal::{LogReader, LogWriter};
use p2kvs_storage::{Env, MemEnv};

fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..40)
}

fn arb_value() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The WAL reproduces any sequence of records byte-for-byte.
    #[test]
    fn wal_roundtrips_arbitrary_records(
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..70_000), 1..30)
    ) {
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
            prop_assert!(reader.read_record(&mut buf).unwrap());
            prop_assert_eq!(&buf, expect);
        }
        prop_assert!(!reader.read_record(&mut buf).unwrap());
    }

    /// A truncated WAL never yields wrong records — only a (possibly
    /// shorter) prefix of what was written.
    #[test]
    fn wal_truncation_yields_prefix(
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..500), 1..20),
        cut in any::<u16>(),
    ) {
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
            prop_assert!(i < records.len());
            prop_assert_eq!(&buf, &records[i], "record {} corrupted by truncation", i);
            i += 1;
        }
    }

    /// WriteBatch encodes/decodes any op sequence faithfully.
    #[test]
    fn write_batch_roundtrip(
        ops in proptest::collection::vec((arb_key(), proptest::option::of(arb_value())), 0..40),
        gsn in any::<u64>(),
        seq in 0u64..(1 << 50),
    ) {
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
        prop_assert_eq!(decoded.gsn(), gsn);
        prop_assert_eq!(decoded.sequence(), seq);
        prop_assert_eq!(decoded.count() as usize, ops.len());
        for (op, (k, v)) in decoded.iter().zip(&ops) {
            match (op.unwrap(), v) {
                (lsmkv::BatchOp::Put { key, value }, Some(ev)) => {
                    prop_assert_eq!(key, &k[..]);
                    prop_assert_eq!(value, &ev[..]);
                }
                (lsmkv::BatchOp::Delete { key }, None) => prop_assert_eq!(key, &k[..]),
                other => prop_assert!(false, "op kind mismatch: {:?}", other.0),
            }
        }
    }

    /// MemTable lookups agree with a BTreeMap model at every snapshot.
    #[test]
    fn memtable_matches_model(
        ops in proptest::collection::vec((arb_key(), proptest::option::of(arb_value())), 1..150),
        probe_seq in 1u64..200,
    ) {
        let mem = MemTable::new();
        let mut model_at: Vec<std::collections::BTreeMap<Vec<u8>, Option<Vec<u8>>>> = Vec::new();
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
            prop_assert_eq!(got, model.get(k).cloned(), "key {:?} at seq {}", k, snap);
        }
    }

    /// Blocks reproduce arbitrary sorted entry sets and seek correctly.
    #[test]
    fn block_roundtrip_and_seek(
        mut keys in proptest::collection::btree_set(arb_key(), 1..120),
        restart in 1usize..32,
    ) {
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
            prop_assert!(it.valid());
            prop_assert_eq!(user_key(it.key()), &k[..]);
            it.next();
        }
        prop_assert!(!it.valid());
        // Seeking an arbitrary existing key lands on it.
        let probe = &keys[keys.len() / 2];
        let target = make_internal_key(probe, u64::MAX >> 8, ValueType::Value);
        it.seek(&target);
        prop_assert!(it.valid());
        prop_assert_eq!(user_key(it.key()), &probe[..]);
    }

    /// Tables reproduce arbitrary sorted entries through build + read.
    #[test]
    fn table_roundtrip(
        entries in proptest::collection::btree_map(arb_key(), arb_value(), 1..300),
        block_size in 128usize..2048,
    ) {
        let env = MemEnv::new();
        let path = std::path::Path::new("prop.sst");
        let mut b = TableBuilder::new(
            env.new_writable(path).unwrap(),
            TableConfig { block_size, restart_interval: 8, bloom_bits_per_key: 10 },
        );
        for (i, (k, v)) in entries.iter().enumerate() {
            let ik = make_internal_key(k, i as u64 + 1, ValueType::Value);
            b.add(&ik, v).unwrap();
        }
        let summary = b.finish().unwrap();
        prop_assert_eq!(summary.entries as usize, entries.len());
        let reader = Arc::new(
            TableReader::open(env.new_random_access(path).unwrap(), summary.file_size, 1, None)
                .unwrap(),
        );
        for (k, v) in &entries {
            let lookup = make_internal_key(k, u64::MAX >> 8, ValueType::Value);
            let (ik, got) = reader.get(&lookup, false).unwrap().expect("present key");
            prop_assert_eq!(user_key(&ik), &k[..]);
            prop_assert_eq!(&got, v);
        }
    }

    /// Internal-key ordering is a strict total order consistent with
    /// (user_key asc, seq desc).
    #[test]
    fn internal_key_order_properties(
        a in arb_key(), b in arb_key(),
        sa in 0u64..(1 << 40), sb in 0u64..(1 << 40),
    ) {
        let ka = make_internal_key(&a, sa, ValueType::Value);
        let kb = make_internal_key(&b, sb, ValueType::Value);
        let ord = internal_cmp(&ka, &kb);
        prop_assert_eq!(internal_cmp(&kb, &ka), ord.reverse());
        if a == b {
            prop_assert_eq!(ord, sb.cmp(&sa), "same user key orders by seq desc");
        } else {
            prop_assert_eq!(ord, a.cmp(&b), "different user keys order lexicographically");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Whole-DB property: any single-threaded history matches a model,
    /// before and after flush + compaction + reopen.
    #[test]
    fn db_matches_model_through_flush_and_reopen(
        ops in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..12), proptest::option::of(arb_value())),
            1..200,
        )
    ) {
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
                prop_assert_eq!(db.get(k).unwrap(), model.get(k).cloned());
            }
            // Iterator equals model iteration.
            let mut it = db.iter().unwrap();
            it.seek_to_first();
            for (mk, mv) in &model {
                prop_assert!(it.valid(), "iterator ended early at {:?}", mk);
                prop_assert_eq!(it.key(), &mk[..]);
                prop_assert_eq!(it.value(), &mv[..]);
                it.next();
            }
            prop_assert!(!it.valid());
        }
        let db = lsmkv::Db::open(opts, "pdb").unwrap();
        for (k, _) in &ops {
            prop_assert_eq!(db.get(k).unwrap(), model.get(k).cloned(), "post-reopen {:?}", k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential property for the tentpole: for any operation stream
    /// and any subcompaction fan-out, the multi-threaded range-partitioned
    /// compactor leaves level contents byte-identical to the
    /// single-threaded compactor — same live keys, same values, same
    /// iterator order.
    #[test]
    fn parallel_compaction_is_equivalent_to_serial(
        ops in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..10), proptest::option::of(arb_value())),
            1..300,
        ),
        subs in 2usize..6,
        threads in 2usize..4,
    ) {
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
        prop_assert_eq!(serial, parallel);
    }
}
