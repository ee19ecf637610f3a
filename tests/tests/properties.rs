//! Seeded differential tests: random histories against reference models.
//!
//! Each property runs through [`check`], which draws one input per case
//! from a seed and, when a case fails, names the seed and prints the step
//! list it generated.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use p2kvs::engine::LsmFactory;
use p2kvs::worker::SCAN_CHUNK_BYTES;
use p2kvs::{P2Kvs, P2KvsOptions, WriteOp};
use p2kvs_util::rng::{check, Rng};

/// One step of a random history.
#[derive(Debug, Clone)]
enum Step {
    Put(u8, u8),
    Delete(u8),
    Batch(Vec<(u8, u8)>),
}

fn byte(rng: &mut Rng) -> u8 {
    rng.next_u64() as u8
}

fn pair(rng: &mut Rng) -> (u8, u8) {
    (byte(rng), byte(rng))
}

fn step(rng: &mut Rng) -> Step {
    match rng.below(3) {
        0 => Step::Put(byte(rng), byte(rng)),
        1 => Step::Delete(byte(rng)),
        _ => Step::Batch(rng.vec_of(1..8, pair)),
    }
}

/// One step of the backup-torture history: the plain-op alphabet plus
/// async OBM bursts, cross-instance GSN transactions, and shard
/// migrations — everything that can be in flight around a backup cut.
#[derive(Debug, Clone)]
enum TortureStep {
    Put(u8, u8),
    Delete(u8),
    Burst(Vec<(u8, u8)>),
    Txn(Vec<(u8, u8)>),
    Migrate(u8, u8),
}

/// Weighted 4 : 2 : 2 : 2 : 1.
fn torture_step(rng: &mut Rng) -> TortureStep {
    match rng.below(11) {
        0..=3 => TortureStep::Put(byte(rng), byte(rng)),
        4..=5 => TortureStep::Delete(byte(rng)),
        6..=7 => TortureStep::Burst(rng.vec_of(2..10, pair)),
        8..=9 => TortureStep::Txn(rng.vec_of(2..6, pair)),
        _ => TortureStep::Migrate(byte(rng), byte(rng)),
    }
}

fn key(k: u8) -> Vec<u8> {
    format!("key{k:03}").into_bytes()
}

fn value(v: u8) -> Vec<u8> {
    vec![v; 16]
}

/// A value a sixteenth of the worker's per-chunk byte bound: a shard
/// that holds more than sixteen of them is streamed in several chunks,
/// so an iterator over it resumes a parked cursor.
fn chunky(v: u8) -> Vec<u8> {
    vec![v; SCAN_CHUNK_BYTES / 16]
}

/// Cursor resumes the store's workers served so far.
fn resumes<E: p2kvs::KvsEngine>(store: &P2Kvs<E>) -> u64 {
    store
        .snapshot()
        .workers
        .iter()
        .map(|w| w.scan_resumes)
        .sum()
}

/// Any history of puts/deletes/transactional batches leaves the p2KVS
/// store exactly equal to a BTreeMap model — including after a reopen.
#[test]
fn p2kvs_matches_model() {
    check(
        "p2kvs_matches_model",
        24,
        |rng| rng.vec_of(1..120, step),
        |steps| {
            let env: p2kvs_storage::EnvRef = Arc::new(p2kvs_storage::MemEnv::new());
            let factory = || LsmFactory::new(lsmkv::Options::rocksdb_like(env.clone()));
            let opts = || P2KvsOptions::with_workers(3);
            let mut model = std::collections::BTreeMap::new();
            {
                let store = P2Kvs::open(factory(), "prop", opts()).unwrap();
                for step in &steps {
                    match step {
                        Step::Put(k, v) => {
                            store.put(&key(*k), &value(*v)).unwrap();
                            model.insert(key(*k), value(*v));
                        }
                        Step::Delete(k) => {
                            store.delete(&key(*k)).unwrap();
                            model.remove(&key(*k));
                        }
                        Step::Batch(kvs) => {
                            store
                                .write_batch(
                                    kvs.iter()
                                        .map(|(k, v)| WriteOp::Put {
                                            key: key(*k),
                                            value: value(*v),
                                        })
                                        .collect(),
                                )
                                .unwrap();
                            for (k, v) in kvs {
                                model.insert(key(*k), value(*v));
                            }
                        }
                    }
                }
                // Point reads match.
                for k in 0..=255u8 {
                    assert_eq!(store.get(&key(k)).unwrap(), model.get(&key(k)).cloned());
                }
                // Full scan matches the model exactly (order + content).
                let scanned = store.scan(b"", usize::MAX / 4).unwrap();
                let expect: Vec<(Vec<u8>, Vec<u8>)> =
                    model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                assert_eq!(&scanned, &expect);
                store.close();
            }
            // Reopen: recovery must restore the same state.
            let store = P2Kvs::open(factory(), "prop", opts()).unwrap();
            for k in 0..=255u8 {
                assert_eq!(store.get(&key(k)).unwrap(), model.get(&key(k)).cloned());
            }
        },
    );
}

/// Differential model check while shard ownership migrates beneath
/// the workload: a store with shards decoupled from workers (2
/// workers, 8 shards) and a deliberately tiny read cache matches the
/// BTreeMap model exactly even when every few steps a shard is
/// handed to another worker mid-history — per-key issue order
/// survives the epoch fence, cross-shard `write_batch`es stay
/// all-or-nothing, and the cache never leaks a stale value across a
/// write, an eviction, or a handoff that keeps the shard's entries.
/// Every step is followed by a read-your-writes probe (the first read
/// may fill the cache, the second must hit it — both must agree with
/// the model). Checked live, by full scan, and after a reopen under a
/// fresh round-robin map.
#[test]
fn model_holds_while_shards_migrate() {
    check(
        "model_holds_while_shards_migrate",
        24,
        |rng| (rng.vec_of(1..120, step), rng.range(1..8) as usize),
        |(steps, stride)| {
            let env: p2kvs_storage::EnvRef = Arc::new(p2kvs_storage::MemEnv::new());
            let factory = || LsmFactory::new(lsmkv::Options::rocksdb_like(env.clone()));
            let opts = || {
                let mut o = P2KvsOptions::with_workers(2);
                o.shards = 8;
                // Small enough that the 256-key space cycles entries through
                // CLOCK eviction, so stale-on-refill bugs have a chance to
                // surface, not just stale-on-invalidate ones.
                o.cache_capacity = 16 << 10;
                o
            };
            let mut model = std::collections::BTreeMap::new();
            {
                let store = P2Kvs::open(factory(), "prop-mig", opts()).unwrap();
                for (i, step) in steps.iter().enumerate() {
                    match step {
                        Step::Put(k, v) => {
                            store.put(&key(*k), &value(*v)).unwrap();
                            model.insert(key(*k), value(*v));
                            // Read-your-writes through the cache: fill, then hit.
                            assert_eq!(store.get(&key(*k)).unwrap(), Some(value(*v)));
                            assert_eq!(store.get(&key(*k)).unwrap(), Some(value(*v)));
                        }
                        Step::Delete(k) => {
                            store.delete(&key(*k)).unwrap();
                            model.remove(&key(*k));
                            assert_eq!(store.get(&key(*k)).unwrap(), None);
                        }
                        Step::Batch(kvs) => {
                            store
                                .write_batch(
                                    kvs.iter()
                                        .map(|(k, v)| WriteOp::Put {
                                            key: key(*k),
                                            value: value(*v),
                                        })
                                        .collect(),
                                )
                                .unwrap();
                            for (k, v) in kvs {
                                model.insert(key(*k), value(*v));
                            }
                            // The commit invalidates every touched key before
                            // acking; a later duplicate in the batch wins.
                            for (k, _) in kvs {
                                assert_eq!(
                                    store.get(&key(*k)).unwrap(),
                                    model.get(&key(*k)).cloned()
                                );
                            }
                        }
                    }
                    if i % stride == 0 {
                        store
                            .migrate_shard(i % store.shards(), (i / stride) % 2)
                            .unwrap();
                    }
                }
                for k in 0..=255u8 {
                    assert_eq!(store.get(&key(k)).unwrap(), model.get(&key(k)).cloned());
                }
                let scanned = store.scan(b"", usize::MAX / 4).unwrap();
                let expect: Vec<(Vec<u8>, Vec<u8>)> =
                    model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                assert_eq!(&scanned, &expect);
                store.close();
            }
            // Reopen under a fresh map: recovery must restore the same state.
            let store = P2Kvs::open(factory(), "prop-mig", opts()).unwrap();
            for k in 0..=255u8 {
                assert_eq!(store.get(&key(k)).unwrap(), model.get(&key(k)).cloned());
            }
        },
    );
}

/// Range queries over random histories equal the model's range view.
#[test]
fn ranges_match_model() {
    check(
        "ranges_match_model",
        24,
        |rng| (rng.vec_of(1..150, pair), byte(rng), rng.range(1..80) as u8),
        |(steps, lo, width)| {
            let env: p2kvs_storage::EnvRef = Arc::new(p2kvs_storage::MemEnv::new());
            let factory = LsmFactory::new(lsmkv::Options::rocksdb_like(env));
            let opts = P2KvsOptions::with_workers(4);
            let store = P2Kvs::open(factory, "prop-range", opts).unwrap();
            let mut model = std::collections::BTreeMap::new();
            for (k, v) in &steps {
                store.put(&key(*k), &value(*v)).unwrap();
                model.insert(key(*k), value(*v));
            }
            let hi = lo.saturating_add(width);
            let got = store.range(&key(lo), &key(hi)).unwrap();
            let expect: Vec<(Vec<u8>, Vec<u8>)> = model
                .range(key(lo)..key(hi))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(got, expect);
        },
    );
}

/// Differential run under injected transient faults: one WAL/manifest
/// sync and one file read fail mid-workload, yet every acked-Ok write
/// stays durable and committed transactions stay atomic — live and
/// after a clean reopen. Unacked-transaction atomicity is exempt; see
/// `Oracle::check_acked_only` for the no-undo limitation.
#[test]
fn transient_faults_never_lose_acked_writes() {
    check(
        "transient_faults_never_lose_acked_writes",
        16,
        |rng| (rng.below(1 << 32), rng.range(1..240), rng.range(1..160)),
        |(seed, sync_n, read_n)| {
            let violations = p2kvs_integration_tests::crash::differential_fault_run(
                seed,
                Some(sync_n),
                Some(read_n),
            );
            assert!(violations.is_empty(), "violations: {violations:?}");
        },
    );
}

/// The whole read-path surface — `scan`, `range`, and the streaming
/// `iter`/`iter_from`/`iter_range` cursors, consumed per-entry and
/// paginated — agrees with the BTreeMap model over random histories,
/// with values large enough that a drain exercises `ScanNext` resumes.
#[test]
fn scan_range_and_iter_match_model() {
    let resumed = AtomicU64::new(0);
    check(
        "scan_range_and_iter_match_model",
        16,
        |rng| {
            (
                rng.vec_of(1..120, step),
                byte(rng),
                rng.below(300) as usize,
                byte(rng),
                rng.below(100) as u8,
                rng.range(1..64) as usize,
            )
        },
        |(steps, start, count, lo, width, page)| {
            let env: p2kvs_storage::EnvRef = Arc::new(p2kvs_storage::MemEnv::new());
            let factory = LsmFactory::new(lsmkv::Options::rocksdb_like(env));
            let store = P2Kvs::open(factory, "prop-iter", P2KvsOptions::paper_layout(3)).unwrap();
            let mut model = std::collections::BTreeMap::new();
            for step in &steps {
                match step {
                    Step::Put(k, v) => {
                        store.put(&key(*k), &chunky(*v)).unwrap();
                        model.insert(key(*k), chunky(*v));
                    }
                    Step::Delete(k) => {
                        store.delete(&key(*k)).unwrap();
                        model.remove(&key(*k));
                    }
                    Step::Batch(kvs) => {
                        store
                            .write_batch(
                                kvs.iter()
                                    .map(|(k, v)| WriteOp::Put {
                                        key: key(*k),
                                        value: chunky(*v),
                                    })
                                    .collect(),
                            )
                            .unwrap();
                        for (k, v) in kvs {
                            model.insert(key(*k), chunky(*v));
                        }
                    }
                }
            }
            let all: Vec<(Vec<u8>, Vec<u8>)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();

            // scan(start, count): `count` entries from `start` on.
            let scanned = store.scan(&key(start), count).unwrap();
            let expect: Vec<_> = model
                .range(key(start)..)
                .take(count)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(&scanned, &expect);

            // range(lo, hi): the half-open window.
            let hi = lo.saturating_add(width);
            let got = store.range(&key(lo), &key(hi)).unwrap();
            let expect: Vec<_> = model
                .range(key(lo)..key(hi))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(&got, &expect);

            // iter(): the full store, consumed one entry at a time.
            let streamed: Vec<_> = store.iter().unwrap().map(|r| r.unwrap()).collect();
            assert_eq!(&streamed, &all);

            // iter_from(start): paginated pulls of `page` entries.
            let mut it = store.iter_from(&key(start)).unwrap();
            let mut paged = Vec::new();
            loop {
                let c = it.next_chunk(page).unwrap();
                if c.is_empty() {
                    break;
                }
                assert!(c.len() <= page);
                paged.extend(c);
            }
            let expect: Vec<_> = model
                .range(key(start)..)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(&paged, &expect);

            // iter_range(lo, hi) agrees with range().
            let windowed: Vec<_> = store
                .iter_range(&key(lo), &key(hi))
                .unwrap()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(&windowed, &got);
            resumed.fetch_add(resumes(&store), Ordering::Relaxed);
        },
    );
    assert!(resumed.into_inner() > 0, "no case resumed a parked cursor");
}

/// Snapshot-consistency contract, lsmkv backend (native cursors): an
/// iterator opened before a burst of writes sees *exactly* the
/// pre-open state — overwrites, deletes, and inserts issued while the
/// scan drains (forced across many chunk resumes) are all invisible.
/// See DESIGN.md §8 for the per-backend contract this pins down.
#[test]
fn lsm_iter_snapshot_ignores_concurrent_history() {
    let resumed = AtomicU64::new(0);
    check(
        "lsm_iter_snapshot_ignores_concurrent_history",
        16,
        |rng| (rng.vec_of(1..80, pair), rng.vec_of(1..60, step)),
        |(preload, churn)| {
            let env: p2kvs_storage::EnvRef = Arc::new(p2kvs_storage::MemEnv::new());
            let factory = LsmFactory::new(lsmkv::Options::rocksdb_like(env));
            // One shard per worker, so each holds enough large values
            // for many resumes while churn lands.
            let store = P2Kvs::open(factory, "prop-snap", P2KvsOptions::paper_layout(3)).unwrap();
            let mut model = std::collections::BTreeMap::new();
            for (k, v) in &preload {
                store.put(&key(*k), &chunky(*v)).unwrap();
                model.insert(key(*k), chunky(*v));
            }

            // The cursor opens synchronously on every worker, pinning the
            // snapshot *before* any churn below is applied.
            let mut it = store.iter().unwrap();
            for step in &churn {
                match step {
                    Step::Put(k, _) => store.put(&key(*k), b"churn").unwrap(),
                    Step::Delete(k) => store.delete(&key(*k)).unwrap(),
                    Step::Batch(kvs) => {
                        for (k, _) in kvs {
                            store.put(&key(*k), b"churn").unwrap();
                        }
                    }
                }
            }
            let drained: Vec<_> = it.by_ref().map(|r| r.unwrap()).collect();
            let expect: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(&drained, &expect);
            resumed.fetch_add(resumes(&store), Ordering::Relaxed);
        },
    );
    assert!(resumed.into_inner() > 0, "no case resumed a parked cursor");
}

/// Snapshot-consistency contract, emulated cursors (WiredTiger
/// model): resume-from-last-key is only read-committed per chunk, so
/// a concurrent overwrite MAY be visible — but the stream stays
/// strictly sorted, every key untouched by the churn appears with its
/// original value, and every surfaced value is one the store actually
/// held at some point.
#[test]
fn emulated_iter_is_monotonic_read_committed() {
    let resumed = AtomicU64::new(0);
    check(
        "emulated_iter_is_monotonic_read_committed",
        16,
        |rng| (rng.vec_of(1..80, pair), rng.vec_of(1..40, byte)),
        |(preload, overwrites)| {
            let env: p2kvs_storage::EnvRef = Arc::new(p2kvs_storage::MemEnv::new());
            let factory = p2kvs::engine::WtFactory::new(wtiger::WtOptions::new(env));
            let store = P2Kvs::open(factory, "prop-emu", P2KvsOptions::paper_layout(3)).unwrap();
            let mut before = std::collections::BTreeMap::new();
            for (k, v) in &preload {
                store.put(&key(*k), &chunky(*v)).unwrap();
                before.insert(key(*k), chunky(*v));
            }

            let mut it = store.iter().unwrap();
            // Interleave churn with the drain so some chunks predate it and
            // some follow it.
            let mut drained: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            drained.extend(it.next_chunk(3).unwrap());
            let touched: std::collections::BTreeSet<Vec<u8>> = overwrites
                .iter()
                .map(|k| {
                    store.put(&key(*k), b"churn").unwrap();
                    key(*k)
                })
                .collect();
            loop {
                let c = it.next_chunk(7).unwrap();
                if c.is_empty() {
                    break;
                }
                drained.extend(c);
            }

            assert!(drained.windows(2).all(|w| w[0].0 < w[1].0), "not sorted");
            let seen: std::collections::BTreeMap<_, _> = drained.into_iter().collect();
            for (k, v) in &before {
                if touched.contains(k) {
                    // Read-committed: either version, but the key is present
                    // (overwrites never remove it).
                    let got = seen.get(k);
                    assert!(
                        got == Some(v) || got.map(|g| g.as_slice()) == Some(b"churn".as_slice()),
                        "key {k:?} surfaced an impossible value"
                    );
                } else {
                    assert_eq!(seen.get(k), Some(v), "untouched key lost or changed");
                }
            }
            for (k, v) in &seen {
                let valid = before.get(k).map(|old| old == v).unwrap_or(false)
                    || (v.as_slice() == b"churn".as_slice() && touched.contains(k));
                assert!(valid, "entry {k:?} was never written with that value");
            }
            resumed.fetch_add(resumes(&store), Ordering::Relaxed);
        },
    );
    assert!(resumed.into_inner() > 0, "no case resumed a parked cursor");
}

/// GSN-consistent online backup, differentially: a random torture
/// stream (plain ops, async OBM bursts, cross-instance GSN
/// transactions, shard migrations) with a backup cut at a random
/// step and streamed **while the suffix keeps writing**. The restore
/// must be byte-identical — full scan — to the BTreeMap oracle
/// *filtered to the cut* (every write acked at GSN ≤ the horizon,
/// nothing past it). Negative control: without the horizon filter
/// (the final model) the diff must reappear whenever the post-cut
/// suffix changed state — proving the filter is what the backup
/// actually implements, not a vacuous equality.
#[test]
fn backup_matches_gsn_filtered_oracle() {
    check(
        "backup_matches_gsn_filtered_oracle",
        16,
        |rng| (rng.vec_of(2..80, torture_step), rng.below(80) as usize),
        |(steps, cut_at)| {
            let env: p2kvs_storage::EnvRef = Arc::new(p2kvs_storage::MemEnv::new());
            let factory = || LsmFactory::new(lsmkv::Options::rocksdb_like(env.clone()));
            let opts = || {
                let mut o = P2KvsOptions::with_workers(2);
                o.shards = 8;
                o
            };
            let store = P2Kvs::open(factory(), "prop-backup", opts()).unwrap();
            let workers = 2usize;
            let mut model = std::collections::BTreeMap::new();
            let cut = cut_at.min(steps.len() - 1);
            let mut handle = None;
            let mut cut_model = None;
            for (i, step) in steps.iter().enumerate() {
                if i == cut {
                    // The workload is quiesced between steps, so the model
                    // clone is exactly the acked state at the horizon.
                    handle = Some(store.backup("prop-backup-dir").unwrap());
                    cut_model = Some(model.clone());
                }
                match step {
                    TortureStep::Put(k, v) => {
                        store.put(&key(*k), &value(*v)).unwrap();
                        model.insert(key(*k), value(*v));
                    }
                    TortureStep::Delete(k) => {
                        store.delete(&key(*k)).unwrap();
                        model.remove(&key(*k));
                    }
                    TortureStep::Burst(kvs) => {
                        // Same-class async burst: consecutive puts merge
                        // through OBM on the worker; quiesce before the next
                        // step so the model stays exact.
                        let (tx, rx) = std::sync::mpsc::channel();
                        for (k, v) in kvs {
                            let tx = tx.clone();
                            store
                                .put_async(&key(*k), &value(*v), move |r| {
                                    r.unwrap();
                                    let _ = tx.send(());
                                })
                                .unwrap();
                            model.insert(key(*k), value(*v));
                        }
                        drop(tx);
                        for _ in 0..kvs.len() {
                            rx.recv().unwrap();
                        }
                    }
                    TortureStep::Txn(kvs) => {
                        store
                            .write_batch(
                                kvs.iter()
                                    .map(|(k, v)| WriteOp::Put {
                                        key: key(*k),
                                        value: value(*v),
                                    })
                                    .collect(),
                            )
                            .unwrap();
                        for (k, v) in kvs {
                            model.insert(key(*k), value(*v));
                        }
                    }
                    TortureStep::Migrate(s, w) => {
                        store
                            .migrate_shard((*s as usize) % store.shards(), (*w as usize) % workers)
                            .unwrap();
                    }
                }
            }
            let report = handle.take().unwrap().wait().unwrap();
            let cut_model = cut_model.unwrap();
            // The streamer counted exactly the keys live at the horizon.
            assert_eq!(report.entries, cut_model.len() as u64);

            let restored =
                P2Kvs::restore(factory(), "prop-backup-dir", "prop-backup-restored", opts())
                    .unwrap();
            let got = restored.scan(b"", usize::MAX / 4).unwrap();
            let expect: Vec<(Vec<u8>, Vec<u8>)> = cut_model
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            // Byte-identical at the horizon.
            assert_eq!(&got, &expect);
            // Negative control: the unfiltered (final) model must disagree
            // whenever the suffix changed state.
            let final_state: Vec<(Vec<u8>, Vec<u8>)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            if final_state != expect {
                assert_ne!(&got, &final_state);
            }
            // And taking the backup never perturbed the primary: it still
            // equals the full model, live and for every key.
            for k in 0..=255u8 {
                assert_eq!(store.get(&key(k)).unwrap(), model.get(&key(k)).cloned());
            }
        },
    );
}

/// The KVell engine also matches the model, including after recovery
/// (index rebuilt by slab scan).
#[test]
fn kvell_matches_model() {
    check(
        "kvell_matches_model",
        16,
        |rng| rng.vec_of(1..100, step),
        |steps| {
            let env: p2kvs_storage::EnvRef = Arc::new(p2kvs_storage::MemEnv::new());
            let mut model = std::collections::BTreeMap::new();
            {
                let mut o = kvell::KvellOptions::new(env.clone());
                o.workers = 2;
                let db = kvell::KvellDb::open(o, "prop-kv").unwrap();
                for step in &steps {
                    match step {
                        Step::Put(k, v) => {
                            db.put(&key(*k), &value(*v)).unwrap();
                            model.insert(key(*k), value(*v));
                        }
                        Step::Delete(k) => {
                            db.delete(&key(*k)).unwrap();
                            model.remove(&key(*k));
                        }
                        Step::Batch(kvs) => {
                            // KVell has no batch API: apply individually.
                            for (k, v) in kvs {
                                db.put(&key(*k), &value(*v)).unwrap();
                                model.insert(key(*k), value(*v));
                            }
                        }
                    }
                }
                for k in 0..=255u8 {
                    assert_eq!(db.get(&key(k)).unwrap(), model.get(&key(k)).cloned());
                }
            }
            let mut o = kvell::KvellOptions::new(env);
            o.workers = 2;
            let db = kvell::KvellDb::open(o, "prop-kv").unwrap();
            assert_eq!(db.len().unwrap(), model.len());
            for k in 0..=255u8 {
                assert_eq!(db.get(&key(k)).unwrap(), model.get(&key(k)).cloned());
            }
        },
    );
}

/// The harness detects what it is there to detect: the same store checked
/// against a model that forgets deletes fails, and the failure names the
/// seed and the history that exposed it.
#[test]
fn a_wrong_model_fails_and_names_its_seed() {
    let failed = std::panic::catch_unwind(|| {
        check(
            "a_wrong_model",
            24,
            |rng| rng.vec_of(1..120, step),
            |steps| {
                let env: p2kvs_storage::EnvRef = Arc::new(p2kvs_storage::MemEnv::new());
                let factory = LsmFactory::new(lsmkv::Options::rocksdb_like(env));
                let opts = P2KvsOptions::with_workers(2);
                let store = P2Kvs::open(factory, "prop-wrong", opts).unwrap();
                let mut model = std::collections::BTreeMap::new();
                for step in &steps {
                    match step {
                        Step::Put(k, v) => {
                            store.put(&key(*k), &value(*v)).unwrap();
                            model.insert(key(*k), value(*v));
                        }
                        // The bug: the model keeps what the store deletes.
                        Step::Delete(k) => store.delete(&key(*k)).unwrap(),
                        Step::Batch(_) => {}
                    }
                }
                for k in 0..=255u8 {
                    assert_eq!(store.get(&key(k)).unwrap(), model.get(&key(k)).cloned());
                }
            },
        )
    })
    .expect_err("no history in 24 deleted a key it had put");
    let msg = failed.downcast_ref::<String>().expect("formatted panic");
    assert!(msg.starts_with("a_wrong_model: case "), "{msg}");
    assert!(msg.contains("(seed 0x"), "{msg}");
    assert!(msg.contains("input: [") && msg.contains("Delete("), "{msg}");
}
