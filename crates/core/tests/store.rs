//! End-to-end tests of the p2KVS framework over its engines: partitioned
//! CRUD, OBM batching, range/scan strategies, transactions, crash
//! recovery, async interface, and portability (LevelDB mode, WiredTiger).

use std::sync::Arc;
use std::time::Duration;

use p2kvs::engine::{Capabilities, EngineFactory, GsnFilter, KvellFactory, LsmFactory, WtFactory};
use p2kvs::{KvsEngine, MetricsSnapshot, P2Kvs, P2KvsOptions, WriteOp};
use p2kvs_storage::{EnvRef, MemEnv};

fn lsm_factory() -> LsmFactory {
    LsmFactory::new(lsmkv::Options::for_test())
}

fn open_lsm(workers: usize) -> P2Kvs<lsmkv::Db> {
    let mut opts = P2KvsOptions::with_workers(workers);
    opts.pin_workers = false;
    P2Kvs::open(lsm_factory(), "p2", opts).unwrap()
}

/// Waits until the workers have observed `requests` requests. A worker
/// records a group — busy time, per-shard load, kept spans, then the
/// lifecycle histograms, in that order — *after* acking it, so once the
/// histograms count every request the store's counters are at rest.
fn wait_observed<E: KvsEngine>(store: &P2Kvs<E>, requests: u64) -> MetricsSnapshot {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let snap = store.metrics_snapshot();
        let observed: u64 = snap
            .histograms_of("p2kvs_service_ns")
            .iter()
            .map(|(_, h)| h.count)
            .sum();
        if observed == requests {
            return snap;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "workers observed {observed} of {requests} requests"
        );
        std::thread::yield_now();
    }
}

/// Waits for the fire-and-forget `ScanClose` requests issued when an
/// iterator drops to be processed by the workers (bounded, not racy).
fn wait_no_active_scans<E: KvsEngine>(store: &P2Kvs<E>) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let active: u64 = store.snapshot().workers.iter().map(|w| w.active_scans).sum();
        if active == 0 {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "parked cursors were never released ({active} still active)"
        );
        std::thread::yield_now();
    }
}

#[test]
fn crud_roundtrip_across_partitions() {
    let store = open_lsm(4);
    for i in 0..500 {
        store
            .put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    for i in 0..500 {
        assert_eq!(
            store.get(format!("key{i:04}").as_bytes()).unwrap().unwrap(),
            format!("v{i}").as_bytes()
        );
    }
    store.delete(b"key0100").unwrap();
    assert_eq!(store.get(b"key0100").unwrap(), None);
    assert_eq!(store.get(b"missing").unwrap(), None);
    // Data really is spread across the shard instances (4 workers →
    // 16 shards by default).
    let populated = store
        .engines()
        .iter()
        .filter(|e| e.visible_sequence() > 0)
        .count();
    assert_eq!(
        populated,
        store.shards(),
        "every shard instance should own some keys"
    );
}

#[test]
fn concurrent_user_threads() {
    let store = Arc::new(open_lsm(4));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let store = store.clone();
            std::thread::spawn(move || {
                for i in 0..300 {
                    let k = format!("t{t}-{i:04}");
                    store.put(k.as_bytes(), k.as_bytes()).unwrap();
                }
                for i in (0..300).step_by(7) {
                    let k = format!("t{t}-{i:04}");
                    assert_eq!(store.get(k.as_bytes()).unwrap().unwrap(), k.as_bytes());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = store.snapshot();
    assert!(snap.total_ops() >= 8 * 300);
    // Concurrency should produce some OBM merging.
    assert!(snap.avg_batch_size() >= 1.0);
}

#[test]
fn obm_merges_under_concurrency() {
    let mut opts = P2KvsOptions::with_workers(1);
    opts.pin_workers = false;
    let store = Arc::new(P2Kvs::open(lsm_factory(), "p2", opts).unwrap());
    // Many async writes into one worker queue back up and merge.
    let (tx, rx) = std::sync::mpsc::channel();
    const N: usize = 2000;
    for i in 0..N {
        let tx = tx.clone();
        store
            .put_async(
                format!("k{i:05}").as_bytes(),
                b"v",
                move |r| {
                    r.unwrap();
                    tx.send(()).unwrap();
                },
            )
            .unwrap();
    }
    for _ in 0..N {
        rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
    }
    let snap = store.snapshot();
    assert!(
        snap.merge_ratio() > 0.5,
        "async flood should batch heavily, got {}",
        snap.merge_ratio()
    );
    assert!(snap.avg_batch_size() > 2.0, "avg batch {}", snap.avg_batch_size());
}

#[test]
fn obm_disabled_never_merges() {
    let mut opts = P2KvsOptions::with_workers(2);
    opts.batch_max = 1;
    opts.pin_workers = false;
    let store = P2Kvs::open(lsm_factory(), "p2", opts).unwrap();
    for i in 0..200 {
        store.put(format!("k{i}").as_bytes(), b"v").unwrap();
    }
    let snap = store.snapshot();
    assert_eq!(snap.merge_ratio(), 0.0);
    assert_eq!(snap.avg_batch_size(), 1.0);
}

#[test]
fn get_many_batches_reads() {
    let store = open_lsm(4);
    for i in 0..300 {
        store
            .put(format!("k{i:04}").as_bytes(), format!("{i}").as_bytes())
            .unwrap();
    }
    let keys: Vec<Vec<u8>> = (0..300).map(|i| format!("k{i:04}").into_bytes()).collect();
    let got = store.get_many(&keys).unwrap();
    assert_eq!(got.len(), 300);
    for (i, v) in got.iter().enumerate() {
        assert_eq!(v.as_deref().unwrap(), format!("{i}").as_bytes());
    }
    let missing = store.get_many(&[b"zzz".to_vec()]).unwrap();
    assert_eq!(missing, vec![None]);
}

#[test]
fn range_is_exact_across_partitions() {
    let store = open_lsm(4);
    for i in 0..1000 {
        store
            .put(format!("key{i:04}").as_bytes(), format!("{i}").as_bytes())
            .unwrap();
    }
    let got = store.range(b"key0100", b"key0200").unwrap();
    assert_eq!(got.len(), 100);
    assert_eq!(got[0].0, b"key0100");
    assert_eq!(got[99].0, b"key0199");
    // Sorted.
    for w in got.windows(2) {
        assert!(w[0].0 < w[1].0);
    }
    assert!(store.range(b"z", b"zz").unwrap().is_empty());
}

/// Routes every key that starts with `one` to shard 3 and hashes the
/// rest: a scan inside the `one…` range finds all of it on one shard.
struct OneShardRange(p2kvs::shard::HashPartitioner);

impl p2kvs::shard::Partitioner for OneShardRange {
    fn shard_of(&self, key: &[u8]) -> usize {
        if key.starts_with(b"one") {
            3
        } else {
            self.0.shard_of(key)
        }
    }

    fn partitions(&self) -> usize {
        self.0.partitions()
    }
}

/// `(scans opened, cursor resumes)` summed over the workers.
fn scan_counters<E: KvsEngine>(store: &P2Kvs<E>) -> (u64, u64) {
    let snap = store.snapshot();
    (
        snap.workers.iter().map(|w| w.scans).sum(),
        snap.workers.iter().map(|w| w.scan_resumes).sum(),
    )
}

#[test]
fn scan_matches_the_sorted_model_under_the_share_quota() {
    const S: usize = 8;
    // (a) hash partitioning: every shard holds about its share;
    // (b) the scanned range sits on one shard, which the opening quota
    // of `count/S + count/2S + 4` cannot cover: the refill has to.
    for one_shard in [false, true] {
        let mut opts = P2KvsOptions::with_workers(2);
        opts.pin_workers = false;
        opts.shards = S;
        if one_shard {
            opts.partitioner = Some(Arc::new(OneShardRange(p2kvs::shard::HashPartitioner::new(
                S,
            ))));
        }
        let store = P2Kvs::open(lsm_factory(), "p2", opts).unwrap();
        let mut model = std::collections::BTreeMap::new();
        let keys = (0..300)
            .map(|i| format!("aaa{i:04}"))
            .chain((0..1500).map(|i| format!("one{i:04}")))
            .chain((0..300).map(|i| format!("zzz{i:04}")));
        for (i, key) in keys.enumerate() {
            let value = format!("v{i}").into_bytes();
            store.put(key.as_bytes(), &value).unwrap();
            model.insert(key.into_bytes(), value);
        }
        for start in [
            &b""[..],
            b"aaa0290",
            b"one0100",
            b"one1400",
            b"zzz0290",
            b"zzzz",
        ] {
            for count in [1, S - 1, S, 50, 1_000] {
                let (_, resumes) = scan_counters(&store);
                let got = store.scan(start, count).unwrap();
                let expect: Vec<_> = model
                    .range(start.to_vec()..)
                    .take(count)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(
                    got, expect,
                    "one_shard {one_shard} start {start:?} count {count}"
                );
                if one_shard && start == b"one0100" && count >= S - 1 {
                    assert!(
                        scan_counters(&store).1 > resumes,
                        "count {count}: one shard holds the whole result, its quota cannot"
                    );
                }
            }
        }
        if !one_shard {
            // The share is the rule, the refill the exception: a
            // 50-entry scan over hashed keys opens 8 cursors and hardly
            // ever resumes one (the benchmark measures 1.006 chunks per
            // cursor).
            let (scans, resumes) = scan_counters(&store);
            for i in 0..200 {
                let got = store
                    .scan(format!("one{:04}", i * 7).as_bytes(), 50)
                    .unwrap();
                assert_eq!(got.len(), 50);
            }
            let (scans, resumes) = {
                let (s, r) = scan_counters(&store);
                (s - scans, r - resumes)
            };
            assert_eq!(scans, 200 * S as u64);
            let chunks_per_scan = (scans + resumes) as f64 / scans as f64;
            assert!(
                chunks_per_scan <= 1.05,
                "{resumes} resumes over {scans} cursors: {chunks_per_scan:.3} chunks per cursor"
            );
        }
    }
}

#[test]
fn the_flight_journal_records_resumed_cursors_only() {
    use p2kvs::JournalKind;
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    opts.shards = 8;
    opts.scan_chunk_entries = 8;
    let store = P2Kvs::open(lsm_factory(), "p2", opts).unwrap();
    for i in 0..400 {
        store.put(format!("key{i:04}").as_bytes(), b"v").unwrap();
    }
    // The `(shard, cursor)` pairs journaled under `kind` after `seq`.
    let journaled = |seq: u64, kind: JournalKind| {
        let mut cursors: Vec<(u64, u64)> = store
            .flight_records(usize::MAX)
            .iter()
            .filter(|r| r.seq > seq && r.kind == kind)
            .map(|r| (r.a, r.b))
            .collect();
        cursors.sort_unstable();
        cursors
    };
    // A one-shot scan: 8 cursors opened, parked, closed — none resumed,
    // none journaled, all counted.
    let seq = store.introspect().flight_last_seq;
    let (scans, _) = scan_counters(&store);
    assert_eq!(store.scan(b"key0100", 50).unwrap().len(), 50);
    wait_no_active_scans(&store);
    assert_eq!(scan_counters(&store).0, scans + 8);
    assert!(journaled(seq, JournalKind::ScanOpen).is_empty());
    assert!(journaled(seq, JournalKind::ScanClose).is_empty());
    // An iterator pulled past its first chunks and dropped, then one
    // drained to the end: each resumed cursor leaves one open and one
    // close, whichever way it ended.
    for pull in [100, usize::MAX] {
        let seq = store.introspect().flight_last_seq;
        let (_, resumes) = scan_counters(&store);
        let pulled = store.iter().unwrap().take(pull).count();
        assert_eq!(pulled, pull.min(400));
        wait_no_active_scans(&store);
        let opened = journaled(seq, JournalKind::ScanOpen);
        let closed = journaled(seq, JournalKind::ScanClose);
        assert_eq!(opened, closed, "pull {pull}");
        assert!(
            !opened.is_empty() && opened.len() <= 8,
            "pull {pull}: {opened:?}"
        );
        assert!(scan_counters(&store).1 - resumes >= opened.len() as u64);
        if pull == usize::MAX {
            assert_eq!(opened.len(), 8, "every shard holds more than one chunk");
        }
    }
}

#[test]
fn scan_count_zero_is_empty() {
    // Regression: the old quota merge panicked on `count == 0` because
    // every empty per-worker result hit `entries.last().expect(..)`.
    let store = open_lsm(4);
    assert!(store.scan(b"", 0).unwrap().is_empty());
    for i in 0..50 {
        store.put(format!("z{i:02}").as_bytes(), b"v").unwrap();
    }
    assert!(store.scan(b"", 0).unwrap().is_empty());
    assert!(store.scan(b"z25", 0).unwrap().is_empty());
}

#[test]
fn chunked_scan_is_byte_identical_to_blocking() {
    // The streaming path must return exactly what the old blocking path
    // returned on static data. `scan_chunk_entries = usize::MAX`
    // reproduces the blocking behavior (one unbounded chunk per
    // instance).
    let fill = |store: &P2Kvs<lsmkv::Db>| {
        for i in 0..2000 {
            store
                .put(
                    format!("key{i:05}").as_bytes(),
                    format!("value-{i}").as_bytes(),
                )
                .unwrap();
        }
    };
    let mut chunked_opts = P2KvsOptions::with_workers(4);
    chunked_opts.pin_workers = false;
    chunked_opts.scan_chunk_entries = 16;
    let chunked = P2Kvs::open(lsm_factory(), "p2c", chunked_opts).unwrap();
    let mut blocking_opts = P2KvsOptions::with_workers(4);
    blocking_opts.pin_workers = false;
    blocking_opts.scan_chunk_entries = usize::MAX;
    blocking_opts.scan_chunk_bytes = usize::MAX;
    let blocking = P2Kvs::open(lsm_factory(), "p2b", blocking_opts).unwrap();
    fill(&chunked);
    fill(&blocking);
    for (start, n) in [
        (b"".as_slice(), 2000),
        (b"key00500".as_slice(), 137),
        (b"key01990".as_slice(), 50),
    ] {
        assert_eq!(
            chunked.scan(start, n).unwrap(),
            blocking.scan(start, n).unwrap(),
            "start {start:?} n {n}"
        );
    }
    assert_eq!(
        chunked.range(b"key00100", b"key00250").unwrap(),
        blocking.range(b"key00100", b"key00250").unwrap()
    );
}

#[test]
fn iter_streams_sorted_with_pagination_and_bounds() {
    let mut opts = P2KvsOptions::with_workers(4);
    opts.pin_workers = false;
    opts.scan_chunk_entries = 32; // force many resumes
    let store = P2Kvs::open(lsm_factory(), "p2i", opts).unwrap();
    for i in 0..800 {
        store
            .put(format!("it{i:04}").as_bytes(), format!("{i}").as_bytes())
            .unwrap();
    }
    // Full iteration, via the Iterator impl.
    let all: Vec<_> = store
        .iter()
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    assert_eq!(all.len(), 800);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "globally sorted");
    assert_eq!(all[0].0, b"it0000");
    assert_eq!(all[799].0, b"it0799");
    // Paginated pull.
    let mut iter = store.iter_from(b"it0100").unwrap();
    let page1 = iter.next_chunk(25).unwrap();
    let page2 = iter.next_chunk(25).unwrap();
    assert_eq!(page1.len(), 25);
    assert_eq!(page1[0].0, b"it0100");
    assert_eq!(page2[0].0, b"it0125");
    // Abandoning the iterator mid-scan must release its parked cursors.
    drop(iter);
    // Bounded iteration stops exactly at the end key.
    let bounded: Vec<_> = store
        .iter_range(b"it0200", b"it0210")
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    assert_eq!(bounded.len(), 10);
    assert_eq!(bounded.last().unwrap().0, b"it0209");
    // The workers resumed parked cursors rather than scanning blocking.
    let snap = store.snapshot();
    let resumes: u64 = snap.workers.iter().map(|w| w.scan_resumes).sum();
    assert!(resumes > 0, "32-entry chunks over 800 keys must resume");
    wait_no_active_scans(&store);
}

#[test]
fn lsm_iter_is_snapshot_consistent_across_writes() {
    // lsmkv has native cursors: every per-instance stream pins a
    // snapshot at open, so writes issued mid-iteration are invisible.
    let mut opts = P2KvsOptions::with_workers(4);
    opts.pin_workers = false;
    opts.scan_chunk_entries = 8;
    let store = P2Kvs::open(lsm_factory(), "p2s", opts).unwrap();
    for i in 0..200 {
        store.put(format!("s{i:03}").as_bytes(), b"old").unwrap();
    }
    let mut iter = store.iter().unwrap();
    let first = iter.next_chunk(10).unwrap();
    assert_eq!(first.len(), 10);
    // Overwrite, delete, and insert while the scan is mid-flight.
    for i in 0..200 {
        store.put(format!("s{i:03}").as_bytes(), b"new").unwrap();
    }
    store.delete(b"s150").unwrap();
    store.put(b"s999", b"new").unwrap();
    let rest: Vec<_> = iter.collect::<Result<Vec<_>, _>>().unwrap();
    let mut seen = first;
    seen.extend(rest);
    assert_eq!(seen.len(), 200, "the pinned view has exactly the old keys");
    assert!(
        seen.iter().all(|(_, v)| v == b"old"),
        "mid-scan writes must be invisible to a native cursor"
    );
}

/// An lsmkv instance that hides its native cursor support: the default
/// resume-from-last-key emulation must carry chunked scans while OBM
/// keeps merging point ops between chunks.
struct EmulatedCursorDb(lsmkv::Db);

impl KvsEngine for EmulatedCursorDb {
    fn put(&self, key: &[u8], value: &[u8]) -> p2kvs::Result<()> {
        KvsEngine::put(&self.0, key, value)
    }
    fn delete(&self, key: &[u8]) -> p2kvs::Result<()> {
        KvsEngine::delete(&self.0, key)
    }
    fn write_batch(&self, ops: &[WriteOp], gsn: u64) -> p2kvs::Result<()> {
        KvsEngine::write_batch(&self.0, ops, gsn)
    }
    fn get(&self, key: &[u8]) -> p2kvs::Result<Option<Vec<u8>>> {
        KvsEngine::get(&self.0, key)
    }
    fn multiget(&self, keys: &[Vec<u8>]) -> p2kvs::Result<Vec<Option<Vec<u8>>>> {
        KvsEngine::multiget(&self.0, keys)
    }
    fn scan(&self, start: &[u8], count: usize) -> p2kvs::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        KvsEngine::scan(&self.0, start, count)
    }
    fn range(&self, begin: &[u8], end: &[u8]) -> p2kvs::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        KvsEngine::range(&self.0, begin, end)
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            native_cursor: false,
            ..KvsEngine::capabilities(&self.0)
        }
    }
    fn sync(&self) -> p2kvs::Result<()> {
        KvsEngine::sync(&self.0)
    }
    fn mem_usage(&self) -> usize {
        KvsEngine::mem_usage(&self.0)
    }
}

struct EmulatedCursorFactory(LsmFactory);

impl EngineFactory for EmulatedCursorFactory {
    type Engine = EmulatedCursorDb;

    fn open(&self, dir: &std::path::Path, filter: Option<GsnFilter>) -> p2kvs::Result<EmulatedCursorDb> {
        Ok(EmulatedCursorDb(self.0.open(dir, filter)?))
    }

    fn env(&self) -> EnvRef {
        self.0.env()
    }
}

#[test]
fn engine_without_native_cursor_degrades_to_emulated_chunks_with_obm() {
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    opts.scan_chunk_entries = 8;
    let store = Arc::new(
        P2Kvs::open(EmulatedCursorFactory(lsm_factory()), "p2e", opts).unwrap(),
    );
    for i in 0..300 {
        store
            .put(format!("e{i:03}").as_bytes(), format!("{i}").as_bytes())
            .unwrap();
    }
    // Start the scan, then flood point writes so OBM has runs to merge
    // while cursors are parked between chunks.
    let mut iter = store.iter().unwrap();
    let mut seen = iter.next_chunk(20).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    for i in 0..600 {
        let tx = tx.clone();
        store
            .put_async(format!("flood{i:03}").as_bytes(), b"v", move |r| {
                r.unwrap();
                tx.send(()).unwrap();
            })
            .unwrap();
    }
    // Drain the rest of the scan while the flood lands.
    loop {
        let chunk = iter.next_chunk(40).unwrap();
        if chunk.is_empty() {
            break;
        }
        seen.extend(chunk);
    }
    for _ in 0..600 {
        rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
    }
    // The emulated cursor is monotonic: sorted, no duplicates, and every
    // pre-scan key appears (flood keys sort before "e..." and may or may
    // not be seen — read-committed, not snapshot).
    assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
    let e_keys: Vec<_> = seen.iter().filter(|(k, _)| k.starts_with(b"e")).collect();
    assert_eq!(e_keys.len(), 300, "every pre-existing key is returned");
    let snap = store.snapshot();
    assert!(
        snap.workers.iter().map(|w| w.scan_resumes).sum::<u64>() > 0,
        "emulation must serve multiple chunks per stream"
    );
    assert!(
        snap.workers.iter().map(|w| w.merged_ops).sum::<u64>() > 0,
        "OBM must keep merging point ops between scan chunks"
    );
}

#[test]
fn works_over_kvell() {
    let env: EnvRef = Arc::new(MemEnv::new());
    let factory = KvellFactory::new(kvell::KvellOptions::new(env));
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    opts.scan_chunk_entries = 16;
    let store = P2Kvs::open(factory, "p2kv", opts).unwrap();
    for i in 0..300 {
        store
            .put(format!("k{i:03}").as_bytes(), format!("{i}").as_bytes())
            .unwrap();
    }
    assert_eq!(store.get(b"k123").unwrap().unwrap(), b"123");
    store.delete(b"k100").unwrap();
    assert_eq!(store.get(b"k100").unwrap(), None);
    let scan = store.scan(b"k050", 10).unwrap();
    assert_eq!(scan.len(), 10);
    assert_eq!(scan[0].0, b"k050");
    let range = store.range(b"k200", b"k210").unwrap();
    assert_eq!(range.len(), 10);
    // KVell has no atomic batch-write: cross-instance transactions are
    // rejected rather than silently partially applied.
    let err = store.write_batch(
        (0..50)
            .map(|i| WriteOp::Put {
                key: format!("t{i}").into_bytes(),
                value: b"v".to_vec(),
            })
            .collect(),
    );
    assert!(err.is_err(), "KVell transactions must be rejected");
}

#[test]
fn scan_metrics_surface_in_snapshots() {
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    opts.scan_chunk_entries = 8;
    let store = P2Kvs::open(lsm_factory(), "p2m", opts).unwrap();
    for i in 0..200 {
        store.put(format!("m{i:03}").as_bytes(), b"v").unwrap();
    }
    let got = store.scan(b"", 200).unwrap();
    assert_eq!(got.len(), 200);
    let snap = store.metrics_snapshot();
    let scans: u64 = (0..2)
        .map(|w| {
            snap.counter(&format!("p2kvs_worker_scans_total{{worker=\"{w}\"}}"))
                .unwrap()
        })
        .sum();
    let chunks: u64 = (0..2)
        .map(|w| {
            snap.counter(&format!("p2kvs_worker_scan_chunks_total{{worker=\"{w}\"}}"))
                .unwrap()
        })
        .sum();
    assert_eq!(
        scans,
        store.shards() as u64,
        "one stream opened per shard"
    );
    assert!(chunks > scans, "8-entry chunks over 200 keys need resumes");
    wait_no_active_scans(&store);
    let snap = store.metrics_snapshot();
    for w in 0..2 {
        assert_eq!(
            snap.gauge(&format!("p2kvs_active_scans{{worker=\"{w}\"}}")),
            Some(0.0),
            "no cursor may remain parked after the scan"
        );
    }
}

#[test]
fn write_batch_single_partition_is_atomic() {
    let store = open_lsm(1);
    store
        .write_batch(vec![
            WriteOp::Put { key: b"a".to_vec(), value: b"1".to_vec() },
            WriteOp::Put { key: b"b".to_vec(), value: b"2".to_vec() },
            WriteOp::Delete { key: b"a".to_vec() },
        ])
        .unwrap();
    assert_eq!(store.get(b"a").unwrap(), None);
    assert_eq!(store.get(b"b").unwrap().unwrap(), b"2");
}

#[test]
fn cross_instance_transaction_commits() {
    let store = open_lsm(4);
    let ops: Vec<WriteOp> = (0..100)
        .map(|i| WriteOp::Put {
            key: format!("txn{i:03}").into_bytes(),
            value: b"committed".to_vec(),
        })
        .collect();
    store.write_batch(ops).unwrap();
    for i in 0..100 {
        assert_eq!(
            store.get(format!("txn{i:03}").as_bytes()).unwrap().unwrap(),
            b"committed"
        );
    }
}

#[test]
fn uncommitted_transaction_rolls_back_at_recovery() {
    let env: EnvRef = Arc::new(MemEnv::new());
    let factory = || LsmFactory::new(lsmkv::Options::rocksdb_like(env.clone()));
    let opts = || {
        let mut o = P2KvsOptions::with_workers(4);
        o.pin_workers = false;
        o
    };
    {
        let store = P2Kvs::open(factory(), "p2", opts()).unwrap();
        // A committed transaction...
        store
            .write_batch(
                (0..40)
                    .map(|i| WriteOp::Put {
                        key: format!("ok{i:02}").into_bytes(),
                        value: b"yes".to_vec(),
                    })
                    .collect(),
            )
            .unwrap();
        // ...and an uncommitted one: simulate the crash window by writing
        // GSN-tagged sub-batches directly without a commit record.
        let gsn = 999_999u64; // Never recorded as committed.
        for (i, engine) in store.engines().iter().enumerate() {
            use p2kvs::KvsEngine;
            engine
                .write_batch(
                    &[WriteOp::Put {
                        key: format!("ghost{i}").into_bytes(),
                        value: b"no".to_vec(),
                    }],
                    gsn,
                )
                .unwrap();
        }
        // Crash every instance without syncing framework state.
        store.close();
    }
    let store = P2Kvs::open(factory(), "p2", opts()).unwrap();
    for i in 0..40 {
        assert_eq!(
            store.get(format!("ok{i:02}").as_bytes()).unwrap().unwrap(),
            b"yes",
            "committed transaction must survive"
        );
    }
    for i in 0..store.shards() {
        assert_eq!(
            store.get(format!("ghost{i}").as_bytes()).unwrap(),
            None,
            "uncommitted sub-batch must be rolled back"
        );
    }
}

/// Routes a key by its first byte, so a test chooses the shards a batch
/// touches.
struct FirstByte(usize);

impl p2kvs::Partitioner for FirstByte {
    fn shard_of(&self, key: &[u8]) -> usize {
        key[0] as usize % self.0
    }
    fn partitions(&self) -> usize {
        self.0
    }
}

/// The commit log holds commit records only, so nothing in it names a
/// transaction that crashed after its sub-batches were synced and before
/// its commit. The WALs do: recovery rolls the batch back on every shard
/// and starts allocating above the highest GSN it replayed — again after
/// a second crash, when the first rolled-back GSN is in no file any more.
#[test]
fn a_gsn_rolled_back_at_recovery_is_not_handed_out_again() {
    use p2kvs::JournalKind;
    use p2kvs_storage::{FaultEvent, FaultPlan, FaultyEnv};

    let env = Arc::new(FaultyEnv::over_mem());
    let open = || {
        let mut o = P2KvsOptions::with_workers(2);
        o.pin_workers = false;
        o.shards = 4;
        o.partitioner = Some(Arc::new(FirstByte(4)));
        let env: EnvRef = env.clone();
        P2Kvs::open(LsmFactory::new(lsmkv::Options::rocksdb_like(env)), "p2", o).unwrap()
    };
    // One put on shard 0 and one on shard 1, both named `tag`.
    let batch = |tag: &str| -> Vec<WriteOp> {
        (0..2u8)
            .map(|s| WriteOp::Put { key: [&[s][..], tag.as_bytes()].concat(), value: tag.into() })
            .collect()
    };
    let visible = |store: &P2Kvs<lsmkv::Db>, tag: &str| -> Vec<bool> {
        batch(tag).iter().map(|op| store.get(op.key()).unwrap().is_some()).collect()
    };
    let last_committed_gsn = |store: &P2Kvs<lsmkv::Db>| {
        let journal = store.flight_records(usize::MAX);
        journal.iter().rev().find(|r| r.kind == JournalKind::TxnCommit).unwrap().gsn
    };
    // Power-fails the store at the commit sync of `batch(tag)`: two WAL
    // syncs (one per shard) come first and survive.
    let crash_before_commit = |store: P2Kvs<lsmkv::Db>, tag: &str| {
        env.set_plan(FaultPlan { crash_at_sync: Some(env.sync_points() + 3), ..FaultPlan::default() });
        store.write_batch(batch(tag)).expect_err("the commit sync crashed");
        let crashed_on_the_commit_log = env.events().iter().any(
            |e| matches!(e, FaultEvent::Crash { path, .. } if path.ends_with("TXNLOG")),
        );
        assert!(crashed_on_the_commit_log, "{tag}: {:?}", env.events());
        drop(store);
        env.heal();
    };

    let store = open();
    store.write_batch(batch("a")).unwrap();
    let g_a = last_committed_gsn(&store);
    crash_before_commit(store, "b"); // b drew g_a + 1

    let store = open();
    assert_eq!(visible(&store, "a"), [true, true]);
    assert_eq!(visible(&store, "b"), [false, false], "rolled back on every shard");
    store.write_batch(batch("c")).unwrap();
    assert_eq!(last_committed_gsn(&store), g_a + 2, "b's GSN is not reused");
    crash_before_commit(store, "d"); // d drew g_a + 3, above every commit record

    let store = open();
    assert_eq!(visible(&store, "b"), [false, false]);
    assert_eq!(visible(&store, "c"), [true, true]);
    assert_eq!(visible(&store, "d"), [false, false], "rolled back on every shard");
    store.write_batch(batch("e")).unwrap();
    assert_eq!(last_committed_gsn(&store), g_a + 4, "d's GSN is not reused");
    assert_eq!(visible(&store, "e"), [true, true]);
}

#[test]
fn reopen_preserves_data_and_gsns() {
    let env: EnvRef = Arc::new(MemEnv::new());
    let factory = || LsmFactory::new(lsmkv::Options::rocksdb_like(env.clone()));
    let mk_opts = || {
        let mut o = P2KvsOptions::with_workers(2);
        o.pin_workers = false;
        o
    };
    {
        let store = P2Kvs::open(factory(), "p2", mk_opts()).unwrap();
        for i in 0..200 {
            store.put(format!("k{i}").as_bytes(), b"v1").unwrap();
        }
        store
            .write_batch(vec![
                WriteOp::Put { key: b"tx-a".to_vec(), value: b"1".to_vec() },
                WriteOp::Put { key: b"tx-b".to_vec(), value: b"2".to_vec() },
            ])
            .unwrap();
        store.close();
    }
    let store = P2Kvs::open(factory(), "p2", mk_opts()).unwrap();
    assert_eq!(store.get(b"k0").unwrap().unwrap(), b"v1");
    assert_eq!(store.get(b"k199").unwrap().unwrap(), b"v1");
    assert_eq!(store.get(b"tx-a").unwrap().unwrap(), b"1");
    assert_eq!(store.get(b"tx-b").unwrap().unwrap(), b"2");
    // New transactions must get fresh GSNs (no reuse after recovery).
    store
        .write_batch(vec![
            WriteOp::Put { key: b"tx-c".to_vec(), value: b"3".to_vec() },
            WriteOp::Put { key: b"tx-d".to_vec(), value: b"4".to_vec() },
        ])
        .unwrap();
    assert_eq!(store.get(b"tx-c").unwrap().unwrap(), b"3");
}

#[test]
fn async_writes_complete() {
    let store = Arc::new(open_lsm(2));
    let (tx, rx) = std::sync::mpsc::channel();
    for i in 0..100 {
        let tx = tx.clone();
        store
            .put_async(format!("a{i}").as_bytes(), b"v", move |r| {
                tx.send(r.is_ok()).unwrap();
            })
            .unwrap();
    }
    for _ in 0..100 {
        assert!(rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap());
    }
    assert_eq!(store.get(b"a99").unwrap().unwrap(), b"v");
}

#[test]
fn works_over_leveldb_mode() {
    // LevelDB mode: no multiget, no concurrent memtable; OBM write-merge
    // still applies (LevelDB has WriteBatch).
    let env: EnvRef = Arc::new(MemEnv::new());
    let factory = LsmFactory::new(lsmkv::Options::leveldb_like(env));
    let mut opts = P2KvsOptions::with_workers(3);
    opts.pin_workers = false;
    let store = P2Kvs::open(factory, "p2l", opts).unwrap();
    for i in 0..300 {
        store.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
    }
    for i in (0..300).step_by(11) {
        assert_eq!(store.get(format!("k{i:03}").as_bytes()).unwrap().unwrap(), b"v");
    }
    let scan = store.scan(b"k100", 5).unwrap();
    assert_eq!(scan.len(), 5);
    assert_eq!(scan[0].0, b"k100");
}

#[test]
fn works_over_wiredtiger() {
    let env: EnvRef = Arc::new(MemEnv::new());
    let factory = WtFactory::new(wtiger::WtOptions::new(env));
    let mut opts = P2KvsOptions::with_workers(3);
    opts.pin_workers = false;
    let store = P2Kvs::open(factory, "p2w", opts).unwrap();
    for i in 0..300 {
        store
            .put(format!("k{i:03}").as_bytes(), format!("{i}").as_bytes())
            .unwrap();
    }
    for i in (0..300).step_by(13) {
        assert_eq!(
            store.get(format!("k{i:03}").as_bytes()).unwrap().unwrap(),
            format!("{i}").as_bytes()
        );
    }
    store.delete(b"k100").unwrap();
    assert_eq!(store.get(b"k100").unwrap(), None);
    let range = store.range(b"k200", b"k205").unwrap();
    assert_eq!(range.len(), 5);
    // Cross-instance transactions are unsupported without batch-write.
    let err = store.write_batch(
        (0..50)
            .map(|i| WriteOp::Put {
                key: format!("t{i}").into_bytes(),
                value: b"v".to_vec(),
            })
            .collect(),
    );
    assert!(err.is_err(), "WiredTiger transactions must be rejected");
}

#[test]
fn snapshot_reports_worker_activity() {
    let store = open_lsm(2);
    for i in 0..200 {
        store.put(format!("k{i}").as_bytes(), b"v").unwrap();
    }
    let snap = store.snapshot();
    assert_eq!(snap.workers.len(), 2);
    assert_eq!(snap.total_ops(), 200);
    assert!(snap.mem_usage > 0);
    assert!(snap.workers.iter().all(|w| w.queue_depth == 0));
    let util = snap.worker_utilization();
    assert!(util.iter().all(|u| (0.0..=1.0).contains(u)));
}

#[test]
fn empty_batch_is_noop() {
    let store = open_lsm(2);
    store.write_batch(vec![]).unwrap();
}

#[test]
fn metrics_snapshot_covers_lifecycle_engines_and_renders() {
    // The acceptance scenario of the observability layer: a mixed
    // PUT/GET workload over a store with metrics enabled must yield
    // per-class queue-wait and service histograms, live queue-depth
    // gauges, engine_* metrics from lsmkv's write breakdown, and
    // Prometheus/JSON renders that agree.
    let mut opts = P2KvsOptions::with_workers(4);
    opts.pin_workers = false;
    // Every group counts as slow, so tail sampling provably keeps spans.
    opts.slow_request_threshold = std::time::Duration::ZERO;
    let store = P2Kvs::open(lsm_factory(), "p2-obs", opts).unwrap();
    for i in 0..300 {
        store
            .put(format!("key{i:04}").as_bytes(), b"value")
            .unwrap();
    }
    for i in 0..200 {
        store.get(format!("key{i:04}").as_bytes()).unwrap();
    }

    let snap = wait_observed(&store, 500);

    // Per-class lifecycle histograms: non-zero counts, ordered tails.
    for base in ["p2kvs_queue_wait_ns", "p2kvs_service_ns"] {
        for class in ["write", "read"] {
            let series = snap.histograms_of(base);
            let total: u64 = series
                .iter()
                .filter(|(n, _)| n.contains(&format!("class=\"{class}\"")))
                .map(|(_, h)| h.count)
                .sum();
            let expected = if class == "write" { 300 } else { 200 };
            assert_eq!(total, expected, "{base}/{class} must count every request");
            for (name, h) in series {
                assert!(
                    h.p50 <= h.p99 && h.p99 <= h.p999 && h.p999 <= h.max,
                    "percentiles must be ordered in {name}"
                );
            }
        }
    }

    // Worker counters and queue-depth gauges exist for every worker.
    for w in 0..4 {
        let ops = snap
            .counter(&format!("p2kvs_worker_ops_total{{worker=\"{w}\"}}"))
            .unwrap();
        assert!(ops > 0, "worker {w} processed requests");
        assert!(snap
            .gauge(&format!("p2kvs_queue_depth{{worker=\"{w}\"}}"))
            .is_some());
    }
    assert_eq!(
        (0..4)
            .map(|w| snap
                .counter(&format!("p2kvs_worker_ops_total{{worker=\"{w}\"}}"))
                .unwrap())
            .sum::<u64>(),
        500
    );

    // lsmkv's write breakdown surfaces under engine_* names.
    let wal: f64 = (0..4)
        .map(|i| snap.gauge(&format!("engine_wal_us{{instance=\"{i}\"}}")).unwrap())
        .sum();
    assert!(wal > 0.0, "WAL component of the write breakdown must be non-zero");
    assert!(snap.gauge("engine_writes_total{instance=\"0\"}").is_some());

    // With a zero threshold, every group was slow and kept its spans.
    assert!(snap.counter("p2kvs_slow_requests_total").unwrap() > 0);
    let kept: Vec<_> = store
        .trace_spans()
        .into_iter()
        .filter(|s| s.tail_kept())
        .collect();
    assert!(!kept.is_empty());
    assert!(kept.iter().all(|s| s.batch_size >= 1));

    // The two renders agree on every value they share.
    let prom = MetricsSnapshot::parse_prometheus(&snap.render_prometheus());
    let json = snap.render_json();
    for (name, v) in &snap.counters {
        assert_eq!(
            prom.iter().find(|(n, _)| n == name).map(|(_, p)| *p as u64),
            Some(*v),
            "{name} must round-trip through the Prometheus render"
        );
        assert!(json.contains(&format!("\"{}\"", name.replace('"', "\\\""))));
    }
    for (name, h) in &snap.histograms {
        let brace = name.find('{').expect("lifecycle histograms are labeled");
        let count_series =
            format!("{}_count{{{}}}", &name[..brace], &name[brace + 1..name.len() - 1]);
        assert_eq!(
            prom.iter()
                .find(|(n, _)| n == &count_series)
                .map(|(_, p)| *p as u64),
            Some(h.count),
            "{name} count must round-trip"
        );
        assert!(json.contains(&format!("\"count\": {}", h.count)));
    }
    store.close();
}

#[test]
fn write_ledger_rows_reach_the_registry_introspection_and_the_journal() {
    // A tree small enough that every shard compacts through three levels:
    // multi-file jobs, and moves wherever a level is first filled.
    let mut engine = lsmkv::Options::for_test();
    engine.memtable_size = 16 << 10;
    engine.target_file_size = 4 << 10;
    engine.base_level_size = 16 << 10;
    engine.level_multiplier = 4;
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    opts.shards = 4;
    let store = P2Kvs::open(LsmFactory::new(engine), "p2-ledger", opts).unwrap();
    for i in 0..12_000u64 {
        let key = format!("key{:016x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        store.put(key.as_bytes(), &[i as u8; 100]).unwrap();
    }
    for e in store.engines() {
        e.wait_idle().unwrap();
    }

    let snap = store.metrics_snapshot();
    let view = store.introspect();
    assert_eq!(view.write_ledger.len(), 4);
    let mut moved_bytes = 0.0;
    for shard in 0..4 {
        let gauge = |name: &str, level: usize| {
            snap.gauge(&format!("{name}{{level=\"{level}\",instance=\"{shard}\"}}"))
                .unwrap_or_else(|| panic!("{name} level {level} shard {shard}"))
        };
        // What the levels wrote plus what the flushes wrote is the counter
        // the benchmark reads as `lsmkv.compaction_mb`.
        let flushed = snap
            .gauge(&format!(
                "engine_flush_bytes_written_total{{instance=\"{shard}\"}}"
            ))
            .unwrap();
        let rewritten: f64 = (0..3)
            .map(|l| gauge("engine_level_bytes_written_total", l))
            .sum();
        assert!(flushed > 0.0 && rewritten > flushed);
        assert_eq!(
            snap.gauge(&format!(
                "engine_compaction_bytes_written_total{{instance=\"{shard}\"}}"
            )),
            Some(flushed + rewritten)
        );
        assert!(gauge("engine_level_files_in_total", 1) > gauge("engine_level_jobs_total", 1));
        moved_bytes += (1..3)
            .map(|l| gauge("engine_level_bytes_moved_total", l))
            .sum::<f64>();
        // The same rows, per shard, in the introspection view.
        let rows = &view.write_ledger[shard];
        for name in [
            "engine_user_bytes_written_total",
            "engine_wal_bytes_written_total",
            "engine_manifest_bytes_written_total",
            "engine_flush_bytes_written_total",
            "engine_level_bytes_written_total{level=\"0\"}",
            "engine_level_bytes_overlapped_total{level=\"1\"}",
            "engine_level_files_moved_total{level=\"2\"}",
        ] {
            assert!(
                rows.iter().any(|(n, v)| n == name && *v >= 0.0),
                "shard {shard}: {name}"
            );
        }
        assert!(
            rows.iter().all(|(n, _)| !n.ends_with("_us")),
            "only the ledger's series"
        );
    }
    assert!(moved_bytes > 0.0, "a first fill of L2 and L3 moves files");
    // A move is journaled as a move, with the bytes it moved.
    use p2kvs::obs::JournalKind;
    let moves: Vec<_> = store
        .flight_records(usize::MAX)
        .into_iter()
        .filter(|r| r.kind == JournalKind::CompactionFinish && r.gsn == 1)
        .collect();
    assert!(!moves.is_empty());
    assert!(moves.iter().all(|r| r.b >= 1 && r.c > 0), "{moves:?}");
    store.close();
}

#[test]
fn metrics_disabled_store_still_snapshots() {
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    opts.metrics = false;
    // Slow-keeping is gated by `metrics`: even with every group over the
    // threshold (and head sampling off) nothing is kept or counted.
    opts.slow_request_threshold = std::time::Duration::ZERO;
    opts.trace_sample = 0;
    let store = P2Kvs::open(lsm_factory(), "p2-noobs", opts).unwrap();
    store.put(b"k", b"v").unwrap();
    assert_eq!(store.get(b"k").unwrap().unwrap(), b"v");
    let snap = store.metrics_snapshot();
    // No lifecycle histograms, but sampled counters/gauges still work.
    assert!(snap.histograms_of("p2kvs_queue_wait_ns").is_empty());
    assert!(snap.counter("p2kvs_worker_ops_total{worker=\"0\"}").is_some());
    assert_eq!(snap.counter("p2kvs_slow_requests_total"), Some(0));
    assert!(store.trace_spans().is_empty());
}

#[test]
fn mismatched_partitioner_is_rejected_at_open() {
    // Regression: a custom partitioner whose partitions() disagrees
    // with the shard count used to index workers out of bounds on the
    // first submit; it must be a config error at open instead.
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    opts.shards = 4;
    opts.partitioner = Some(Arc::new(p2kvs::HashPartitioner::new(3)));
    match P2Kvs::open(lsm_factory(), "p2-mismatch", opts) {
        Err(p2kvs::Error::Config(msg)) => {
            assert!(msg.contains('3') && msg.contains('4'), "diagnostic: {msg}");
        }
        Err(other) => panic!("expected a config error, got {other:?}"),
        Ok(_) => panic!("mismatched partitioner must not open"),
    }
    // A matching custom partitioner opens fine and derives the shard
    // count when `shards` is left at auto.
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    opts.partitioner = Some(Arc::new(p2kvs::HashPartitioner::new(6)));
    let store = P2Kvs::open(lsm_factory(), "p2-custom", opts).unwrap();
    assert_eq!(store.shards(), 6);
    store.put(b"k", b"v").unwrap();
    assert_eq!(store.get(b"k").unwrap().unwrap(), b"v");
}

#[test]
fn paper_layout_is_identity_and_static() {
    let mut opts = P2KvsOptions::paper_layout(4);
    opts.pin_workers = false;
    let store = P2Kvs::open(lsm_factory(), "p2-paper", opts).unwrap();
    assert_eq!(store.shards(), 4);
    assert_eq!(store.shard_owners(), vec![0, 1, 2, 3]);
    assert_eq!(store.map_epoch(), 1);
    for i in 0..200 {
        store.put(format!("k{i}").as_bytes(), b"v").unwrap();
    }
    assert_eq!(store.map_epoch(), 1, "no balancer, no migrations");
    assert_eq!(store.migrations(), 0);
}

#[test]
fn migrate_shard_moves_ownership_without_moving_data() {
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    let store = P2Kvs::open(lsm_factory(), "p2-mig", opts).unwrap();
    let mut expected = std::collections::BTreeMap::new();
    for i in 0..400 {
        let k = format!("mig{i:04}");
        store.put(k.as_bytes(), format!("{i}").as_bytes()).unwrap();
        expected.insert(k.into_bytes(), format!("{i}").into_bytes());
    }
    let owners = store.shard_owners();
    let epoch = store.map_epoch();
    // Move every shard the other way, one at a time.
    for (s, &o) in owners.iter().enumerate() {
        store.migrate_shard(s, 1 - o).unwrap();
    }
    assert_eq!(store.migrations(), owners.len() as u64);
    assert_eq!(store.map_epoch(), epoch + owners.len() as u64);
    let flipped: Vec<usize> = owners.iter().map(|o| 1 - o).collect();
    assert_eq!(store.shard_owners(), flipped);
    // Same-owner migration is a no-op, not a deadlock.
    store.migrate_shard(0, flipped[0]).unwrap();
    // Every key reads back byte-identical through the new owners, and
    // writes keep landing.
    for (k, v) in &expected {
        assert_eq!(store.get(k).unwrap().unwrap(), *v);
    }
    for i in 0..100 {
        let k = format!("post{i:03}");
        store.put(k.as_bytes(), b"after").unwrap();
        assert_eq!(store.get(k.as_bytes()).unwrap().unwrap(), b"after");
    }
    // Out-of-range arguments are config errors, not panics.
    assert!(matches!(
        store.migrate_shard(store.shards(), 0),
        Err(p2kvs::Error::Config(_))
    ));
    assert!(matches!(
        store.migrate_shard(0, 99),
        Err(p2kvs::Error::Config(_))
    ));
    let snap = store.snapshot();
    let outs: u64 = snap.workers.iter().map(|w| w.handoffs_out).sum();
    let ins: u64 = snap.workers.iter().map(|w| w.handoffs_in).sum();
    assert_eq!(outs, owners.len() as u64);
    assert_eq!(ins, owners.len() as u64);
    store.close();
}

#[test]
fn open_scan_survives_shard_migration() {
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    opts.scan_chunk_entries = 16; // force resumes after the handoff
    let store = P2Kvs::open(lsm_factory(), "p2-migscan", opts).unwrap();
    for i in 0..600 {
        store
            .put(format!("ms{i:04}").as_bytes(), format!("{i}").as_bytes())
            .unwrap();
    }
    let mut iter = store.iter().unwrap();
    let mut seen = iter.next_chunk(50).unwrap();
    // Consolidate every shard onto worker 0 while cursors are parked.
    for s in 0..store.shards() {
        store.migrate_shard(s, 0).unwrap();
    }
    // The parked cursors travelled with their shards; the scan resumes
    // against the new owner and stays exact.
    loop {
        let chunk = iter.next_chunk(64).unwrap();
        if chunk.is_empty() {
            break;
        }
        seen.extend(chunk);
    }
    assert_eq!(seen.len(), 600);
    assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "globally sorted");
    for (i, (k, v)) in seen.iter().enumerate() {
        assert_eq!(k, format!("ms{i:04}").as_bytes());
        assert_eq!(v, format!("{i}").as_bytes());
    }
    drop(iter);
    wait_no_active_scans(&store);
    store.close();
}

#[test]
fn rebalance_moves_hot_shards_off_a_saturated_worker() {
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    let store = P2Kvs::open(lsm_factory(), "p2-rebal", opts).unwrap();
    // Default layout: 8 shards round-robin, worker 0 owns {0,2,4,6}.
    // Drive all load at two shards of worker 0 so the planner has a
    // movable candidate (a single hot shard can never improve the max).
    let p = p2kvs::HashPartitioner::new(store.shards());
    use p2kvs::Partitioner;
    let hot: Vec<String> = (0..200_000)
        .map(|i| format!("hot{i}"))
        .filter(|k| {
            let s = p.shard_of(k.as_bytes());
            s == 0 || s == 2
        })
        .take(4000)
        .collect();
    for k in &hot {
        store.put(k.as_bytes(), b"v").unwrap();
    }
    let moved = store.rebalance_once().unwrap();
    assert!(moved >= 1, "skewed load must trigger a migration");
    assert_eq!(store.migrations(), moved as u64);
    let owners = store.shard_owners();
    assert!(
        owners[0] == 1 || owners[2] == 1,
        "a hot shard moved to the idle worker: {owners:?}"
    );
    // Byte-identical reads after the move.
    for k in hot.iter().step_by(17) {
        assert_eq!(store.get(k.as_bytes()).unwrap().unwrap(), b"v");
    }
    // A balanced store does not oscillate: repeated ticks with no new
    // load settle to zero moves.
    let mut last = moved;
    for _ in 0..4 {
        last = store.rebalance_once().unwrap();
    }
    assert_eq!(last, 0, "idle ticks must not keep migrating");
    store.close();
}

#[test]
fn background_balancer_runs_and_stops() {
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    opts.balance_interval = Some(std::time::Duration::from_millis(25));
    let store = P2Kvs::open(lsm_factory(), "p2-bal-bg", opts).unwrap();
    for i in 0..500 {
        store.put(format!("bg{i:03}").as_bytes(), b"v").unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    for i in 0..500 {
        assert_eq!(store.get(format!("bg{i:03}").as_bytes()).unwrap().unwrap(), b"v");
    }
    // Closing must stop the balancer thread promptly (no hang).
    store.close();
}

// ---------------------------------------------------------------------
// Causal tracing, the flight recorder, and live introspection
// ---------------------------------------------------------------------

#[test]
fn trace_spans_form_nested_trees_and_export_chrome_json() {
    use p2kvs::SpanKind;
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    opts.trace_sample = 1; // sample every request
    let store = P2Kvs::open(lsm_factory(), "p2-trace", opts).unwrap();
    for i in 0..200 {
        store.put(format!("t{i:03}").as_bytes(), b"v").unwrap();
    }
    for i in 0..50 {
        store.get(format!("t{i:03}").as_bytes()).unwrap();
    }
    let spans = store.trace_spans();
    assert!(!spans.is_empty(), "sample=1 must record spans");
    let mut by_id: std::collections::HashMap<u64, Vec<&p2kvs::SpanRecord>> =
        std::collections::HashMap::new();
    for s in &spans {
        by_id.entry(s.trace_id).or_default().push(s);
    }
    let mut full_chains = 0;
    for tree in by_id.values() {
        let find = |k: SpanKind| tree.iter().find(|s| s.kind == k);
        let (Some(qw), Some(batch), Some(engine)) = (
            find(SpanKind::QueueWait),
            find(SpanKind::Batch),
            find(SpanKind::Engine),
        ) else {
            continue; // ring overwrote part of this tree
        };
        full_chains += 1;
        // Consistent nesting: the queue wait ends exactly where the OBM
        // batch begins, and the engine call sits inside the batch span.
        assert_eq!(
            qw.start_us + qw.dur_us,
            batch.start_us,
            "queue_wait must end at dequeue"
        );
        assert!(batch.start_us <= engine.start_us, "engine starts inside the batch");
        assert!(
            engine.start_us + engine.dur_us <= batch.start_us + batch.dur_us + 1,
            "engine ends inside the batch (±1us rounding)"
        );
        assert!(batch.batch_size >= 1, "merged-run size is recorded");
        // Engine-phase children are clamped into the engine window.
        for ph in tree.iter().filter(|s| {
            matches!(
                s.kind,
                SpanKind::PhaseWal | SpanKind::PhaseMemtable | SpanKind::PhaseRead
            )
        }) {
            assert!(ph.start_us >= engine.start_us);
            assert!(ph.start_us + ph.dur_us <= engine.start_us + engine.dur_us);
        }
        for io in tree.iter().filter(|s| s.kind == SpanKind::DeviceIo) {
            assert!(io.start_us >= engine.start_us);
            assert!(io.start_us + io.dur_us <= engine.start_us + engine.dur_us);
        }
    }
    assert!(full_chains >= 10, "only {full_chains} complete span trees");
    assert!(
        spans.iter().any(|s| s.kind == SpanKind::PhaseWal),
        "writes must surface a WAL phase span"
    );
    assert!(
        spans.iter().any(|s| s.kind == SpanKind::PhaseMemtable),
        "writes must surface a MemTable phase span"
    );
    let json = store.export_trace();
    assert!(json.starts_with("{\"traceEvents\":["), "chrome-trace envelope");
    for needle in ["\"queue_wait\"", "\"obm_batch\"", "\"engine\"", "\"ph\":\"X\""] {
        assert!(json.contains(needle), "export missing {needle}");
    }
    store.close();
}

#[test]
fn trace_sampling_zero_disables_and_default_is_sparse() {
    // Head sampling off and a threshold nothing reaches: no spans.
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    opts.trace_sample = 0;
    opts.slow_request_threshold = std::time::Duration::from_secs(3600);
    let store = P2Kvs::open(lsm_factory(), "p2-trace-off", opts).unwrap();
    for i in 0..100 {
        store.put(format!("o{i}").as_bytes(), b"v").unwrap();
    }
    let snap = wait_observed(&store, 100);
    assert!(
        store.trace_spans().is_empty(),
        "nothing sampled, nothing slow"
    );
    assert_eq!(snap.counter("p2kvs_slow_requests_total"), Some(0));
    // The export still carries flight-recorder instants, but no spans.
    assert!(!store.export_trace().contains("\"ph\":\"X\""));
    store.close();

    // Default 1/64: some but far from all requests sampled.
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    let store = P2Kvs::open(lsm_factory(), "p2-trace-def", opts).unwrap();
    for i in 0..640 {
        store.put(format!("d{i}").as_bytes(), b"v").unwrap();
    }
    // Head-sampled ids only: a put that happened to take over a
    // millisecond is kept too, under a tail id.
    let ids: std::collections::HashSet<u64> = store
        .trace_spans()
        .iter()
        .filter(|s| !s.tail_kept())
        .map(|s| s.trace_id)
        .collect();
    assert!(!ids.is_empty(), "1/64 sampling must trace something in 640 ops");
    assert!(ids.len() <= 640 / 64 + 2, "sampled {} of 640", ids.len());
    store.close();
}

#[test]
fn tail_sampling_keeps_the_spans_of_every_slow_group() {
    use p2kvs::SpanKind;
    // Head sampling off, threshold zero: every executed group is slow.
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    opts.cache_capacity = 0;
    opts.trace_sample = 0;
    opts.slow_request_threshold = std::time::Duration::ZERO;
    let store = P2Kvs::open(lsm_factory(), "p2-tail", opts).unwrap();
    for i in 0..300 {
        store.put(format!("s{i:03}").as_bytes(), b"v").unwrap();
    }
    let keys: Vec<Vec<u8>> = (0..64).map(|i| format!("s{i:03}").into_bytes()).collect();
    store.get_many(&keys).unwrap();
    let groups: u64 = store.snapshot().workers.iter().map(|w| w.batches).sum();
    // 300 blocking puts are 300 groups; the 64 keys add one ring entry
    // (and at most one group) per shard they touch.
    assert!(groups > 300);
    let part = p2kvs::HashPartitioner::new(store.shards());
    let touched: std::collections::HashSet<usize> = keys
        .iter()
        .map(|k| p2kvs::Partitioner::shard_of(&part, k))
        .collect();
    let snap = wait_observed(&store, 300 + touched.len() as u64);
    assert_eq!(snap.counter("p2kvs_slow_requests_total"), Some(groups));

    let spans = store.trace_spans();
    assert_eq!(
        spans.len() as u64,
        2 * groups,
        "a pair per group, no children"
    );
    let mut by_id: std::collections::HashMap<u64, Vec<&p2kvs::SpanRecord>> =
        std::collections::HashMap::new();
    for s in &spans {
        assert!(s.tail_kept(), "tail ids only");
        by_id.entry(s.trace_id).or_default().push(s);
    }
    assert_eq!(by_id.len() as u64, groups, "one id per group");
    for tree in by_id.values() {
        let find = |k: SpanKind| tree.iter().find(|s| s.kind == k).expect("the pair");
        let (qw, batch) = (find(SpanKind::QueueWait), find(SpanKind::Batch));
        assert_eq!(
            qw.start_us + qw.dur_us,
            batch.start_us,
            "queue_wait ends at dequeue"
        );
        assert_eq!(
            (qw.worker, qw.shard, qw.batch_id),
            (batch.worker, batch.shard, batch.batch_id)
        );
    }
    // Sized in keys: the puts carry one each, the read groups the 64.
    let keys_kept: u64 = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Batch)
        .map(|s| u64::from(s.batch_size))
        .sum();
    assert_eq!(keys_kept, 364);
    let json = store.export_trace();
    for needle in ["\"queue_wait\"", "\"obm_batch\"", "\"ph\":\"X\""] {
        assert!(json.contains(needle), "export missing {needle}");
    }
    assert!(
        !json.contains("\"engine\""),
        "children stay head-sampled only"
    );
    store.close();
}

#[test]
fn snapshot_metrics_and_introspection_agree_on_a_quiesced_store() {
    // One read of the worker and shard atomics, three renderings. With
    // `batch_max = 1` every group is one request, so the busy clocks
    // and the service histograms must also add up to the same
    // nanosecond: all of them come from one pair of stamps per group.
    let mut opts = P2KvsOptions::with_workers(3);
    opts.pin_workers = false;
    opts.cache_capacity = 0;
    opts.batch_max = 1;
    let store = P2Kvs::open(lsm_factory(), "p2-agree", opts).unwrap();
    for i in 0..200 {
        store.put(format!("a{i:03}").as_bytes(), b"v").unwrap();
    }
    for i in 0..100 {
        store.get(format!("a{i:03}").as_bytes()).unwrap();
    }
    wait_observed(&store, 300);
    let metrics = store.metrics_snapshot();
    let stats = store.snapshot();
    let view = store.introspect();
    assert_eq!(stats.workers.len(), 3);
    assert_eq!(stats.total_ops(), 300);
    for (i, w) in stats.workers.iter().enumerate() {
        let series = |base: &str| format!("{base}{{worker=\"{i}\"}}");
        assert_eq!(
            metrics.counter(&series("p2kvs_worker_ops_total")),
            Some(w.ops)
        );
        assert_eq!(
            metrics.counter(&series("p2kvs_worker_batches_total")),
            Some(w.batches)
        );
        assert_eq!(
            metrics.gauge(&series("p2kvs_worker_busy_seconds")),
            Some(w.busy.as_secs_f64())
        );
        let v = &view.workers[i];
        assert_eq!(
            (v.worker, v.busy, v.queue_depth, v.active_scans, v.live),
            (i, w.busy, w.queue_depth, w.active_scans, w.live)
        );
        assert_eq!(v.shards.len() as u64, w.shards_owned);
    }
    for (s, shard) in stats.shards.iter().enumerate() {
        let series = |base: &str| format!("{base}{{shard=\"{s}\"}}");
        assert_eq!(
            metrics.counter(&series("p2kvs_shard_ops_total")),
            Some(shard.ops)
        );
        assert_eq!(
            metrics.gauge(&series("p2kvs_shard_busy_seconds")),
            Some(shard.busy.as_secs_f64())
        );
        assert_eq!(view.shard_owners[s], shard.owner);
    }
    assert_eq!(view.migrations, stats.migrations);
    let worker_busy: u128 = stats.workers.iter().map(|w| w.busy.as_nanos()).sum();
    let shard_busy: u128 = stats.shards.iter().map(|s| s.busy.as_nanos()).sum();
    let service: u128 = metrics
        .histograms_of("p2kvs_service_ns")
        .iter()
        .map(|(_, h)| h.sum)
        .sum();
    assert!(worker_busy > 0);
    assert_eq!(worker_busy, shard_busy);
    assert_eq!(worker_busy, service);
    store.close();
}

#[test]
fn introspection_reports_map_and_worker_state() {
    let mut opts = P2KvsOptions::paper_layout(2);
    opts.pin_workers = false;
    let store = P2Kvs::open(lsm_factory(), "p2-intro", opts).unwrap();
    for i in 0..100 {
        store.put(format!("i{i}").as_bytes(), b"v").unwrap();
    }
    let view = store.introspect();
    assert_eq!(view.shard_owners, vec![0, 1]);
    assert_eq!(view.workers.len(), 2);
    assert_eq!(view.workers[0].shards, vec![0]);
    assert_eq!(view.workers[1].shards, vec![1]);
    assert!(!view.balancer_active);
    assert_eq!(view.migrations, 0);
    let epoch0 = view.map_epoch;
    store.migrate_shard(0, 1).unwrap();
    let view = store.introspect();
    assert_eq!(view.shard_owners, vec![1, 1], "the map reflects the migration");
    assert!(view.map_epoch > epoch0, "migration bumps the epoch");
    assert_eq!(view.workers[0].shards, Vec::<usize>::new());
    assert_eq!(view.workers[1].shards, vec![0, 1]);
    assert_eq!(view.migrations, 1);
    assert!(view.flight_last_seq > 0, "the flight recorder saw the handoff");
    assert!(view.trace_spans_recorded > 0, "default sampling recorded spans");
    store.close();
}

#[test]
fn introspect_never_waits_on_a_migration_or_a_resize() {
    // Regression: `introspect` used to take the balancer state lock
    // while holding a map pin, and a migration holds that lock while it
    // waits for every pin to drop — one poller against one migrator
    // deadlocked the store within a second. A watchdog fails the test
    // instead of hanging it.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;
    const ITERS: usize = 1000;
    const SHARDS: usize = 4;
    let mut opts = P2KvsOptions::with_workers(2);
    opts.shards = SHARDS;
    opts.pin_workers = false;
    let store = Arc::new(P2Kvs::open(lsm_factory(), "p2-intro-race", opts).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    let (finished, watchdog) = mpsc::channel();

    let poller = {
        let (store, stop, finished) = (store.clone(), stop.clone(), finished.clone());
        std::thread::spawn(move || {
            let mut polls = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let view = store.introspect();
                assert_eq!(view.shard_owners.len(), SHARDS);
                assert_eq!(view.last_sample_busy_ns.len(), SHARDS);
                polls += 1;
            }
            finished.send("poller").unwrap();
            polls
        })
    };
    let migrator = {
        let (store, finished) = (store.clone(), finished.clone());
        std::thread::spawn(move || {
            for i in 0..ITERS {
                // Worker 1 comes and goes with the scaler; a move onto a
                // retired slot is refused, never stuck.
                let target = i % 2;
                if let Err(e) = store.migrate_shard(i % SHARDS, target) {
                    assert_eq!(target, 1, "migration to the permanent worker failed: {e}");
                }
            }
            finished.send("migrator").unwrap();
        })
    };
    let scaler = {
        let (store, finished) = (store.clone(), finished.clone());
        std::thread::spawn(move || {
            for i in 0..ITERS {
                assert_eq!(store.scale_workers(1 + i % 2).unwrap(), 1 + i % 2);
            }
            finished.send("scaler").unwrap();
        })
    };
    for _ in 0..2 {
        watchdog
            .recv_timeout(Duration::from_secs(30))
            .expect("migrate × scale × introspect did not finish in 30 s: deadlock");
    }
    stop.store(true, Ordering::Relaxed);
    watchdog
        .recv_timeout(Duration::from_secs(30))
        .expect("the introspect poller is stuck");
    migrator.join().unwrap();
    scaler.join().unwrap();
    assert!(poller.join().unwrap() > 0);
    let view = store.introspect();
    assert!(view.migrations > 0, "no migration ever ran");
    assert!(view.workers.iter().filter(|w| w.live).count() >= 1);
}

#[test]
fn flight_recorder_persists_and_recovers_gap_free() {
    use p2kvs::JournalKind;
    let engine_opts = lsmkv::Options::for_test();
    let mut opts = P2KvsOptions::with_workers(2);
    opts.pin_workers = false;
    let store = P2Kvs::open(
        LsmFactory::new(engine_opts.clone()),
        "p2-flight",
        opts.clone(),
    )
    .unwrap();
    for i in 0..50 {
        store.put(format!("f{i}").as_bytes(), b"v").unwrap();
    }
    store.migrate_shard(0, 1).unwrap();
    store
        .write_batch(vec![
            WriteOp::Put { key: b"a".to_vec(), value: b"1".to_vec() },
            WriteOp::Put { key: b"zz".to_vec(), value: b"2".to_vec() },
        ])
        .unwrap();
    let live = store.flight_records(usize::MAX);
    for kind in [JournalKind::StoreOpen, JournalKind::HandoffOut, JournalKind::ShardInstall] {
        assert!(live.iter().any(|r| r.kind == kind), "live journal missing {kind:?}");
    }
    store.close();

    // Reopen over the same env: the journal survives, gap-free, with
    // open/close bracketing and the handoff evidence intact, and the
    // new incarnation continues the sequence without reusing numbers.
    let store2 = P2Kvs::open(LsmFactory::new(engine_opts), "p2-flight", opts).unwrap();
    let recovered = store2.recovered_flight_records().to_vec();
    assert!(!recovered.is_empty(), "FLIGHT.log must be recovered");
    assert_eq!(
        p2kvs::obs::sequence_gap(&recovered),
        None,
        "recovered journal must be gap-free"
    );
    for kind in [
        JournalKind::StoreOpen,
        JournalKind::StoreClose,
        JournalKind::HandoffOut,
        JournalKind::ShardInstall,
        JournalKind::TxnCommit,
    ] {
        assert!(
            recovered.iter().any(|r| r.kind == kind),
            "recovered journal missing {kind:?}"
        );
    }
    let last_recovered = recovered.last().unwrap().seq;
    let all = store2.flight_records(usize::MAX);
    let reopen = all
        .iter()
        .find(|r| r.kind == JournalKind::StoreOpen && r.seq > last_recovered)
        .expect("the reopen is journaled");
    assert_eq!(reopen.seq, last_recovered + 1, "sequence continues across restart");
    assert_eq!(p2kvs::obs::sequence_gap(&all), None, "ring spans the restart seam");
    store2.close();
}

#[test]
fn scan_gauge_is_conserved_across_migration_and_iterator_drop() {
    let mut opts = P2KvsOptions::paper_layout(2);
    opts.pin_workers = false;
    opts.scan_chunk_entries = 4;
    let store = P2Kvs::open(lsm_factory(), "p2-scan-gauge", opts).unwrap();
    for i in 0..200 {
        store.put(format!("sg{i:03}").as_bytes(), b"v").unwrap();
    }
    let mut iter = store.iter().unwrap();
    for _ in 0..3 {
        iter.next_entry().unwrap().unwrap();
    }
    let active = |s: &P2Kvs<lsmkv::Db>| -> u64 {
        s.snapshot().workers.iter().map(|w| w.active_scans).sum()
    };
    let parked = active(&store);
    assert!(parked >= 1, "the streaming iterator parks cursors");
    assert!(parked < 1 << 60, "gauge must never underflow");
    // Ownership moves; the parked cursors travel and the gauge total is
    // conserved — debited at the source exactly once, credited at the
    // target exactly once.
    store.migrate_shard(0, 1).unwrap();
    store.migrate_shard(1, 0).unwrap();
    assert_eq!(active(&store), parked, "migration conserves the scan gauge");
    for _ in 0..3 {
        iter.next_entry().unwrap().unwrap();
    }
    drop(iter);
    wait_no_active_scans(&store);
    store.close();
}

/// An lsmkv instance whose `put` of the value `b"hold"` parks inside
/// the engine call until the test releases it: the way to keep a worker
/// busy, and everything behind the call in its ring waiting, for as long
/// as a test needs.
struct GatedDb(lsmkv::Db, Arc<Gate>);

#[derive(Default)]
struct Gate {
    /// (a put is inside the gate, the gate is open)
    state: std::sync::Mutex<(bool, bool)>,
    changed: std::sync::Condvar,
}

impl Gate {
    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 = true;
        self.changed.notify_all();
        let _open = self.changed.wait_while(state, |s| !s.1).unwrap();
    }

    fn wait_entered(&self) {
        let state = self.state.lock().unwrap();
        let _inside = self.changed.wait_while(state, |s| !s.0).unwrap();
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

impl KvsEngine for GatedDb {
    fn put(&self, key: &[u8], value: &[u8]) -> p2kvs::Result<()> {
        if value == b"hold" {
            self.1.pass();
        }
        KvsEngine::put(&self.0, key, value)
    }
    fn delete(&self, key: &[u8]) -> p2kvs::Result<()> {
        KvsEngine::delete(&self.0, key)
    }
    fn write_batch(&self, ops: &[WriteOp], gsn: u64) -> p2kvs::Result<()> {
        KvsEngine::write_batch(&self.0, ops, gsn)
    }
    fn get(&self, key: &[u8]) -> p2kvs::Result<Option<Vec<u8>>> {
        KvsEngine::get(&self.0, key)
    }
    fn scan(&self, start: &[u8], count: usize) -> p2kvs::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        KvsEngine::scan(&self.0, start, count)
    }
    fn range(&self, begin: &[u8], end: &[u8]) -> p2kvs::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        KvsEngine::range(&self.0, begin, end)
    }
    fn capabilities(&self) -> Capabilities {
        KvsEngine::capabilities(&self.0)
    }
    fn sync(&self) -> p2kvs::Result<()> {
        KvsEngine::sync(&self.0)
    }
    fn mem_usage(&self) -> usize {
        KvsEngine::mem_usage(&self.0)
    }
}

struct GatedFactory(LsmFactory, Arc<Gate>);

impl EngineFactory for GatedFactory {
    type Engine = GatedDb;

    fn open(&self, dir: &std::path::Path, filter: Option<GsnFilter>) -> p2kvs::Result<GatedDb> {
        Ok(GatedDb(self.0.open(dir, filter)?, self.1.clone()))
    }

    fn env(&self) -> EnvRef {
        self.0.env()
    }
}

#[test]
fn requests_stashed_during_a_migration_are_observed_like_any_other() {
    // Regression: the incoming owner replayed its stash through a bare
    // execute loop, so the requests a migration delayed the most were
    // missing from the latency histograms (and could never be kept as
    // slow spans), and their service time reached the shard's busy
    // clock but not the worker's.
    use std::time::{Duration, Instant};
    let gate = Arc::new(Gate::default());
    let mut opts = P2KvsOptions::paper_layout(2);
    opts.pin_workers = false;
    opts.batch_max = 1; // one request per group: busy sums are exact
    let factory = GatedFactory(lsm_factory(), gate.clone());
    let store = Arc::new(P2Kvs::open(factory, "p2-stash", opts).unwrap());
    let shard0 = p2kvs::HashPartitioner::new(2);
    let keys: Vec<Vec<u8>> = (0..)
        .map(|i| format!("st{i}").into_bytes())
        .filter(|k| p2kvs::Partitioner::shard_of(&shard0, k) == 0)
        .take(8)
        .collect();
    let until = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    };
    // Worker 0 parks inside an engine call on shard 0 …
    let holder = {
        let (store, key) = (store.clone(), keys[0].clone());
        std::thread::spawn(move || store.put(&key, b"hold").unwrap())
    };
    gate.wait_entered();
    // … so the migration's HandoffOut waits behind it, the map already
    // pointing at worker 1 …
    let migrator = {
        let store = store.clone();
        std::thread::spawn(move || store.migrate_shard(0, 1).unwrap())
    };
    until("the map was never published", &|| {
        store.shard_owners()[0] == 1
    });
    // … and everything sent to shard 0 now is stashed on worker 1.
    let (acked, acks) = std::sync::mpsc::channel();
    for key in &keys[1..] {
        let acked = acked.clone();
        store
            .put_async(key, b"new", move |r| acked.send(r).unwrap())
            .unwrap();
    }
    let reader = {
        let (store, key) = (store.clone(), keys[1].clone());
        std::thread::spawn(move || store.get(&key).unwrap())
    };
    let stashed = keys.len() as u64; // seven writes and the read
    until("worker 1 never stashed the new-epoch requests", &|| {
        store.snapshot().workers[1].stashed == stashed
    });
    gate.open();
    holder.join().unwrap();
    migrator.join().unwrap();
    for _ in &keys[1..] {
        acks.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
    }
    assert_eq!(
        reader.join().unwrap().as_deref(),
        Some(&b"new"[..]),
        "the stash replays in arrival order: the read follows the write"
    );
    // Every request was observed, replayed or not …
    let requests = 1 + stashed;
    let metrics = wait_observed(&store, requests);
    let stats = store.snapshot();
    assert_eq!(stats.total_ops(), requests);
    assert_eq!(
        metrics.counter("p2kvs_worker_stashed_total{worker=\"1\"}"),
        Some(stashed)
    );
    // … and charged to its worker as well as to its shard.
    let worker_busy: u128 = stats.workers.iter().map(|w| w.busy.as_nanos()).sum();
    let shard_busy: u128 = stats.shards.iter().map(|s| s.busy.as_nanos()).sum();
    assert_eq!(worker_busy, shard_busy);
    assert_eq!(stats.migrations, 1);
}

/// A store over a device whose reads cost `read` each and whose writes
/// and syncs are free, with no block cache and no read cache: every
/// `get_many` reads one block per shard it touches.
fn slow_read_store(
    dir: &str,
    mut opts: P2KvsOptions,
    read: Duration,
) -> (P2Kvs<lsmkv::Db>, EnvRef) {
    let mut profile = p2kvs_storage::DeviceProfile::nvme_optane();
    profile.read_latency = read;
    profile.read_bw = u64::MAX;
    profile.write_latency = Duration::ZERO;
    profile.write_bw = u64::MAX;
    profile.sync_latency = Duration::ZERO;
    let env: EnvRef = Arc::new(p2kvs_storage::SimEnv::with_profile(profile));
    let mut engine = lsmkv::Options::rocksdb_like(env.clone());
    engine.block_cache_size = 0;
    opts.pin_workers = false;
    opts.cache_capacity = 0;
    let store = P2Kvs::open(LsmFactory::new(engine), dir, opts).unwrap();
    (store, env)
}

/// 64 keys (their own values), flushed to one table per shard.
fn load_flushed(store: &P2Kvs<lsmkv::Db>) -> Vec<Vec<u8>> {
    let keys: Vec<Vec<u8>> = (0..64).map(|i| format!("ov-{i:02}").into_bytes()).collect();
    for k in &keys {
        store.put(k, k).unwrap();
    }
    for e in store.engines() {
        e.flush().unwrap();
    }
    keys
}

fn overlap_saved(store: &P2Kvs<lsmkv::Db>) -> Duration {
    store
        .snapshot()
        .workers
        .iter()
        .map(|w| w.io_overlap_saved)
        .sum()
}

#[test]
fn a_worker_overlaps_the_reads_of_the_shards_in_one_drained_run() {
    // One worker owns four shards. Each `get_many` below (32 keys, one
    // OBM run) reads one block per shard; the worker runs the four groups
    // as overlapped chains and pays one read latency per call, not four.
    const READ: Duration = Duration::from_millis(5);
    const CALLS: u32 = 4;
    let mut opts = P2KvsOptions::with_workers(1);
    opts.shards = 4;
    let (store, _env) = slow_read_store("p2-overlap", opts, READ);
    let keys = load_flushed(&store);
    let (call, want): (&[Vec<u8>], Vec<_>) =
        (&keys[..32], keys[..32].iter().cloned().map(Some).collect());
    // Warm-up: opens every table. The single-shard `get` returns only
    // after the warm-up's wait is paid, and the pause lets the worker
    // park, so each call's entries drain as one run.
    assert_eq!(store.get_many(call).unwrap(), want);
    store.get(&keys[0]).unwrap();
    std::thread::sleep(Duration::from_millis(1));
    let before = store.snapshot();
    let t0 = std::time::Instant::now();
    for _ in 0..CALLS {
        assert_eq!(store.get_many(call).unwrap(), want);
    }
    // Queued behind the last call's wait, then one read of its own.
    store.get(&keys[0]).unwrap();
    let elapsed = t0.elapsed();
    // The worker books a group's busy time just after its reply leaves;
    // once it has, worker busy time is exactly the sum of its shards', the
    // runs' one waits included.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let after = loop {
        let s = store.snapshot();
        if s.workers[0].busy == s.shards.iter().map(|sh| sh.busy).sum::<Duration>() {
            break s;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "worker busy never matched its shards'"
        );
        std::thread::yield_now();
    };
    assert!(
        after
            .shards
            .iter()
            .zip(&before.shards)
            .all(|(a, b)| a.ops > b.ops),
        "the calls touch every shard"
    );
    // CALLS + 1 latencies overlapped; 4 × CALLS + 1 serially.
    assert!(elapsed < 2 * (CALLS + 1) * READ, "{elapsed:?}");
    let saved = after.workers[0].io_overlap_saved - before.workers[0].io_overlap_saved;
    assert!(saved >= CALLS * READ, "saved {saved:?}");
    // The one wait per run is busy time, on the worker and on the shards:
    // at least one latency per call (less the sleep credit the device
    // model carries, at most 2 ms).
    let busy = after.workers[0].busy - before.workers[0].busy;
    assert!(busy >= CALLS * READ - READ / 2, "busy {busy:?}");
    let shard_busy: Duration = after
        .shards
        .iter()
        .zip(&before.shards)
        .map(|(a, b)| a.busy - b.busy)
        .sum();
    assert!(
        shard_busy >= CALLS * READ - READ / 2,
        "shard busy {shard_busy:?}"
    );
    // The saving is exported and introspectable.
    let total = after.workers[0].io_overlap_saved;
    assert_eq!(
        store
            .metrics_snapshot()
            .gauge("p2kvs_worker_io_overlap_saved_seconds_total{worker=\"0\"}"),
        Some(total.as_secs_f64())
    );
    assert_eq!(store.introspect().workers[0].io_overlap_saved, total);
}

#[test]
fn under_the_paper_layout_a_get_many_never_overlaps_inside_a_worker() {
    // One shard per worker: every drained run is one group.
    let (store, _env) = slow_read_store(
        "p2-overlap-paper",
        P2KvsOptions::paper_layout(4),
        Duration::from_millis(1),
    );
    let keys = load_flushed(&store);
    let want: Vec<_> = keys.iter().cloned().map(Some).collect();
    for _ in 0..3 {
        assert_eq!(store.get_many(&keys).unwrap(), want);
    }
    store.get(&keys[0]).unwrap();
    assert_eq!(overlap_saved(&store), Duration::ZERO);
}

#[test]
fn scan_txn_and_backup_answer_alike_with_and_without_overlapped_runs() {
    // The same calls on a store whose worker overlaps multi-shard runs
    // (timed device) and on one that never does (untimed env). Scans,
    // cross-shard batches and backup markers are Solo runs: they never
    // overlap, and they answer byte for byte alike.
    let layout = || {
        let mut opts = P2KvsOptions::with_workers(1);
        opts.shards = 4;
        opts
    };
    let (timed, timed_env) = slow_read_store("p2-solo", layout(), Duration::from_millis(1));
    let untimed_env: EnvRef = Arc::new(MemEnv::new());
    let mut engine = lsmkv::Options::rocksdb_like(untimed_env.clone());
    engine.block_cache_size = 0;
    let untimed = P2Kvs::open(
        LsmFactory::new(engine),
        "p2-solo",
        P2KvsOptions {
            pin_workers: false,
            cache_capacity: 0,
            ..layout()
        },
    )
    .unwrap();
    let run = |store: &P2Kvs<lsmkv::Db>, env: &EnvRef| {
        let keys = load_flushed(store);
        let scan = store.scan(b"", 100).unwrap();
        let range = store.range(b"ov-10", b"ov-40").unwrap();
        store
            .write_batch(vec![
                WriteOp::Put {
                    key: keys[3].clone(),
                    value: b"three".to_vec(),
                },
                WriteOp::Put {
                    key: keys[40].clone(),
                    value: b"forty".to_vec(),
                },
                WriteOp::Delete {
                    key: keys[17].clone(),
                },
            ])
            .unwrap();
        let report = store.backup("p2-solo-bk").unwrap().wait().unwrap();
        let dir = std::path::Path::new("p2-solo-bk");
        let snaps: Vec<Vec<u8>> = env
            .list_dir(dir)
            .unwrap()
            .into_iter()
            .filter(|name| name.to_string_lossy().ends_with(".snap"))
            .map(|name| p2kvs_storage::env::read_all(&**env, &dir.join(name)).unwrap())
            .collect();
        let solo_saved = overlap_saved(store);
        let reads = store.get_many(&keys).unwrap();
        (
            (scan, range, report.entries, report.bytes, snaps, reads),
            solo_saved,
        )
    };
    let (timed_out, timed_solo_saved) = run(&timed, &timed_env);
    let (untimed_out, _) = run(&untimed, &untimed_env);
    assert_eq!(timed_out, untimed_out);
    assert_eq!(timed_out.0.len(), 64);
    assert_eq!(timed_out.4.len(), 4);
    assert_eq!(timed_solo_saved, Duration::ZERO, "a Solo run overlapped");
    // The final multi-shard read did overlap on the timed store only
    // (this `get` queues behind the wait that run closes with).
    timed.get(b"ov-00").unwrap();
    assert!(overlap_saved(&timed) > Duration::ZERO);
    assert_eq!(overlap_saved(&untimed), Duration::ZERO);
}
