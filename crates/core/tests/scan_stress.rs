//! Release-mode stress of the streaming scan subsystem: long scans,
//! writers, and point readers hammering one store concurrently.
//!
//! Invariants exercised:
//!
//! * every scan yields strictly increasing keys (sorted, no duplicates)
//!   no matter how much churn runs beside it;
//! * a scan over the lsmkv backend is snapshot-consistent: all keys
//!   preloaded before any scanner starts are present in every drain;
//! * point reads keep completing (and succeeding) while large scans are
//!   in flight — the cooperative chunking means no reader can be starved
//!   behind a scan;
//! * every parked cursor is released once the iterators are gone.
//!
//! CI runs this file under `--release`; the op counts are sized so the
//! debug build still finishes in seconds on one core.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

use p2kvs::engine::LsmFactory;
use p2kvs::{KvsEngine, P2Kvs, P2KvsOptions};

const PRELOAD: usize = if cfg!(debug_assertions) { 1_500 } else { 6_000 };
const DRAINS_PER_SCANNER: usize = if cfg!(debug_assertions) { 4 } else { 10 };
const WRITES_PER_WRITER: usize = if cfg!(debug_assertions) { 1_000 } else { 4_000 };

fn open_store(workers: usize) -> P2Kvs<lsmkv::Db> {
    let opts = P2KvsOptions::with_workers(workers);
    P2Kvs::open(
        LsmFactory::new(lsmkv::Options::for_test()),
        "scan-stress",
        opts,
    )
    .unwrap()
}

fn wait_no_active_scans<E: KvsEngine>(store: &P2Kvs<E>) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let active: u64 = store
            .snapshot()
            .workers
            .iter()
            .map(|w| w.active_scans)
            .sum();
        if active == 0 {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "parked cursors were never released ({active} still active)"
        );
        thread::yield_now();
    }
}

#[test]
fn scanners_writers_and_point_readers_interleave() {
    let store = open_store(4);
    for i in 0..PRELOAD {
        store
            .put(format!("base{i:06}").as_bytes(), b"seed")
            .unwrap();
    }

    let stop = AtomicBool::new(false);
    let new_written = AtomicUsize::new(0);
    let point_reads = AtomicUsize::new(0);

    thread::scope(|s| {
        // Two full-store scanners: one entry-at-a-time, one paginated.
        for paginate in [false, true] {
            let store = &store;
            let stop = &stop;
            s.spawn(move || {
                for _ in 0..DRAINS_PER_SCANNER {
                    let mut it = store.iter().unwrap();
                    let mut last: Option<Vec<u8>> = None;
                    let mut base_seen = 0usize;
                    loop {
                        let batch = if paginate {
                            it.next_chunk(97).unwrap()
                        } else {
                            match it.next_entry().unwrap() {
                                Some(e) => vec![e],
                                None => Vec::new(),
                            }
                        };
                        if batch.is_empty() {
                            break;
                        }
                        for (k, _) in batch {
                            if let Some(prev) = &last {
                                assert!(*prev < k, "scan went backwards or duplicated a key");
                            }
                            if k.starts_with(b"base") {
                                base_seen += 1;
                            }
                            last = Some(k);
                        }
                    }
                    // lsmkv cursors are snapshot-consistent, so every
                    // preloaded key is visible in every drain regardless
                    // of the concurrent churn.
                    assert_eq!(base_seen, PRELOAD, "snapshot lost preloaded keys");
                }
                stop.store(true, Ordering::Release);
            });
        }

        // Two writers: fresh inserts plus overwrites of the preload.
        for w in 0..2usize {
            let store = &store;
            let new_written = &new_written;
            s.spawn(move || {
                for i in 0..WRITES_PER_WRITER {
                    store
                        .put(format!("new{w}-{i:06}").as_bytes(), b"fresh")
                        .unwrap();
                    new_written.fetch_add(1, Ordering::Relaxed);
                    store
                        .put(format!("base{:06}", i % PRELOAD).as_bytes(), b"overwritten")
                        .unwrap();
                }
            });
        }

        // Two point readers: every preloaded key must stay readable while
        // the scans run (chunked execution means no starvation).
        for r in 0..2usize {
            let store = &store;
            let stop = &stop;
            let point_reads = &point_reads;
            s.spawn(move || {
                let mut i = r;
                while !stop.load(Ordering::Acquire) {
                    let key = format!("base{:06}", i % PRELOAD);
                    assert!(
                        store.get(key.as_bytes()).unwrap().is_some(),
                        "preloaded key {key} vanished mid-run"
                    );
                    point_reads.fetch_add(1, Ordering::Relaxed);
                    i += 7;
                }
            });
        }
    });

    assert!(point_reads.load(Ordering::Relaxed) > 0, "readers never ran");
    wait_no_active_scans(&store);

    // Quiescent final drain: exactly the preload plus everything written.
    let total = store
        .iter()
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap()
        .len();
    assert_eq!(total, PRELOAD + new_written.load(Ordering::Relaxed));
}

#[test]
fn bounded_range_scans_stay_bounded_under_churn() {
    let store = open_store(4);
    for i in 0..PRELOAD {
        store.put(format!("r{i:06}").as_bytes(), b"seed").unwrap();
    }
    let lo = PRELOAD / 4;
    let hi = 3 * PRELOAD / 4;
    let begin = format!("r{lo:06}").into_bytes();
    let end = format!("r{hi:06}").into_bytes();

    thread::scope(|s| {
        let writer = {
            let store = &store;
            s.spawn(move || {
                for i in 0..WRITES_PER_WRITER {
                    // Churn both inside and outside the scanned window.
                    store
                        .put(format!("q{i:06}").as_bytes(), b"outside")
                        .unwrap();
                    store
                        .put(format!("r{:06}", lo + i % (hi - lo)).as_bytes(), b"inside")
                        .unwrap();
                }
            })
        };
        for _ in 0..DRAINS_PER_SCANNER {
            let entries: Vec<_> = store
                .iter_range(&begin, &end)
                .unwrap()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(entries.len(), hi - lo, "range drain missed or grew keys");
            assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(entries.iter().all(|(k, _)| *k >= begin && *k < end));
        }
        writer.join().unwrap();
    });

    wait_no_active_scans(&store);
}

#[test]
fn dropped_iterators_release_cursors_mid_scan() {
    let store = open_store(2);
    for i in 0..PRELOAD {
        store.put(format!("d{i:06}").as_bytes(), b"v").unwrap();
    }
    // Open many iterators, consume a few entries, drop them mid-stream.
    for round in 0..20 {
        let mut it = store.iter().unwrap();
        for _ in 0..=round {
            it.next_entry().unwrap();
        }
        drop(it);
    }
    wait_no_active_scans(&store);
    // The store still works end to end afterwards.
    assert_eq!(
        store
            .iter()
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
            .len(),
        PRELOAD
    );
}
