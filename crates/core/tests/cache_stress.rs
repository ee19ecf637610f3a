//! Stress and allocation tests for the lock-free hot-record read cache.
//!
//! These exercise the guarantees the cache layer claims on top of the
//! 2D framework:
//!
//! * a cache **hit** completes on the calling thread with exactly one
//!   heap allocation — the returned value bytes (verified with a
//!   counting global allocator, same pattern as `queue_stress`);
//! * **read-your-writes** holds through the cache under concurrent
//!   writers, readers, and shard migrations: an acked `put` is visible
//!   to the writer's next `get`, and readers never observe a per-key
//!   version going backwards;
//! * the **byte budget** is enforced by CLOCK eviction without ever
//!   serving a stale or corrupt value.
//!
//! CI additionally runs this file under `--release` to shake out
//! orderings the debug interleavings miss.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, P2KvsOptions};
use p2kvs_util::rng::Rng;

// ---------------------------------------------------------------------------
// Counting allocator (active only on threads that opt in)
// ---------------------------------------------------------------------------

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn open_cached(workers: usize, cache_capacity: usize) -> P2Kvs<lsmkv::Db> {
    let mut opts = P2KvsOptions::with_workers(workers);
    opts.pin_workers = false;
    opts.cache_capacity = cache_capacity;
    P2Kvs::open(
        LsmFactory::new(lsmkv::Options::for_test()),
        "cache-stress",
        opts,
    )
    .unwrap()
}

// ---------------------------------------------------------------------------
// Zero-overhead hit path
// ---------------------------------------------------------------------------

/// A cache hit performs exactly one heap allocation: the `Vec<u8>`
/// handed back to the caller. Probing, tag checks, the epoch pin, the
/// CLOCK reference bit, trace sampling, and the counters are all
/// allocation-free.
#[test]
fn cache_hits_allocate_only_the_value() {
    const HITS: usize = 256;
    let store = open_cached(2, 4 << 20);
    store.put(b"hot-key", &[7u8; 64]).unwrap();

    // Warm up: the first get is a miss that marks the doorkeeper, the
    // second is a miss that fills the cache, and the third pins this
    // thread's epoch slot (first pin registers TLS) and confirms the
    // entry is resident.
    assert_eq!(store.get(b"hot-key").unwrap().unwrap(), vec![7u8; 64]);
    assert_eq!(store.get(b"hot-key").unwrap().unwrap(), vec![7u8; 64]);
    assert_eq!(store.get(b"hot-key").unwrap().unwrap().len(), 64);
    let warm = store.metrics_snapshot();
    assert!(warm.counter("p2kvs_cache_hits").unwrap() >= 1, "not warm");

    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    for _ in 0..HITS {
        let v = store.get(b"hot-key").unwrap().unwrap();
        assert_eq!(v.len(), 64);
    }
    COUNTING.with(|c| c.set(false));

    assert_eq!(
        ALLOCS.load(Ordering::Relaxed),
        HITS,
        "hit path must allocate exactly the returned value"
    );
    let snap = store.metrics_snapshot();
    assert!(
        snap.counter("p2kvs_cache_hits").unwrap()
            >= warm.counter("p2kvs_cache_hits").unwrap() + HITS as u64,
        "measured loop was not served from the cache"
    );
}

// ---------------------------------------------------------------------------
// Coherence under concurrent writers, readers, and migrations
// ---------------------------------------------------------------------------

/// Writers own disjoint key ranges and bump a per-key version each
/// round; after every acked `put` the writer immediately re-reads the
/// key and must see its own write (the ack invalidates the cache before
/// completing). Readers assert per-key versions never go backwards
/// (a stale cached value would). A migrator thread shuffles shard
/// ownership the whole time, forcing cache flushes on both halves of
/// every handoff.
#[test]
fn concurrent_reads_writes_and_migrations_stay_coherent() {
    const WRITERS: usize = 2;
    const KEYS_PER_WRITER: usize = 48;
    const ROUNDS: u64 = 20;
    const READERS: usize = 2;
    const READS: usize = 2_500;

    let store = Arc::new(open_cached(4, 256 << 10));
    let stop = Arc::new(AtomicBool::new(false));

    let key_of = |w: usize, i: usize| format!("w{w}-k{i:03}").into_bytes();

    // Seed every key at version 0 so readers never hit a missing key.
    for w in 0..WRITERS {
        for i in 0..KEYS_PER_WRITER {
            store.put(&key_of(w, i), b"00000000").unwrap();
        }
    }

    let migrator = {
        let store = store.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            let workers = store.workers();
            let mut rot = 1usize;
            let mut moves = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for s in 0..store.shards() {
                    if store.migrate_shard(s, (s + rot) % workers).is_ok() {
                        moves += 1;
                    }
                }
                rot += 1;
                thread::sleep(std::time::Duration::from_millis(2));
            }
            moves
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = store.clone();
            thread::spawn(move || {
                for round in 1..=ROUNDS {
                    for i in 0..KEYS_PER_WRITER {
                        let key = key_of(w, i);
                        let val = format!("{round:08}").into_bytes();
                        store.put(&key, &val).unwrap();
                        // Read-your-writes: nobody else writes this key,
                        // so the ack means this exact version is visible.
                        let got = store.get(&key).unwrap().unwrap();
                        assert_eq!(got, val, "writer {w} lost its own write to {i}");
                    }
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let store = store.clone();
            thread::spawn(move || {
                let mut rng = Rng::new(0x9E3779B9u64.wrapping_mul(r as u64 + 1));
                let mut last_seen: HashMap<(usize, usize), u64> = HashMap::new();
                for _ in 0..READS {
                    let w = rng.below(WRITERS as u64) as usize;
                    let i = rng.below(KEYS_PER_WRITER as u64) as usize;
                    let v = store.get(&key_of(w, i)).unwrap().unwrap();
                    let version: u64 = std::str::from_utf8(&v).unwrap().parse().unwrap();
                    let floor = last_seen.entry((w, i)).or_insert(0);
                    assert!(
                        version >= *floor,
                        "key w{w}-k{i} went backwards: {version} after {floor}"
                    );
                    *floor = version;
                }
            })
        })
        .collect();

    for h in writers {
        h.join().unwrap();
    }
    for h in readers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let moves = migrator.join().unwrap();
    assert!(moves > 0, "migrator never migrated — test lost its teeth");

    // Final model: every key holds its last written version, read both
    // through the cache and (after the first read refills) from it.
    for w in 0..WRITERS {
        for i in 0..KEYS_PER_WRITER {
            let want = format!("{ROUNDS:08}").into_bytes();
            assert_eq!(store.get(&key_of(w, i)).unwrap().unwrap(), want);
            assert_eq!(store.get(&key_of(w, i)).unwrap().unwrap(), want);
        }
    }
    let snap = store.metrics_snapshot();
    assert!(snap.counter("p2kvs_cache_invalidations").unwrap() > 0);
    assert!(snap.counter("p2kvs_cache_hits").unwrap() > 0);
    // The routing fence: no worker ever had to forward a request for a
    // shard it had already handed away.
    let rerouted: u64 = store.snapshot().workers.iter().map(|w| w.rerouted).sum();
    assert_eq!(rerouted, 0, "a request was routed under a displaced map");
}

// ---------------------------------------------------------------------------
// Byte budget under pressure
// ---------------------------------------------------------------------------

/// A working set ~3× the cache budget forces CLOCK eviction; every read
/// still returns the correct bytes and the resident-bytes gauge stays
/// under the configured capacity.
#[test]
fn eviction_under_pressure_preserves_correctness() {
    const KEYS: usize = 192;
    let store = open_cached(2, 64 << 10);
    let value_of = |i: usize| {
        let mut v = vec![0u8; 1024];
        v[..8].copy_from_slice(&(i as u64).to_le_bytes());
        v
    };
    for i in 0..KEYS {
        store.put(format!("big{i:04}").as_bytes(), &value_of(i)).unwrap();
    }
    for pass in 0..2 {
        for i in 0..KEYS {
            let v = store.get(format!("big{i:04}").as_bytes()).unwrap().unwrap();
            assert_eq!(v, value_of(i), "pass {pass} key {i}");
        }
    }
    let snap = store.metrics_snapshot();
    assert!(
        snap.counter("p2kvs_cache_evictions").unwrap() > 0,
        "working set never overflowed the budget"
    );
    let bytes = snap.gauge("p2kvs_cache_bytes").unwrap();
    assert!(
        bytes <= (64 << 10) as f64,
        "resident bytes {bytes} exceed the configured budget"
    );
    assert!(snap.counter("p2kvs_cache_fills").unwrap() > 0);
}
