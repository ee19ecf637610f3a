//! Stress and allocation tests for the lock-free accessing layer.
//!
//! These exercise exactly the guarantees the framework relies on:
//!
//! * every request whose `push` returned `Ok` completes **exactly once**,
//!   even when `close()` races producers mid-stream;
//! * OBM batches never cross a request-class boundary and never exceed
//!   the bound `M`;
//! * a full ring applies backpressure (bounded depth) instead of growing;
//! * the steady-state consumer loop performs **zero heap allocations**
//!   (verified with a counting global allocator);
//! * pooled completion slots are actually recycled.
//!
//! The tests drive `RequestQueue` directly (no engine) so they isolate
//! the accessing layer; CI additionally runs this file under `--release`
//! to shake out orderings the debug interleavings miss.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use p2kvs::queue::{PushError, RequestQueue};
use p2kvs::types::{Completion, Op, Request, Response};
use p2kvs_storage::IoChains;

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

// ---------------------------------------------------------------------------
// Multi-producer stress with close() mid-stream
// ---------------------------------------------------------------------------

/// 8 producers × mixed op classes × `close()` mid-stream: every `Ok`
/// push completes exactly once, every `Err` push completes zero times,
/// no OBM batch ever mixes classes or exceeds the bound, and a batch
/// holding a control marker holds nothing else.
#[test]
fn multi_producer_mixed_close_midstream_exactly_once() {
    const PRODUCERS: usize = 8;
    const PER_PRODUCER: usize = 2_000;
    const BATCH_MAX: usize = 32;

    // Small capacity: forces wraparound and backpressure under the race.
    let queue = Arc::new(RequestQueue::with_capacity(64));
    // completions[i] counts how many times request i was finished.
    let completions: Arc<Vec<AtomicU8>> = Arc::new(
        (0..PRODUCERS * PER_PRODUCER)
            .map(|_| AtomicU8::new(0))
            .collect(),
    );
    // pushed_ok[i] = 1 iff push(i) returned Ok.
    let pushed_ok: Arc<Vec<AtomicU8>> = Arc::new(
        (0..PRODUCERS * PER_PRODUCER)
            .map(|_| AtomicU8::new(0))
            .collect(),
    );

    let consumer = {
        let queue = queue.clone();
        thread::spawn(move || {
            let mut batch = Vec::with_capacity(BATCH_MAX);
            let mut drained = 0usize;
            while queue.pop_batch_into(BATCH_MAX, &mut batch) {
                assert!(!batch.is_empty() && batch.len() <= BATCH_MAX);
                let class = batch[0].op.class();
                if batch.iter().any(|r| r.op.is_marker()) {
                    assert_eq!(batch.len(), 1, "a marker drains alone");
                }
                for req in &batch {
                    assert_eq!(req.op.class(), class, "batch crossed a class boundary");
                }
                drained += batch.len();
                for req in batch.drain(..) {
                    req.finish(Ok(Response::Done));
                }
            }
            drained
        })
    };

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let queue = queue.clone();
            let completions = completions.clone();
            let pushed_ok = pushed_ok.clone();
            thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let id = p * PER_PRODUCER + i;
                    let op = match (p + i) % 5 {
                        0 | 1 => Op::Put {
                            key: format!("k{id}").into_bytes(),
                            value: b"v".to_vec(),
                        },
                        2 => Op::Get {
                            key: format!("k{id}").into_bytes(),
                        },
                        3 => Op::BackupFreeze { shard: 0 },
                        _ => Op::ScanOpen {
                            start: b"k".to_vec(),
                            end: None,
                            limit: 1,
                            max_bytes: usize::MAX,
                        },
                    };
                    let completions = completions.clone();
                    let req = Request::asynchronous(
                        op,
                        Box::new(move |_| {
                            completions[id].fetch_add(1, Ordering::Relaxed);
                        }),
                    );
                    if queue.push(req).is_ok() {
                        pushed_ok[id].store(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    // Close somewhere in the middle of the stream.
    thread::sleep(Duration::from_millis(5));
    queue.close();

    for p in producers {
        p.join().unwrap();
    }
    let drained = consumer.join().unwrap();

    let mut accepted = 0usize;
    for id in 0..PRODUCERS * PER_PRODUCER {
        let ok = pushed_ok[id].load(Ordering::Relaxed) == 1;
        let completed = completions[id].load(Ordering::Relaxed);
        if ok {
            accepted += 1;
            assert_eq!(
                completed, 1,
                "request {id} accepted but completed {completed}×"
            );
        } else {
            assert_eq!(completed, 0, "request {id} rejected but still completed");
        }
    }
    assert_eq!(
        drained, accepted,
        "consumer drained exactly the accepted set"
    );
    assert!(accepted > 0, "close fired before anything was accepted");
    assert!(queue.is_empty());
}

/// Without a close, a sustained 8-producer run over a tiny ring delivers
/// everything exactly once (pure backpressure path, lots of laps).
#[test]
fn multi_producer_sustained_wraparound() {
    const PRODUCERS: usize = 8;
    const PER_PRODUCER: usize = 5_000;
    let queue = Arc::new(RequestQueue::with_capacity(16));
    let done = Arc::new(AtomicUsize::new(0));

    let consumer = {
        let queue = queue.clone();
        thread::spawn(move || {
            let mut batch = Vec::with_capacity(32);
            let mut n = 0usize;
            while queue.pop_batch_into(32, &mut batch) {
                n += batch.len();
                for req in batch.drain(..) {
                    req.finish(Ok(Response::Done));
                }
            }
            n
        })
    };

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let queue = queue.clone();
            let done = done.clone();
            thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let done = done.clone();
                    let req = Request::asynchronous(
                        Op::Put {
                            key: format!("p{p}i{i}").into_bytes(),
                            value: b"v".to_vec(),
                        },
                        Box::new(move |_| {
                            done.fetch_add(1, Ordering::Relaxed);
                        }),
                    );
                    queue.push(req).expect("queue not closed");
                }
            })
        })
        .collect();

    for p in producers {
        p.join().unwrap();
    }
    queue.close();
    let drained = consumer.join().unwrap();
    assert_eq!(drained, PRODUCERS * PER_PRODUCER);
    assert_eq!(done.load(Ordering::Relaxed), PRODUCERS * PER_PRODUCER);
}

// ---------------------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------------------

/// A full ring blocks producers instead of growing: with a slow consumer
/// the depth gauge stays bounded by the capacity plus the one producer's
/// push in flight, and every push still lands.
#[test]
fn backpressure_bounds_depth() {
    const CAP: usize = 8;
    const PUSHES: usize = 400;
    let queue = Arc::new(RequestQueue::with_capacity(CAP));

    let producer = {
        let queue = queue.clone();
        thread::spawn(move || {
            for i in 0..PUSHES {
                let req = Request::asynchronous(
                    Op::Put {
                        key: format!("{i}").into_bytes(),
                        value: b"v".to_vec(),
                    },
                    Box::new(|_| {}),
                );
                queue.push(req).unwrap();
            }
        })
    };

    let mut drained = 0;
    let mut batch = Vec::with_capacity(4);
    while drained < PUSHES {
        // A push is counted before the ring takes it, so the gauge may
        // read one over the hard ring bound while the producer retries.
        let depth = queue.len();
        assert!(
            depth <= CAP + 1,
            "depth {depth} exceeded backpressure bound"
        );
        assert!(queue.pop_batch_into(4, &mut batch));
        drained += batch.len();
        for req in batch.drain(..) {
            req.finish(Ok(Response::Done));
        }
        // A slow consumer: give producers time to hit the Full path.
        if drained % 64 == 0 {
            thread::sleep(Duration::from_millis(1));
        }
    }
    producer.join().unwrap();
    assert!(queue.is_empty());
    // And the non-blocking variant reports Full rather than waiting.
    for i in 0..CAP {
        queue
            .push(Request::asynchronous(
                Op::Get { key: vec![i as u8] },
                Box::new(|_| {}),
            ))
            .unwrap();
    }
    let extra = Request::asynchronous(Op::Get { key: b"x".to_vec() }, Box::new(|_| {}));
    assert!(matches!(queue.try_push(extra), Err(PushError::Full(_))));
}

/// The depth gauge never wraps below zero. Producers that yield after
/// every push keep the ring near empty, so the consumer often drains it
/// completely; were a push counted only after the ring published it, a
/// producer descheduled between the two would let the consumer's
/// decrement land first and the gauge would read ≈ 1.8 × 10¹⁹. Every
/// read must stay within the ring, the batch the consumer is popping
/// (settled once it is complete) and one push in flight per producer.
/// Each thread keeps its largest read and the test checks them once all
/// have finished: a consumer that panicked mid-run would leave the
/// producers blocked on a full ring.
#[test]
fn depth_gauge_never_wraps_under_racing_push_and_pop() {
    const PRODUCERS: usize = 3;
    const BATCH_MAX: usize = 32;
    const RUN: Duration = Duration::from_secs(1);
    let queue = Arc::new(RequestQueue::with_capacity(64));
    let bound = queue.capacity() + BATCH_MAX + PRODUCERS;

    let consumer = {
        let queue = queue.clone();
        thread::spawn(move || {
            let mut batch = Vec::with_capacity(BATCH_MAX);
            let (mut batches, mut max) = (0u64, 0);
            while queue.pop_batch_into(BATCH_MAX, &mut batch) {
                for req in batch.drain(..) {
                    req.finish(Ok(Response::Done));
                }
                max = max.max(queue.len());
                batches += 1;
            }
            (batches, max)
        })
    };
    let deadline = std::time::Instant::now() + RUN;
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|_| {
            let queue = queue.clone();
            thread::spawn(move || {
                let mut max = 0;
                while std::time::Instant::now() < deadline {
                    let req =
                        Request::asynchronous(Op::Get { key: b"k".to_vec() }, Box::new(|_| {}));
                    queue.push(req).expect("queue not closed");
                    max = max.max(queue.len());
                    thread::yield_now();
                }
                max
            })
        })
        .collect();
    let mut max = 0;
    for p in producers {
        max = max.max(p.join().unwrap());
    }
    queue.close();
    let (batches, consumer_max) = consumer.join().unwrap();
    assert!(batches > 0);
    let max = max.max(consumer_max);
    assert!(max <= bound, "depth gauge read {max} > {bound}");
    assert!(queue.is_empty());
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state
// ---------------------------------------------------------------------------

/// The consumer loop — blocking batched pop with a reused `Vec`, the
/// overlapped-run guard a worker holds across a multi-shard run, and
/// request completion — performs no heap allocation at all.
#[test]
fn consumer_steady_state_allocates_nothing() {
    const REQUESTS: usize = 256;
    const BATCH_MAX: usize = 32;
    let queue = RequestQueue::with_capacity(512);

    // Producer side (allocations here are expected and not counted):
    // everything is enqueued up front, then the queue is closed, so the
    // consumer below never parks and never sees an empty ring.
    for i in 0..REQUESTS {
        let (req, waiter) = Request::sync(Op::Put {
            key: format!("k{i:04}").into_bytes(),
            value: b"v".to_vec(),
        });
        queue.push(req).ok().unwrap();
        // The waiter is intentionally dropped: completion stores the
        // result in the slot and the slot is freed when the last Arc
        // goes — no waiter ever parks, which is irrelevant to the
        // consumer-side allocation count.
        drop(waiter);
    }
    queue.close();

    let mut batch: Vec<Request> = Vec::with_capacity(BATCH_MAX);
    // Warm up one iteration (first pop primes nothing today, but keep
    // the measurement honest against future lazy init).
    let consume = |batch: &mut Vec<Request>| {
        let mut chains = IoChains::enter();
        for req in batch.drain(..) {
            chains.next_chain();
            req.finish(Ok(Response::Done));
        }
        chains.finish();
    };
    assert!(queue.pop_batch_into(BATCH_MAX, &mut batch));
    let mut drained = batch.len();
    consume(&mut batch);

    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    while queue.pop_batch_into(BATCH_MAX, &mut batch) {
        drained += batch.len();
        consume(&mut batch);
    }
    COUNTING.with(|c| c.set(false));

    assert_eq!(drained, REQUESTS);
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed),
        0,
        "steady-state consumer loop must not allocate"
    );
}

// ---------------------------------------------------------------------------
// Completion slot pooling
// ---------------------------------------------------------------------------

/// Sequential synchronous round-trips through a worker-style echo thread
/// reuse a handful of pooled completion slots instead of allocating one
/// per request.
#[test]
fn completion_slots_recycle_across_round_trips() {
    const ROUND_TRIPS: usize = 200;
    let queue = Arc::new(RequestQueue::new());
    let echo = {
        let queue = queue.clone();
        thread::spawn(move || {
            let mut batch = Vec::with_capacity(8);
            while queue.pop_batch_into(8, &mut batch) {
                for req in batch.drain(..) {
                    req.finish(Ok(Response::Done));
                }
            }
        })
    };

    let mut slots_seen = std::collections::HashSet::new();
    for i in 0..ROUND_TRIPS {
        let (req, waiter) = Request::sync(Op::Put {
            key: format!("rt{i}").into_bytes(),
            value: b"v".to_vec(),
        });
        if let Completion::Sync(slot) = &req.completion {
            slots_seen.insert(Arc::as_ptr(slot) as usize);
        }
        queue.push(req).ok().unwrap();
        assert_eq!(waiter.wait().unwrap(), Response::Done);
    }
    queue.close();
    echo.join().unwrap();

    // Recycling is opportunistic (a spin-woken waiter can race the
    // worker's Arc drop), so demand substantial — not perfect — reuse.
    assert!(
        slots_seen.len() < ROUND_TRIPS / 2,
        "expected pooled slots to be reused, saw {} distinct slots in {} round trips",
        slots_seen.len(),
        ROUND_TRIPS
    );
}

/// Waiters that outlive their thread's pool (cross-thread waits) still
/// complete correctly.
#[test]
fn cross_thread_wait_completes() {
    let queue = Arc::new(RequestQueue::new());
    let echo = {
        let queue = queue.clone();
        thread::spawn(move || {
            let mut batch = Vec::with_capacity(8);
            while queue.pop_batch_into(8, &mut batch) {
                // Delay past the waiter spin budget so it really parks.
                thread::sleep(Duration::from_millis(20));
                for req in batch.drain(..) {
                    req.finish(Ok(Response::Value(Some(b"v".to_vec()))));
                }
            }
        })
    };
    let mut waiters = Vec::new();
    for i in 0..8 {
        let (req, waiter) = Request::sync(Op::Get {
            key: format!("x{i}").into_bytes(),
        });
        queue.push(req).ok().unwrap();
        waiters.push(thread::spawn(move || waiter.wait()));
    }
    for w in waiters {
        assert_eq!(
            w.join().unwrap().unwrap(),
            Response::Value(Some(b"v".to_vec()))
        );
    }
    queue.close();
    echo.join().unwrap();
}
