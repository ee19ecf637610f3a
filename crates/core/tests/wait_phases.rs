//! The blocking round trip end to end: calls that return inside the
//! yield bound park nobody, and a store left alone goes to sleep.
//!
//! One test, in a binary of its own: the idle half reads the *process's*
//! CPU time, which a test running beside it would add to.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use p2kvs::engine::{Capabilities, EngineFactory, GsnFilter};
use p2kvs::{KvsEngine, P2Kvs, P2KvsOptions, WriteOp};
use p2kvs_storage::{EnvRef, MemEnv};
use p2kvs_util::timing::process_cpu_time;

/// Accepts everything, stores nothing: what a call costs is the
/// accessing layer.
struct NullEngine;

impl KvsEngine for NullEngine {
    fn put(&self, _key: &[u8], _value: &[u8]) -> p2kvs::Result<()> {
        Ok(())
    }

    fn delete(&self, _key: &[u8]) -> p2kvs::Result<()> {
        Ok(())
    }

    fn write_batch(&self, _ops: &[WriteOp], _gsn: u64) -> p2kvs::Result<()> {
        Ok(())
    }

    fn get(&self, _key: &[u8]) -> p2kvs::Result<Option<Vec<u8>>> {
        Ok(None)
    }

    fn scan(&self, _start: &[u8], _count: usize) -> p2kvs::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(Vec::new())
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            batch_write: true,
            multiget: true,
            native_cursor: false,
        }
    }

    fn sync(&self) -> p2kvs::Result<()> {
        Ok(())
    }

    fn mem_usage(&self) -> usize {
        0
    }
}

struct NullFactory(EnvRef);

impl EngineFactory for NullFactory {
    type Engine = NullEngine;

    fn open(&self, _dir: &Path, _filter: Option<GsnFilter>) -> p2kvs::Result<NullEngine> {
        Ok(NullEngine)
    }

    fn env(&self) -> EnvRef {
        self.0.clone()
    }
}

#[test]
fn quick_calls_park_nobody_and_an_idle_store_sleeps() {
    const ROUND_TRIPS: u64 = 10_000;
    let mut opts = P2KvsOptions::with_workers(2);
    opts.cache_capacity = 0; // every get takes the ring
    let store = P2Kvs::open(NullFactory(Arc::new(MemEnv::new())), "null", opts).unwrap();
    let parks = |store: &P2Kvs<NullEngine>| {
        let snap = store.snapshot();
        let workers: Vec<u64> = snap.workers.iter().map(|w| w.parks).collect();
        (workers, snap.waiter_parks)
    };

    // Past the bound both sides park, and a parked worker is still
    // woken: the store has sat idle since open.
    std::thread::sleep(Duration::from_millis(50));
    let (workers, _) = parks(&store);
    assert!(
        workers.iter().all(|&p| p >= 1),
        "idle workers park: {workers:?}"
    );
    store.put(b"wake", b"up").unwrap();

    if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
        // Window-1 round trips over one worker's ring: the worker's next
        // request and the caller's reply both arrive inside the bound.
        // (On one hardware thread how long a peer stays off the CPU is
        // the scheduler's choice, and nothing is asserted.)
        let (workers, waiters) = parks(&store);
        for i in 0..ROUND_TRIPS {
            match i % 2 {
                0 => store.put(b"wake", b"up").unwrap(),
                _ => assert_eq!(store.get(b"wake").unwrap(), None),
            }
        }
        let (workers_after, waiters_after) = parks(&store);
        let worker_parks: u64 = workers_after.iter().zip(&workers).map(|(a, b)| a - b).sum();
        // Zero when nothing else wants the CPUs; a peer descheduled for
        // longer than the bound is the one legitimate park. At the
        // parent every one of these calls parked on both sides.
        assert!(
            worker_parks + (waiters_after - waiters) <= ROUND_TRIPS / 50,
            "{worker_parks} worker parks, {} waiter parks",
            waiters_after - waiters
        );
        let metrics = store.metrics_snapshot();
        let text = metrics.render_prometheus();
        assert!(
            text.contains("p2kvs_worker_parks_total{worker=\"0\"}"),
            "{text}"
        );
        assert!(text.contains("p2kvs_waiter_parks_total"), "{text}");
        assert_eq!(
            metrics.counter("p2kvs_waiter_parks_total"),
            Some(waiters_after)
        );
        assert_eq!(
            metrics.counter("p2kvs_worker_parks_total{worker=\"0\"}"),
            Some(workers_after[0])
        );

        // `put_async` is a pipeline: when the ring runs dry nobody is a
        // turnaround away, so the worker parks at once and this caller,
        // back a channel wake-up later, finds it asleep — about every
        // second time here (a caller woken fast enough is back before
        // the worker reaches its park), against 1–6 times in 1 000 for
        // a worker that yields first.
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..ROUND_TRIPS / 10 {
            let tx = tx.clone();
            store
                .put_async(b"wake", b"up", move |r| tx.send(r).unwrap())
                .unwrap();
            rx.recv().unwrap().unwrap();
        }
        let (workers_then, _) = parks(&store);
        let pipeline_parks: u64 = workers_then
            .iter()
            .zip(&workers_after)
            .map(|(a, b)| a - b)
            .sum();
        assert!(
            pipeline_parks >= ROUND_TRIPS / 100,
            "{pipeline_parks} worker parks over {} put_async round trips",
            ROUND_TRIPS / 10
        );
    }

    // Left alone, every worker is parked again within 50 ms and the
    // process stops using the CPU: the yield phase is bounded.
    let (before, _) = parks(&store);
    for i in 0..64u32 {
        store
            .put(format!("every-shard-{i}").as_bytes(), b"v")
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));
    let (after, _) = parks(&store);
    assert!(
        after.iter().zip(&before).all(|(a, b)| a > b),
        "every worker served a call, then slept again: {before:?} -> {after:?}"
    );
    let cpu = process_cpu_time();
    std::thread::sleep(Duration::from_millis(200));
    let spent = process_cpu_time() - cpu;
    assert!(
        spent < Duration::from_millis(5),
        "an idle store burned {spent:?} in 200 ms"
    );
}
