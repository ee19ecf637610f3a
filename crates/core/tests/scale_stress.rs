//! Stress test for the resizable worker pool: writers, readers, and a
//! streaming scanner run flat out while a thrasher cycles
//! `scale_workers` across the pool's whole range (1 ↔ 4), so every
//! retirement drains live shards — with parked scan cursors riding the
//! handoffs — and every spawn hands a fresh ring shards the next
//! resize takes away again.
//!
//! The guarantees pinned down here:
//!
//! * **no request ever fails because a resize is in flight** — every
//!   put/get/batch/scan in the test unwraps;
//! * **read-your-writes holds across drains** — a writer re-reading its
//!   acked put must see it even when the key's shard is mid-handoff,
//!   and readers never observe a per-key version going backwards;
//! * **counters are conserved** — retired slots keep their final
//!   counters (nothing a dead worker did is forgotten) with zeroed
//!   ownership gauges, and the live slots' `shards_owned` sum to the
//!   shard count at all times the pool is quiescent;
//! * **the routing fence holds** — no request is ever re-routed by a
//!   worker that had already handed its shard away.
//!
//! CI additionally runs this file under `--release` to shake out
//! orderings the debug interleavings miss.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, P2KvsOptions, WriteOp};
use p2kvs_util::rng::Rng;

const MAX_WORKERS: usize = 4;
const SHARDS: usize = 8;
const WRITERS: usize = 2;
const KEYS_PER_WRITER: usize = 40;
const ROUNDS: u64 = 24;
const READS: usize = 2_000;

fn key_of(w: usize, i: usize) -> Vec<u8> {
    format!("w{w}-k{i:03}").into_bytes()
}

#[test]
fn pool_thrashing_under_live_traffic_loses_nothing() {
    let mut opts = P2KvsOptions::with_workers(MAX_WORKERS);
    opts.shards = SHARDS;
    // A small cache keeps retirement-driven cache flushes in the mix.
    opts.cache_capacity = 64 << 10;
    let store = Arc::new(
        P2Kvs::open(
            LsmFactory::new(lsmkv::Options::for_test()),
            "scale-stress",
            opts,
        )
        .unwrap(),
    );
    let stop = Arc::new(AtomicBool::new(false));

    // Seed every key at version 0 so readers and the scanner never hit
    // a missing key: the scanner can then demand the full key census
    // from every snapshot it opens.
    for w in 0..WRITERS {
        for i in 0..KEYS_PER_WRITER {
            store.put(&key_of(w, i), b"00000000").unwrap();
        }
    }

    // The thrasher: walk the pool 4 → 1 → 4 → … for as long as the
    // traffic runs. Every resize must succeed and land exactly.
    let thrasher = {
        let store = store.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            let cycle = [1usize, MAX_WORKERS, 2, 3];
            let mut resizes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let n = cycle[resizes as usize % cycle.len()];
                store.scale_workers(n).unwrap();
                assert_eq!(store.workers(), n, "resize to {n} did not land");
                resizes += 1;
                thread::sleep(std::time::Duration::from_millis(2));
            }
            // Leave the pool at full size for the final checks.
            store.scale_workers(MAX_WORKERS).unwrap();
            resizes
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
                        // so the ack means this exact version is visible
                        // even if the shard is mid-drain.
                        let got = store.get(&key).unwrap().unwrap();
                        assert_eq!(got, val, "writer {w} lost its own write to {i}");
                    }
                    // A cross-shard batch per round keeps the GSN commit
                    // path under the resizes too.
                    let ops: Vec<WriteOp> = (0..4)
                        .map(|i| WriteOp::Put {
                            key: key_of(w, i),
                            value: format!("{round:08}").into_bytes(),
                        })
                        .collect();
                    store.write_batch(ops).unwrap();
                }
            })
        })
        .collect();

    let reader = {
        let store = store.clone();
        thread::spawn(move || {
            let mut rng = Rng::new(0x9E3779B9);
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
    };

    // The scanner: open a streaming cursor, drain it in small chunks
    // (parking it on workers between pulls — retirements must carry the
    // parked cursors over through the handoff slot), and demand the full
    // sorted key census from every snapshot.
    let scanner = {
        let store = store.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            let mut scans = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut it = store.iter().unwrap();
                let mut entries = Vec::new();
                loop {
                    let c = it.next_chunk(7).unwrap();
                    if c.is_empty() {
                        break;
                    }
                    entries.extend(c);
                }
                assert_eq!(
                    entries.len(),
                    WRITERS * KEYS_PER_WRITER,
                    "scan lost keys mid-resize"
                );
                assert!(
                    entries.windows(2).all(|p| p[0].0 < p[1].0),
                    "scan came back unsorted"
                );
                scans += 1;
            }
            scans
        })
    };

    for h in writers {
        h.join().unwrap();
    }
    reader.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    let resizes = thrasher.join().unwrap();
    let scans = scanner.join().unwrap();
    assert!(
        resizes >= 8,
        "only {resizes} resizes happened — the thrasher never thrashed"
    );
    assert!(scans >= 2, "only {scans} full scans completed");

    // Final model: every key holds its last written version.
    for w in 0..WRITERS {
        for i in 0..KEYS_PER_WRITER {
            let want = format!("{ROUNDS:08}").into_bytes();
            assert_eq!(store.get(&key_of(w, i)).unwrap().unwrap(), want);
        }
    }

    // Conservation: with the pool quiescent at full size, the live
    // slots own every shard between them, retired slots zeroed their
    // ownership gauges but kept their counters, and no scan cursor is
    // left parked anywhere.
    let snap = store.snapshot();
    let live_shards: u64 = snap
        .workers
        .iter()
        .filter(|w| w.live)
        .map(|w| w.shards_owned)
        .sum();
    assert_eq!(
        live_shards as usize, SHARDS,
        "shards leaked across retirements"
    );
    let parked: u64 = snap.workers.iter().map(|w| w.active_scans).sum();
    assert_eq!(
        parked, 0,
        "scan cursors left parked after the scanner finished"
    );
    for (i, w) in snap.workers.iter().enumerate() {
        if !w.live {
            assert_eq!(w.shards_owned, 0, "retired slot {i} still claims shards");
            assert_eq!(
                w.queue_depth, 0,
                "retired slot {i} still claims queued work"
            );
        }
    }
    // Every put went through exactly one worker; the per-slot counters
    // (final values frozen at retirement included) must account for at
    // least all of them, across every incarnation of every slot.
    let writes_issued = (WRITERS as u64) * (KEYS_PER_WRITER as u64) * (ROUNDS + 1);
    let total_ops: u64 = snap.workers.iter().map(|w| w.ops).sum();
    assert!(
        total_ops >= writes_issued,
        "workers account for {total_ops} ops but {writes_issued} writes were issued"
    );
    // The routing fence: a request routed under a displaced snapshot is
    // always executed by the old owner ahead of its handoff marker, so
    // the workers' defensive re-route path never fires.
    let rerouted: u64 = snap.workers.iter().map(|w| w.rerouted).sum();
    assert_eq!(rerouted, 0, "a request was routed under a displaced map");
}
