//! Quickstart: open a p2KVS store over 4 RocksDB-mode instances and run
//! the basic operations from the paper's API surface — PUT/GET/DELETE,
//! asynchronous PUT, RANGE, SCAN, and a cross-instance transaction.
//!
//! ```text
//! cargo run -p p2kvs-examples --bin quickstart
//! ```

use std::sync::mpsc;
use std::sync::Arc;

use lsmkv::Options;
use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, P2KvsOptions, WriteOp};
use p2kvs_storage::MemEnv;

fn main() {
    // Engines live in an environment; here an in-memory one so the example
    // is self-contained. Swap in `p2kvs_storage::StdEnv` for a real disk or
    // `MemEnv::with_profile(..)` for a simulated device.
    let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
    let factory = LsmFactory::new(Options::rocksdb_like(env));
    let opts = P2KvsOptions::with_workers(4);
    let store = P2Kvs::open(factory, "quickstart-db", opts).expect("open store");

    // --- Basic synchronous operations -----------------------------------
    store.put(b"user:alice", b"{\"karma\": 10}").unwrap();
    store.put(b"user:bob", b"{\"karma\": 7}").unwrap();
    let alice = store.get(b"user:alice").unwrap().expect("alice exists");
    println!("alice  -> {}", String::from_utf8_lossy(&alice));
    store.delete(b"user:bob").unwrap();
    assert!(store.get(b"user:bob").unwrap().is_none());

    // --- Asynchronous writes (the paper's async interface, §4.1) --------
    let (tx, rx) = mpsc::channel();
    for i in 0..100 {
        let tx = tx.clone();
        store
            .put_async(
                format!("event:{i:04}").as_bytes(),
                format!("payload-{i}").as_bytes(),
                move |result| {
                    result.expect("async write");
                    tx.send(()).unwrap();
                },
            )
            .unwrap();
    }
    for _ in 0..100 {
        rx.recv().unwrap();
    }
    println!("async  -> 100 writes acknowledged");

    // --- RANGE and SCAN (§4.4) ------------------------------------------
    let range = store.range(b"event:0010", b"event:0015").unwrap();
    println!(
        "range  -> {:?}",
        range
            .iter()
            .map(|(k, _)| String::from_utf8_lossy(k).into_owned())
            .collect::<Vec<_>>()
    );
    assert_eq!(range.len(), 5);
    let scan = store.scan(b"event:0090", 4).unwrap();
    assert_eq!(scan.len(), 4);
    println!("scan   -> {} entries from event:0090", scan.len());

    // --- Cross-instance transaction (§4.5) -------------------------------
    store
        .write_batch(vec![
            WriteOp::Put {
                key: b"account:1".to_vec(),
                value: b"90".to_vec(),
            },
            WriteOp::Put {
                key: b"account:2".to_vec(),
                value: b"110".to_vec(),
            },
        ])
        .unwrap();
    println!(
        "txn    -> account:1={} account:2={}",
        String::from_utf8_lossy(&store.get(b"account:1").unwrap().unwrap()),
        String::from_utf8_lossy(&store.get(b"account:2").unwrap().unwrap()),
    );

    // --- Introspection ----------------------------------------------------
    let snap = store.snapshot();
    println!(
        "stats  -> {} ops across {} workers, avg batch {:.2}, mem {} KiB",
        snap.total_ops(),
        snap.workers.len(),
        snap.avg_batch_size(),
        snap.mem_usage / 1024
    );
}
