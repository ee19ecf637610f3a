//! A realistic domain scenario: the metadata store of a messaging service.
//!
//! The paper motivates p2KVS with production workloads dominated by small
//! KV pairs (90% under 1 KiB at Facebook). This example models exactly
//! that: many clients appending small message-metadata records, a mailbox
//! index updated transactionally with each message, and readers fetching
//! recent mailboxes — a PUT-heavy, small-value workload with occasional
//! range reads, running over a simulated NVMe device.
//!
//! ```text
//! cargo run --release -p p2kvs-examples --bin message_store
//! ```

use std::sync::Arc;
use std::time::Instant;

use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, P2KvsOptions, WriteOp};
use p2kvs_storage::{DeviceProfile, MemEnv};

const USERS: u64 = 200;
const MESSAGES_PER_SENDER: u64 = 60;
const SENDERS: usize = 8;

fn msg_key(user: u64, seq: u64) -> Vec<u8> {
    format!("msg/{user:06}/{seq:08}").into_bytes()
}

fn mailbox_key(user: u64) -> Vec<u8> {
    format!("mbox/{user:06}").into_bytes()
}

fn main() {
    let env = Arc::new(MemEnv::with_profile(DeviceProfile::nvme_optane()));
    let mut engine_opts = lsmkv::Options::rocksdb_like(env.clone());
    engine_opts.memtable_size = 1 << 20;
    let factory = LsmFactory::new(engine_opts);
    let opts = P2KvsOptions::with_workers(4);
    let store = Arc::new(P2Kvs::open(factory, "message-store", opts).expect("open store"));

    // --- Ingest: concurrent senders, one transaction per message ---------
    // Each message writes its body record and bumps the recipient's
    // mailbox head atomically; the two keys usually land on different
    // instances, exercising the GSN transaction path (§4.5).
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for s in 0..SENDERS {
            let store = store.clone();
            scope.spawn(move || {
                for i in 0..MESSAGES_PER_SENDER {
                    let user = (i * SENDERS as u64 + s as u64) % USERS;
                    let seq = i;
                    let body = format!(
                        "{{\"from\": {s}, \"ts\": {seq}, \"text\": \"hello #{i} from sender {s}\"}}"
                    );
                    store
                        .write_batch(vec![
                            WriteOp::Put {
                                key: msg_key(user, seq),
                                value: body.into_bytes(),
                            },
                            WriteOp::Put {
                                key: mailbox_key(user),
                                value: format!("{seq}").into_bytes(),
                            },
                        ])
                        .expect("deliver message");
                }
            });
        }
    });
    let delivered = SENDERS as u64 * MESSAGES_PER_SENDER;
    println!(
        "ingest  -> {delivered} messages in {:.2?} ({:.0} msgs/s, transactional)",
        t0.elapsed(),
        delivered as f64 / t0.elapsed().as_secs_f64()
    );

    // --- Read path: fetch a user's recent messages -----------------------
    let user = 7u64;
    let head: u64 = String::from_utf8(store.get(&mailbox_key(user)).unwrap().expect("mailbox"))
        .unwrap()
        .parse()
        .unwrap();
    let inbox = store
        .range(&msg_key(user, 0), &msg_key(user, u64::MAX / 2))
        .unwrap();
    println!(
        "inbox   -> user {user}: head seq {head}, {} messages; newest: {}",
        inbox.len(),
        String::from_utf8_lossy(&inbox.last().unwrap().1)
    );

    // --- Moderation sweep: scan a window of mailboxes --------------------
    let mailboxes = store.scan(b"mbox/", 25).unwrap();
    println!("sweep   -> first {} mailboxes via SCAN", mailboxes.len());
    assert!(mailboxes.iter().all(|(k, _)| k.starts_with(b"mbox/")));

    // --- Health check -----------------------------------------------------
    let snap = store.snapshot();
    let io = p2kvs_storage::Env::io_stats(&*env);
    println!(
        "health  -> {} ops, OBM avg batch {:.2}, merge ratio {:.0}%, {} KiB resident, {} KiB written to device",
        snap.total_ops(),
        snap.avg_batch_size(),
        snap.merge_ratio() * 100.0,
        snap.mem_usage / 1024,
        io.bytes_written / 1024,
    );
}
