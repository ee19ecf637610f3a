//! The share-nothing store: worker threads over hash-partitioned shards.
//!
//! Clients enqueue requests to the owning worker's channel and block on a
//! per-request completion — the same thread architecture KVell uses, and
//! structurally the same shape as the p2KVS accessing layer (which is the
//! point of the paper's §5.5 comparison: both avoid shared structures, but
//! the storage engines underneath differ).

use std::io;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Instant;

use p2kvs_storage::EnvRef;
use p2kvs_util::hash::fnv1a64;
use p2kvs_util::timing::{self, BusyClock};

use crate::shard::Shard;

/// Store configuration.
#[derive(Clone)]
pub struct KvellOptions {
    /// Environment for slab files.
    pub env: EnvRef,
    /// Number of share-nothing workers.
    pub workers: usize,
}

/// Item cache capacity per shard, in bytes.
const CACHE_BYTES_PER_SHARD: usize = 4 << 20;

impl KvellOptions {
    /// Defaults over the given env: 4 workers, 4 MiB cache each.
    pub fn new(env: EnvRef) -> KvellOptions {
        KvellOptions { env, workers: 4 }
    }
}

enum Op {
    Put(Vec<u8>, Vec<u8>),
    Get(Vec<u8>),
    Delete(Vec<u8>),
    Scan(Vec<u8>, usize),
    MemUsage,
    Len,
}

enum Reply {
    Done,
    Value(Option<Vec<u8>>),
    Existed(bool),
    Entries(Vec<(Vec<u8>, Vec<u8>)>),
    Usage(usize),
    Count(usize),
}

struct Request {
    op: Op,
    reply: Sender<io::Result<Reply>>,
}

/// Point-in-time store statistics.
#[derive(Debug, Clone)]
pub struct KvellStats {
    /// Busy time per worker since open.
    pub worker_busy: Vec<std::time::Duration>,
    /// Wall time since open.
    pub uptime: std::time::Duration,
}

/// The KVell-style store.
pub struct KvellDb {
    senders: Vec<Sender<Request>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    clocks: Vec<Arc<BusyClock>>,
    opened: Instant,
    workers: usize,
}

impl KvellDb {
    /// Opens (or recovers) a store under `dir`.
    pub fn open(opts: KvellOptions, dir: impl Into<PathBuf>) -> io::Result<KvellDb> {
        let dir = dir.into();
        let workers = opts.workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        let mut clocks = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel::<Request>();
            let shard_dir = dir.join(format!("shard{w}"));
            let mut shard = Shard::open(opts.env.clone(), shard_dir, CACHE_BYTES_PER_SHARD)?;
            let clock = Arc::new(BusyClock::new());
            let clock2 = clock.clone();
            let handle = std::thread::Builder::new()
                .name(format!("kvell-worker-{w}"))
                .spawn(move || {
                    while let Ok(req) = rx.recv() {
                        let result = clock2.time(|| match req.op {
                            Op::Put(k, v) => shard.put(&k, &v).map(|()| Reply::Done),
                            Op::Get(k) => shard.get(&k).map(Reply::Value),
                            Op::Delete(k) => shard.delete(&k).map(Reply::Existed),
                            Op::Scan(start, n) => shard.scan(&start, n).map(Reply::Entries),
                            Op::MemUsage => Ok(Reply::Usage(shard.mem_usage())),
                            Op::Len => Ok(Reply::Count(shard.len())),
                        });
                        let _ = req.reply.send(result);
                    }
                })
                .map_err(io::Error::other)?;
            senders.push(tx);
            handles.push(handle);
            clocks.push(clock);
        }
        Ok(KvellDb {
            senders,
            handles,
            clocks,
            opened: timing::now(),
            workers,
        })
    }

    fn worker_of(&self, key: &[u8]) -> usize {
        (fnv1a64(key) % self.workers as u64) as usize
    }

    fn call(&self, worker: usize, op: Op) -> io::Result<Reply> {
        let (tx, rx) = channel();
        self.senders[worker]
            .send(Request { op, reply: tx })
            .map_err(|_| io::Error::other("kvell worker gone"))?;
        rx.recv()
            .map_err(|_| io::Error::other("kvell worker gone"))?
    }

    /// Inserts or updates `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> io::Result<()> {
        match self.call(self.worker_of(key), Op::Put(key.to_vec(), value.to_vec()))? {
            Reply::Done => Ok(()),
            _ => unreachable!("put reply"),
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        match self.call(self.worker_of(key), Op::Get(key.to_vec()))? {
            Reply::Value(v) => Ok(v),
            _ => unreachable!("get reply"),
        }
    }

    /// Deletes `key`; returns whether it existed.
    pub fn delete(&self, key: &[u8]) -> io::Result<bool> {
        match self.call(self.worker_of(key), Op::Delete(key.to_vec()))? {
            Reply::Existed(e) => Ok(e),
            _ => unreachable!("delete reply"),
        }
    }

    /// Global SCAN: queries every shard for `count` items past `start` and
    /// merges (KVell's index makes per-shard scans cheap; the cross-shard
    /// merge is the same filter step p2KVS's parallel SCAN uses).
    pub fn scan(&self, start: &[u8], count: usize) -> io::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut all = Vec::new();
        for w in 0..self.workers {
            match self.call(w, Op::Scan(start.to_vec(), count))? {
                Reply::Entries(mut e) => all.append(&mut e),
                _ => unreachable!("scan reply"),
            }
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all.truncate(count);
        Ok(all)
    }

    /// Dumps every live entry, merged in key order — one full-index pass
    /// per worker instead of the O(chunks) re-seeks a paginated scan
    /// would cost. Each worker materializes its shard atomically (the
    /// worker thread serializes the dump against its own writes), so a
    /// caller that has quiesced external writers gets a consistent copy.
    pub fn dump(&self) -> io::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut all = Vec::new();
        for w in 0..self.workers {
            match self.call(w, Op::Scan(Vec::new(), usize::MAX))? {
                Reply::Entries(mut e) => all.append(&mut e),
                _ => unreachable!("dump reply"),
            }
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(all)
    }

    /// Total live keys.
    pub fn len(&self) -> io::Result<usize> {
        let mut n = 0;
        for w in 0..self.workers {
            match self.call(w, Op::Len)? {
                Reply::Count(c) => n += c,
                _ => unreachable!("len reply"),
            }
        }
        Ok(n)
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Approximate memory footprint (indexes + caches).
    pub fn mem_usage(&self) -> io::Result<usize> {
        let mut n = 0;
        for w in 0..self.workers {
            match self.call(w, Op::MemUsage)? {
                Reply::Usage(u) => n += u,
                _ => unreachable!("mem reply"),
            }
        }
        Ok(n)
    }

    /// Worker utilization statistics.
    pub fn stats(&self) -> KvellStats {
        KvellStats {
            worker_busy: self.clocks.iter().map(|c| c.busy()).collect(),
            uptime: timing::elapsed(self.opened),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Drop for KvellDb {
    fn drop(&mut self) {
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2kvs_storage::MemEnv;

    fn db(workers: usize) -> KvellDb {
        let env: EnvRef = Arc::new(MemEnv::new());
        let mut opts = KvellOptions::new(env);
        opts.workers = workers;
        KvellDb::open(opts, "kvell").unwrap()
    }

    #[test]
    fn basic_crud_across_workers() {
        let db = db(4);
        for i in 0..200 {
            db.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        assert_eq!(db.len().unwrap(), 200);
        for i in 0..200 {
            assert_eq!(
                db.get(format!("key{i:04}").as_bytes()).unwrap().unwrap(),
                format!("v{i}").as_bytes()
            );
        }
        assert!(db.delete(b"key0100").unwrap());
        assert_eq!(db.get(b"key0100").unwrap(), None);
        assert_eq!(db.len().unwrap(), 199);
    }

    #[test]
    fn scan_merges_across_shards() {
        let db = db(4);
        for i in 0..100 {
            db.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
        }
        let got = db.scan(b"k010", 5).unwrap();
        let keys: Vec<_> = got
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(keys, vec!["k010", "k011", "k012", "k013", "k014"]);
    }

    #[test]
    fn dump_returns_everything_in_order() {
        let db = db(4);
        for i in (0..150).rev() {
            db.put(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        db.delete(b"k075").unwrap();
        let all = db.dump().unwrap();
        assert_eq!(all.len(), 149);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "key order");
        assert!(!all.iter().any(|(k, _)| k == b"k075"));
        assert_eq!(all, db.scan(b"", usize::MAX).unwrap());
    }

    #[test]
    fn concurrent_clients() {
        let db = Arc::new(db(4));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let k = format!("t{t}-{i}");
                        db.put(k.as_bytes(), b"v").unwrap();
                        assert_eq!(db.get(k.as_bytes()).unwrap().unwrap(), b"v");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.len().unwrap(), 1600);
    }

    #[test]
    fn reopen_recovers() {
        let env: EnvRef = Arc::new(MemEnv::new());
        {
            let mut opts = KvellOptions::new(env.clone());
            opts.workers = 2;
            let db = KvellDb::open(opts, "kv").unwrap();
            for i in 0..100 {
                db.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
        }
        let mut opts = KvellOptions::new(env);
        opts.workers = 2;
        let db = KvellDb::open(opts, "kv").unwrap();
        assert_eq!(db.len().unwrap(), 100);
        assert_eq!(db.get(b"k42").unwrap().unwrap(), b"v42");
    }

    /// Both ways a worker can be gone — its receiver dropped before the
    /// request is sent, or the request dropped unanswered — fail the call
    /// with the same error instead of blocking the client.
    #[test]
    fn a_call_to_a_worker_that_is_gone_fails_instead_of_hanging() {
        let mut db = db(2);
        let keys: Vec<Vec<u8>> = (0..64).map(|i| format!("k{i}").into_bytes()).collect();
        let on =
            |db: &KvellDb, w: usize| keys.iter().find(|k| db.worker_of(k) == w).unwrap().clone();
        let (k0, k1) = (on(&db, 0), on(&db, 1));

        let (tx, rx) = channel::<Request>();
        drop(rx);
        db.senders[0] = tx;
        let err = db.put(&k0, b"v").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(err.to_string(), "kvell worker gone");

        let (tx, rx) = channel::<Request>();
        let swallow = std::thread::spawn(move || drop(rx.recv().unwrap()));
        db.senders[0] = tx;
        let err = db.get(&k0).unwrap_err();
        assert_eq!(err.to_string(), "kvell worker gone");
        swallow.join().unwrap();

        // Calls that visit every worker fail too; the live worker still serves.
        assert_eq!(db.len().unwrap_err().to_string(), "kvell worker gone");
        db.put(&k1, b"v").unwrap();
        assert_eq!(db.get(&k1).unwrap().unwrap(), b"v");
    }

    #[test]
    fn stats_report_busy_time() {
        let db = db(2);
        for i in 0..500 {
            db.put(format!("k{i}").as_bytes(), &[0u8; 100]).unwrap();
        }
        let stats = db.stats();
        assert_eq!(stats.worker_busy.len(), 2);
        assert!(stats.worker_busy.iter().any(|d| !d.is_zero()));
        assert!(db.mem_usage().unwrap() > 0);
    }
}
