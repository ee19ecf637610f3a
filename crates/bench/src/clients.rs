//! [`KvClient`]s beyond the blanket engine one: the same YCSB bytes
//! drive every system.

use std::sync::Arc;

use lsmkv::{Db, WriteOptions};
use p2kvs::{KvsEngine, P2Kvs};
use p2kvs_util::hash::fnv1a64;

use crate::workload::KvClient;

/// A single shared engine instance accessed directly by user threads —
/// the paper's "RocksDB" / "LevelDB" / "PebblesDB" baselines.
pub struct LsmClient {
    /// The instance.
    pub db: Arc<Db>,
    /// What every insert writes with (Fig 8 drops the WAL or the MemTable).
    pub wo: WriteOptions,
}

impl LsmClient {
    /// `db`, written with default options.
    pub fn new(db: Db) -> LsmClient {
        LsmClient {
            db: Arc::new(db),
            wo: WriteOptions::default(),
        }
    }
}

impl KvClient for LsmClient {
    fn insert(&self, key: &[u8], value: &[u8]) -> Result<(), String> {
        self.db.put(&self.wo, key, value).map_err(|e| e.to_string())
    }

    fn read(&self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.db.get(key).map_err(|e| e.to_string())
    }

    fn scan(&self, key: &[u8], len: usize) -> Result<usize, String> {
        self.db
            .scan(key, len)
            .map(|v| v.len())
            .map_err(|e| e.to_string())
    }
}

/// The §3 "multi-instance" configuration: several independent engine
/// instances, user threads hash keys and call the owning instance
/// *directly* (no accessing layer, no worker threads, no OBM). This is the
/// common industry sharding practice the paper distinguishes p2KVS from.
pub struct MultiLsmClient {
    /// The instances.
    pub dbs: Vec<Arc<Db>>,
    /// What every insert writes with.
    pub wo: WriteOptions,
}

impl MultiLsmClient {
    fn of(&self, key: &[u8]) -> &Db {
        &self.dbs[(fnv1a64(key) % self.dbs.len() as u64) as usize]
    }
}

impl KvClient for MultiLsmClient {
    fn insert(&self, key: &[u8], value: &[u8]) -> Result<(), String> {
        self.of(key)
            .put(&self.wo, key, value)
            .map_err(|e| e.to_string())
    }

    fn read(&self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.of(key).get(key).map_err(|e| e.to_string())
    }

    fn scan(&self, key: &[u8], len: usize) -> Result<usize, String> {
        // Parallel same-size scan + filter across instances.
        let mut all = Vec::new();
        for db in &self.dbs {
            all.extend(db.scan(key, len).map_err(|e| e.to_string())?);
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all.truncate(len);
        Ok(all.len())
    }
}

/// The p2KVS store over any engine.
pub struct P2Client<E: KvsEngine> {
    /// The store.
    pub store: P2Kvs<E>,
}

impl<E: KvsEngine> Drop for P2Client<E> {
    fn drop(&mut self) {
        // Best-effort per-run observability artifact (no-op unless
        // P2KVS_METRICS_DIR is set; see `crate::artifact`).
        crate::artifact::maybe_write(&self.store.metrics_snapshot());
    }
}

impl<E: KvsEngine> KvClient for P2Client<E> {
    fn insert(&self, key: &[u8], value: &[u8]) -> Result<(), String> {
        self.store.put(key, value).map_err(|e| e.to_string())
    }

    fn read(&self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.store.get(key).map_err(|e| e.to_string())
    }

    fn scan(&self, key: &[u8], len: usize) -> Result<usize, String> {
        self.store
            .scan(key, len)
            .map(|v| v.len())
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setups;
    use p2kvs_storage::DeviceProfile;

    #[test]
    fn clients_roundtrip() {
        let env = setups::instant_env();
        let single = setups::rocksdb_single(env.clone(), "c1");
        single.insert(b"k", b"v").unwrap();
        assert_eq!(single.read(b"k").unwrap().unwrap(), b"v");
        assert_eq!(single.scan(b"a", 10).unwrap(), 1);

        let multi = setups::rocksdb_multi(env.clone(), "c2", 3);
        for i in 0..50 {
            multi.insert(format!("k{i:02}").as_bytes(), b"v").unwrap();
        }
        assert_eq!(multi.read(b"k07").unwrap().unwrap(), b"v");
        assert_eq!(multi.scan(b"k10", 5).unwrap(), 5);

        let p2 = setups::p2kvs(env.clone(), "c3", 2, true);
        p2.insert(b"x", b"y").unwrap();
        assert_eq!(p2.read(b"x").unwrap().unwrap(), b"y");

        let kv = setups::kvell(env.clone(), "c4", 2);
        kv.insert(b"q", b"r").unwrap();
        assert_eq!(kv.read(b"q").unwrap().unwrap(), b"r");

        let wt = setups::wiredtiger_single(env, "c5");
        wt.insert(b"m", b"n").unwrap();
        assert_eq!(wt.read(b"m").unwrap().unwrap(), b"n");
        assert_eq!(KvClient::scan(&wt, b"a", 10).unwrap(), 1);
    }

    #[test]
    fn sim_env_profiles_open() {
        let env = setups::device_env(DeviceProfile::instant());
        let p2 = setups::p2kvs_over_wt(env, "c6", 2);
        p2.insert(b"a", b"b").unwrap();
        assert_eq!(p2.read(b"a").unwrap().unwrap(), b"b");
    }
}
