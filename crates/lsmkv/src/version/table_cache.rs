//! Cache of open [`TableReader`]s keyed by file number.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use p2kvs_util::sync::Mutex;
use p2kvs_storage::EnvRef;

use crate::error::Result;
use crate::sst::{BlockCache, TableReader};
use crate::types::{file_path, FileKind};

/// Opens table files on demand and keeps the readers alive.
pub struct TableCache {
    env: EnvRef,
    dir: PathBuf,
    block_cache: Option<Arc<BlockCache>>,
    readers: Mutex<HashMap<u64, Arc<TableReader>>>,
}

impl TableCache {
    /// Creates a cache for tables inside `dir`.
    pub fn new(env: EnvRef, dir: PathBuf, block_cache: Option<Arc<BlockCache>>) -> TableCache {
        TableCache {
            env,
            dir,
            block_cache,
            readers: Mutex::new(HashMap::new()),
        }
    }

    /// Returns (opening if necessary) the reader for file `number`.
    pub fn get(&self, number: u64, size: u64) -> Result<Arc<TableReader>> {
        if let Some(r) = self.readers.lock().get(&number) {
            return Ok(r.clone());
        }
        let path = file_path(&self.dir, number, FileKind::Table);
        let file = self.env.new_random_access(&path)?;
        let reader = Arc::new(TableReader::open(
            file,
            size,
            number,
            self.block_cache.clone(),
        )?);
        self.readers.lock().insert(number, reader.clone());
        Ok(reader)
    }

    /// Drops the cached reader for a deleted file.
    pub fn evict(&self, number: u64) {
        self.readers.lock().remove(&number);
    }

    /// Number of cached readers (tests / memory accounting).
    pub fn len(&self) -> usize {
        self.readers.lock().len()
    }

    /// Whether no readers are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sst::{TableBuilder, TableConfig};
    use crate::types::{make_internal_key, ValueType};
    use p2kvs_storage::MemEnv;

    #[test]
    fn opens_once_and_caches() {
        let env: EnvRef = Arc::new(MemEnv::new());
        let dir = PathBuf::from("db");
        env.create_dir_all(&dir).unwrap();
        let path = file_path(&dir, 5, FileKind::Table);
        let mut b = TableBuilder::new(
            env.new_writable(&path).unwrap(),
            TableConfig {
                block_size: 512,
                restart_interval: 4,
                bloom_bits_per_key: 10,
            },
        );
        b.add(&make_internal_key(b"k", 1, ValueType::Value), b"v").unwrap();
        let summary = b.finish().unwrap();

        let cache = TableCache::new(env.clone(), dir, None);
        let r1 = cache.get(5, summary.file_size).unwrap();
        let r2 = cache.get(5, summary.file_size).unwrap();
        assert!(Arc::ptr_eq(&r1, &r2));
        assert_eq!(cache.len(), 1);
        cache.evict(5);
        assert!(cache.is_empty());
        // Missing files error.
        assert!(cache.get(999, 100).is_err());
    }
}
