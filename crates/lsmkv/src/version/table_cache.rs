//! Cache of open [`TableReader`]s keyed by file number.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use p2kvs_storage::EnvRef;
use p2kvs_util::sync::Mutex;

use crate::error::Result;
use crate::sst::{BlockCache, TableReader, TableTail};
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

    /// Keeps a reader for table `number`, just written, made from the
    /// index and filter its builder returned in `tail`: its first lookup
    /// reads only a data block.
    pub fn insert_built(&self, number: u64, tail: TableTail) -> Result<()> {
        let path = file_path(&self.dir, number, FileKind::Table);
        let file = self.env.new_random_access(&path)?;
        let reader = TableReader::built(file, number, self.block_cache.clone(), tail)?;
        self.readers.lock().insert(number, Arc::new(reader));
        Ok(())
    }

    /// Drops the cached reader and the cached blocks of a deleted file.
    pub fn evict(&self, number: u64) {
        self.readers.lock().remove(&number);
        if let Some(blocks) = &self.block_cache {
            blocks.erase_table(number);
        }
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
        b.add(&make_internal_key(b"k", 1, ValueType::Value), b"v")
            .unwrap();
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

    #[test]
    fn a_deleted_tables_blocks_leave_the_block_cache() {
        let env: EnvRef = Arc::new(MemEnv::new());
        let dir = PathBuf::from("db");
        let config = TableConfig {
            block_size: 512,
            restart_interval: 4,
            bloom_bits_per_key: 10,
        };
        let ikey = |i: u32| make_internal_key(format!("k{i:05}").as_bytes(), 1, ValueType::Value);
        let blocks = Arc::new(BlockCache::new(1 << 20));
        let cache = TableCache::new(env.clone(), dir.clone(), Some(blocks.clone()));
        let mut sizes = Vec::new();
        for number in [5, 6] {
            let path = file_path(&dir, number, FileKind::Table);
            let mut b = TableBuilder::new(env.new_writable(&path).unwrap(), config);
            for i in 0..200 {
                b.add(&ikey(i), &[b'v'; 40]).unwrap();
            }
            let summary = b.finish().unwrap();
            sizes.push(summary.file_size);
            cache.insert_built(number, summary.tail).unwrap();
        }
        let reads = env.io_stats().read_ops;
        for (&number, &size) in [5, 6].iter().zip(&sizes) {
            let reader = cache.get(number, size).unwrap();
            for i in (0..200).step_by(10) {
                reader.get(&ikey(i), false).unwrap().unwrap();
            }
        }
        assert!(
            env.io_stats().read_ops > reads,
            "the blocks came off the file"
        );
        let both = blocks.usage();
        assert!(both > 0);
        cache.evict(5);
        env.remove_file(&file_path(&dir, 5, FileKind::Table))
            .unwrap();
        assert!(blocks.usage() < both && blocks.usage() > 0);
        let reader = cache.get(6, sizes[1]).unwrap();
        let reads = env.io_stats().read_ops;
        for i in (0..200).step_by(10) {
            reader.get(&ikey(i), false).unwrap().unwrap();
        }
        assert_eq!(env.io_stats().read_ops, reads, "table 6 kept its blocks");
        cache.evict(6);
        assert_eq!(blocks.usage(), 0);
    }
}
