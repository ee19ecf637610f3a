//! One share-nothing shard: in-memory B-tree index over slab slots.
//!
//! A shard is owned by exactly one worker thread, so nothing here is
//! synchronized — that absence of shared-structure contention is KVell's
//! core design point, mirrored by p2KVS's per-worker instances.

use std::collections::BTreeMap;

use p2kvs_util::lru::ByteLru;
use std::io;
use std::path::PathBuf;

use p2kvs_storage::EnvRef;

use crate::slab::{class_for, Slab, HEADER, SIZE_CLASSES};

/// Disk location of an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    class: usize,
    slot: u64,
}

/// One worker's private store.
pub struct Shard {
    env: EnvRef,
    dir: PathBuf,
    index: BTreeMap<Vec<u8>, Loc>,
    slabs: Vec<Option<Slab>>,
    cache: ByteLru,
}

impl Shard {
    /// Opens the shard in `dir`, rebuilding the index from the slabs.
    pub fn open(env: EnvRef, dir: PathBuf, cache_bytes: usize) -> io::Result<Shard> {
        env.create_dir_all(&dir)?;
        let mut index = BTreeMap::new();
        let mut slabs: Vec<Option<Slab>> = (0..SIZE_CLASSES.len()).map(|_| None).collect();
        for (class, slot_entry) in slabs.iter_mut().enumerate() {
            let path = dir.join(format!("{class}.slab"));
            if env.exists(&path) {
                let slab = Slab::open(&env, &dir, class, |slot, key, _value| {
                    index.insert(key, Loc { class, slot });
                })?;
                *slot_entry = Some(slab);
            }
        }
        Ok(Shard {
            env,
            dir,
            index,
            slabs,
            cache: ByteLru::new(cache_bytes),
        })
    }

    fn slab_mut(&mut self, class: usize) -> io::Result<&mut Slab> {
        if self.slabs[class].is_none() {
            self.slabs[class] = Some(Slab::open(&self.env, &self.dir, class, |_, _, _| {})?);
        }
        Ok(self.slabs[class].as_mut().expect("slab just ensured"))
    }

    /// Inserts or updates `key`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        let class = class_for(key.len(), value.len()).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("item too large: {} bytes", key.len() + value.len() + HEADER),
            )
        })?;
        match self.index.get(key).copied() {
            Some(loc) if loc.class == class => {
                // In-place update: the KVell fast path.
                self.slab_mut(class)?.write_slot(loc.slot, key, value)?;
            }
            Some(loc) => {
                let slot = self.slab_mut(class)?.insert(key, value)?;
                self.slab_mut(loc.class)?.free_slot(loc.slot)?;
                self.index.insert(key.to_vec(), Loc { class, slot });
            }
            None => {
                let slot = self.slab_mut(class)?.insert(key, value)?;
                self.index.insert(key.to_vec(), Loc { class, slot });
            }
        }
        self.cache.insert_bytes(key, value);
        Ok(())
    }

    /// Point lookup.
    pub fn get(&mut self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        if let Some(v) = self.cache.get(key).cloned() {
            return Ok(Some(v));
        }
        let Some(loc) = self.index.get(key).copied() else {
            return Ok(None);
        };
        let item = self.slabs[loc.class]
            .as_ref()
            .and_then(|s| s.read_slot(loc.slot).transpose())
            .transpose()?;
        match item {
            Some((stored_key, value)) => {
                debug_assert_eq!(stored_key, key);
                self.cache.insert_bytes(key, &value);
                Ok(Some(value))
            }
            None => Ok(None),
        }
    }

    /// Deletes `key`; returns whether it existed.
    pub fn delete(&mut self, key: &[u8]) -> io::Result<bool> {
        let Some(loc) = self.index.remove(key) else {
            return Ok(false);
        };
        self.cache.remove(key);
        self.slab_mut(loc.class)?.free_slot(loc.slot)?;
        Ok(true)
    }

    /// Up to `count` items with keys `>= start`, in order.
    pub fn scan(&mut self, start: &[u8], count: usize) -> io::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let keys: Vec<Vec<u8>> = self
            .index
            .range(start.to_vec()..)
            .take(count)
            .map(|(k, _)| k.clone())
            .collect();
        let mut out = Vec::with_capacity(keys.len());
        for k in keys {
            if let Some(v) = self.get(&k)? {
                out.push((k, v));
            }
        }
        Ok(out)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the shard holds no keys.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Approximate memory footprint: index (keys + node overhead) plus the
    /// item cache. The large index term is KVell's signature cost.
    pub fn mem_usage(&self) -> usize {
        let index: usize = self
            .index
            .keys()
            .map(|k| k.len() + std::mem::size_of::<Loc>() + 48)
            .sum();
        index + self.cache.usage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2kvs_storage::MemEnv;
    use std::sync::Arc;

    fn shard() -> Shard {
        let env: EnvRef = Arc::new(MemEnv::new());
        Shard::open(env, PathBuf::from("shard0"), 64 << 10).unwrap()
    }

    #[test]
    fn put_get_delete() {
        let mut s = shard();
        s.put(b"k", b"v").unwrap();
        assert_eq!(s.get(b"k").unwrap().unwrap(), b"v");
        assert!(s.delete(b"k").unwrap());
        assert_eq!(s.get(b"k").unwrap(), None);
        assert!(!s.delete(b"k").unwrap());
    }

    #[test]
    fn update_same_class_in_place() {
        let mut s = shard();
        s.put(b"k", b"v1").unwrap();
        s.put(b"k", b"v2").unwrap();
        assert_eq!(s.get(b"k").unwrap().unwrap(), b"v2");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn update_across_size_classes_moves_item() {
        let mut s = shard();
        s.put(b"k", b"small").unwrap();
        let big = vec![7u8; 1000];
        s.put(b"k", &big).unwrap();
        assert_eq!(s.get(b"k").unwrap().unwrap(), big);
        // Back to small: the big slot is freed and reusable.
        s.put(b"k", b"small-again").unwrap();
        assert_eq!(s.get(b"k").unwrap().unwrap(), b"small-again");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn scan_is_ordered() {
        let mut s = shard();
        for i in [5, 1, 9, 3, 7] {
            s.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let got = s.scan(b"k3", 3).unwrap();
        let keys: Vec<_> = got.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![b"k3".to_vec(), b"k5".to_vec(), b"k7".to_vec()]);
        assert!(s.scan(b"z", 10).unwrap().is_empty());
    }

    #[test]
    fn reopen_recovers_index() {
        let env: EnvRef = Arc::new(MemEnv::new());
        {
            let mut s = Shard::open(env.clone(), PathBuf::from("sh"), 0).unwrap();
            for i in 0..100 {
                s.put(
                    format!("key{i:03}").as_bytes(),
                    format!("val{i}").as_bytes(),
                )
                .unwrap();
            }
            s.delete(b"key050").unwrap();
        }
        let mut s = Shard::open(env, PathBuf::from("sh"), 0).unwrap();
        assert_eq!(s.len(), 99);
        assert_eq!(s.get(b"key000").unwrap().unwrap(), b"val0");
        assert_eq!(s.get(b"key050").unwrap(), None);
        assert_eq!(s.get(b"key099").unwrap().unwrap(), b"val99");
    }

    #[test]
    fn cache_serves_repeat_reads_without_io() {
        let env: EnvRef = Arc::new(MemEnv::new());
        let mut s = Shard::open(env.clone(), PathBuf::from("sh"), 64 << 10).unwrap();
        s.put(b"hot", b"value").unwrap();
        let r0 = env.io_stats().bytes_read;
        s.get(b"hot").unwrap();
        assert_eq!(env.io_stats().bytes_read, r0, "cached after put");
    }

    #[test]
    fn mem_usage_grows_with_index() {
        let mut s = shard();
        let before = s.mem_usage();
        for i in 0..1000 {
            s.put(format!("key{i:06}").as_bytes(), b"v").unwrap();
        }
        assert!(s.mem_usage() > before + 1000 * 10);
    }

    #[test]
    fn oversized_item_rejected() {
        let mut s = shard();
        assert!(s.put(b"k", &vec![0u8; 1 << 20]).is_err());
    }
}
