//! The store: shared B-tree index + journal + checkpoints + value cache.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

use p2kvs_storage::{EnvRef, RandomAccessFile, WritableFile};
use p2kvs_util::coding::{get_fixed64, put_fixed64};
use p2kvs_util::lru::ByteLru;
use p2kvs_util::sync::{Mutex, RwLock};

use crate::journal::{decode_at, encode, TYPE_DELETE, TYPE_PUT};

/// Store configuration.
#[derive(Clone)]
pub struct WtOptions {
    /// Environment for journal and checkpoint files.
    pub env: EnvRef,
    /// fsync the journal on every write (WiredTiger `log=(enabled,sync)`).
    pub sync_writes: bool,
    /// Value-cache capacity in bytes.
    pub cache_bytes: usize,
    /// Checkpoint after this many journal bytes.
    pub checkpoint_every: u64,
}

impl WtOptions {
    /// Defaults over the given env: async journal, 8 MiB cache,
    /// checkpoint every 16 MiB.
    pub fn new(env: EnvRef) -> WtOptions {
        WtOptions {
            env,
            sync_writes: false,
            cache_bytes: 8 << 20,
            checkpoint_every: 16 << 20,
        }
    }
}

/// A key and its value, as scans return them.
pub type Entry = (Vec<u8>, Vec<u8>);

/// Location of a value inside the journal.
#[derive(Debug, Clone, Copy)]
struct ValRef {
    offset: u64,
    len: u32,
}

struct Journal {
    writer: Box<dyn WritableFile>,
    len: u64,
    last_checkpoint_len: u64,
}

/// A WiredTiger-style single-instance store.
pub struct WtDb {
    env: EnvRef,
    dir: PathBuf,
    opts: WtOptions,
    /// The shared index: the global latch writers contend on.
    tree: RwLock<BTreeMap<Vec<u8>, ValRef>>,
    /// The journal, serialized behind its own latch (the "WAL lock").
    journal: Mutex<Journal>,
    cache: Mutex<ByteLru>,
    reader: Mutex<Option<Box<dyn RandomAccessFile>>>,
}

const JOURNAL_FILE: &str = "journal.wal";
const CHECKPOINT_FILE: &str = "checkpoint";

impl WtDb {
    /// Opens the store under `dir`, creating it if missing.
    pub fn open(opts: WtOptions, dir: impl Into<PathBuf>) -> io::Result<WtDb> {
        let dir = dir.into();
        let env = opts.env.clone();
        let journal_path = dir.join(JOURNAL_FILE);
        env.create_dir_all(&dir)?;
        let mut tree = BTreeMap::new();
        let mut replay_from = 0u64;
        // Load the last checkpoint, if any.
        let ckpt_path = dir.join(CHECKPOINT_FILE);
        if env.exists(&ckpt_path) {
            let data = p2kvs_storage::env::read_all(&*env, &ckpt_path)?;
            replay_from = Self::load_checkpoint(&data, &mut tree)?;
        }
        // Replay the journal tail.
        let mut journal_len = replay_from;
        if env.exists(&journal_path) {
            let data = p2kvs_storage::env::read_all(&*env, &journal_path)?;
            let mut off = replay_from as usize;
            while let Some((rec, used)) = decode_at(&data, off)? {
                match rec.kind {
                    TYPE_PUT => {
                        tree.insert(
                            rec.key,
                            ValRef {
                                offset: rec.value_offset,
                                len: rec.value.len() as u32,
                            },
                        );
                    }
                    TYPE_DELETE => {
                        tree.remove(&rec.key);
                    }
                    _ => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unknown journal record type {}", rec.kind),
                        ))
                    }
                }
                off += used;
            }
            journal_len = off as u64;
        }
        let writer = env.new_appendable(&journal_path)?;
        // If the file had a torn tail, appended records start after it; the
        // decoder skips garbage by CRC. Track the real file length.
        let len = writer.len();
        Ok(WtDb {
            env,
            dir,
            cache: Mutex::new(ByteLru::new(opts.cache_bytes)),
            tree: RwLock::new(tree),
            journal: Mutex::new(Journal {
                writer,
                len,
                last_checkpoint_len: replay_from.min(journal_len),
            }),
            reader: Mutex::new(None),
            opts,
        })
    }

    /// Inserts or updates `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> io::Result<()> {
        let (frame, value_off) = encode(TYPE_PUT, key, value);
        let offset = self.append(&frame)?;
        let vref = ValRef {
            offset: offset + value_off,
            len: value.len() as u32,
        };
        self.tree.write().insert(key.to_vec(), vref);
        self.cache.lock().insert_bytes(key, value);
        self.maybe_checkpoint()?;
        Ok(())
    }

    /// Deletes `key`; returns whether it existed.
    pub fn delete(&self, key: &[u8]) -> io::Result<bool> {
        let (frame, _) = encode(TYPE_DELETE, key, b"");
        self.append(&frame)?;
        let existed = self.tree.write().remove(key).is_some();
        self.cache.lock().remove(key);
        Ok(existed)
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        let Some(vref) = self.tree.read().get(key).copied() else {
            return Ok(None);
        };
        if let Some(v) = self.cache.lock().get(key).cloned() {
            return Ok(Some(v));
        }
        let value = self.read_value(vref)?;
        self.cache.lock().insert_bytes(key, &value);
        Ok(Some(value))
    }

    /// Up to `count` entries with keys `>= start`, in order.
    pub fn scan(&self, start: &[u8], count: usize) -> io::Result<Vec<Entry>> {
        let refs: Vec<(Vec<u8>, ValRef)> = self
            .tree
            .read()
            .range(start.to_vec()..)
            .take(count)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let mut out = Vec::with_capacity(refs.len());
        for (k, vref) in refs {
            let cached = self.cache.lock().get(&k).cloned();
            let v = match cached {
                Some(v) => v,
                None => {
                    let v = self.read_value(vref)?;
                    self.cache.lock().insert_bytes(&k, &v);
                    v
                }
            };
            out.push((k, v));
        }
        Ok(out)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.tree.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.read().is_empty()
    }

    /// Approximate memory footprint (index + cache).
    pub fn mem_usage(&self) -> usize {
        let index: usize = self
            .tree
            .read()
            .keys()
            .map(|k| k.len() + std::mem::size_of::<ValRef>() + 48)
            .sum();
        index + self.cache.lock().usage()
    }

    /// Forces a checkpoint now.
    pub fn checkpoint(&self) -> io::Result<()> {
        self.write_checkpoint()
    }

    /// Forks a point-in-time snapshot: the index is cloned under its
    /// latch (cheap — keys and value *locations* only, no payload copy)
    /// after a journal sync, and values are read lazily from the
    /// append-only journal, whose bytes at already-written offsets are
    /// immutable. The snapshot owns its own reader, so it can be drained
    /// from another thread while writers keep appending.
    pub fn snapshot(&self) -> io::Result<WtSnapshot> {
        // Sync first so every offset the cloned index references is
        // readable through a fresh file handle.
        self.journal.lock().writer.sync()?;
        let entries: Vec<(Vec<u8>, ValRef)> = self
            .tree
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        Ok(WtSnapshot {
            env: self.env.clone(),
            path: self.dir.join(JOURNAL_FILE),
            entries,
            pos: 0,
            reader: None,
        })
    }

    fn append(&self, frame: &[u8]) -> io::Result<u64> {
        let mut j = self.journal.lock();
        let offset = j.len;
        j.writer.append(frame)?;
        if self.opts.sync_writes {
            j.writer.sync()?;
        } else {
            j.writer.flush()?;
        }
        j.len += frame.len() as u64;
        Ok(offset)
    }

    fn read_value(&self, vref: ValRef) -> io::Result<Vec<u8>> {
        let mut guard = self.reader.lock();
        if guard.is_none() {
            *guard = Some(self.env.new_random_access(&self.dir.join(JOURNAL_FILE))?);
        }
        let mut buf = vec![0u8; vref.len as usize];
        if vref.len > 0 {
            let reader = guard.as_ref().expect("reader just ensured");
            if let Err(e) = reader.read_at(vref.offset, &mut buf) {
                // The handle may predate appends on some platforms; retry
                // with a fresh one before giving up.
                *guard = Some(self.env.new_random_access(&self.dir.join(JOURNAL_FILE))?);
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    guard
                        .as_ref()
                        .expect("fresh reader")
                        .read_at(vref.offset, &mut buf)?;
                } else {
                    return Err(e);
                }
            }
        }
        Ok(buf)
    }

    fn maybe_checkpoint(&self) -> io::Result<()> {
        let due = {
            let j = self.journal.lock();
            j.len - j.last_checkpoint_len >= self.opts.checkpoint_every
        };
        if due {
            self.write_checkpoint()?;
        }
        Ok(())
    }

    /// Checkpoint format:
    /// `journal_len: u64 | count: u64 | (key_len: u64 | key | offset: u64 |
    /// value_len: u64)*`.
    fn write_checkpoint(&self) -> io::Result<()> {
        // Snapshot index and journal length under both latches so the
        // checkpoint is consistent with a journal prefix.
        let (snapshot, journal_len) = {
            let tree = self.tree.read();
            let mut j = self.journal.lock();
            j.writer.sync()?;
            let snap: Vec<(Vec<u8>, ValRef)> = tree.iter().map(|(k, v)| (k.clone(), *v)).collect();
            let len = j.len;
            j.last_checkpoint_len = len;
            (snap, len)
        };
        let mut out = Vec::new();
        put_fixed64(&mut out, journal_len);
        put_fixed64(&mut out, snapshot.len() as u64);
        for (k, v) in &snapshot {
            put_fixed64(&mut out, k.len() as u64);
            out.extend_from_slice(k);
            put_fixed64(&mut out, v.offset);
            put_fixed64(&mut out, u64::from(v.len));
        }
        let tmp = self.dir.join("checkpoint.tmp");
        p2kvs_storage::env::write_all(&*self.env, &tmp, &out)?;
        self.env.rename(&tmp, &self.dir.join(CHECKPOINT_FILE))?;
        Ok(())
    }

    /// Loads a checkpoint into `tree`, returning the journal offset to
    /// replay from.
    fn load_checkpoint(data: &[u8], tree: &mut BTreeMap<Vec<u8>, ValRef>) -> io::Result<u64> {
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "truncated checkpoint");
        if data.len() < 16 {
            return Err(bad());
        }
        let journal_len = get_fixed64(data);
        let count = get_fixed64(&data[8..]) as usize;
        let mut off = 16usize;
        for _ in 0..count {
            if off + 8 > data.len() {
                return Err(bad());
            }
            let klen = get_fixed64(&data[off..]) as usize;
            off += 8;
            if off + klen + 16 > data.len() {
                return Err(bad());
            }
            let key = data[off..off + klen].to_vec();
            off += klen;
            let offset = get_fixed64(&data[off..]);
            let len = get_fixed64(&data[off + 8..]) as u32;
            off += 16;
            tree.insert(key, ValRef { offset, len });
        }
        Ok(journal_len)
    }
}

/// A forked point-in-time view of a [`WtDb`]: a cloned key → value
/// location index plus a private journal reader. Draining streams values
/// straight from the journal in key order; writes to the live store made
/// after the fork are invisible because already-written journal bytes
/// never change (the journal is append-only and checkpoints do not
/// truncate it).
pub struct WtSnapshot {
    env: EnvRef,
    path: PathBuf,
    entries: Vec<(Vec<u8>, ValRef)>,
    pos: usize,
    reader: Option<Box<dyn RandomAccessFile>>,
}

impl WtSnapshot {
    /// Number of entries the snapshot holds in total.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Materializes the next slice: at most `limit` entries and roughly
    /// `max_bytes` of payload (always at least one entry when any
    /// remain). Returns the entries and whether the snapshot is
    /// exhausted.
    pub fn next_batch(&mut self, limit: usize, max_bytes: usize) -> io::Result<(Vec<Entry>, bool)> {
        if self.reader.is_none() && self.pos < self.entries.len() {
            self.reader = Some(self.env.new_random_access(&self.path)?);
        }
        let limit = limit.max(1);
        let mut out = Vec::new();
        let mut bytes = 0usize;
        while self.pos < self.entries.len() && out.len() < limit && bytes < max_bytes.max(1) {
            let (key, vref) = &self.entries[self.pos];
            let mut value = vec![0u8; vref.len as usize];
            if vref.len > 0 {
                self.reader
                    .as_ref()
                    .expect("reader ensured above")
                    .read_at(vref.offset, &mut value)?;
            }
            bytes = bytes.saturating_add(key.len() + value.len());
            out.push((key.clone(), value));
            self.pos += 1;
        }
        Ok((out, self.pos >= self.entries.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2kvs_storage::MemEnv;
    use std::sync::Arc;

    fn db() -> WtDb {
        let env: EnvRef = Arc::new(MemEnv::new());
        WtDb::open(WtOptions::new(env), "wt").unwrap()
    }

    #[test]
    fn put_get_delete() {
        let db = db();
        db.put(b"k", b"v").unwrap();
        assert_eq!(db.get(b"k").unwrap().unwrap(), b"v");
        assert!(db.delete(b"k").unwrap());
        assert_eq!(db.get(b"k").unwrap(), None);
        assert!(!db.delete(b"k").unwrap());
        assert!(db.is_empty());
    }

    #[test]
    fn overwrite_returns_latest() {
        let db = db();
        for i in 0..20 {
            db.put(b"k", format!("v{i}").as_bytes()).unwrap();
        }
        assert_eq!(db.get(b"k").unwrap().unwrap(), b"v19");
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn values_read_back_from_journal_when_uncached() {
        let env: EnvRef = Arc::new(MemEnv::new());
        let mut opts = WtOptions::new(env);
        opts.cache_bytes = 0; // Force journal reads.
        let db = WtDb::open(opts, "wt").unwrap();
        for i in 0..100 {
            db.put(
                format!("k{i:03}").as_bytes(),
                format!("value-{i}").as_bytes(),
            )
            .unwrap();
        }
        for i in (0..100).step_by(9) {
            assert_eq!(
                db.get(format!("k{i:03}").as_bytes()).unwrap().unwrap(),
                format!("value-{i}").as_bytes()
            );
        }
    }

    #[test]
    fn scan_is_ordered() {
        let db = db();
        for i in [9, 2, 7, 4] {
            db.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        let got = db.scan(b"k3", 2).unwrap();
        let keys: Vec<_> = got.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![b"k4".to_vec(), b"k7".to_vec()]);
    }

    #[test]
    fn reopen_replays_journal() {
        let env: EnvRef = Arc::new(MemEnv::new());
        {
            let db = WtDb::open(WtOptions::new(env.clone()), "wt").unwrap();
            for i in 0..200 {
                db.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.delete(b"k100").unwrap();
        }
        let db = WtDb::open(WtOptions::new(env), "wt").unwrap();
        assert_eq!(db.len(), 199);
        assert_eq!(db.get(b"k42").unwrap().unwrap(), b"v42");
        assert_eq!(db.get(b"k100").unwrap(), None);
    }

    #[test]
    fn checkpoint_speeds_recovery_and_preserves_data() {
        let env: EnvRef = Arc::new(MemEnv::new());
        {
            let mut opts = WtOptions::new(env.clone());
            opts.checkpoint_every = 4 << 10; // Checkpoint often.
            let db = WtDb::open(opts, "wt").unwrap();
            for i in 0..500 {
                db.put(format!("k{i:04}").as_bytes(), &[7u8; 64]).unwrap();
            }
            db.checkpoint().unwrap();
            // Post-checkpoint writes replay from the journal tail.
            for i in 500..600 {
                db.put(format!("k{i:04}").as_bytes(), &[8u8; 64]).unwrap();
            }
        }
        assert!(env.exists(std::path::Path::new("wt/checkpoint")));
        let db = WtDb::open(WtOptions::new(env), "wt").unwrap();
        assert_eq!(db.len(), 600);
        assert_eq!(db.get(b"k0599").unwrap().unwrap(), vec![8u8; 64]);
        assert_eq!(db.get(b"k0000").unwrap().unwrap(), vec![7u8; 64]);
    }

    #[test]
    fn synced_writes_survive_power_failure() {
        let mem = Arc::new(MemEnv::new());
        let env: EnvRef = mem.clone();
        {
            let mut opts = WtOptions::new(env.clone());
            opts.sync_writes = true;
            let db = WtDb::open(opts, "wt").unwrap();
            for i in 0..50 {
                db.put(format!("s{i}").as_bytes(), b"durable").unwrap();
            }
            // Power fails with the db open; dropping it writes nothing.
            mem.fs().power_failure();
        }
        let db = WtDb::open(WtOptions::new(env), "wt").unwrap();
        assert_eq!(db.len(), 50);
        assert_eq!(db.get(b"s49").unwrap().unwrap(), b"durable");
    }

    #[test]
    fn unsynced_tail_is_dropped_after_power_failure() {
        let mem = Arc::new(MemEnv::new());
        let env: EnvRef = mem.clone();
        {
            let mut opts = WtOptions::new(env.clone());
            opts.sync_writes = false;
            let db = WtDb::open(opts, "wt").unwrap();
            db.put(b"lost", b"maybe").unwrap();
            mem.fs().power_failure();
        }
        let db = WtDb::open(WtOptions::new(env), "wt").unwrap();
        // Unsynced journal bytes vanished: the key must be gone (and the
        // open must not fail on the truncated log).
        assert_eq!(db.get(b"lost").unwrap(), None);
    }

    #[test]
    fn concurrent_clients_serialize_correctly() {
        let db = Arc::new(db());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let k = format!("t{t}-{i}");
                        db.put(k.as_bytes(), k.as_bytes()).unwrap();
                        assert_eq!(db.get(k.as_bytes()).unwrap().unwrap(), k.as_bytes());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.len(), 1600);
    }

    #[test]
    fn snapshot_is_point_in_time_under_concurrent_writes() {
        let db = db();
        for i in 0..40 {
            db.put(format!("k{i:02}").as_bytes(), format!("old{i}").as_bytes())
                .unwrap();
        }
        let mut snap = db.snapshot().unwrap();
        assert_eq!(snap.len(), 40);
        // Mutate the live store after the fork: overwrites, deletes and
        // fresh keys must all be invisible to the snapshot.
        db.put(b"k05", b"NEW").unwrap();
        db.delete(b"k06").unwrap();
        db.put(b"zz", b"fresh").unwrap();
        let mut all = Vec::new();
        let mut batches = 0;
        loop {
            let (batch, done) = snap.next_batch(7, usize::MAX).unwrap();
            all.extend(batch);
            batches += 1;
            if done {
                break;
            }
        }
        assert!(batches >= 40 / 7);
        assert_eq!(all.len(), 40);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "key order");
        for (i, (k, v)) in all.iter().enumerate() {
            assert_eq!(k, format!("k{i:02}").as_bytes());
            assert_eq!(v, format!("old{i}").as_bytes());
        }
    }

    #[test]
    fn snapshot_byte_budget_keeps_progress() {
        let db = db();
        for i in 0..5 {
            db.put(format!("k{i}").as_bytes(), &[b'x'; 100]).unwrap();
        }
        let mut snap = db.snapshot().unwrap();
        let mut total = 0;
        loop {
            let (batch, done) = snap.next_batch(100, 10).unwrap();
            assert!(done || batch.len() == 1, "budget below one entry");
            total += batch.len();
            if done {
                break;
            }
        }
        assert_eq!(total, 5);
    }

    #[test]
    fn mem_usage_reflects_index_size() {
        let db = db();
        let before = db.mem_usage();
        for i in 0..1000 {
            db.put(format!("key-number-{i:06}").as_bytes(), b"v")
                .unwrap();
        }
        assert!(db.mem_usage() > before + 1000 * 16);
    }
}
