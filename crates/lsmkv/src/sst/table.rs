//! SSTable builder and reader.
//!
//! File layout:
//!
//! ```text
//! [data block + trailer]*
//! [filter block (bloom) + trailer]
//! [index block + trailer]
//! footer: filter_handle (16) | index_handle (16) | entries (8) | magic (8)
//! ```
//!
//! Each block trailer is `type: u8 (0 = raw) | masked_crc32c: fixed32` over
//! the block bytes plus the type byte. Index entries map the last internal
//! key of each data block to its [`BlockHandle`].

use std::ops::Range;
use std::sync::Arc;

use p2kvs_storage::{RandomAccessFile, WritableFile};
use p2kvs_util::coding::get_fixed64;
use p2kvs_util::crc32c;

use super::block::{Block, BlockBuilder, BlockIter};
use super::bloom::BloomPolicy;
use super::cache::BlockCache;
use crate::error::{Error, Result};
use crate::iterator::InternalIterator;
use crate::types::user_key;

const MAGIC: u64 = 0x7032_6b76_735f_7373; // "p2kvs_ss"
const FOOTER_SIZE: usize = 16 + 16 + 8 + 8;
const BLOCK_TRAILER_SIZE: usize = 5;
/// Bytes a [`TableReader::sequential`] reader asks the device for at a time.
const READAHEAD: u64 = 256 << 10;

/// Location of a block within the table file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHandle {
    /// Byte offset of the block.
    pub offset: u64,
    /// Length of the block excluding its trailer.
    pub size: u64,
}

impl BlockHandle {
    fn encode(&self, dst: &mut [u8]) {
        dst[..8].copy_from_slice(&self.offset.to_le_bytes());
        dst[8..16].copy_from_slice(&self.size.to_le_bytes());
    }

    fn decode(src: &[u8]) -> BlockHandle {
        BlockHandle {
            offset: get_fixed64(src),
            size: get_fixed64(&src[8..]),
        }
    }
}

/// Configuration subset needed to build tables.
#[derive(Debug, Clone, Copy)]
pub struct TableConfig {
    /// Target uncompressed data-block size.
    pub block_size: usize,
    /// Restart interval of data blocks.
    pub restart_interval: usize,
    /// Bloom bits per key; 0 disables the filter block.
    pub bloom_bits_per_key: usize,
}

/// Restart interval of the data blocks a store writes. Readers take the
/// restart points from each block, so stores written with another
/// interval still open.
pub const BLOCK_RESTART_INTERVAL: usize = 16;

/// Target uncompressed size of the data blocks a store writes. Readers
/// take block boundaries from each table's index, so stores written with
/// another size still open.
pub const BLOCK_SIZE: usize = 4 << 10;

impl From<&crate::options::Options> for TableConfig {
    fn from(o: &crate::options::Options) -> Self {
        TableConfig {
            block_size: BLOCK_SIZE,
            restart_interval: BLOCK_RESTART_INTERVAL,
            bloom_bits_per_key: o.bloom_bits_per_key,
        }
    }
}

/// Summary of a finished table.
#[derive(Debug)]
pub struct TableSummary {
    /// Final file size in bytes.
    pub file_size: u64,
    /// Smallest internal key.
    pub smallest: Vec<u8>,
    /// Largest internal key.
    pub largest: Vec<u8>,
    /// Number of entries.
    pub entries: u64,
    /// What a reader of the table keeps in memory, as the builder held it
    /// ([`TableReader::built`]).
    pub tail: TableTail,
}

/// The parts of a table a reader keeps in memory besides its file: what
/// [`TableReader::open`] reads back through the footer, and what a
/// builder hands over ([`TableSummary::tail`]) so that the first reader
/// of a table just written need not read them back.
#[derive(Debug)]
pub struct TableTail {
    index: Vec<u8>,
    filter: Option<Vec<u8>>,
    data_end: u64,
    entries: u64,
}

/// Streams sorted entries into an SSTable file. Allocates per block and
/// per table, never per entry.
pub struct TableBuilder {
    file: Box<dyn WritableFile>,
    config: TableConfig,
    data_block: BlockBuilder,
    index_block: BlockBuilder,
    /// [`BloomPolicy::hash`] of every entry's user key, for the table-wide
    /// filter.
    key_hashes: Vec<u32>,
    offset: u64,
    entries: u64,
    smallest: Option<Vec<u8>>,
}

impl TableBuilder {
    /// Starts a table in `file`.
    pub fn new(file: Box<dyn WritableFile>, config: TableConfig) -> TableBuilder {
        TableBuilder {
            file,
            data_block: BlockBuilder::new(config.restart_interval),
            index_block: BlockBuilder::new(1),
            config,
            key_hashes: Vec::new(),
            offset: 0,
            entries: 0,
            smallest: None,
        }
    }

    /// Adds an entry; internal keys must arrive strictly increasing.
    pub fn add(&mut self, ikey: &[u8], value: &[u8]) -> Result<()> {
        if self.smallest.is_none() {
            self.smallest = Some(ikey.to_vec());
        }
        if self.config.bloom_bits_per_key > 0 {
            self.key_hashes.push(BloomPolicy::hash(user_key(ikey)));
        }
        self.data_block.add(ikey, value);
        self.entries += 1;
        if self.data_block.size_estimate() >= self.config.block_size {
            self.flush_data_block()?;
        }
        Ok(())
    }

    /// Estimated final file size so far.
    pub fn estimated_size(&self) -> u64 {
        self.offset + self.data_block.size_estimate() as u64
    }

    /// Number of entries added so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    fn flush_data_block(&mut self) -> Result<()> {
        if self.data_block.is_empty() {
            return Ok(());
        }
        let handle =
            Self::write_block(&mut *self.file, &mut self.offset, self.data_block.finish())?;
        let mut handle_enc = [0u8; 16];
        handle.encode(&mut handle_enc);
        self.index_block
            .add(self.data_block.last_key(), &handle_enc);
        self.data_block.reset();
        Ok(())
    }

    /// Appends `contents` and its trailer at `*offset`, advancing it.
    fn write_block(
        file: &mut dyn WritableFile,
        offset: &mut u64,
        contents: &[u8],
    ) -> Result<BlockHandle> {
        let handle = BlockHandle {
            offset: *offset,
            size: contents.len() as u64,
        };
        file.append(contents)?;
        let mut trailer = [0u8; BLOCK_TRAILER_SIZE];
        trailer[0] = 0; // Raw, uncompressed.
        let crc = crc32c::mask(crc32c::extend(crc32c::crc32c(contents), &trailer[..1]));
        trailer[1..].copy_from_slice(&crc.to_le_bytes());
        file.append(&trailer)?;
        *offset += contents.len() as u64 + BLOCK_TRAILER_SIZE as u64;
        Ok(handle)
    }

    /// Finishes the table: writes filter, index, and footer, then syncs.
    pub fn finish(mut self) -> Result<TableSummary> {
        self.flush_data_block()?;
        let (file, offset) = (&mut *self.file, &mut self.offset);
        let data_end = *offset;
        // Filter block.
        let filter = (self.config.bloom_bits_per_key > 0).then(|| {
            let mut filter = Vec::new();
            BloomPolicy::new(self.config.bloom_bits_per_key)
                .create_filter(&self.key_hashes, &mut filter);
            filter
        });
        let filter_handle = match &filter {
            Some(filter) => Self::write_block(file, offset, filter)?,
            None => BlockHandle { offset: 0, size: 0 },
        };
        // Index block; its last key is the last key of the last data block.
        let index = self.index_block.finish().to_vec();
        let index_handle = Self::write_block(file, offset, &index)?;
        // Footer.
        let mut footer = [0u8; FOOTER_SIZE];
        filter_handle.encode(&mut footer[..16]);
        index_handle.encode(&mut footer[16..32]);
        footer[32..40].copy_from_slice(&self.entries.to_le_bytes());
        footer[40..].copy_from_slice(&MAGIC.to_le_bytes());
        file.append(&footer)?;
        file.sync()?;
        Ok(TableSummary {
            file_size: self.offset + FOOTER_SIZE as u64,
            smallest: self.smallest.unwrap_or_default(),
            largest: self.index_block.last_key().to_vec(),
            entries: self.entries,
            tail: TableTail {
                index,
                filter,
                data_end,
                entries: self.entries,
            },
        })
    }
}

/// Reads an SSTable.
pub struct TableReader {
    file: Box<dyn RandomAccessFile>,
    /// Unique id for block-cache keys.
    table_id: u64,
    cache: Option<Arc<BlockCache>>,
    index: Arc<Block>,
    /// The filter block's contents.
    filter: Option<Window>,
    /// Offset at which the data blocks end.
    data_end: u64,
    /// Number of entries recorded in the footer.
    pub entries: u64,
}

impl TableReader {
    /// Opens a table of `size` bytes from `file`.
    pub fn open(
        file: Box<dyn RandomAccessFile>,
        size: u64,
        table_id: u64,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<TableReader> {
        if size < FOOTER_SIZE as u64 {
            return Err(Error::corruption("table smaller than footer"));
        }
        let mut footer = [0u8; FOOTER_SIZE];
        file.read_at(size - FOOTER_SIZE as u64, &mut footer)?;
        if get_fixed64(&footer[40..]) != MAGIC {
            return Err(Error::corruption("bad table magic"));
        }
        let filter_handle = BlockHandle::decode(&footer[..16]);
        let index_handle = BlockHandle::decode(&footer[16..32]);
        let entries = get_fixed64(&footer[32..40]);
        let index = Window::read(&*file, index_handle.offset, index_handle.stored_len())?
            .block(index_handle)?;
        let filter = if filter_handle.size > 0 {
            let window = Window::read(&*file, filter_handle.offset, filter_handle.stored_len())?;
            Some(window.contents(filter_handle)?)
        } else {
            None
        };
        let data_end = if filter.is_some() {
            filter_handle.offset
        } else {
            index_handle.offset
        };
        Ok(TableReader {
            file,
            table_id,
            cache,
            index: Arc::new(index),
            filter,
            data_end,
            entries,
        })
    }

    /// A reader of the table whose builder returned `tail`: it reads
    /// nothing from `file` until a data block is wanted.
    pub fn built(
        file: Box<dyn RandomAccessFile>,
        table_id: u64,
        cache: Option<Arc<BlockCache>>,
        tail: TableTail,
    ) -> Result<TableReader> {
        Ok(TableReader {
            file,
            table_id,
            cache,
            index: Arc::new(Block::new(Arc::new(tail.index))?),
            filter: tail.filter.map(Window::of),
            data_end: tail.data_end,
            entries: tail.entries,
        })
    }

    /// Loads the data block at `handle`, via the cache unless `skip_cache`.
    pub fn read_block(&self, handle: BlockHandle, skip_cache: bool) -> Result<Arc<Block>> {
        if !skip_cache {
            if let Some(block) = self.cached_block(handle) {
                return Ok(block);
            }
        }
        self.admit_block(handle, self.fetch_block(handle)?, skip_cache)
    }

    /// Whether the bloom filter admits the user key whose
    /// [`BloomPolicy::hash`] is `hash` (`false` = the table cannot hold it).
    pub fn may_contain(&self, hash: u32) -> bool {
        match &self.filter {
            Some(f) => BloomPolicy::hash_may_match(hash, f.bytes()),
            None => true,
        }
    }

    /// The data block that holds the first entry `>= ikey`, if the table
    /// has one (an index seek; no device IO).
    pub fn locate(&self, ikey: &[u8]) -> Option<BlockHandle> {
        let mut index_iter = self.index.iter();
        index_iter.seek(ikey);
        index_iter
            .valid()
            .then(|| BlockHandle::decode(index_iter.value()))
    }

    /// Block-cache probe for the data block at `handle`.
    pub fn cached_block(&self, handle: BlockHandle) -> Option<Arc<Block>> {
        self.cache.as_ref()?.get(&(self.table_id, handle.offset))
    }

    /// The device half of a data-block load: the block's bytes as read,
    /// not yet verified. The only step of a lookup that waits on the
    /// device, so a batched lookup issues it for many blocks in one
    /// [`p2kvs_storage::IoChains`] run, one chain each, and hands each
    /// result to [`TableReader::admit_block`] after the run settles.
    pub fn fetch_block(&self, handle: BlockHandle) -> Result<Window> {
        Window::read(&*self.file, handle.offset, handle.stored_len())
    }

    /// The host half of a data-block load: verifies and parses bytes
    /// obtained from [`TableReader::fetch_block`], and caches the block
    /// unless `skip_cache`.
    pub fn admit_block(
        &self,
        handle: BlockHandle,
        fetched: Window,
        skip_cache: bool,
    ) -> Result<Arc<Block>> {
        let block = Arc::new(fetched.block(handle)?);
        if !skip_cache {
            if let Some(cache) = &self.cache {
                cache.insert((self.table_id, handle.offset), block.clone());
            }
        }
        Ok(block)
    }

    /// Point lookup: the first entry with internal key `>= ikey`, if it is
    /// in this table. The caller checks user-key equality and visibility,
    /// and consults [`TableReader::may_contain`] first if it wants the
    /// filter: this does not probe it again.
    pub fn get(&self, ikey: &[u8], skip_cache: bool) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        let Some(handle) = self.locate(ikey) else {
            return Ok(None);
        };
        let block = self.read_block(handle, skip_cache)?;
        let mut it = block.iter();
        it.seek(ikey);
        if !it.valid() {
            return Ok(None);
        }
        Ok(Some((it.key().to_vec(), it.value().to_vec())))
    }

    /// Full iterator over the table for reads and scans: data blocks come
    /// from, and go into, the block cache.
    pub fn iter(self: &Arc<Self>) -> TableIterator {
        TableIterator {
            table: self.clone(),
            index_iter: self.index.iter(),
            data_iter: None,
            window: None,
            status: None,
        }
    }

    /// Full iterator over the table for a compaction, which reads it once,
    /// front to back, and then deletes it: data blocks come off the device
    /// a readahead window at a time and never meet the block cache.
    pub fn sequential(self: &Arc<Self>) -> TableIterator {
        TableIterator {
            window: Some(Window::default()),
            ..self.iter()
        }
    }

    /// The data block at `handle` out of `window`, verified. A block that
    /// is not wholly inside the window moves the window: it then starts at
    /// that block and runs [`READAHEAD`] bytes on, or to the end of the data
    /// blocks (or of this block, should it be the larger).
    fn read_ahead(&self, handle: BlockHandle, window: &mut Window) -> Result<Arc<Block>> {
        if !window.holds(handle) {
            let end = (handle.offset + READAHEAD)
                .min(self.data_end)
                .max(handle.offset + handle.stored_len());
            *window = Window::read(&*self.file, handle.offset, end - handle.offset)?;
        }
        Ok(Arc::new(window.block(handle)?))
    }
}

impl BlockHandle {
    /// Bytes the block takes in the file: its contents and its trailer
    /// (saturating: a handle read from a damaged file may hold anything,
    /// and a read that long fails).
    fn stored_len(&self) -> u64 {
        self.size.saturating_add(BLOCK_TRAILER_SIZE as u64)
    }
}

/// A stretch of a table file as the env returned it
/// ([`RandomAccessFile::read_shared`]): the file's bytes from `offset`
/// on are `buf[range]`, in a buffer that may be the file's own. Blocks
/// parsed out of it share the buffer; nothing is copied.
#[derive(Default)]
pub struct Window {
    /// File offset of `buf[range.start]`.
    offset: u64,
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl Window {
    /// Reads `len` bytes of `file` at `offset`.
    fn read(file: &dyn RandomAccessFile, offset: u64, len: u64) -> Result<Window> {
        let (buf, range) = file.read_shared(offset, len as usize)?;
        Ok(Window { offset, buf, range })
    }

    /// A window over bytes held in memory already.
    fn of(bytes: Vec<u8>) -> Window {
        Window {
            offset: 0,
            range: 0..bytes.len(),
            buf: Arc::new(bytes),
        }
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }

    /// Whether the block at `handle` and its trailer lie wholly inside.
    fn holds(&self, handle: BlockHandle) -> bool {
        handle.offset >= self.offset
            && handle.offset.saturating_add(handle.stored_len())
                <= self.offset + self.range.len() as u64
    }

    /// The contents of the block at `handle`, which the window holds,
    /// checked in place against the CRC in its trailer.
    fn contents(&self, handle: BlockHandle) -> Result<Window> {
        debug_assert!(self.holds(handle));
        let start = self.range.start + (handle.offset - self.offset) as usize;
        let end = start + handle.size as usize;
        let trailer = &self.buf[end..end + BLOCK_TRAILER_SIZE];
        let stored = u32::from_le_bytes(trailer[1..5].try_into().expect("4 bytes"));
        let actual = crc32c::mask(crc32c::extend(
            crc32c::crc32c(&self.buf[start..end]),
            &trailer[..1],
        ));
        if stored != actual {
            return Err(Error::corruption(format!(
                "block crc mismatch at offset {}",
                handle.offset
            )));
        }
        Ok(Window {
            offset: handle.offset,
            buf: self.buf.clone(),
            range: start..end,
        })
    }

    /// The block at `handle`, which the window holds, verified and parsed.
    fn block(&self, handle: BlockHandle) -> Result<Block> {
        let contents = self.contents(handle)?;
        Block::within(contents.buf, contents.range)
    }
}

/// Two-level iterator: index block → data blocks.
pub struct TableIterator {
    table: Arc<TableReader>,
    index_iter: BlockIter,
    data_iter: Option<BlockIter>,
    /// Where a [`TableReader::sequential`] reader takes its data blocks
    /// from; `None` takes them from the block cache.
    window: Option<Window>,
    /// First block-load error; makes the iterator invalid and is reported
    /// through [`InternalIterator::status`] so consumers can tell a read
    /// failure from a clean end of stream.
    status: Option<Error>,
}

impl TableIterator {
    fn load_data_block(&mut self) {
        self.data_iter = None;
        if !self.index_iter.valid() {
            return;
        }
        let handle = BlockHandle::decode(self.index_iter.value());
        let loaded = match &mut self.window {
            Some(window) => self.table.read_ahead(handle, window),
            None => self.table.read_block(handle, false),
        };
        match loaded {
            Ok(block) => self.data_iter = Some(block.iter()),
            Err(e) => {
                if self.status.is_none() {
                    self.status = Some(e);
                }
            }
        }
    }

    /// Advances the index until the data iterator is valid or exhausted.
    fn skip_empty_blocks(&mut self) {
        while self
            .data_iter
            .as_ref()
            .map(|it| !it.valid())
            .unwrap_or(false)
        {
            if !self.index_iter.valid() {
                self.data_iter = None;
                return;
            }
            self.index_iter.next();
            self.load_data_block();
            if let Some(it) = &mut self.data_iter {
                it.seek_to_first();
            }
        }
    }
}

impl InternalIterator for TableIterator {
    fn valid(&self) -> bool {
        self.data_iter
            .as_ref()
            .map(BlockIter::valid)
            .unwrap_or(false)
    }

    fn status(&self) -> Result<()> {
        match &self.status {
            Some(e) => Err(e.clone_shallow()),
            None => Ok(()),
        }
    }

    fn seek_to_first(&mut self) {
        self.status = None;
        self.index_iter.seek_to_first();
        self.load_data_block();
        if let Some(it) = &mut self.data_iter {
            it.seek_to_first();
        }
        self.skip_empty_blocks();
    }

    fn seek(&mut self, target: &[u8]) {
        self.status = None;
        self.index_iter.seek(target);
        self.load_data_block();
        if let Some(it) = &mut self.data_iter {
            it.seek(target);
        }
        self.skip_empty_blocks();
    }

    fn next(&mut self) {
        let it = self.data_iter.as_mut().expect("next() on invalid iterator");
        it.next();
        self.skip_empty_blocks();
    }

    fn key(&self) -> &[u8] {
        self.data_iter.as_ref().expect("invalid").key()
    }

    fn value(&self) -> &[u8] {
        self.data_iter.as_ref().expect("invalid").value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{make_internal_key, seq_and_type, ValueType};
    use p2kvs_storage::{Env, MemEnv};
    use std::path::Path;

    fn config() -> TableConfig {
        TableConfig {
            block_size: 512,
            restart_interval: 4,
            bloom_bits_per_key: 10,
        }
    }

    fn build_table(env: &MemEnv, path: &Path, n: usize) -> (TableSummary, Arc<TableReader>) {
        let mut b = TableBuilder::new(env.new_writable(path).unwrap(), config());
        for i in 0..n {
            let ikey = make_internal_key(format!("key{i:06}").as_bytes(), 1, ValueType::Value);
            b.add(&ikey, format!("value{i}").as_bytes()).unwrap();
        }
        let summary = b.finish().unwrap();
        let file = env.new_random_access(path).unwrap();
        let reader = Arc::new(TableReader::open(file, summary.file_size, 1, None).unwrap());
        (summary, reader)
    }

    #[test]
    fn build_and_get_all_keys() {
        let env = MemEnv::new();
        let (summary, reader) = build_table(&env, Path::new("t.sst"), 1000);
        assert_eq!(summary.entries, 1000);
        assert_eq!(reader.entries, 1000);
        for i in (0..1000).step_by(17) {
            let ikey = make_internal_key(
                format!("key{i:06}").as_bytes(),
                u64::MAX >> 8,
                ValueType::Value,
            );
            let (k, v) = reader.get(&ikey, false).unwrap().unwrap();
            assert_eq!(user_key(&k), format!("key{i:06}").as_bytes());
            assert_eq!(v, format!("value{i}").as_bytes());
        }
    }

    #[test]
    fn get_missing_key_filtered_by_bloom() {
        let env = MemEnv::new();
        let (_, reader) = build_table(&env, Path::new("t.sst"), 100);
        let ikey = make_internal_key(b"not-present", u64::MAX >> 8, ValueType::Value);
        // Bloom should reject the vast majority of absent keys without IO.
        let mut rejected = 0;
        for i in 0..100 {
            let ikey = make_internal_key(
                format!("absent{i:04}").as_bytes(),
                u64::MAX >> 8,
                ValueType::Value,
            );
            if !reader.may_contain(BloomPolicy::hash(user_key(&ikey))) {
                rejected += 1;
            }
        }
        assert!(rejected > 90, "bloom rejected only {rejected}/100");
        // And a full get on a missing key returns a non-matching or absent
        // entry rather than a wrong one.
        if let Some((k, _)) = reader.get(&ikey, false).unwrap() {
            assert_ne!(user_key(&k), b"not-present");
        }
    }

    #[test]
    fn summary_bounds_are_correct() {
        let env = MemEnv::new();
        let (summary, _) = build_table(&env, Path::new("t.sst"), 50);
        assert_eq!(user_key(&summary.smallest), b"key000000");
        assert_eq!(user_key(&summary.largest), b"key000049");
        assert_eq!(
            env.file_size(Path::new("t.sst")).unwrap(),
            summary.file_size
        );
    }

    #[test]
    fn iterator_walks_everything_in_order() {
        let env = MemEnv::new();
        let (_, reader) = build_table(&env, Path::new("t.sst"), 500);
        let mut it = reader.iter();
        it.seek_to_first();
        let mut count = 0;
        let mut last: Option<Vec<u8>> = None;
        while it.valid() {
            let k = user_key(it.key()).to_vec();
            if let Some(prev) = &last {
                assert!(*prev < k);
            }
            last = Some(k);
            count += 1;
            it.next();
        }
        assert_eq!(count, 500);
    }

    #[test]
    fn iterator_seek_mid_table() {
        let env = MemEnv::new();
        let (_, reader) = build_table(&env, Path::new("t.sst"), 300);
        let mut it = reader.iter();
        it.seek(&make_internal_key(
            b"key000150",
            u64::MAX >> 8,
            ValueType::Value,
        ));
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"key000150");
        it.seek(&make_internal_key(b"zzzz", u64::MAX >> 8, ValueType::Value));
        assert!(!it.valid());
    }

    #[test]
    fn tombstones_survive_roundtrip() {
        let env = MemEnv::new();
        let path = Path::new("d.sst");
        let mut b = TableBuilder::new(env.new_writable(path).unwrap(), config());
        let del = make_internal_key(b"gone", 5, ValueType::Deletion);
        b.add(&del, b"").unwrap();
        let put = make_internal_key(b"here", 6, ValueType::Value);
        b.add(&put, b"v").unwrap();
        let summary = b.finish().unwrap();
        let reader = Arc::new(
            TableReader::open(
                env.new_random_access(path).unwrap(),
                summary.file_size,
                2,
                None,
            )
            .unwrap(),
        );
        let (k, _) = reader
            .get(
                &make_internal_key(b"gone", u64::MAX >> 8, ValueType::Value),
                false,
            )
            .unwrap()
            .unwrap();
        assert_eq!(seq_and_type(&k), (5, ValueType::Deletion));
    }

    #[test]
    fn cache_serves_repeat_reads() {
        let env = MemEnv::new();
        let path = Path::new("c.sst");
        let mut b = TableBuilder::new(env.new_writable(path).unwrap(), config());
        for i in 0..200 {
            let ikey = make_internal_key(format!("k{i:05}").as_bytes(), 1, ValueType::Value);
            b.add(&ikey, b"v").unwrap();
        }
        let summary = b.finish().unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let reader = Arc::new(
            TableReader::open(
                env.new_random_access(path).unwrap(),
                summary.file_size,
                3,
                Some(cache.clone()),
            )
            .unwrap(),
        );
        let ikey = make_internal_key(b"k00007", u64::MAX >> 8, ValueType::Value);
        let read0 = env.io_stats().bytes_read;
        reader.get(&ikey, false).unwrap().unwrap();
        let read1 = env.io_stats().bytes_read;
        reader.get(&ikey, false).unwrap().unwrap();
        let read2 = env.io_stats().bytes_read;
        assert!(read1 > read0, "first read hits the file");
        assert_eq!(read2, read1, "second read served from cache");
        let (hits, _) = cache.stats();
        assert!(hits >= 1);
    }

    #[test]
    fn iterator_status_surfaces_injected_read_error() {
        // A block read that fails mid-iteration ends the iterator; without
        // `status()` that is indistinguishable from a clean end of stream,
        // which once let a compaction silently truncate its output.
        use p2kvs_storage::{FaultPlan, FaultyEnv};
        let faulty = FaultyEnv::over_mem();
        let path = Path::new("f.sst");
        let mut b = TableBuilder::new(faulty.new_writable(path).unwrap(), config());
        for i in 0..500 {
            let ikey = make_internal_key(format!("key{i:06}").as_bytes(), 1, ValueType::Value);
            b.add(&ikey, format!("value{i}").as_bytes()).unwrap();
        }
        let summary = b.finish().unwrap();
        let reader = Arc::new(
            TableReader::open(
                faulty.new_random_access(path).unwrap(),
                summary.file_size,
                9,
                None,
            )
            .unwrap(),
        );
        let mut it = reader.iter();
        it.seek_to_first();
        assert!(it.valid());
        // Fail the next read: the upcoming data-block load.
        faulty.set_plan(FaultPlan {
            fail_read: Some(faulty.reads() + 1),
            ..FaultPlan::default()
        });
        let mut seen = 0;
        while it.valid() {
            seen += 1;
            it.next();
        }
        assert!(seen < 500, "every block served from one read?");
        let err = it.status().expect_err("read error must surface");
        assert!(err.to_string().contains("injected fault"), "{err}");
        // The error is transient: re-seeking retries and succeeds.
        it.seek_to_first();
        let mut count = 0;
        while it.valid() {
            count += 1;
            it.next();
        }
        assert_eq!(count, 500);
        it.status().unwrap();
    }

    /// A table whose data blocks end exactly at `data_end`: small blocks
    /// until under 4 KiB remain, then one block of one entry whose value
    /// takes up the rest.
    fn build_table_ending_at(env: &MemEnv, path: &Path, data_end: u64) -> Arc<TableReader> {
        let ikey =
            |i: usize| make_internal_key(format!("key{i:06}").as_bytes(), 1, ValueType::Value);
        let mut b = TableBuilder::new(env.new_writable(path).unwrap(), config());
        let mut i = 0;
        while !b.data_block.is_empty() || b.offset + 4096 < data_end {
            b.add(&ikey(i), format!("value{i}").as_bytes()).unwrap();
            i += 1;
        }
        // Entry header (shared, non-shared, a two-byte value length), key,
        // one restart, the restart count, the trailer.
        let overhead = 1 + 1 + 2 + ikey(i).len() + 4 + 4 + BLOCK_TRAILER_SIZE;
        let value = vec![b'x'; (data_end - b.offset) as usize - overhead];
        b.add(&ikey(i), &value).unwrap();
        let summary = b.finish().unwrap();
        let file = env.new_random_access(path).unwrap();
        let reader = Arc::new(TableReader::open(file, summary.file_size, 1, None).unwrap());
        assert_eq!(reader.data_end, data_end);
        reader
    }

    /// Every entry from the iterator's position to its end.
    fn drain(it: &mut TableIterator) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        while it.valid() {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        it.status().unwrap();
        out
    }

    #[test]
    fn sequential_reader_yields_what_the_cached_reader_yields() {
        for (what, data_end, windows) in [
            ("under one window", 40 << 10, 1u64),
            ("exactly one window", READAHEAD, 1),
            ("a block across the first window's end", READAHEAD + 8000, 2),
        ] {
            let env = MemEnv::new();
            let reader = build_table_ending_at(&env, Path::new("w.sst"), data_end);
            let mut cached = reader.iter();
            cached.seek_to_first();
            let all = drain(&mut cached);
            let reads = env.io_stats().read_ops;
            let mut sequential = reader.sequential();
            sequential.seek_to_first();
            assert_eq!(drain(&mut sequential), all, "{what}");
            assert_eq!(env.io_stats().read_ops - reads, windows, "{what}");

            // Seeks: the first key, into the middle, between two keys, the
            // last key, and the last key of every block that lies across
            // the first window's end.
            let mut targets = vec![
                all[0].0.clone(),
                all[all.len() / 2].0.clone(),
                make_internal_key(b"key000010x", u64::MAX >> 8, ValueType::Value),
                all[all.len() - 1].0.clone(),
            ];
            let mut index = reader.index.iter();
            index.seek_to_first();
            while index.valid() {
                let h = BlockHandle::decode(index.value());
                let end = h.offset + h.size + BLOCK_TRAILER_SIZE as u64;
                if h.offset < READAHEAD && end > READAHEAD {
                    targets.push(index.key().to_vec());
                }
                index.next();
            }
            assert_eq!(targets.len() as u64, 4 + windows - 1, "{what}");
            for target in &targets {
                sequential.seek(target);
                cached.seek(target);
                assert!(sequential.valid(), "{what}");
                assert_eq!(drain(&mut sequential), drain(&mut cached), "{what}");
            }
            sequential.seek(&make_internal_key(b"zzzz", u64::MAX >> 8, ValueType::Value));
            assert!(!sequential.valid(), "{what}");
            sequential.status().unwrap();
        }
    }

    #[test]
    fn sequential_reader_verifies_every_block_and_stays_out_of_the_block_cache() {
        let env = MemEnv::new();
        let path = Path::new("s.sst");
        let (summary, _) = build_table(&env, path, 1000);
        let cache = Arc::new(BlockCache::new(1 << 20));
        let open = || {
            let file = env.new_random_access(path).unwrap();
            Arc::new(TableReader::open(file, summary.file_size, 7, Some(cache.clone())).unwrap())
        };
        let mut it = open().sequential();
        it.seek_to_first();
        assert_eq!(drain(&mut it).len(), 1000);
        assert_eq!(
            (cache.stats(), cache.inserts(), cache.usage()),
            ((0, 0), 0, 0)
        );

        // One flipped bit in a block in the middle of the window: every
        // entry before that block is served, none after, and the iterator
        // reports why it stopped.
        let mut data = p2kvs_storage::env::read_all(&env, path).unwrap();
        let damaged = open()
            .locate(&make_internal_key(
                b"key000500",
                u64::MAX >> 8,
                ValueType::Value,
            ))
            .unwrap();
        data[damaged.offset as usize + 7] ^= 0x04;
        p2kvs_storage::env::write_all(&env, path, &data).unwrap();
        let mut it = open().sequential();
        it.seek_to_first();
        let mut served = 0;
        while it.valid() {
            assert!(user_key(it.key()) < b"key000500".as_slice());
            served += 1;
            it.next();
        }
        assert!(served > 400, "{served}");
        assert!(matches!(it.status(), Err(Error::Corruption(_))));
    }

    /// Length and CRC32C of the table below as commit d6b1ec8 built it.
    const GOLDEN_TABLE: (usize, u32) = (115_213, 0x6dc9_4e2a);

    /// The file a table builder writes is a format other builds of this
    /// engine read: its bytes for a fixed input, summed up at the commit
    /// before the builder stopped allocating per entry, must not move.
    #[test]
    fn builder_output_is_byte_identical_to_the_recorded_format() {
        let env = MemEnv::new();
        let path = Path::new("g.sst");
        let mut b = TableBuilder::new(env.new_writable(path).unwrap(), config());
        for i in 0..3000u64 {
            // Runs of versions of one user key, tombstones, empty values.
            let kind = if i % 7 == 0 {
                ValueType::Deletion
            } else {
                ValueType::Value
            };
            let ikey = make_internal_key(format!("user{:05}", i / 3).as_bytes(), 9000 - i, kind);
            b.add(&ikey, &vec![b'a' + (i % 26) as u8; (i % 40) as usize])
                .unwrap();
        }
        let summary = b.finish().unwrap();
        let bytes = p2kvs_storage::env::read_all(&env, path).unwrap();
        assert_eq!(bytes.len() as u64, summary.file_size);
        assert_eq!((bytes.len(), crc32c::crc32c(&bytes)), GOLDEN_TABLE);
    }

    #[test]
    fn corrupt_table_detected() {
        let env = MemEnv::new();
        let path = Path::new("x.sst");
        let (summary, _) = build_table(&env, Path::new("x.sst"), 100);
        let mut data = p2kvs_storage::env::read_all(&env, path).unwrap();
        data[10] ^= 0xff;
        p2kvs_storage::env::write_all(&env, path, &data).unwrap();
        let reader = TableReader::open(
            env.new_random_access(path).unwrap(),
            summary.file_size,
            4,
            None,
        )
        .unwrap();
        let ikey = make_internal_key(b"key000000", u64::MAX >> 8, ValueType::Value);
        assert!(matches!(
            reader.get(&ikey, false),
            Err(Error::Corruption(_))
        ));
        // Truncated file fails to open.
        assert!(TableReader::open(env.new_random_access(path).unwrap(), 10, 5, None).is_err());
    }

    #[test]
    fn empty_table() {
        let env = MemEnv::new();
        let path = Path::new("e.sst");
        let b = TableBuilder::new(env.new_writable(path).unwrap(), config());
        let summary = b.finish().unwrap();
        assert_eq!(summary.entries, 0);
        // An empty table still has a valid (single restart, zero entry)
        // index? No: the index block would be empty, which Block::new
        // rejects only if it has no restart array. BlockBuilder always
        // writes one restart, so the open must succeed.
        let reader = Arc::new(
            TableReader::open(
                env.new_random_access(path).unwrap(),
                summary.file_size,
                6,
                None,
            )
            .unwrap(),
        );
        let mut it = reader.iter();
        it.seek_to_first();
        assert!(!it.valid());
    }
}
