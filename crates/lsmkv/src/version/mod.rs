//! Versions: the immutable view of the LSM shape, and the version set that
//! evolves it through manifest-logged edits.
//!
//! * [`Version`] — per-level file lists. L0 (and every level under the
//!   fragmented policy) may contain overlapping files and is searched
//!   newest-file-first; deeper leveled levels are disjoint and binary
//!   searched.
//! * [`VersionSet`] — owns the current version, the `MANIFEST` log, the
//!   file-number allocator and compaction picking.

pub mod edit;
pub mod table_cache;

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use p2kvs_util::sync::Mutex;
use p2kvs_storage::{EnvRef, IoPlug};

use crate::error::{Error, Result};
use crate::iterator::InternalIterator;
use crate::options::{CompactionStyle, Options};
use crate::sst::{Block, BlockHandle, BloomPolicy, TableIterator, TableReader};
use crate::types::{
    file_path, internal_cmp, seq_and_type, user_key, FileKind, SequenceNumber, ValueType,
    CURRENT_FILE,
};
use crate::wal::{LogReader, LogWriter};
use edit::{FileMetaData, FileRef, VersionEdit};
use table_cache::TableCache;

/// Outcome of a point lookup below the memtables.
#[derive(Debug, PartialEq, Eq)]
pub enum GetOutcome {
    /// Live value.
    Found(Vec<u8>),
    /// Tombstone visible at the snapshot.
    Deleted,
    /// No visible entry.
    NotFound,
}

impl GetOutcome {
    /// The live value, if the lookup found one.
    pub fn into_value(self) -> Option<Vec<u8>> {
        match self {
            GetOutcome::Found(v) => Some(v),
            GetOutcome::Deleted | GetOutcome::NotFound => None,
        }
    }
}

/// Where a point lookup stands in its walk over the candidate tables (see
/// `Version::next_candidate`): the level being searched and how far into
/// it the walk has come.
#[derive(Default)]
struct CandidateCursor {
    level: usize,
    pos: usize,
}

/// An immutable snapshot of the file layout.
pub struct Version {
    /// Files per level. Ordering invariants:
    /// * L0 — descending file number (newest first).
    /// * Leveled L1+ — ascending smallest key, ranges disjoint.
    /// * Fragmented L1+ — descending file number (overlap allowed).
    pub levels: Vec<Vec<FileRef>>,
    style: CompactionStyle,
}

impl Version {
    /// An empty version with `n` levels.
    pub fn empty(n: usize, style: CompactionStyle) -> Version {
        Version {
            levels: vec![Vec::new(); n],
            style,
        }
    }

    /// Whether a level may contain overlapping files.
    pub fn level_overlaps(&self, level: usize) -> bool {
        level == 0 || self.style == CompactionStyle::Fragmented
    }

    /// Total bytes in `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|f| f.size).sum()
    }

    /// Number of files across all levels.
    pub fn num_files(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// File numbers referenced by this version.
    pub fn live_files(&self) -> HashSet<u64> {
        self.levels
            .iter()
            .flatten()
            .map(|f| f.number)
            .collect()
    }

    /// Whether `file`'s key range covers `ukey`.
    fn file_covers(file: &FileMetaData, ukey: &[u8]) -> bool {
        user_key(&file.smallest) <= ukey && ukey <= user_key(&file.largest)
    }

    /// Files of `level` whose user-key range intersects `[begin, end]`
    /// (`None` = unbounded), in the level's search order.
    pub fn overlapping(
        &self,
        level: usize,
        begin: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Vec<FileRef> {
        self.levels[level]
            .iter()
            .filter(|f| {
                let after = begin
                    .map(|b| user_key(&f.largest) < b)
                    .unwrap_or(false);
                let before = end.map(|e| user_key(&f.smallest) > e).unwrap_or(false);
                !after && !before
            })
            .cloned()
            .collect()
    }

    /// The next table a point lookup of `ukey` must search after the ones
    /// `cursor` already yielded: every covering file of an overlapping
    /// level newest first, the one covering file of a disjoint level (a
    /// binary search), levels in order.
    fn next_candidate(&self, ukey: &[u8], cursor: &mut CandidateCursor) -> Option<&FileRef> {
        while let Some(files) = self.levels.get(cursor.level) {
            if self.level_overlaps(cursor.level) {
                // Newest first (invariant: sorted by number descending).
                while let Some(f) = files.get(cursor.pos) {
                    cursor.pos += 1;
                    if Self::file_covers(f, ukey) {
                        return Some(f);
                    }
                }
            } else if cursor.pos == 0 {
                cursor.pos = 1;
                let idx = files.partition_point(|f| user_key(&f.largest) < ukey);
                if let Some(f) = files.get(idx).filter(|f| Self::file_covers(f, ukey)) {
                    return Some(f);
                }
            }
            *cursor = CandidateCursor {
                level: cursor.level + 1,
                pos: 0,
            };
        }
        None
    }

    /// What `block` says about `ukey` as of the snapshot encoded in
    /// `lookup`: `None` when its first entry `>= lookup` belongs to another
    /// user key, so the search goes on to the next table.
    fn outcome_in_block(block: &Arc<Block>, lookup: &[u8], ukey: &[u8]) -> Option<GetOutcome> {
        let mut it = block.iter();
        it.seek(lookup);
        if !it.valid() || user_key(it.key()) != ukey {
            return None;
        }
        Some(match seq_and_type(it.key()).1 {
            ValueType::Value => GetOutcome::Found(it.value().to_vec()),
            ValueType::Deletion => GetOutcome::Deleted,
        })
    }

    /// Looks up `ukey` as of `snapshot` through all levels.
    pub fn get(
        &self,
        ukey: &[u8],
        snapshot: SequenceNumber,
        cache: &TableCache,
        skip_block_cache: bool,
        stats: Option<&crate::stats::DbStats>,
    ) -> Result<GetOutcome> {
        let lookup = crate::types::make_internal_key(ukey, snapshot, ValueType::Value);
        let hash = BloomPolicy::hash(ukey);
        let mut cursor = CandidateCursor::default();
        while let Some(file) = self.next_candidate(ukey, &mut cursor) {
            let reader = file.reader(cache)?;
            if !reader.may_contain(hash) {
                if let Some(s) = stats {
                    crate::stats::DbStats::bump(&s.bloom_skips, 1);
                }
                continue;
            }
            let Some(handle) = reader.locate(&lookup) else {
                continue;
            };
            let block = reader.read_block(handle, skip_block_cache)?;
            if let Some(outcome) = Self::outcome_in_block(&block, &lookup, ukey) {
                return Ok(outcome);
            }
        }
        Ok(GetOutcome::NotFound)
    }

    /// Looks up every key of `ukeys` as of `snapshot`; outcomes are in key
    /// order and equal what [`Version::get`] returns for each key alone.
    ///
    /// The lookup runs in rounds. A round walks each unresolved key
    /// through its candidate tables (bloom probe, index seek, block-cache
    /// probe) until it is answered or needs a block from the device, then
    /// reads the *distinct* blocks the round needs as one plugged batch
    /// ([`IoPlug`]), and only after the unplug verifies, parses and
    /// searches them. A key whose block did not hold it continues in the
    /// next round, so a read that depends on another's result never
    /// shares its plug, and no byte of a plugged read is looked at before
    /// the wait for it is paid.
    pub fn get_many(
        &self,
        ukeys: &[&[u8]],
        snapshot: SequenceNumber,
        cache: &TableCache,
        skip_block_cache: bool,
        stats: Option<&crate::stats::DbStats>,
    ) -> Result<Vec<GetOutcome>> {
        /// One key still searching.
        struct Probe {
            /// Position in `ukeys`.
            slot: usize,
            lookup: Vec<u8>,
            /// The key's bloom hash, computed once for every table probed.
            hash: u32,
            cursor: CandidateCursor,
        }
        /// One block the current round must read, and who waits for it
        /// (positions in the round's `waiting`).
        struct Fetch {
            reader: Arc<TableReader>,
            handle: BlockHandle,
            waiters: Vec<usize>,
        }

        let mut outcomes: Vec<GetOutcome> = ukeys.iter().map(|_| GetOutcome::NotFound).collect();
        let mut active: Vec<Probe> = ukeys
            .iter()
            .enumerate()
            .map(|(slot, ukey)| Probe {
                slot,
                lookup: crate::types::make_internal_key(ukey, snapshot, ValueType::Value),
                hash: BloomPolicy::hash(ukey),
                cursor: CandidateCursor::default(),
            })
            .collect();
        let mut waiting: Vec<Probe> = Vec::with_capacity(active.len());
        let mut fetches: Vec<Fetch> = Vec::new();
        while !active.is_empty() {
            for mut probe in active.drain(..) {
                let ukey = ukeys[probe.slot];
                while let Some(file) = self.next_candidate(ukey, &mut probe.cursor) {
                    let reader = file.reader(cache)?;
                    if !reader.may_contain(probe.hash) {
                        if let Some(s) = stats {
                            crate::stats::DbStats::bump(&s.bloom_skips, 1);
                        }
                        continue;
                    }
                    let Some(handle) = reader.locate(&probe.lookup) else {
                        continue;
                    };
                    let cached = if skip_block_cache {
                        None
                    } else {
                        reader.cached_block(handle)
                    };
                    if let Some(block) = cached {
                        match Self::outcome_in_block(&block, &probe.lookup, ukey) {
                            Some(outcome) => {
                                outcomes[probe.slot] = outcome;
                                break;
                            }
                            None => continue,
                        }
                    }
                    let fetch = fetches
                        .iter()
                        .position(|f| Arc::ptr_eq(&f.reader, reader) && f.handle == handle)
                        .unwrap_or_else(|| {
                            fetches.push(Fetch {
                                reader: reader.clone(),
                                handle,
                                waiters: Vec::new(),
                            });
                            fetches.len() - 1
                        });
                    fetches[fetch].waiters.push(waiting.len());
                    waiting.push(probe);
                    break;
                }
            }
            let fetched: Vec<Result<Vec<u8>>> = {
                let _plug = IoPlug::enter();
                fetches
                    .iter()
                    .map(|f| f.reader.fetch_block(f.handle))
                    .collect()
            };
            let mut answered = vec![false; waiting.len()];
            for (fetch, bytes) in fetches.drain(..).zip(fetched) {
                let block = fetch
                    .reader
                    .admit_block(fetch.handle, bytes?, skip_block_cache)?;
                for w in fetch.waiters {
                    let probe = &waiting[w];
                    if let Some(outcome) =
                        Self::outcome_in_block(&block, &probe.lookup, ukeys[probe.slot])
                    {
                        outcomes[probe.slot] = outcome;
                        answered[w] = true;
                    }
                }
            }
            // Whoever read a block that did not hold its key searches on.
            active.extend(
                waiting
                    .drain(..)
                    .zip(answered)
                    .filter_map(|(probe, done)| (!done).then_some(probe)),
            );
        }
        Ok(outcomes)
    }

    /// Builds the internal iterators covering all levels.
    pub fn iterators(&self, cache: &Arc<TableCache>) -> Result<Vec<Box<dyn InternalIterator>>> {
        let mut out: Vec<Box<dyn InternalIterator>> = Vec::new();
        for level in 0..self.levels.len() {
            if self.level_overlaps(level) {
                for f in &self.levels[level] {
                    out.push(Box::new(f.reader(cache)?.iter()));
                }
            } else if !self.levels[level].is_empty() {
                out.push(Box::new(LevelFileIterator::new(
                    self.levels[level].clone(),
                    cache.clone(),
                    TableReader::iter,
                )));
            }
        }
        Ok(out)
    }

    fn sort_level(files: &mut Vec<FileRef>, level: usize, style: CompactionStyle) {
        if level == 0 || style == CompactionStyle::Fragmented {
            files.sort_by(|a, b| b.number.cmp(&a.number));
        } else {
            files.sort_by(|a, b| internal_cmp(&a.smallest, &b.smallest));
        }
    }

    /// Applies `edit`, producing the successor version.
    pub fn apply(&self, edit: &VersionEdit) -> Version {
        let mut levels = self.levels.clone();
        for (level, num) in &edit.deleted {
            levels[*level].retain(|f| f.number != *num);
        }
        for (level, meta) in &edit.added {
            levels[*level].push(Arc::new(meta.clone().into()));
        }
        for (level, files) in levels.iter_mut().enumerate() {
            Self::sort_level(files, level, self.style);
        }
        Version {
            levels,
            style: self.style,
        }
    }
}

/// Concatenating iterator over a disjoint (leveled) level.
pub struct LevelFileIterator {
    files: Vec<FileRef>,
    cache: Arc<TableCache>,
    /// The reader each file is walked with: [`TableReader::iter`] for
    /// reads and scans, [`TableReader::sequential`] for compactions.
    reader: fn(&Arc<TableReader>) -> TableIterator,
    index: usize,
    current: Option<TableIterator>,
    /// First table-open error; reported through `status` so a failed open
    /// is not mistaken for the end of the level.
    error: Option<Error>,
}

impl LevelFileIterator {
    /// Creates an iterator over `files` (sorted by smallest key, disjoint).
    pub fn new(
        files: Vec<FileRef>,
        cache: Arc<TableCache>,
        reader: fn(&Arc<TableReader>) -> TableIterator,
    ) -> LevelFileIterator {
        LevelFileIterator {
            files,
            cache,
            reader,
            index: 0,
            current: None,
            error: None,
        }
    }

    fn open(&mut self, index: usize) -> bool {
        self.index = index;
        self.current = None;
        let Some(f) = self.files.get(index) else {
            return false;
        };
        match f.reader(&self.cache) {
            Ok(table) => {
                self.current = Some((self.reader)(table));
                true
            }
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(e);
                }
                false
            }
        }
    }

    fn skip_exhausted(&mut self) {
        while self
            .current
            .as_ref()
            .map(|it| !it.valid())
            .unwrap_or(false)
        {
            // A table iterator that died with a read error must not be
            // skipped over as if its file had simply ended.
            if let Some(it) = &self.current {
                if let Err(e) = it.status() {
                    if self.error.is_none() {
                        self.error = Some(e);
                    }
                    self.current = None;
                    return;
                }
            }
            let next = self.index + 1;
            if next >= self.files.len() {
                self.current = None;
                return;
            }
            if self.open(next) {
                if let Some(it) = &mut self.current {
                    it.seek_to_first();
                }
            }
        }
    }
}

impl InternalIterator for LevelFileIterator {
    fn valid(&self) -> bool {
        self.current.as_ref().map(|it| it.valid()).unwrap_or(false)
    }

    fn status(&self) -> Result<()> {
        if let Some(e) = &self.error {
            return Err(e.clone_shallow());
        }
        match &self.current {
            Some(it) => it.status(),
            None => Ok(()),
        }
    }

    fn seek_to_first(&mut self) {
        self.error = None;
        if self.open(0) {
            if let Some(it) = &mut self.current {
                it.seek_to_first();
            }
            self.skip_exhausted();
        }
    }

    fn seek(&mut self, target: &[u8]) {
        self.error = None;
        // Binary search for the first file whose largest key >= target.
        let idx = self
            .files
            .partition_point(|f| internal_cmp(&f.largest, target) == std::cmp::Ordering::Less);
        if idx >= self.files.len() {
            self.current = None;
            return;
        }
        if self.open(idx) {
            if let Some(it) = &mut self.current {
                it.seek(target);
            }
            self.skip_exhausted();
        }
    }

    fn next(&mut self) {
        self.current
            .as_mut()
            .expect("next() on invalid level iterator")
            .next();
        self.skip_exhausted();
    }

    fn key(&self) -> &[u8] {
        self.current.as_ref().expect("invalid").key()
    }

    fn value(&self) -> &[u8] {
        self.current.as_ref().expect("invalid").value()
    }
}

/// A compaction picked by the version set.
pub struct CompactionTask {
    /// Source level.
    pub level: usize,
    /// Destination level.
    pub output_level: usize,
    /// Files from `level`.
    pub inputs: Vec<FileRef>,
    /// Overlapping files already in `output_level` (leveled only).
    pub next_inputs: Vec<FileRef>,
}

impl CompactionTask {
    /// Total input bytes.
    pub fn input_bytes(&self) -> u64 {
        self.inputs
            .iter()
            .chain(self.next_inputs.iter())
            .map(|f| f.size)
            .sum()
    }

    /// Whether the inputs can change level as they are, by a manifest
    /// edit alone: files of a sorted level with nothing beneath them in
    /// the output level. Never L0 or a fragmented level — their files
    /// overlap one another (and a fragmented task never lists the output
    /// level's files), so an empty `next_inputs` proves nothing there.
    pub fn is_trivial_move(&self, version: &Version) -> bool {
        !version.level_overlaps(self.level) && self.next_inputs.is_empty()
    }
}

/// Most bytes a leveled compaction below L0 takes on, in target files:
/// its inputs plus the output-level files they overlap (RocksDB's
/// `max_compaction_bytes` default). Bounds how long one job holds its two
/// levels and how much space its inputs pin.
const MAX_COMPACTION_FILES: u64 = 25;

/// Owns the current [`Version`] and the manifest.
pub struct VersionSet {
    env: EnvRef,
    dir: PathBuf,
    opts: Options,
    current: Arc<Version>,
    manifest: Option<LogWriter>,
    /// Set after a manifest append/sync error. The failed record may or
    /// may not be fully framed on disk, so retrying a later edit could
    /// replay the "failed" one too (e.g. re-adding a flushed file).
    /// Fail-stop is the only safe answer until the DB reopens and
    /// rewrites a fresh manifest.
    manifest_poisoned: bool,
    /// Number of the manifest file currently in use.
    pub manifest_number: u64,
    /// File-number allocator (shared with the DB for WAL numbers).
    pub next_file: Arc<AtomicU64>,
    /// Last sequence number recovered from the manifest.
    pub last_sequence: AtomicU64,
    /// WALs numbered below this are obsolete.
    pub log_number: u64,
    /// Round-robin compaction cursor per level (largest key compacted).
    compact_pointer: Vec<Vec<u8>>,
    /// MANIFEST and CURRENT bytes written since open.
    manifest_bytes: u64,
    /// Weak handles to every version ever installed; readers holding an
    /// `Arc<Version>` keep their files protected from GC (LevelDB's
    /// version refcounting).
    alive: Mutex<Vec<std::sync::Weak<Version>>>,
}

impl VersionSet {
    /// Creates or recovers the version set for `dir`.
    pub fn open(env: EnvRef, dir: &Path, opts: &Options) -> Result<VersionSet> {
        let current_path = dir.join(CURRENT_FILE);
        if env.exists(&current_path) {
            Self::recover(env, dir, opts)
        } else if opts.create_if_missing {
            Self::create(env, dir, opts)
        } else {
            Err(Error::InvalidState(format!(
                "database missing at {}",
                dir.display()
            )))
        }
    }

    fn create(env: EnvRef, dir: &Path, opts: &Options) -> Result<VersionSet> {
        env.create_dir_all(dir)?;
        let manifest_num = 1u64;
        let mut set = VersionSet {
            env: env.clone(),
            dir: dir.to_path_buf(),
            opts: opts.clone(),
            current: Arc::new(Version::empty(opts.num_levels, opts.compaction_style)),
            manifest: None,
            manifest_poisoned: false,
            manifest_number: 0,
            next_file: Arc::new(AtomicU64::new(2)),
            last_sequence: AtomicU64::new(0),
            log_number: 0,
            compact_pointer: vec![Vec::new(); opts.num_levels],
            manifest_bytes: 0,
            alive: Mutex::new(Vec::new()),
        };
        set.register_current();
        set.roll_manifest(manifest_num)?;
        Ok(set)
    }

    fn recover(env: EnvRef, dir: &Path, opts: &Options) -> Result<VersionSet> {
        let current = p2kvs_storage::env::read_all(&*env, &dir.join(CURRENT_FILE))?;
        let manifest_name = String::from_utf8(current)
            .map_err(|_| Error::corruption("CURRENT is not utf-8"))?;
        let manifest_name = manifest_name.trim_end();
        let manifest_path = dir.join(manifest_name);
        let mut reader = LogReader::new(env.new_sequential(&manifest_path)?);
        let mut version = Version::empty(opts.num_levels, opts.compaction_style);
        let mut next_file = 2u64;
        let mut last_seq = 0u64;
        let mut log_number = 0u64;
        let mut record = Vec::new();
        while reader.read_record(&mut record)? {
            let edit = VersionEdit::decode(&record)?;
            if let Some(v) = edit.next_file_number {
                next_file = next_file.max(v);
            }
            if let Some(v) = edit.last_sequence {
                last_seq = last_seq.max(v);
            }
            if let Some(v) = edit.log_number {
                log_number = log_number.max(v);
            }
            for (_, f) in &edit.added {
                next_file = next_file.max(f.number + 1);
            }
            version = version.apply(&edit);
        }
        let manifest_num = crate::types::parse_file_name(manifest_name)
            .map(|(n, _)| n)
            .unwrap_or(1);
        let mut set = VersionSet {
            env: env.clone(),
            dir: dir.to_path_buf(),
            opts: opts.clone(),
            current: Arc::new(version),
            manifest: None,
            manifest_poisoned: false,
            manifest_number: 0,
            next_file: Arc::new(AtomicU64::new(next_file.max(manifest_num + 1))),
            last_sequence: AtomicU64::new(last_seq),
            log_number,
            compact_pointer: vec![Vec::new(); opts.num_levels],
            manifest_bytes: 0,
            alive: Mutex::new(Vec::new()),
        };
        set.register_current();
        // Start a fresh manifest summarizing the recovered state so old
        // manifests never grow unboundedly.
        let new_manifest = set.allocate_file_number();
        set.roll_manifest(new_manifest)?;
        Ok(set)
    }

    /// Writes a fresh manifest containing a full snapshot of the current
    /// version, then points CURRENT at it.
    fn roll_manifest(&mut self, number: u64) -> Result<()> {
        let path = file_path(&self.dir, number, FileKind::Manifest);
        let mut writer = LogWriter::new(self.env.new_writable(&path)?);
        let mut snapshot = VersionEdit {
            log_number: Some(self.log_number),
            next_file_number: Some(self.next_file.load(Ordering::Relaxed)),
            last_sequence: Some(self.last_sequence.load(Ordering::Relaxed)),
            ..VersionEdit::default()
        };
        for (level, files) in self.current.levels.iter().enumerate() {
            for f in files {
                snapshot.added.push((level, f.meta().clone()));
            }
        }
        writer.add_record(&snapshot.encode())?;
        writer.sync()?;
        // Point CURRENT at the new manifest atomically (write temp, rename).
        let tmp = self.dir.join("CURRENT.tmp");
        let name = format!("MANIFEST-{number:06}\n");
        p2kvs_storage::env::write_all(&*self.env, &tmp, name.as_bytes())?;
        self.env.rename(&tmp, &self.dir.join(CURRENT_FILE))?;
        self.manifest_bytes += writer.bytes_written() + name.len() as u64;
        self.manifest = Some(writer);
        self.manifest_number = number;
        Ok(())
    }

    /// The current version.
    pub fn current(&self) -> Arc<Version> {
        self.current.clone()
    }

    /// Allocates a fresh file number.
    pub fn allocate_file_number(&self) -> u64 {
        self.next_file.fetch_add(1, Ordering::Relaxed)
    }

    /// A handle to the file-number allocator usable without holding the
    /// database state lock (background jobs allocate output files with it).
    pub fn file_counter(&self) -> Arc<AtomicU64> {
        self.next_file.clone()
    }

    /// Logs `edit` to the manifest and installs the resulting version.
    pub fn log_and_apply(&mut self, mut edit: VersionEdit) -> Result<()> {
        if self.manifest_poisoned {
            return Err(Error::InvalidState(
                "manifest poisoned by an earlier IO error; reopen the DB".to_string(),
            ));
        }
        edit.next_file_number = Some(self.next_file.load(Ordering::Relaxed));
        if edit.last_sequence.is_none() {
            edit.last_sequence = Some(self.last_sequence.load(Ordering::Relaxed));
        }
        if let Some(log) = edit.log_number {
            self.log_number = self.log_number.max(log);
        }
        let writer = self
            .manifest
            .as_mut()
            .expect("manifest writer always present after open");
        let before = writer.bytes_written();
        let logged = writer
            .add_record(&edit.encode())
            .and_then(|()| writer.sync());
        self.manifest_bytes += writer.bytes_written() - before;
        if let Err(e) = logged {
            self.manifest_poisoned = true;
            return Err(e);
        }
        self.current = Arc::new(self.current.apply(&edit));
        self.register_current();
        Ok(())
    }

    /// Records the current version in the alive registry, pruning dead
    /// entries.
    fn register_current(&mut self) {
        let mut alive = self.alive.lock();
        alive.retain(|w| w.strong_count() > 0);
        alive.push(Arc::downgrade(&self.current));
    }

    /// File numbers referenced by *any* version still reachable — the
    /// current one or one pinned by an in-flight reader or iterator. Only
    /// files outside this set may be deleted.
    pub fn live_files_any(&self) -> HashSet<u64> {
        let mut out = self.current.live_files();
        let mut alive = self.alive.lock();
        alive.retain(|w| w.strong_count() > 0);
        for w in alive.iter() {
            if let Some(v) = w.upgrade() {
                out.extend(v.live_files());
            }
        }
        out
    }

    /// MANIFEST and CURRENT bytes written since open.
    pub fn manifest_bytes_written(&self) -> u64 {
        self.manifest_bytes
    }

    /// Updates the round-robin cursor after compacting up to `largest`.
    pub fn set_compact_pointer(&mut self, level: usize, largest: Vec<u8>) {
        self.compact_pointer[level] = largest;
    }

    /// Compaction score of each level; `>= 1.0` means compaction needed.
    pub fn compaction_scores(&self) -> Vec<f64> {
        let v = &self.current;
        let mut scores = vec![0.0; v.levels.len()];
        match self.opts.compaction_style {
            CompactionStyle::Leveled => {
                scores[0] = v.levels[0].len() as f64 / self.opts.l0_compaction_trigger as f64;
                for level in 1..v.levels.len() - 1 {
                    scores[level] =
                        v.level_bytes(level) as f64 / self.opts.level_target(level) as f64;
                }
            }
            CompactionStyle::Fragmented => {
                // PebblesDB-style: a level compacts only when it holds too
                // many overlapping fragments; size alone never triggers a
                // rewrite (that is where the write-amplification win
                // comes from).
                for level in 0..v.levels.len() - 1 {
                    let trigger = if level == 0 {
                        self.opts.l0_compaction_trigger
                    } else {
                        self.opts.fragment_merge_threshold
                    };
                    scores[level] = v.levels[level].len() as f64 / trigger as f64;
                }
            }
        }
        scores
    }

    /// Picks the most urgent compaction, if any.
    pub fn pick_compaction(&self) -> Option<CompactionTask> {
        self.pick_compaction_excluding(&[])
    }

    /// Picks the most urgent compaction whose source *and* output levels
    /// are both free in `busy` (indices past `busy.len()` count as free).
    /// L0→L1 takes absolute priority whenever it is eligible: L0 backlog
    /// is what stalls writers, so it must never queue behind deeper-level
    /// score maximization. Used by the multi-threaded scheduler to run
    /// compactions at disjoint level pairs concurrently.
    pub fn pick_compaction_excluding(&self, busy: &[bool]) -> Option<CompactionTask> {
        let scores = self.compaction_scores();
        let n_levels = self.current.levels.len();
        let free = |level: usize| {
            let out = (level + 1).min(n_levels - 1);
            !busy.get(level).copied().unwrap_or(false)
                && !busy.get(out).copied().unwrap_or(false)
        };
        let level = if scores[0] >= 1.0 && free(0) {
            0
        } else {
            scores
                .iter()
                .copied()
                .enumerate()
                .filter(|&(l, s)| s >= 1.0 && free(l))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))?
                .0
        };
        let v = &self.current;
        let output_level = (level + 1).min(v.levels.len() - 1);
        match self.opts.compaction_style {
            CompactionStyle::Fragmented => {
                // Merge the *oldest* fragments of the level and append the
                // result to the next level without touching it (no
                // read-modify-write of the target: PebblesDB's
                // write-amplification win). Taking the oldest files keeps
                // the per-level invariant "higher file number = newer
                // data": the output's (new, high) number is correct in the
                // target level because it carries data newer than anything
                // already there, and the fragments left behind are newer
                // than the ones merged away.
                let files = &v.levels[level];
                let take = files.len().min(2 * self.opts.fragment_merge_threshold);
                let inputs: Vec<FileRef> = files.iter().rev().take(take).cloned().collect();
                Some(CompactionTask {
                    level,
                    output_level,
                    inputs,
                    next_inputs: Vec::new(),
                })
            }
            CompactionStyle::Leveled => {
                let inputs: Vec<FileRef> = if level == 0 {
                    v.levels[0].clone()
                } else {
                    // Round-robin: the contiguous run of files past the
                    // compaction cursor (from the front again once the
                    // cursor is past the last file) that brings the level
                    // back under its target. Neighbours taken in one job
                    // share the output-level file on their common boundary
                    // instead of rewriting it once each. The first file is
                    // always taken; a further one only while the job stays
                    // under the byte cap.
                    let files = &v.levels[level];
                    let start = files
                        .iter()
                        .position(|f| {
                            self.compact_pointer[level].is_empty()
                                || internal_cmp(&f.largest, &self.compact_pointer[level])
                                    == std::cmp::Ordering::Greater
                        })
                        .unwrap_or(0);
                    let excess = v
                        .level_bytes(level)
                        .saturating_sub(self.opts.level_target(level));
                    let cap = MAX_COMPACTION_FILES * self.opts.target_file_size as u64;
                    let lo = user_key(&files[start].smallest);
                    let mut inputs = vec![files[start].clone()];
                    let mut taken = files[start].size;
                    for f in &files[start + 1..] {
                        if taken >= excess {
                            break;
                        }
                        let beneath: u64 = v
                            .overlapping(output_level, Some(lo), Some(user_key(&f.largest)))
                            .iter()
                            .map(|o| o.size)
                            .sum();
                        if taken + f.size + beneath > cap {
                            break;
                        }
                        taken += f.size;
                        inputs.push(f.clone());
                    }
                    inputs
                };
                if inputs.is_empty() {
                    return None;
                }
                let smallest = inputs
                    .iter()
                    .map(|f| user_key(&f.smallest).to_vec())
                    .min()
                    .expect("nonempty inputs");
                let largest = inputs
                    .iter()
                    .map(|f| user_key(&f.largest).to_vec())
                    .max()
                    .expect("nonempty inputs");
                let next_inputs = v.overlapping(output_level, Some(&smallest), Some(&largest));
                Some(CompactionTask {
                    level,
                    output_level,
                    inputs,
                    next_inputs,
                })
            }
        }
    }

    /// Options the set was opened with.
    pub fn options(&self) -> &Options {
        &self.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::make_internal_key;

    fn meta(num: u64, small: &str, large: &str) -> FileMetaData {
        FileMetaData {
            number: num,
            size: 1 << 20,
            smallest: make_internal_key(small.as_bytes(), 1, ValueType::Value),
            largest: make_internal_key(large.as_bytes(), 1, ValueType::Value),
            entries: 10,
        }
    }

    /// File numbers a lookup of `ukey` searches, in order.
    fn candidates(v: &Version, ukey: &[u8]) -> Vec<u64> {
        let mut cursor = CandidateCursor::default();
        let mut out = Vec::new();
        while let Some(f) = v.next_candidate(ukey, &mut cursor) {
            out.push(f.number);
        }
        out
    }

    #[test]
    fn apply_add_delete_sorts_levels() {
        let v = Version::empty(7, CompactionStyle::Leveled);
        let mut e = VersionEdit::default();
        e.added.push((0, meta(3, "a", "m")));
        e.added.push((0, meta(5, "b", "z")));
        e.added.push((1, meta(9, "n", "p")));
        e.added.push((1, meta(8, "a", "c")));
        let v2 = v.apply(&e);
        // L0 newest first.
        assert_eq!(v2.levels[0][0].number, 5);
        assert_eq!(v2.levels[0][1].number, 3);
        // L1 by smallest key.
        assert_eq!(v2.levels[1][0].number, 8);
        assert_eq!(v2.levels[1][1].number, 9);
        let mut e2 = VersionEdit::default();
        e2.deleted.push((0, 3));
        let v3 = v2.apply(&e2);
        assert_eq!(v3.levels[0].len(), 1);
        assert_eq!(v3.num_files(), 3);
        assert!(v3.live_files().contains(&9));
        assert!(!v3.live_files().contains(&3));
    }

    #[test]
    fn overlapping_filters_by_range() {
        let v = Version::empty(7, CompactionStyle::Leveled);
        let mut e = VersionEdit::default();
        e.added.push((1, meta(1, "a", "c")));
        e.added.push((1, meta(2, "d", "f")));
        e.added.push((1, meta(3, "g", "i")));
        let v = v.apply(&e);
        let hit = v.overlapping(1, Some(b"e"), Some(b"h"));
        assert_eq!(hit.len(), 2);
        assert_eq!(hit[0].number, 2);
        assert_eq!(hit[1].number, 3);
        assert_eq!(v.overlapping(1, None, None).len(), 3);
        assert_eq!(v.overlapping(1, Some(b"x"), None).len(), 0);
        assert_eq!(v.overlapping(1, None, Some(b"a")).len(), 1);
    }

    #[test]
    fn candidates_l0_newest_first_l1_binary_search() {
        let v = Version::empty(7, CompactionStyle::Leveled);
        let mut e = VersionEdit::default();
        e.added.push((0, meta(1, "a", "z")));
        e.added.push((0, meta(4, "a", "z")));
        e.added.push((1, meta(2, "a", "c")));
        e.added.push((1, meta(3, "d", "f")));
        let v = v.apply(&e);
        // L0 newest first, then the one L1 file the binary search finds.
        assert_eq!(candidates(&v, b"e"), vec![4, 1, 3]);
        assert_eq!(candidates(&v, b"m"), vec![4, 1]);
        assert_eq!(candidates(&v, b"b"), vec![4, 1, 2]);
        // Key between L1 files (gap).
        assert_eq!(candidates(&v, b"cc"), vec![4, 1]);
    }

    #[test]
    fn fragmented_levels_search_all_overlaps() {
        let v = Version::empty(7, CompactionStyle::Fragmented);
        let mut e = VersionEdit::default();
        e.added.push((2, meta(10, "a", "m")));
        e.added.push((2, meta(12, "c", "z")));
        let v = v.apply(&e);
        assert_eq!(candidates(&v, b"d"), vec![12, 10]);
        assert_eq!(candidates(&v, b"b"), vec![10]);
    }

    #[test]
    fn lookups_probe_each_filter_once_and_count_every_skip() {
        use crate::sst::bloom::PROBES;
        use crate::sst::{TableBuilder, TableConfig};
        use crate::stats::DbStats;

        // Three tables over the same key range, each with one key of its
        // own: #4 and #3 in L0 (searched in that order), #2 in L1.
        let env: EnvRef = Arc::new(p2kvs_storage::MemEnv::new());
        let dir = PathBuf::from("db");
        let config = TableConfig {
            block_size: 4096,
            restart_interval: 16,
            bloom_bits_per_key: 10,
        };
        let mut edit = VersionEdit::default();
        for (level, number, own) in [(0, 4, "four"), (0, 3, "three"), (1, 2, "two")] {
            let path = file_path(&dir, number, FileKind::Table);
            let mut b = TableBuilder::new(env.new_writable(&path).unwrap(), config);
            for k in ["a", own, "z"] {
                b.add(
                    &make_internal_key(k.as_bytes(), number, ValueType::Value),
                    own.as_bytes(),
                )
                .unwrap();
            }
            let t = b.finish().unwrap();
            edit.added.push((
                level,
                FileMetaData {
                    number,
                    size: t.file_size,
                    smallest: t.smallest,
                    largest: t.largest,
                    entries: t.entries,
                },
            ));
        }
        let v = Version::empty(7, CompactionStyle::Leveled).apply(&edit);
        let cache = TableCache::new(env, dir, None);
        let found = |s: &str| GetOutcome::Found(s.as_bytes().to_vec());
        let counted = |lookup: &dyn Fn(&DbStats) -> Vec<GetOutcome>| {
            let stats = DbStats::default();
            let before = PROBES.with(|p| p.get());
            let outcomes = lookup(&stats);
            (
                outcomes,
                PROBES.with(|p| p.get()) - before,
                stats.bloom_skips.load(Ordering::Relaxed),
            )
        };
        let snapshot = u64::MAX >> 8;
        // "two": #4 and #3 say no, #2 holds it. "none": all three say no.
        // "a": #4 holds it and nothing else is asked.
        for (ukey, outcome, probes, skips) in [
            ("two", found("two"), 3, 2),
            ("none", GetOutcome::NotFound, 3, 3),
            ("a", found("four"), 1, 0),
        ] {
            let got = counted(&|stats| {
                vec![v
                    .get(ukey.as_bytes(), snapshot, &cache, false, Some(stats))
                    .unwrap()]
            });
            assert_eq!(got, (vec![outcome], probes, skips), "get({ukey})");
        }
        let got = counted(&|stats| {
            v.get_many(
                &[b"two", b"none", b"a"],
                snapshot,
                &cache,
                false,
                Some(stats),
            )
            .unwrap()
        });
        assert_eq!(
            got,
            (
                vec![found("two"), GetOutcome::NotFound, found("four")],
                7,
                5
            ),
            "get_many"
        );
    }

    #[test]
    fn a_version_pins_the_reader_of_each_table_it_has_read() {
        use crate::sst::{TableBuilder, TableConfig};
        let env: EnvRef = Arc::new(p2kvs_storage::MemEnv::new());
        let dir = PathBuf::from("db");
        let config = TableConfig {
            block_size: 4096,
            restart_interval: 16,
            bloom_bits_per_key: 10,
        };
        let mut b = TableBuilder::new(
            env.new_writable(&file_path(&dir, 5, FileKind::Table))
                .unwrap(),
            config,
        );
        b.add(&make_internal_key(b"k", 1, ValueType::Value), b"v")
            .unwrap();
        let t = b.finish().unwrap();
        let mut edit = VersionEdit::default();
        edit.added.push((
            1,
            FileMetaData {
                number: 5,
                size: t.file_size,
                smallest: t.smallest,
                largest: t.largest,
                entries: t.entries,
            },
        ));
        let v = Version::empty(7, CompactionStyle::Leveled).apply(&edit);
        let cache = TableCache::new(env, dir, None);
        let get = |v: &Version| v.get(b"k", u64::MAX >> 8, &cache, false, None).unwrap();
        assert_eq!(get(&v), GetOutcome::Found(b"v".to_vec()));
        assert_eq!(cache.len(), 1, "opened through the table cache");
        // The second lookup does not go back to the cache, and neither
        // does one through a successor version that kept the file.
        cache.evict(5);
        assert_eq!(get(&v), GetOutcome::Found(b"v".to_vec()));
        let mut other = VersionEdit::default();
        other.added.push((2, meta(9, "x", "z")));
        assert_eq!(get(&v.apply(&other)), GetOutcome::Found(b"v".to_vec()));
        assert!(cache.is_empty());
    }

    fn test_opts() -> Options {
        Options::for_test()
    }

    #[test]
    fn version_set_create_and_reopen() {
        let opts = test_opts();
        let env = opts.env.clone();
        let dir = Path::new("vsdb");
        {
            let mut set = VersionSet::open(env.clone(), dir, &opts).unwrap();
            let mut edit = VersionEdit::default();
            edit.added.push((0, meta(11, "a", "b")));
            edit.log_number = Some(3);
            set.last_sequence.store(42, Ordering::Relaxed);
            set.log_and_apply(edit).unwrap();
        }
        let set = VersionSet::open(env, dir, &opts).unwrap();
        assert_eq!(set.current().levels[0].len(), 1);
        assert_eq!(set.last_sequence.load(Ordering::Relaxed), 42);
        assert_eq!(set.log_number, 3);
        assert!(set.next_file.load(Ordering::Relaxed) > 11);
    }

    #[test]
    fn missing_db_without_create_fails() {
        let mut opts = test_opts();
        opts.create_if_missing = false;
        let env = opts.env.clone();
        assert!(VersionSet::open(env, Path::new("nope"), &opts).is_err());
    }

    #[test]
    fn compaction_scores_trigger_on_l0_count() {
        let opts = test_opts();
        let env = opts.env.clone();
        let mut set = VersionSet::open(env, Path::new("sc"), &opts).unwrap();
        assert!(set.pick_compaction().is_none());
        let mut edit = VersionEdit::default();
        for i in 0..opts.l0_compaction_trigger as u64 {
            edit.added.push((0, meta(20 + i, "a", "z")));
        }
        set.log_and_apply(edit).unwrap();
        let task = set.pick_compaction().expect("L0 full, must compact");
        assert_eq!(task.level, 0);
        assert_eq!(task.output_level, 1);
        assert_eq!(task.inputs.len(), opts.l0_compaction_trigger);
        assert!(task.input_bytes() > 0);
    }

    #[test]
    fn leveled_compaction_includes_next_level_overlap() {
        let opts = test_opts();
        let env = opts.env.clone();
        let mut set = VersionSet::open(env, Path::new("ovl"), &opts).unwrap();
        let mut edit = VersionEdit::default();
        // Oversize L1 (target is base_level_size = 128 KiB in tests; each
        // meta() is 1 MiB).
        edit.added.push((1, meta(30, "a", "m")));
        edit.added.push((2, meta(31, "k", "q")));
        edit.added.push((2, meta(32, "r", "t")));
        set.log_and_apply(edit).unwrap();
        let task = set.pick_compaction().expect("L1 oversize");
        assert_eq!(task.level, 1);
        assert_eq!(task.inputs.len(), 1);
        assert_eq!(task.next_inputs.len(), 1);
        assert_eq!(task.next_inputs[0].number, 31);
    }

    /// File `i` of a sorted level: keys `f{i:03}a ..= f{i:03}z`.
    fn run_file(num: u64, i: usize, size: u64) -> FileMetaData {
        FileMetaData {
            size,
            ..meta(num, &format!("f{i:03}a"), &format!("f{i:03}z"))
        }
    }

    /// A version set whose L1 holds `n` files of one target file size
    /// each (numbers 100.., in key order), and whatever `lower` adds.
    fn set_with_l1_run(dir: &str, n: usize, lower: Vec<(usize, FileMetaData)>) -> VersionSet {
        let opts = test_opts();
        let mut set = VersionSet::open(opts.env.clone(), Path::new(dir), &opts).unwrap();
        let mut edit = VersionEdit::default();
        for i in 0..n {
            edit.added
                .push((1, run_file(100 + i as u64, i, opts.target_file_size as u64)));
        }
        edit.added.extend(lower);
        set.log_and_apply(edit).unwrap();
        set
    }

    fn numbers(files: &[FileRef]) -> Vec<u64> {
        files.iter().map(|f| f.number).collect()
    }

    /// Picks at L1 and moves the cursor as the engine does after the job.
    fn pick_and_advance(set: &mut VersionSet) -> CompactionTask {
        let task = set.pick_compaction().expect("L1 over target");
        assert_eq!((task.level, task.output_level), (1, 2));
        let last = task.inputs.last().unwrap().largest.clone();
        set.set_compact_pointer(1, last);
        task
    }

    #[test]
    fn level_pick_is_the_contiguous_run_that_clears_the_excess() {
        // Test options: 32 KiB files, L1 target 128 KiB. Ten files are
        // 192 KiB over: six files clear that, five would not.
        let mut set = set_with_l1_run("run", 10, Vec::new());
        let task = pick_and_advance(&mut set);
        assert_eq!(numbers(&task.inputs), (100..106).collect::<Vec<_>>());
        assert!(task.next_inputs.is_empty());
        // The level was not changed, so the next pick wants six again: it
        // starts past the cursor, skips nothing, and ends with the level
        // rather than reaching round to the front (one job, one key range).
        let task = pick_and_advance(&mut set);
        assert_eq!(numbers(&task.inputs), (106..110).collect::<Vec<_>>());
        // With the cursor past the last file the round starts over.
        let task = pick_and_advance(&mut set);
        assert_eq!(numbers(&task.inputs), (100..106).collect::<Vec<_>>());
    }

    #[test]
    fn level_pick_is_one_file_when_the_excess_is_at_most_one_file() {
        // Five files: exactly one file over the target.
        let mut set = set_with_l1_run("one", 5, Vec::new());
        for expect in [100, 101, 102, 103, 104, 100] {
            assert_eq!(numbers(&pick_and_advance(&mut set).inputs), vec![expect]);
        }
        // Four files: at the target, score 1.0, still one file.
        let mut set = set_with_l1_run("at", 4, Vec::new());
        assert_eq!(numbers(&pick_and_advance(&mut set).inputs), vec![100]);
    }

    #[test]
    fn level_pick_stops_before_the_byte_cap() {
        let file = test_opts().target_file_size as u64;
        // Forty files want 36 taken; nothing beneath them, so the cap of
        // 25 target files is reached by the inputs alone.
        let mut set = set_with_l1_run("cap", 40, Vec::new());
        let task = pick_and_advance(&mut set);
        assert_eq!(numbers(&task.inputs), (100..125).collect::<Vec<_>>());
        // The cursor is past file 24: the next run starts at file 25.
        assert_eq!(pick_and_advance(&mut set).inputs[0].number, 125);

        // The same level over an L2 that puts two files' worth beneath
        // each L1 file: a job of k inputs weighs 3k files, so k = 8.
        let lower = (0..40)
            .map(|i| (2, run_file(200 + i as u64, i, 2 * file)))
            .collect();
        let mut set = set_with_l1_run("cap2", 40, lower);
        let task = pick_and_advance(&mut set);
        assert_eq!(numbers(&task.inputs), (100..108).collect::<Vec<_>>());
        assert_eq!(numbers(&task.next_inputs), (200..208).collect::<Vec<_>>());
        assert!(task.input_bytes() <= MAX_COMPACTION_FILES * file);

        // A first file that is over the cap on its own is still taken:
        // the level must be able to drain.
        let mut wide = meta(300, "f000a", "f039z");
        wide.size = 30 * file;
        let mut set = set_with_l1_run("cap3", 40, vec![(2, wide)]);
        let task = pick_and_advance(&mut set);
        assert_eq!(numbers(&task.inputs), vec![100]);
        assert_eq!(numbers(&task.next_inputs), vec![300]);
    }

    #[test]
    fn only_sorted_levels_with_nothing_beneath_move_trivially() {
        let task = |level, next_inputs: Vec<FileRef>| CompactionTask {
            level,
            output_level: level + 1,
            inputs: vec![Arc::new(meta(1, "a", "c").into())],
            next_inputs,
        };
        let leveled = Version::empty(7, CompactionStyle::Leveled);
        assert!(task(1, Vec::new()).is_trivial_move(&leveled));
        assert!(task(3, Vec::new()).is_trivial_move(&leveled));
        assert!(!task(1, vec![Arc::new(meta(2, "b", "d").into())]).is_trivial_move(&leveled));
        // L0 files overlap each other; fragmented levels do too, and a
        // fragmented task never lists what lies beneath.
        assert!(!task(0, Vec::new()).is_trivial_move(&leveled));
        let fragmented = Version::empty(7, CompactionStyle::Fragmented);
        assert!(!task(1, Vec::new()).is_trivial_move(&fragmented));
        assert!(!task(0, Vec::new()).is_trivial_move(&fragmented));
    }

    #[test]
    fn excluding_picker_prioritizes_l0_and_skips_busy_levels() {
        let opts = test_opts();
        let env = opts.env.clone();
        let mut set = VersionSet::open(env, Path::new("excl"), &opts).unwrap();
        let mut edit = VersionEdit::default();
        // Full L0 *and* a massively oversize L2 (higher score than L0).
        for i in 0..opts.l0_compaction_trigger as u64 {
            edit.added.push((0, meta(20 + i, "a", "m")));
        }
        for i in 0..8u64 {
            edit.added.push((2, meta(40 + i, "n", "z")));
        }
        set.log_and_apply(edit).unwrap();

        // L0 wins despite the bigger L2 score: L0 backlog stalls writers.
        let task = set.pick_compaction_excluding(&[]).expect("work available");
        assert_eq!(task.level, 0);

        // With L0→L1 claimed, the picker hands out the L2→L3 job — the two
        // can run concurrently on disjoint level pairs.
        let mut busy = vec![false; opts.num_levels];
        busy[0] = true;
        busy[1] = true;
        let task = set.pick_compaction_excluding(&busy).expect("deeper work available");
        assert_eq!(task.level, 2);
        assert_eq!(task.output_level, 3);

        // Claiming L2/L3 too leaves nothing runnable.
        busy[2] = true;
        busy[3] = true;
        assert!(set.pick_compaction_excluding(&busy).is_none());

        // A busy *output* level blocks its source level: L1 busy alone
        // blocks L0→L1 but not L2→L3.
        let mut busy = vec![false; opts.num_levels];
        busy[1] = true;
        let task = set.pick_compaction_excluding(&busy).expect("L2 still free");
        assert_eq!(task.level, 2);
    }

    #[test]
    fn manifest_io_error_poisons_version_set() {
        // After a failed manifest append/sync the record may or may not be
        // framed on disk; retrying later edits could duplicate the failed
        // one. The set must fail-stop instead of appending more.
        let faulty = Arc::new(p2kvs_storage::FaultyEnv::over_mem());
        let mut opts = Options::for_test();
        opts.env = faulty.clone();
        let mut set = VersionSet::open(faulty.clone(), Path::new("poison"), &opts).unwrap();
        let mut edit = VersionEdit::default();
        edit.added.push((1, meta(10, "a", "m")));
        set.log_and_apply(edit).unwrap();

        faulty.set_plan(p2kvs_storage::FaultPlan {
            fail_sync: Some(faulty.sync_points() + 1),
            ..Default::default()
        });
        let mut edit = VersionEdit::default();
        edit.added.push((1, meta(11, "n", "z")));
        let err = set.log_and_apply(edit).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        // The in-memory version must not have applied the failed edit.
        assert!(!set.current().live_files().contains(&11));

        // Fault is one-shot, but the set stays poisoned anyway.
        let mut edit = VersionEdit::default();
        edit.added.push((1, meta(12, "n", "z")));
        let err = set.log_and_apply(edit).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");

        // Fail-stop ends with a restart: after power failure the unsynced
        // manifest tail (the failed record) is gone and recovery sees the
        // pre-error state cleanly.
        faulty.fs().power_failure();
        let set2 = VersionSet::open(faulty.clone(), Path::new("poison"), &opts).unwrap();
        assert!(set2.current().live_files().contains(&10));
        assert!(!set2.current().live_files().contains(&11));
    }

    #[test]
    fn fragmented_compaction_takes_whole_level_and_no_target_files() {
        let mut opts = test_opts();
        opts.compaction_style = CompactionStyle::Fragmented;
        let env = opts.env.clone();
        let mut set = VersionSet::open(env, Path::new("frag"), &opts).unwrap();
        let mut edit = VersionEdit::default();
        for i in 0..opts.fragment_merge_threshold as u64 {
            edit.added.push((1, meta(40 + i, "a", "z")));
        }
        edit.added.push((2, meta(60, "a", "z")));
        set.log_and_apply(edit).unwrap();
        let task = set.pick_compaction().expect("fragments over threshold");
        assert_eq!(task.level, 1);
        assert_eq!(task.inputs.len(), opts.fragment_merge_threshold);
        assert!(task.next_inputs.is_empty(), "fragmented never rewrites the target level");
    }
}
