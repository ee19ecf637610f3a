//! Flush (minor compaction) and major compaction jobs.
//!
//! These are pure jobs: given inputs and a version for overlap checks they
//! produce new table files and return the metadata, leaving manifest
//! logging and state swapping to the caller (the DB's background thread).
//! Keeping them pure makes the GC rules independently testable.
//!
//! # Subcompactions
//!
//! With `Options::subcompactions > 1` a major compaction partitions its
//! merged key range at user-key boundaries (drawn from the input files'
//! smallest keys) and writes the partitions on parallel threads, each with
//! its own merging iterator over the same inputs. Boundaries sit *between*
//! user keys, so a key's whole version chain stays inside one partition
//! and the first-occurrence GC rules apply unchanged — the concatenated
//! entry stream is identical to the single-threaded result, only the file
//! split points move. Each subcompaction pins its outputs to a distinct
//! device submission queue (starting after `Options::io_queue`), spreading
//! compaction writes away from the owning shard's WAL queue.

use std::path::Path;
use std::sync::Arc;

use p2kvs_storage::{EnvRef, QueueId};

use crate::error::{Error, Result};
use crate::iterator::{InternalIterator, MergingIterator};
use crate::memtable::MemTable;
use crate::options::{CompactionStyle, Options};
use crate::sst::{TableBuilder, TableConfig, TableReader};
use crate::stats::DbStats;
use crate::types::{
    file_path, make_internal_key, seq_and_type, user_key, FileKind, SequenceNumber, ValueType,
    MAX_SEQUENCE, VALUE_TYPE_FOR_SEEK,
};
use crate::version::edit::FileMetaData;
use crate::version::table_cache::TableCache;
use crate::version::{CompactionTask, LevelFileIterator, Version};

/// Everything a compaction job needs from the engine.
pub struct JobContext<'a> {
    pub env: &'a EnvRef,
    pub dir: &'a Path,
    pub opts: &'a Options,
    pub table_cache: &'a Arc<TableCache>,
    pub stats: &'a DbStats,
}

/// Result of a major compaction.
#[derive(Debug)]
pub struct CompactionOutput {
    /// New files to install at the output level.
    pub files: Vec<FileMetaData>,
    /// Bytes read from input tables.
    pub bytes_read: u64,
    /// Bytes written to output tables.
    pub bytes_written: u64,
}

/// Writes the contents of `mem` as one L0 table (`None` when it is empty).
///
/// Every entry (all sequence numbers, tombstones included) is preserved —
/// visibility decisions belong to reads and major compactions. The output
/// is not cut at `target_file_size`: a memtable is one sorted run, and
/// the L0 triggers (`l0_compaction_trigger` and the two stall triggers)
/// count runs. Two files per flush would fire the L0→L1 merge — which
/// rewrites every L1 file the run overlaps — after half as much new data,
/// and a lookup probes one table per run either way.
pub fn flush_memtable(
    ctx: &JobContext<'_>,
    mem: &Arc<MemTable>,
    alloc_number: &(dyn Fn() -> u64 + Sync),
) -> Result<Option<FileMetaData>> {
    let mut iter = mem.iter();
    iter.seek_to_first();
    // Flush output rides the owning shard's queue, like its WAL.
    let file = write_sorted_stream(
        ctx,
        &mut iter,
        alloc_number,
        None,
        u64::MAX,
        None,
        ctx.opts.io_queue,
    )?
    .pop();
    let written = file.as_ref().map_or(0, |f| f.size);
    DbStats::bump(&ctx.stats.flushes, 1);
    DbStats::bump(&ctx.stats.flush_bytes_written, written);
    DbStats::bump(&ctx.stats.compaction_bytes_written, written);
    Ok(file)
}

/// Runs a major compaction task.
///
/// `version` is the version the task was picked from (used for
/// tombstone-drop overlap checks); `smallest_snapshot` is the lowest
/// sequence any live snapshot (or the current read head) can observe.
pub fn run_compaction(
    ctx: &JobContext<'_>,
    task: &CompactionTask,
    version: &Version,
    smallest_snapshot: SequenceNumber,
    alloc_number: &(dyn Fn() -> u64 + Sync),
) -> Result<CompactionOutput> {
    let gc = GcPolicy {
        version,
        style: ctx.opts.compaction_style,
        output_level: task.output_level,
        smallest_snapshot,
    };
    // Fragmented outputs are kept large (PebblesDB guards do not split
    // aggressively); small fragments would re-trigger the count-based
    // merge threshold immediately and cascade data down the tree.
    let split = match ctx.opts.compaction_style {
        CompactionStyle::Leveled => ctx.opts.target_file_size as u64,
        CompactionStyle::Fragmented => 8 * ctx.opts.target_file_size as u64,
    };

    // One merged pass over the task's inputs, bounded to `[lo, hi)` user
    // keys, writing outputs pinned to `queue`. A sorted level is one merge
    // input, whatever its file count; only files that may overlap (L0,
    // every fragmented level) are inputs of their own. All are read
    // sequentially, past the block cache: they are about to be deleted.
    let run_range = |lo: Option<&[u8]>,
                     hi: Option<&[u8]>,
                     queue: Option<QueueId>|
     -> Result<Vec<FileMetaData>> {
        let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
        for (level, files) in [
            (task.level, &task.inputs),
            (task.output_level, &task.next_inputs),
        ] {
            if version.level_overlaps(level) {
                for f in files {
                    children.push(Box::new(f.reader(ctx.table_cache)?.sequential()));
                }
            } else if !files.is_empty() {
                children.push(Box::new(LevelFileIterator::new(
                    files.clone(),
                    ctx.table_cache.clone(),
                    TableReader::sequential,
                )));
            }
        }
        let mut merged = MergingIterator::new(children);
        match lo {
            // Seeks before every real entry of the boundary user key, so
            // a chain is never entered mid-way.
            Some(lo) => merged.seek(&make_internal_key(lo, MAX_SEQUENCE, VALUE_TYPE_FOR_SEEK)),
            None => merged.seek_to_first(),
        }
        write_sorted_stream(ctx, &mut merged, alloc_number, Some(&gc), split, hi, queue)
    };

    // Compaction outputs spread across submission queues, starting one
    // past the shard's home queue so compaction traffic does not pile
    // onto the WAL/flush queue (subcompaction k takes the k-th queue
    // after home).
    let nq = ctx.env.queue_count();
    let out_queue = |k: usize| {
        (nq > 1)
            .then(|| (ctx.opts.io_queue.unwrap_or(0) + 1 + k) % nq)
            .or(ctx.opts.io_queue)
    };
    let bounds = partition_bounds(task, ctx.opts.subcompactions);
    let files = if bounds.is_empty() {
        run_range(None, None, out_queue(0))?
    } else {
        let results: Vec<Result<Vec<FileMetaData>>> = std::thread::scope(|s| {
            let run_range = &run_range;
            let handles: Vec<_> = (0..=bounds.len())
                .map(|k| {
                    let lo = k.checked_sub(1).map(|i| bounds[i].as_slice());
                    let hi = bounds.get(k).map(|b| b.as_slice());
                    let q = out_queue(k);
                    s.spawn(move || run_range(lo, hi, q))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(Error::InvalidState("subcompaction panicked".into()))
                    })
                })
                .collect()
        });
        // Partitions are disjoint and ordered, so concatenating their
        // outputs in partition order yields the level's sorted run. A
        // failed partition fails the whole job (fail-stop; orphaned
        // outputs of the others are garbage-collected).
        let mut files = Vec::new();
        for r in results {
            files.extend(r?);
        }
        files
    };

    let bytes_read = task.input_bytes();
    let bytes_written: u64 = files.iter().map(|f| f.size).sum();
    DbStats::bump(&ctx.stats.compactions, 1);
    DbStats::bump(&ctx.stats.compaction_bytes_read, bytes_read);
    DbStats::bump(&ctx.stats.compaction_bytes_written, bytes_written);
    let level = &ctx.stats.levels[task.level];
    let bytes_in: u64 = task.inputs.iter().map(|f| f.size).sum();
    DbStats::bump(&level.jobs, 1);
    DbStats::bump(&level.files_in, task.inputs.len() as u64);
    DbStats::bump(&level.bytes_in, bytes_in);
    DbStats::bump(&level.bytes_overlapped, bytes_read - bytes_in);
    DbStats::bump(&level.bytes_written, bytes_written);
    Ok(CompactionOutput {
        files,
        bytes_read,
        bytes_written,
    })
}

/// Picks up to `subcompactions - 1` user-key boundaries partitioning the
/// task's merged range into contiguous, disjoint subranges. Boundaries are
/// drawn from the input files' smallest user keys — cheap, already sorted
/// within each level, and guaranteed to fall between the data of adjacent
/// files, so each partition receives a comparable share of the input.
/// Returns an empty vector when partitioning is off or pointless.
fn partition_bounds(task: &CompactionTask, subcompactions: usize) -> Vec<Vec<u8>> {
    let want = subcompactions.max(1) - 1;
    if want == 0 {
        return Vec::new();
    }
    let mut keys: Vec<Vec<u8>> = task
        .inputs
        .iter()
        .chain(task.next_inputs.iter())
        .map(|f| user_key(&f.smallest).to_vec())
        .collect();
    keys.sort();
    keys.dedup();
    // The global smallest key is not a boundary: everything below the
    // first boundary belongs to partition 0.
    if keys.len() <= 1 {
        return Vec::new();
    }
    keys.remove(0);
    if keys.len() > want {
        // Thin to `want` evenly spaced boundaries.
        let n = keys.len();
        let mut picked: Vec<Vec<u8>> = (1..=want)
            .map(|k| keys[k * n / (want + 1)].clone())
            .collect();
        picked.dedup();
        keys = picked;
    }
    keys
}

/// Garbage-collection rules applied while rewriting entries.
struct GcPolicy<'a> {
    version: &'a Version,
    style: CompactionStyle,
    output_level: usize,
    smallest_snapshot: SequenceNumber,
}

impl GcPolicy<'_> {
    /// Whether `ukey` could exist in any file the compaction does not
    /// rewrite and that a read would consult *after* the output level.
    fn key_survives_elsewhere(&self, ukey: &[u8]) -> bool {
        // Deeper levels always shadow-check.
        for level in self.output_level + 1..self.version.levels.len() {
            if !self.version.overlapping(level, Some(ukey), Some(ukey)).is_empty() {
                return true;
            }
        }
        // Fragmented compactions leave the target level's existing
        // fragments untouched; they may still hold older versions.
        if self.style == CompactionStyle::Fragmented
            && !self
                .version
                .overlapping(self.output_level, Some(ukey), Some(ukey))
                .is_empty()
        {
            return true;
        }
        false
    }
}

/// Consumes a sorted internal-entry stream into size-capped tables,
/// applying GC rules when `gc` is provided. Entries with user key `>= end`
/// are left unconsumed (subcompaction partition boundary); `out_queue`
/// pins the output files to one device submission queue.
fn write_sorted_stream(
    ctx: &JobContext<'_>,
    iter: &mut dyn InternalIterator,
    alloc_number: &(dyn Fn() -> u64 + Sync),
    gc: Option<&GcPolicy<'_>>,
    split_size: u64,
    end: Option<&[u8]>,
    out_queue: Option<QueueId>,
) -> Result<Vec<FileMetaData>> {
    let mut outputs: Vec<FileMetaData> = Vec::new();
    let mut builder: Option<(u64, TableBuilder)> = None;
    let mut current_ukey: Option<Vec<u8>> = None;
    // Sequence of the most recent (newest) retained entry for the current
    // user key; MAX means "none seen yet".
    let mut last_seq_for_key = u64::MAX;
    let in_range = |it: &dyn InternalIterator| {
        it.valid() && end.map_or(true, |e| user_key(it.key()) < e)
    };

    while in_range(iter) {
        let ikey = iter.key();
        let (seq, kind) = seq_and_type(ikey);
        let ukey = user_key(ikey);
        let first_occurrence = current_ukey.as_deref() != Some(ukey);
        if first_occurrence {
            let current = current_ukey.get_or_insert_with(Vec::new);
            current.clear();
            current.extend_from_slice(ukey);
            last_seq_for_key = u64::MAX;
        }

        let drop = if let Some(gc) = gc {
            if last_seq_for_key <= gc.smallest_snapshot {
                // A newer entry for this key is visible to every snapshot:
                // this one can never be read again.
                true
            } else {
                kind == ValueType::Deletion
                    && seq <= gc.smallest_snapshot
                    && !gc.key_survives_elsewhere(ukey)
            }
        } else {
            false
        };
        last_seq_for_key = seq;

        if !drop {
            if builder.is_none() {
                let number = alloc_number();
                let path = file_path(ctx.dir, number, FileKind::Table);
                let file = match out_queue {
                    Some(q) => ctx.env.new_writable_on(&path, q)?,
                    None => ctx.env.new_writable(&path)?,
                };
                builder = Some((number, TableBuilder::new(file, TableConfig::from(ctx.opts))));
            }
            let (_, b) = builder.as_mut().expect("builder just ensured");
            b.add(ikey, iter.value())?;
            // Split outputs at the target size, but never inside one user
            // key's version chain (keeps first-occurrence GC sound when the
            // outputs are later compacted again).
            let full = b.estimated_size() >= split_size;
            if full {
                // Peek whether the next entry starts a new user key.
                iter.next();
                let new_key = !iter.valid() || user_key(iter.key()) != current_ukey.as_deref().unwrap_or(b"");
                if new_key {
                    let (number, b) = builder.take().expect("builder present");
                    outputs.push(finish_builder(number, b)?);
                }
                continue;
            }
        }
        iter.next();
    }
    // An input iterator that died with a read error is indistinguishable
    // from a clean end of stream above; installing a truncated output and
    // deleting the inputs would silently lose every remaining entry, so
    // the job must fail instead (the caller fail-stops via bg_error and
    // the orphaned outputs are garbage-collected).
    iter.status()?;
    if let Some((number, b)) = builder.take() {
        if b.entries() > 0 {
            outputs.push(finish_builder(number, b)?);
        } else {
            // Remove the empty placeholder file.
            let _ = ctx.env.remove_file(&file_path(ctx.dir, number, FileKind::Table));
        }
    }
    Ok(outputs)
}

fn finish_builder(number: u64, builder: TableBuilder) -> Result<FileMetaData> {
    let summary = builder.finish()?;
    Ok(FileMetaData {
        number,
        size: summary.file_size,
        smallest: summary.smallest,
        largest: summary.largest,
        entries: summary.entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::make_internal_key;
    use crate::version::edit::VersionEdit;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Fixture {
        opts: Options,
        dir: std::path::PathBuf,
        cache: Arc<TableCache>,
        stats: DbStats,
        next: AtomicU64,
    }

    impl Fixture {
        fn new() -> Fixture {
            Self::new_styled(CompactionStyle::Leveled)
        }

        fn new_styled(style: CompactionStyle) -> Fixture {
            let mut opts = Options::for_test();
            opts.compaction_style = style;
            let dir = std::path::PathBuf::from("cdb");
            opts.env.create_dir_all(&dir).unwrap();
            let cache = Arc::new(TableCache::new(opts.env.clone(), dir.clone(), None));
            Fixture {
                dir,
                cache,
                stats: DbStats::new(7),
                next: AtomicU64::new(10),
                opts,
            }
        }

        fn ctx(&self) -> JobContext<'_> {
            JobContext {
                env: &self.opts.env,
                dir: &self.dir,
                opts: &self.opts,
                table_cache: &self.cache,
                stats: &self.stats,
            }
        }

        fn alloc(&self) -> u64 {
            self.next.fetch_add(1, Ordering::Relaxed)
        }
    }

    fn read_table_keys(fx: &Fixture, meta: &FileMetaData) -> Vec<(Vec<u8>, u64, ValueType)> {
        let reader = fx.cache.get(meta.number, meta.size).unwrap();
        let mut it = reader.iter();
        it.seek_to_first();
        let mut out = Vec::new();
        while it.valid() {
            let (seq, kind) = seq_and_type(it.key());
            out.push((user_key(it.key()).to_vec(), seq, kind));
            it.next();
        }
        out
    }

    #[test]
    fn flush_preserves_everything() {
        let fx = Fixture::new();
        let mem = Arc::new(MemTable::new());
        mem.add(1, ValueType::Value, b"a", b"v1");
        mem.add(2, ValueType::Value, b"a", b"v2");
        mem.add(3, ValueType::Deletion, b"b", b"");
        let file = flush_memtable(&fx.ctx(), &mem, &|| fx.alloc())
            .unwrap()
            .expect("one table");
        let keys = read_table_keys(&fx, &file);
        assert_eq!(
            keys,
            vec![
                (b"a".to_vec(), 2, ValueType::Value),
                (b"a".to_vec(), 1, ValueType::Value),
                (b"b".to_vec(), 3, ValueType::Deletion),
            ]
        );
        assert_eq!(fx.stats.flushes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn flush_empty_memtable_produces_nothing() {
        let fx = Fixture::new();
        let mem = Arc::new(MemTable::new());
        let file = flush_memtable(&fx.ctx(), &mem, &|| fx.alloc()).unwrap();
        assert!(file.is_none());
    }

    /// Builds an L0 file from explicit entries via a memtable flush.
    fn build_l0(fx: &Fixture, entries: &[(&str, u64, ValueType, &str)]) -> FileMetaData {
        let mem = Arc::new(MemTable::new());
        for (k, seq, kind, v) in entries {
            mem.add(*seq, *kind, k.as_bytes(), v.as_bytes());
        }
        flush_memtable(&fx.ctx(), &mem, &|| fx.alloc())
            .unwrap()
            .expect("one table")
    }

    /// Writes `mem` as one sorted run cut at `target_file_size`: the
    /// several disjoint files a compaction leaves in a sorted level.
    fn build_run(fx: &Fixture, mem: &Arc<MemTable>) -> Vec<FileMetaData> {
        let mut iter = mem.iter();
        iter.seek_to_first();
        let split = fx.opts.target_file_size as u64;
        write_sorted_stream(
            &fx.ctx(),
            &mut iter,
            &|| fx.alloc(),
            None,
            split,
            None,
            None,
        )
        .unwrap()
    }

    #[test]
    fn compaction_drops_shadowed_versions() {
        let fx = Fixture::new();
        let f1 = build_l0(&fx, &[("k", 5, ValueType::Value, "new")]);
        let f2 = build_l0(&fx, &[("k", 3, ValueType::Value, "old")]);
        let version = Version::empty(7, CompactionStyle::Leveled).apply(&{
            let mut e = VersionEdit::default();
            e.added.push((0, f1.clone()));
            e.added.push((0, f2.clone()));
            e
        });
        let task = CompactionTask {
            level: 0,
            output_level: 1,
            inputs: vec![Arc::new(f1.into()), Arc::new(f2.into())],
            next_inputs: vec![],
        };
        // Everyone can see seq 5: the old version is dead.
        let out = run_compaction(&fx.ctx(), &task, &version, 100, &|| fx.alloc()).unwrap();
        assert_eq!(out.files.len(), 1);
        let keys = read_table_keys(&fx, &out.files[0]);
        assert_eq!(keys, vec![(b"k".to_vec(), 5, ValueType::Value)]);
        assert!(out.bytes_read > 0 && out.bytes_written > 0);
    }

    #[test]
    fn snapshot_preserves_old_versions() {
        let fx = Fixture::new();
        let f1 = build_l0(&fx, &[("k", 5, ValueType::Value, "new")]);
        let f2 = build_l0(&fx, &[("k", 3, ValueType::Value, "old")]);
        let version = Version::empty(7, CompactionStyle::Leveled);
        let task = CompactionTask {
            level: 0,
            output_level: 1,
            inputs: vec![Arc::new(f1.into()), Arc::new(f2.into())],
            next_inputs: vec![],
        };
        // A snapshot at seq 3 still needs the old version.
        let out = run_compaction(&fx.ctx(), &task, &version, 3, &|| fx.alloc()).unwrap();
        let keys = read_table_keys(&fx, &out.files[0]);
        assert_eq!(keys.len(), 2);
    }

    #[test]
    fn tombstone_dropped_at_base_level() {
        let fx = Fixture::new();
        let f1 = build_l0(&fx, &[("dead", 7, ValueType::Deletion, "")]);
        let version = Version::empty(7, CompactionStyle::Leveled);
        let task = CompactionTask {
            level: 0,
            output_level: 1,
            inputs: vec![Arc::new(f1.into())],
            next_inputs: vec![],
        };
        let out = run_compaction(&fx.ctx(), &task, &version, 100, &|| fx.alloc()).unwrap();
        assert!(out.files.is_empty(), "lone tombstone must vanish");
    }

    #[test]
    fn tombstone_kept_when_deeper_level_overlaps() {
        let fx = Fixture::new();
        let f1 = build_l0(&fx, &[("dead", 7, ValueType::Deletion, "")]);
        let deep = build_l0(&fx, &[("dead", 1, ValueType::Value, "zombie")]);
        let version = Version::empty(7, CompactionStyle::Leveled).apply(&{
            let mut e = VersionEdit::default();
            e.added.push((3, deep));
            e
        });
        let task = CompactionTask {
            level: 0,
            output_level: 1,
            inputs: vec![Arc::new(f1.into())],
            next_inputs: vec![],
        };
        let out = run_compaction(&fx.ctx(), &task, &version, 100, &|| fx.alloc()).unwrap();
        let keys = read_table_keys(&fx, &out.files[0]);
        assert_eq!(keys, vec![(b"dead".to_vec(), 7, ValueType::Deletion)]);
    }

    #[test]
    fn fragmented_keeps_tombstone_when_target_level_overlaps() {
        let fx = Fixture::new_styled(CompactionStyle::Fragmented);
        let f1 = build_l0(&fx, &[("dead", 7, ValueType::Deletion, "")]);
        let frag = build_l0(&fx, &[("dead", 1, ValueType::Value, "zombie")]);
        let mut version = Version::empty(7, CompactionStyle::Fragmented);
        version = version.apply(&{
            let mut e = VersionEdit::default();
            e.added.push((1, frag));
            e
        });
        let task = CompactionTask {
            level: 0,
            output_level: 1,
            inputs: vec![Arc::new(f1.into())],
            next_inputs: vec![],
        };
        let out = run_compaction(&fx.ctx(), &task, &version, 100, &|| fx.alloc()).unwrap();
        let keys = read_table_keys(&fx, &out.files[0]);
        assert_eq!(keys.len(), 1, "tombstone must survive fragmented append");
    }

    #[test]
    fn compaction_fails_on_read_error_instead_of_truncating() {
        // Regression: a transient read error on an input table used to end
        // the merged stream early, so the compaction installed a truncated
        // output and the manifest edit deleted the inputs — durable loss
        // of acked keys. The job must fail instead.
        use p2kvs_storage::{FaultPlan, FaultyEnv};
        let faulty = Arc::new(FaultyEnv::over_mem());
        let mut opts = Options::for_test();
        opts.env = faulty.clone();
        opts.target_file_size = 1 << 20;
        let dir = std::path::PathBuf::from("cdb");
        opts.env.create_dir_all(&dir).unwrap();
        let cache = Arc::new(TableCache::new(opts.env.clone(), dir.clone(), None));
        let stats = DbStats::new(7);
        let next = AtomicU64::new(10);
        let ctx = JobContext {
            env: &opts.env,
            dir: &dir,
            opts: &opts,
            table_cache: &cache,
            stats: &stats,
        };
        let alloc = || next.fetch_add(1, Ordering::Relaxed);

        // Each input is larger than one readahead window, so its reader
        // refills part-way through the merge.
        let build = |tag: u8| {
            let mem = Arc::new(MemTable::new());
            for i in 0..3000u64 {
                mem.add(
                    i + 1,
                    ValueType::Value,
                    format!("{tag:02x}-key{i:06}").as_bytes(),
                    &[tag; 100],
                );
            }
            flush_memtable(&ctx, &mem, &alloc)
                .unwrap()
                .expect("one table")
        };
        let f1 = build(1);
        let f2 = build(2);
        assert!(f1.size > 300 << 10 && f1.size < 512 << 10, "{}", f1.size);
        let input_entries = f1.entries + f2.entries;
        let version = Version::empty(7, CompactionStyle::Leveled);
        let task = CompactionTask {
            level: 0,
            output_level: 1,
            inputs: vec![Arc::new(f1.into()), Arc::new(f2.into())],
            next_inputs: vec![],
        };
        // With both tables open, the merge makes four reads: each input's
        // first window, then for each the refill that starts at the block
        // the first window cut off, inside the stretch already read.
        for f in &task.inputs {
            cache.get(f.number, f.size).unwrap();
        }
        let before = faulty.reads();
        run_compaction(&ctx, &task, &version, 100, &alloc).unwrap();
        assert_eq!(faulty.reads() - before, 4);
        for nth in 1..=4 {
            faulty.set_plan(FaultPlan {
                fail_read: Some(faulty.reads() + nth),
                ..FaultPlan::default()
            });
            let err = run_compaction(&ctx, &task, &version, 100, &alloc)
                .expect_err("truncated merge must not pass as success");
            assert!(
                err.to_string().contains("injected fault"),
                "read {nth}: {err}"
            );
        }
        // Retrying after the transient error succeeds and keeps every entry.
        let out = run_compaction(&ctx, &task, &version, 100, &alloc).unwrap();
        let total: u64 = out.files.iter().map(|f| f.entries).sum();
        assert_eq!(total, input_entries);
    }

    #[test]
    fn compaction_fails_on_a_flipped_byte_in_any_input_data_block() {
        use p2kvs_storage::env::{read_all, write_all};
        let mut fx = Fixture::new();
        fx.opts.block_size = 1024;
        let build = |keys: std::ops::Range<u64>| {
            let mem = Arc::new(MemTable::new());
            for i in keys {
                mem.add(
                    i + 1,
                    ValueType::Value,
                    format!("key{i:05}").as_bytes(),
                    &[7u8; 60],
                );
            }
            flush_memtable(&fx.ctx(), &mem, &|| fx.alloc())
                .unwrap()
                .expect("one table")
        };
        let task = CompactionTask {
            level: 0,
            output_level: 1,
            inputs: vec![
                Arc::new(build(0..150).into()),
                Arc::new(build(150..300).into()),
            ],
            next_inputs: vec![],
        };
        let version = Version::empty(7, CompactionStyle::Leveled);
        let mut damaged_blocks = 0;
        for f in &task.inputs {
            let path = file_path(&fx.dir, f.number, FileKind::Table);
            let pristine = read_all(&*fx.opts.env, &path).unwrap();
            // The offset of every data block, from the table's own index.
            let table = fx.cache.get(f.number, f.size).unwrap();
            let mut offsets = vec![table.locate(&f.smallest).unwrap().offset];
            let mut it = table.iter();
            it.seek_to_first();
            while it.valid() {
                let at = table.locate(it.key()).unwrap().offset;
                if at != *offsets.last().unwrap() {
                    offsets.push(at);
                }
                it.next();
            }
            assert!(offsets.len() > 3, "{offsets:?}");
            for at in offsets {
                let mut bytes = pristine.clone();
                bytes[at as usize + 9] ^= 0x10;
                write_all(&*fx.opts.env, &path, &bytes).unwrap();
                fx.cache.evict(f.number);
                let err = run_compaction(&fx.ctx(), &task, &version, 1000, &|| fx.alloc())
                    .expect_err("a damaged input must fail the job");
                assert!(matches!(err, Error::Corruption(_)), "block at {at}: {err}");
                damaged_blocks += 1;
            }
            write_all(&*fx.opts.env, &path, &pristine).unwrap();
            fx.cache.evict(f.number);
        }
        assert!(damaged_blocks > 6);
        let out = run_compaction(&fx.ctx(), &task, &version, 1000, &|| fx.alloc()).unwrap();
        assert_eq!(out.files.iter().map(|f| f.entries).sum::<u64>(), 300);
    }

    /// A compaction reads tables it is about to delete: none of their
    /// blocks may enter the block cache, and none of the blocks readers put
    /// there may leave it.
    #[test]
    fn compaction_leaves_the_block_cache_as_it_found_it() {
        use crate::sst::BlockCache;
        let mut fx = Fixture::new();
        // Room for a few blocks only: one compaction through the cache
        // would turn it over many times.
        let blocks = Arc::new(BlockCache::new(64 << 10));
        fx.cache = Arc::new(TableCache::new(
            fx.opts.env.clone(),
            fx.dir.clone(),
            Some(blocks.clone()),
        ));
        let hot = build_l0(&fx, &[("hot", 1, ValueType::Value, "served from memory")]);
        let lookup = make_internal_key(b"hot", MAX_SEQUENCE, VALUE_TYPE_FOR_SEEK);
        let hot_table = fx.cache.get(hot.number, hot.size).unwrap();
        hot_table.get(&lookup, false).unwrap().unwrap();
        let reads = fx.opts.env.io_stats().read_ops;
        hot_table.get(&lookup, false).unwrap().unwrap();
        assert_eq!(
            fx.opts.env.io_stats().read_ops,
            reads,
            "second lookup is a cache hit"
        );

        let build = |tag: u64| {
            let mem = Arc::new(MemTable::new());
            for i in 0..200u64 {
                mem.add(
                    tag * 1000 + i,
                    ValueType::Value,
                    format!("cold{i:05}").as_bytes(),
                    &[9u8; 100],
                );
            }
            flush_memtable(&fx.ctx(), &mem, &|| fx.alloc())
                .unwrap()
                .expect("one table")
        };
        let task = CompactionTask {
            level: 0,
            output_level: 1,
            inputs: (1..=4)
                .rev()
                .map(|tag| Arc::new(build(tag).into()))
                .collect(),
            next_inputs: vec![],
        };
        assert!(task.input_bytes() > 64 << 10);
        let before = (blocks.stats(), blocks.inserts(), blocks.usage());
        let version = Version::empty(7, CompactionStyle::Leveled);
        let out = run_compaction(&fx.ctx(), &task, &version, 10_000, &|| fx.alloc()).unwrap();
        assert_eq!(out.files.iter().map(|f| f.entries).sum::<u64>(), 200);
        assert_eq!((blocks.stats(), blocks.inserts(), blocks.usage()), before);

        let reads = fx.opts.env.io_stats().read_ops;
        hot_table.get(&lookup, false).unwrap().unwrap();
        assert_eq!(
            fx.opts.env.io_stats().read_ops,
            reads,
            "the hot block is still cached"
        );
    }

    /// A leveled compaction below L0 merges two sorted runs, however many
    /// files the lower one has: the output is each key's newest version,
    /// and the same whether or not the range is partitioned.
    #[test]
    fn leveled_compaction_merges_each_sorted_level_as_one_run() {
        let mut expect = Vec::new();
        for subs in [1usize, 3] {
            let mut fx = Fixture::new();
            fx.opts.subcompactions = subs;
            // L2: every key, old, in several disjoint files.
            let mem = Arc::new(MemTable::new());
            for i in 0..1500u64 {
                mem.add(
                    i + 1,
                    ValueType::Value,
                    format!("key{i:05}").as_bytes(),
                    &[1u8; 80],
                );
            }
            let lower = build_run(&fx, &mem);
            assert!(lower.len() > 3, "{}", lower.len());
            // L1: one file rewriting every third key of the middle.
            let mem = Arc::new(MemTable::new());
            for i in (300..1200u64).step_by(3) {
                let kind = if i % 2 == 0 {
                    ValueType::Value
                } else {
                    ValueType::Deletion
                };
                mem.add(5000 + i, kind, format!("key{i:05}").as_bytes(), b"new");
            }
            let upper = flush_memtable(&fx.ctx(), &mem, &|| fx.alloc()).unwrap();
            assert!(upper.is_some());
            let version = Version::empty(7, CompactionStyle::Leveled).apply(&{
                let mut e = VersionEdit::default();
                e.added.extend(upper.iter().map(|f| (1, f.clone())));
                e.added.extend(lower.iter().map(|f| (2, f.clone())));
                e
            });
            let task = CompactionTask {
                level: 1,
                output_level: 2,
                inputs: version.levels[1].clone(),
                next_inputs: version.levels[2].clone(),
            };
            let out = run_compaction(&fx.ctx(), &task, &version, 100_000, &|| fx.alloc()).unwrap();
            let got: Vec<_> = entry_stream(&fx, &out.files)
                .into_iter()
                .map(|(k, seq, kind, _)| (k, seq, kind))
                .collect();
            if expect.is_empty() {
                // Tombstones drop (nothing deeper), shadowed values drop.
                for i in 0..1500u64 {
                    let rewritten = (300..1200).contains(&i) && i % 3 == 0;
                    match (rewritten, i % 2 == 0) {
                        (false, _) => expect.push((
                            format!("key{i:05}").into_bytes(),
                            i + 1,
                            ValueType::Value,
                        )),
                        (true, true) => expect.push((
                            format!("key{i:05}").into_bytes(),
                            5000 + i,
                            ValueType::Value,
                        )),
                        (true, false) => {}
                    }
                }
            }
            assert_eq!(got, expect, "subcompactions={subs}");
        }
    }

    /// Builds a compaction fixture with overlapping inputs across two
    /// levels: version chains spanning files, tombstones, and enough
    /// distinct file ranges that `partition_bounds` finds real boundaries.
    fn build_differential_inputs(fx: &Fixture) -> (CompactionTask, Version) {
        let mut l0 = Vec::new();
        for f in 0..4u64 {
            let mem = Arc::new(MemTable::new());
            for i in 0..120u64 {
                let key = format!("key{:05}", i * 4 + f);
                let seq = 1000 + f * 1000 + i;
                if i % 17 == 0 {
                    mem.add(seq, ValueType::Deletion, key.as_bytes(), b"");
                } else {
                    mem.add(seq, ValueType::Value, key.as_bytes(), format!("v{f}-{i}").as_bytes());
                }
                // Older shadowed version of the same key in the same file.
                if i % 5 == 0 {
                    mem.add(seq - 900, ValueType::Value, key.as_bytes(), b"old");
                }
            }
            l0.push(
                flush_memtable(&fx.ctx(), &mem, &|| fx.alloc())
                    .unwrap()
                    .expect("one table"),
            );
        }
        // An L1 run the task also rewrites (next_inputs).
        let mem = Arc::new(MemTable::new());
        for i in 0..200u64 {
            mem.add(
                50 + i,
                ValueType::Value,
                format!("key{:05}", i * 2).as_bytes(),
                b"l1-old",
            );
        }
        let next = flush_memtable(&fx.ctx(), &mem, &|| fx.alloc()).unwrap();
        let version = Version::empty(7, CompactionStyle::Leveled).apply(&{
            let mut e = VersionEdit::default();
            for f in &l0 {
                e.added.push((0, f.clone()));
            }
            e.added.extend(next.iter().map(|f| (1, f.clone())));
            e
        });
        let task = CompactionTask {
            level: 0,
            output_level: 1,
            inputs: l0.into_iter().map(|f| Arc::new(f.into())).collect(),
            next_inputs: next.into_iter().map(|f| Arc::new(f.into())).collect(),
        };
        (task, version)
    }

    /// Concatenated (user_key, seq, kind, value) stream of output files.
    fn entry_stream(fx: &Fixture, files: &[FileMetaData]) -> Vec<(Vec<u8>, u64, ValueType, Vec<u8>)> {
        let mut out = Vec::new();
        for meta in files {
            let reader = fx.cache.get(meta.number, meta.size).unwrap();
            let mut it = reader.iter();
            it.seek_to_first();
            while it.valid() {
                let (seq, kind) = seq_and_type(it.key());
                out.push((user_key(it.key()).to_vec(), seq, kind, it.value().to_vec()));
                it.next();
            }
        }
        out
    }

    /// The tentpole's correctness gate: partitioned parallel compaction
    /// must emit an entry stream identical to the single-threaded
    /// compactor — same keys, sequences, tombstone drops, value bytes —
    /// for any subcompaction count.
    #[test]
    fn parallel_compaction_matches_single_threaded() {
        let base = Fixture::new();
        let (task, version) = build_differential_inputs(&base);
        let serial = run_compaction(&base.ctx(), &task, &version, 1500, &|| base.alloc()).unwrap();
        let expect = entry_stream(&base, &serial.files);
        assert!(!expect.is_empty());
        for subs in [2usize, 3, 4, 8] {
            let mut fx = Fixture::new();
            fx.opts.subcompactions = subs;
            // Rebuild identical inputs in the fresh env.
            let (task, version) = build_differential_inputs(&fx);
            let out = run_compaction(&fx.ctx(), &task, &version, 1500, &|| fx.alloc()).unwrap();
            let got = entry_stream(&fx, &out.files);
            assert_eq!(got, expect, "subcompactions={subs} diverged");
            // File sizes differ slightly (partition seams move the split
            // points, changing per-file index overhead) but the payload
            // the level carries is identical — checked entry-by-entry
            // above.
            assert!(out.bytes_written > 0);
            // Outputs stay disjoint and ordered across partition seams.
            for pair in out.files.windows(2) {
                assert!(
                    crate::types::internal_cmp(&pair[0].largest, &pair[1].smallest)
                        == std::cmp::Ordering::Less
                );
            }
        }
    }

    /// GC decisions (snapshot keeps, tombstone drops at the base level)
    /// must be partition-independent too: run the snapshot-sensitive cases
    /// through the parallel path.
    #[test]
    fn parallel_compaction_respects_snapshots_and_tombstones() {
        let mut fx = Fixture::new();
        fx.opts.subcompactions = 4;
        let f1 = build_l0(&fx, &[("a", 5, ValueType::Value, "new"), ("m", 7, ValueType::Deletion, "")]);
        let f2 = build_l0(&fx, &[("a", 3, ValueType::Value, "old"), ("z", 4, ValueType::Value, "zz")]);
        // Third file starting at "z" gives the partitioner a boundary right
        // on a user key whose version chain spans two files: the chain must
        // land whole in the second partition.
        let f3 = build_l0(&fx, &[("z", 2, ValueType::Value, "zold")]);
        let version = Version::empty(7, CompactionStyle::Leveled);
        let task = CompactionTask {
            level: 0,
            output_level: 1,
            inputs: vec![
                Arc::new(f1.into()),
                Arc::new(f2.into()),
                Arc::new(f3.into()),
            ],
            next_inputs: vec![],
        };
        assert!(!partition_bounds(&task, fx.opts.subcompactions).is_empty());
        // Snapshot at 3: both versions of "a" and "z" survive; the
        // tombstone at seq 7 > 3 is kept.
        let out = run_compaction(&fx.ctx(), &task, &version, 3, &|| fx.alloc()).unwrap();
        let entries: Vec<_> = entry_stream(&fx, &out.files)
            .into_iter()
            .map(|(k, s, t, _)| (k, s, t))
            .collect();
        assert_eq!(
            entries,
            vec![
                (b"a".to_vec(), 5, ValueType::Value),
                (b"a".to_vec(), 3, ValueType::Value),
                (b"m".to_vec(), 7, ValueType::Deletion),
                (b"z".to_vec(), 4, ValueType::Value),
                (b"z".to_vec(), 2, ValueType::Value),
            ]
        );
        // Everyone at 100: shadowed versions and the lone tombstone drop.
        let out = run_compaction(&fx.ctx(), &task, &version, 100, &|| fx.alloc()).unwrap();
        let entries: Vec<_> = entry_stream(&fx, &out.files)
            .into_iter()
            .map(|(k, s, t, _)| (k, s, t))
            .collect();
        assert_eq!(
            entries,
            vec![
                (b"a".to_vec(), 5, ValueType::Value),
                (b"z".to_vec(), 4, ValueType::Value),
            ]
        );
    }

    #[test]
    fn partition_bounds_are_ordered_and_bounded() {
        let fx = Fixture::new();
        let (task, _) = build_differential_inputs(&fx);
        assert!(partition_bounds(&task, 1).is_empty());
        for subs in [2usize, 3, 4, 16] {
            let bounds = partition_bounds(&task, subs);
            assert!(bounds.len() <= subs - 1, "subs={subs} got {}", bounds.len());
            for pair in bounds.windows(2) {
                assert!(pair[0] < pair[1], "bounds must be strictly increasing");
            }
        }
        // A single-file task has no interior boundaries to offer.
        let lone = CompactionTask {
            level: 1,
            output_level: 2,
            inputs: vec![task.inputs[0].clone()],
            next_inputs: vec![],
        };
        assert!(partition_bounds(&lone, 8).is_empty());
    }

    /// Subcompaction outputs spread across device submission queues,
    /// starting one past the instance's home queue.
    #[test]
    fn subcompaction_outputs_spread_across_queues() {
        use p2kvs_storage::{DeviceProfile, Env as _, SimEnv};
        let env = Arc::new(SimEnv::with_profile(DeviceProfile::instant().with_queues(4)));
        let mut opts = Options::for_test();
        opts.env = env.clone();
        opts.subcompactions = 3;
        opts.io_queue = Some(1);
        let dir = std::path::PathBuf::from("cdb");
        opts.env.create_dir_all(&dir).unwrap();
        let cache = Arc::new(TableCache::new(opts.env.clone(), dir.clone(), None));
        let fx = Fixture {
            dir,
            cache,
            stats: DbStats::new(7),
            next: AtomicU64::new(10),
            opts,
        };
        let (task, version) = build_differential_inputs(&fx);
        let before = env.io_stats();
        run_compaction(&fx.ctx(), &task, &version, 1500, &|| fx.alloc()).unwrap();
        let delta = env.io_stats().delta(&before);
        // Home queue 1 receives no subcompaction output; queues 2, 3, 0
        // (= 1+1, 1+2, 1+3 mod 4) each take one partition's writes.
        let spread: Vec<u64> = (0..4).map(|q| delta.queues[q].bytes_written).collect();
        assert!(
            spread[2] > 0 && spread[3] > 0 && spread[0] > 0,
            "outputs not spread: {spread:?}"
        );
        assert_eq!(spread[1], 0, "home queue must not take subcompaction writes: {spread:?}");
    }

    #[test]
    fn outputs_split_at_target_size() {
        let fx = Fixture::new();
        // ~32 KiB target file size in test options; write ~400 KiB, two
        // versions of every key so that any cut could fall inside a chain.
        let mem = Arc::new(MemTable::new());
        for i in 0..2000u64 {
            let key = format!("key{i:08}");
            mem.add(i + 1, ValueType::Value, key.as_bytes(), &[7u8; 90]);
            mem.add(i + 5001, ValueType::Value, key.as_bytes(), &[8u8; 90]);
        }
        let files = build_run(&fx, &mem);
        assert!(files.len() > 2, "expected several outputs, got {}", files.len());
        // Ranges must be disjoint and ordered, and no user key may have
        // versions on both sides of a cut.
        for pair in files.windows(2) {
            assert!(user_key(&pair[0].largest) < user_key(&pair[1].smallest));
        }
        let total: u64 = files.iter().map(|f| f.entries).sum();
        assert_eq!(total, 4000);
        // A flush of the same memtable is one run and stays one file.
        let flushed = flush_memtable(&fx.ctx(), &mem, &|| fx.alloc())
            .unwrap()
            .unwrap();
        assert_eq!(flushed.entries, 4000);
        assert!(flushed.size > 2 * fx.opts.target_file_size as u64);
    }
}
