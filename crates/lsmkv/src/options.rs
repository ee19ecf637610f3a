//! Engine configuration.
//!
//! The defaults mimic a small RocksDB tuned for the paper's experiments
//! (sizes are scaled down so compaction behaviour appears within the
//! scaled-down op counts; see DESIGN.md). One field, [`Options::flavor`],
//! picks the engine mode: [`Options::leveldb_like`] sets [`Flavor::LevelDb`],
//! which disables the RocksDB-only concurrency optimizations to act as the
//! LevelDB portability target, and [`Options::pebblesdb_like`] adds the
//! fragmented (guard-based) compaction policy to act as the PebblesDB
//! baseline.

use std::sync::Arc;

use p2kvs_storage::EnvRef;

/// How SST files are reorganized across levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionStyle {
    /// Classic leveled compaction: non-overlapping files per level (except
    /// L0); compaction merges into the next level.
    Leveled,
    /// PebblesDB-style fragmented LSM: overlapping fragments are allowed
    /// within a level, compaction appends fragments to the next level
    /// without rewriting it, trading read fan-out for write amplification.
    Fragmented,
}

/// Which engine the instance behaves like: the paper's portability target
/// is LevelDB, i.e. RocksDB without its concurrency optimizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Followers of a write group insert their own batches in parallel
    /// (RocksDB `allow_concurrent_memtable_write`), the WAL of group N+1
    /// may start while group N is still inserting into the MemTable
    /// (`enable_pipelined_write`), and `multiget` batches its lookups.
    RocksDb,
    /// None of those: the leader inserts the whole group, the next group
    /// waits for this one's MemTable phase, and `multiget` runs its
    /// lookups one by one.
    LevelDb,
}

/// Number of LSM levels.
pub const NUM_LEVELS: usize = 7;

/// Fragmented style: fragments per guard that trigger a guard merge.
pub const FRAGMENT_MERGE_THRESHOLD: usize = 6;

/// When WAL writes become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` on every write group (safest, slowest).
    Always,
    /// Push bytes to the device per group but skip the barrier — the
    /// paper's "async-logging" default configuration.
    Async,
    /// Leave bytes in the writer's buffer; the device sees them on
    /// writeback thresholds only.
    Buffered,
}

/// Top-level engine options.
#[derive(Clone)]
pub struct Options {
    /// Environment all files are created in.
    pub env: EnvRef,
    /// MemTable capacity in bytes before it is made immutable.
    pub memtable_size: usize,
    /// Maximum number of immutable memtables before writers stall.
    pub max_immutable_memtables: usize,
    /// Target file size for SSTs produced by flush/compaction.
    pub target_file_size: usize,
    /// Number of sorted runs in L0 (one per flush) that triggers compaction.
    pub l0_compaction_trigger: usize,
    /// Number of sorted runs in L0 at which writers are slowed down.
    pub l0_slowdown_trigger: usize,
    /// Number of sorted runs in L0 at which writers stop until compaction
    /// catches up. Also the most L0 tables a point lookup can have to probe.
    pub l0_stop_trigger: usize,
    /// Size target of L1 in bytes; each deeper level is ×`level_multiplier`.
    pub base_level_size: u64,
    /// Growth factor between level size targets.
    pub level_multiplier: u64,
    /// Bloom filter bits per key (0 disables filters).
    pub bloom_bits_per_key: usize,
    /// Capacity of the shared block cache in bytes (0 disables caching).
    pub block_cache_size: usize,
    /// WAL durability policy.
    pub sync: SyncPolicy,
    /// Engine mode: RocksDB's concurrency optimizations on or off.
    pub flavor: Flavor,
    /// Compaction policy.
    pub compaction_style: CompactionStyle,
    /// Number of background compaction threads. With more than one thread
    /// the scheduler runs compactions at *different* levels concurrently
    /// (L0→L1 prioritized); a single level is never compacted by two jobs
    /// at once.
    pub compaction_threads: usize,
    /// Maximum subcompactions per major compaction: the merged input range
    /// is partitioned by user key and the partitions are written by
    /// parallel threads. `1` keeps the single-threaded path.
    pub subcompactions: usize,
    /// Device submission queue this instance's WAL/flush traffic should
    /// ride (see `p2kvs_storage::ioqueue`). Subcompaction outputs spread
    /// across queues starting after this one. `None` uses the ambient
    /// thread queue / file-hash placement.
    pub io_queue: Option<usize>,
    /// Benchmark-only: skip MemTable insertion entirely to isolate the WAL
    /// stage (Figs 7, 8a). Reads are meaningless in this mode.
    pub bench_skip_memtable: bool,
}

impl Options {
    /// RocksDB-like defaults over the given environment, scaled for tests
    /// and simulation (4 MiB memtables, 2 MiB SSTs).
    pub fn rocksdb_like(env: EnvRef) -> Options {
        Options {
            env,
            memtable_size: 4 << 20,
            max_immutable_memtables: 2,
            target_file_size: 2 << 20,
            l0_compaction_trigger: 4,
            l0_slowdown_trigger: 8,
            l0_stop_trigger: 12,
            base_level_size: 8 << 20,
            level_multiplier: 10,
            bloom_bits_per_key: 10,
            block_cache_size: 8 << 20,
            sync: SyncPolicy::Async,
            flavor: Flavor::RocksDb,
            compaction_style: CompactionStyle::Leveled,
            compaction_threads: 1,
            subcompactions: 1,
            io_queue: None,
            bench_skip_memtable: false,
        }
    }

    /// LevelDB mode: same structure, none of the RocksDB concurrency
    /// extras (no concurrent memtable, no pipelining, no multiget).
    pub fn leveldb_like(env: EnvRef) -> Options {
        Options {
            flavor: Flavor::LevelDb,
            ..Options::rocksdb_like(env)
        }
    }

    /// PebblesDB mode: LevelDB base plus fragmented (guard-based)
    /// compaction.
    pub fn pebblesdb_like(env: EnvRef) -> Options {
        Options {
            compaction_style: CompactionStyle::Fragmented,
            ..Options::leveldb_like(env)
        }
    }

    /// In-memory options for unit tests.
    pub fn for_test() -> Options {
        let mut o = Options::rocksdb_like(Arc::new(p2kvs_storage::MemEnv::new()));
        o.memtable_size = 64 << 10;
        o.target_file_size = 32 << 10;
        o.base_level_size = 128 << 10;
        o.block_cache_size = 256 << 10;
        o
    }

    /// Size target in bytes for `level` (>= 1).
    pub fn level_target(&self, level: usize) -> u64 {
        debug_assert!(level >= 1);
        let mut target = self.base_level_size;
        for _ in 1..level {
            target = target.saturating_mul(self.level_multiplier);
        }
        target
    }
}

/// Per-write options.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOptions {
    /// Force a durability barrier for this write.
    pub sync: bool,
    /// Skip the WAL entirely (used by the Fig 8 MemTable-only experiment).
    pub disable_wal: bool,
}

/// Per-read options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadOptions {
    /// Read at this sequence number instead of the latest (snapshots).
    pub snapshot: Option<u64>,
    /// Bypass the block cache for this read.
    pub skip_cache: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_targets_grow_geometrically() {
        let o = Options::for_test();
        assert_eq!(o.level_target(1), o.base_level_size);
        assert_eq!(o.level_target(2), o.base_level_size * 10);
        assert_eq!(o.level_target(3), o.base_level_size * 100);
    }

    #[test]
    fn mode_presets() {
        let env: EnvRef = Arc::new(p2kvs_storage::MemEnv::new());
        let rocks = Options::rocksdb_like(env.clone());
        assert_eq!(rocks.flavor, Flavor::RocksDb);
        assert_eq!(rocks.compaction_style, CompactionStyle::Leveled);
        let level = Options::leveldb_like(env.clone());
        assert_eq!(level.flavor, Flavor::LevelDb);
        assert_eq!(level.compaction_style, CompactionStyle::Leveled);
        let pebbles = Options::pebblesdb_like(env);
        assert_eq!(pebbles.flavor, Flavor::LevelDb);
        assert_eq!(pebbles.compaction_style, CompactionStyle::Fragmented);
    }
}
