//! `lsmkv`: a from-scratch LSM-tree key-value engine.
//!
//! This crate is the workspace's stand-in for the production engines the
//! p2KVS paper layers its framework on. It implements the full LSM stack —
//! write-ahead log with RocksDB-style group commit, a concurrent skiplist
//! MemTable, SSTables with bloom filters and a block cache, a versioned
//! manifest, and background leveled (or PebblesDB-style fragmented)
//! compaction — behind a small public API:
//!
//! ```
//! use lsmkv::{Db, Options, WriteOptions};
//!
//! let opts = Options::for_test();
//! let db = Db::open(opts, "example-db").unwrap();
//! db.put(&WriteOptions::default(), b"key", b"value").unwrap();
//! assert_eq!(db.get(b"key").unwrap().unwrap(), b"value");
//! ```
//!
//! Engine *modes* reproduce the paper's baselines. One field,
//! [`Options::flavor`], switches RocksDB's concurrency optimizations:
//! [`Options::rocksdb_like`] sets [`Flavor::RocksDb`] (concurrent MemTable,
//! pipelined write, batched multiget), [`Options::leveldb_like`] sets
//! [`Flavor::LevelDb`] (none of them) and [`Options::pebblesdb_like`] is
//! LevelDB mode with fragmented compaction.

pub mod batch;
pub mod compaction;
pub mod db;
pub mod error;
pub mod iterator;
pub mod memtable;
pub mod options;
pub mod sst;
pub mod stats;
pub mod types;
pub mod version;
pub mod wal;

pub use batch::{BatchOp, WriteBatch};
pub use db::{Db, DbEvent, DbEventHook, DbIterator, Snapshot};
pub use error::{Error, Result};
pub use options::{CompactionStyle, Flavor, Options, ReadOptions, SyncPolicy, WriteOptions};
pub use stats::{DbStats, WriteBreakdown};
