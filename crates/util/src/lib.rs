//! Shared utilities for the p2KVS reproduction.
//!
//! This crate collects the small, dependency-free building blocks that every
//! other crate in the workspace needs:
//!
//! * [`hash`] — FNV-1a and a 64-bit mix hash used for key partitioning and
//!   bloom filters.
//! * [`crc32c`] — the Castagnoli CRC used to protect WAL records and SST
//!   blocks.
//! * [`coding`] — varint and fixed-width little-endian integer coding shared
//!   by the on-disk formats.
//! * [`histogram`] — a log-bucketed latency histogram (HdrHistogram-style)
//!   used by every benchmark harness.
//! * [`lru`] — a byte-capacity LRU used as the item/page cache of the
//!   non-LSM engines.
//! * [`timing`] — precise spin-sleep and busy-time accounting used by the
//!   simulated storage devices and the worker threads.
//! * [`affinity`] — thread-to-core pinning (`sched_setaffinity`), one of the
//!   paper's explicit design points (§4.1).
//! * [`rate`] — token-bucket rate limiting and windowed throughput meters
//!   used by the latency-vs-intensity experiment (Fig 13).
//! * [`epoch`] — FASTER-style epoch-based memory reclamation backing the
//!   lock-free hot-record read cache.
//! * [`sync`] — `Mutex` / `RwLock` / `Condvar` over `std::sync` that do not
//!   poison: the locks every other crate takes.
//! * [`rng`] — the seeded SplitMix64 stream behind every generated
//!   workload, crash schedule and differential test.

pub mod affinity;
pub mod coding;
pub mod crc32c;
pub mod epoch;
pub mod hash;
pub mod histogram;
pub mod lru;
pub mod rate;
pub mod rng;
pub mod sync;
mod sys;
pub mod timing;
