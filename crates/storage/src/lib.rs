//! Storage substrate: the `Env` file abstraction and simulated devices.
//!
//! The paper evaluates p2KVS on three physical devices (a 10 TB HDD, a SATA
//! SSD, and an Intel Optane 905p NVMe SSD). This reproduction has none of
//! that hardware, so — per the substitution rule in `DESIGN.md` — every
//! engine in the workspace performs its file IO through the [`Env`] trait,
//! which has two implementations:
//!
//! * [`MemEnv`] — an in-memory filesystem ([`MemFs`]). [`MemEnv::new`] has
//!   no timing model and serves unit tests that only care about
//!   correctness; [`MemEnv::with_profile`] adds a [`DeviceModel`]: every
//!   read/write/sync charges a service time computed from per-IO base
//!   latency, seek penalty, bandwidth, and a bounded number of internal
//!   channels. The timed form is what the benchmark harness runs on,
//!   with profiles calibrated to the
//!   paper's devices ([`DeviceProfile::hdd`], [`DeviceProfile::sata_ssd`],
//!   [`DeviceProfile::nvme_optane`]).
//! * [`StdEnv`] — passthrough to the real filesystem, for running the stack
//!   on an actual disk.
//!
//! [`FaultyEnv`] wraps a [`MemEnv`] to inject IO errors and power failures
//! into the very store that env serves.
//!
//! All implementations count their IO in one [`IoStats`] ledger: per
//! submission queue, the bytes written by class, write ops, bytes read,
//! read ops, syncs and device busy time, each IO recorded once. Every
//! device-wide total in an [`IoStatsSnapshot`] is a sum of those cells, and
//! from it the harness derives IO amplification (Fig 12b), bandwidth
//! utilization (Figs 4, 5b, 12c, 21a), and the compaction/flush traffic
//! split.

pub mod device;
pub mod env;
pub mod fault;
pub mod ioqueue;
pub mod mem;
pub mod stats;
pub mod stdfs;

pub use device::{ChainsCharge, DeviceModel, DeviceProfile, IoChains};
pub use env::{Env, FaultHook, RandomAccessFile, RandomRwFile, SequentialFile, WritableFile};
pub use fault::{FaultEvent, FaultPlan, FaultyEnv};
pub use ioqueue::{resolve_queue, set_thread_io_queue, thread_io_queue, QueueId, MAX_QUEUES};
pub use mem::{MemEnv, MemFs};
pub use stats::{IoClass, IoStats, IoStatsSnapshot, QueueIoSnapshot};
pub use stdfs::StdEnv;

use std::sync::Arc;

/// A shared, dynamically typed environment handle.
pub type EnvRef = Arc<dyn Env>;

/// A [`MemEnv`] built with [`MemEnv::with_profile`], under the name only
/// `benchmark/` still spells; the rest of the workspace writes `MemEnv`.
pub type SimEnv = MemEnv;
