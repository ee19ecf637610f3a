//! Storage substrate: the `Env` file abstraction and simulated devices.
//!
//! The paper evaluates p2KVS on three physical devices (a 10 TB HDD, a SATA
//! SSD, and an Intel Optane 905p NVMe SSD). This reproduction has none of
//! that hardware, so — per the substitution rule in `DESIGN.md` — every
//! engine in the workspace performs its file IO through the [`Env`] trait,
//! which has three implementations:
//!
//! * [`MemEnv`] — an in-memory filesystem with no timing model; used by unit
//!   tests that only care about correctness.
//! * [`SimEnv`] — [`MemEnv`] plus a [`DeviceModel`]: every read/write/sync
//!   charges a service time computed from per-IO base latency, seek penalty,
//!   bandwidth, and a bounded number of internal channels. This is what the
//!   benchmark harness runs on, with profiles calibrated to the paper's
//!   devices ([`DeviceModel::hdd`], [`DeviceModel::sata_ssd`],
//!   [`DeviceModel::nvme_optane`]).
//! * [`StdEnv`] — passthrough to the real filesystem, for running the stack
//!   on an actual disk.
//!
//! All implementations share [`IoStats`]: byte and operation counters plus
//! device busy time, from which the harness derives IO amplification
//! (Fig 12b), bandwidth utilization (Figs 4, 5b, 12c, 21a), and the
//! compaction/flush traffic split.

pub mod device;
pub mod env;
pub mod fault;
pub mod ioqueue;
pub mod mem;
pub mod sim;
pub mod stats;
pub mod stdfs;

pub use device::{ChainsCharge, DeviceModel, DeviceProfile, IoChains, IoPlug, QueueDepthSnapshot};
pub use env::{Env, FaultHook, RandomAccessFile, RandomRwFile, SequentialFile, WritableFile};
pub use fault::{FaultEvent, FaultPlan, FaultyEnv};
pub use ioqueue::{
    resolve_queue, set_thread_io_queue, thread_io_queue, QueueId, QueueScope, MAX_QUEUES,
};
pub use mem::{MemEnv, MemFs};
pub use sim::SimEnv;
pub use stats::{IoClass, IoStats, IoStatsSnapshot, QueueIoSnapshot};
pub use stdfs::StdEnv;

use std::sync::Arc;

/// A shared, dynamically typed environment handle.
pub type EnvRef = Arc<dyn Env>;

/// Convenience: an in-memory env with no timing model.
pub fn mem_env() -> EnvRef {
    Arc::new(MemEnv::new())
}

/// Convenience: a simulated env over the given device profile.
pub fn sim_env(profile: DeviceProfile) -> Arc<SimEnv> {
    Arc::new(SimEnv::new(DeviceModel::from_profile(profile)))
}
