//! Submission-queue identities and thread-affine queue selection.
//!
//! The multi-queue device model ([`crate::DeviceModel`]) services each
//! submission queue on its own timeline, so *which* queue an IO lands on
//! decides what it contends with. Queue selection is resolved per
//! operation, in priority order:
//!
//! 1. an explicit per-file pin ([`crate::Env::new_writable_on`] and
//!    friends) — the placement API compaction uses to spread
//!    subcompaction outputs,
//! 2. the calling thread's ambient queue ([`set_thread_io_queue`]) — the
//!    affinity API: each p2KVS worker pins its queue once at spawn and
//!    every WAL append or engine read issued from that thread rides it,
//! 3. a deterministic per-file default (`file_id % queues`) so unhinted
//!    traffic still spreads instead of piling onto queue 0.
//!
//! Resolving at operation time (not file-open time) means a WAL handle
//! follows its shard across an ownership migration for free: the new
//! owning worker's ambient queue takes over on its first append.

use std::cell::Cell;

/// Index of a device submission queue, `0..queues`.
pub type QueueId = usize;

/// Hard bound on modeled submission queues. Per-queue statistics are
/// fixed-size arrays of this length so snapshots stay `Copy`; device
/// profiles clamp their queue count to it.
pub const MAX_QUEUES: usize = 16;

thread_local! {
    /// The calling thread's ambient submission queue, if pinned.
    static AMBIENT_QUEUE: Cell<Option<QueueId>> = const { Cell::new(None) };
}

/// Pins (or with `None` clears) the calling thread's ambient IO queue.
/// Every subsequent un-pinned file operation from this thread resolves
/// to it. Returns the previous value.
pub fn set_thread_io_queue(queue: Option<QueueId>) -> Option<QueueId> {
    AMBIENT_QUEUE.with(|q| q.replace(queue))
}

/// The calling thread's ambient IO queue, if one is pinned.
pub fn thread_io_queue() -> Option<QueueId> {
    AMBIENT_QUEUE.with(|q| q.get())
}

/// Resolves the effective queue for one operation on a device with
/// `queues` submission queues: explicit file pin, then the thread's
/// ambient queue, then the per-file default. Always in `0..queues`.
pub fn resolve_queue(pin: Option<QueueId>, file_id: u64, queues: usize) -> QueueId {
    let queues = queues.clamp(1, MAX_QUEUES);
    pin.or_else(thread_io_queue).unwrap_or(file_id as usize) % queues
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambient_queue_is_thread_local() {
        set_thread_io_queue(Some(3));
        assert_eq!(thread_io_queue(), Some(3));
        let other = std::thread::spawn(thread_io_queue).join().unwrap();
        assert_eq!(other, None, "ambient pin must not leak across threads");
        set_thread_io_queue(None);
    }

    #[test]
    fn resolution_priority_pin_ambient_default() {
        set_thread_io_queue(Some(2));
        // Pin wins over ambient.
        assert_eq!(resolve_queue(Some(1), 99, 4), 1);
        // Ambient wins over the per-file default.
        assert_eq!(resolve_queue(None, 99, 4), 2);
        set_thread_io_queue(None);
        // Default spreads by file id, modulo the queue count.
        assert_eq!(resolve_queue(None, 7, 4), 3);
        assert_eq!(resolve_queue(None, 8, 4), 0);
        // Everything reduces mod queues; single queue maps all to 0.
        assert_eq!(resolve_queue(Some(9), 7, 4), 1);
        assert_eq!(resolve_queue(Some(3), 7, 1), 0);
    }
}
