//! Writer slots and group-commit bookkeeping.
//!
//! This module reproduces RocksDB's *group logging* protocol (paper §2.2,
//! Fig 3): concurrent writers enqueue [`WriterSlot`]s; the front slot
//! becomes the **leader**, aggregates the batches of trailing **followers**
//! into one log write, and either inserts all batches into the MemTable
//! itself (vanilla) or wakes the followers to insert their own batches in
//! parallel (concurrent MemTable). The timestamps collected here feed the
//! Fig 6 write-latency breakdown.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use p2kvs_util::sync::{Condvar, Mutex};

use crate::batch::WriteBatch;
use crate::memtable::MemTable;

/// Where a queued writer currently is in the protocol.
pub enum Phase {
    /// Waiting in the queue.
    Queued,
    /// Promoted to group leader: must run the group.
    Lead,
    /// Told to insert its own batch into `mem`, then report to `group`.
    Insert {
        mem: Arc<MemTable>,
        group: Arc<GroupSync>,
    },
    /// Finished; `None` = success.
    Done(Option<String>),
}

/// Synchronizes one write group.
pub struct GroupSync {
    /// Batches still inserting into the MemTable.
    pending: AtomicUsize,
    mutex: Mutex<()>,
    cv: Condvar,
    /// Nanoseconds (relative to the leader's enqueue) when the group's WAL
    /// write finished; used by followers for breakdown accounting.
    pub wal_end: Mutex<Option<Instant>>,
}

impl GroupSync {
    /// Creates a sync for `n` pending inserters.
    pub fn new(n: usize) -> GroupSync {
        GroupSync {
            pending: AtomicUsize::new(n),
            mutex: Mutex::new(()),
            cv: Condvar::new(),
            wal_end: Mutex::new(None),
        }
    }

    /// Reports one inserter done.
    pub fn complete(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.mutex.lock();
            self.cv.notify_all();
        }
    }

    /// Blocks until every inserter reported.
    pub fn wait_all(&self) {
        let mut guard = self.mutex.lock();
        while self.pending.load(Ordering::Acquire) != 0 {
            self.cv.wait(&mut guard);
        }
    }
}

/// One queued write request.
pub struct WriterSlot {
    /// The writer's batch; the leader locks it to assign the sequence and
    /// copy its payload into the log write.
    pub batch: Mutex<WriteBatch>,
    /// Request a durability barrier after the log write.
    pub sync: bool,
    /// Skip the WAL entirely.
    pub disable_wal: bool,
    /// Protocol phase.
    phase: Mutex<Phase>,
    cv: Condvar,
    /// When the writer enqueued (origin for the breakdown deltas).
    pub enqueued: Instant,
    /// Breakdown components in nanoseconds, filled as the protocol runs.
    pub wal_ns: AtomicU64,
    pub mem_ns: AtomicU64,
    pub wal_lock_ns: AtomicU64,
    pub mem_lock_ns: AtomicU64,
}

impl WriterSlot {
    /// Creates a slot holding `batch`.
    pub fn new(batch: WriteBatch, sync: bool, disable_wal: bool) -> Arc<WriterSlot> {
        Arc::new(WriterSlot {
            batch: Mutex::new(batch),
            sync,
            disable_wal,
            phase: Mutex::new(Phase::Queued),
            cv: Condvar::new(),
            enqueued: p2kvs_util::timing::now(),
            wal_ns: AtomicU64::new(0),
            mem_ns: AtomicU64::new(0),
            wal_lock_ns: AtomicU64::new(0),
            mem_lock_ns: AtomicU64::new(0),
        })
    }

    /// Sets the phase and wakes the waiting writer.
    pub fn set_phase(&self, phase: Phase) {
        let mut guard = self.phase.lock();
        *guard = phase;
        drop(guard);
        self.cv.notify_all();
    }

    /// Blocks until the phase changes from `Queued`, then returns a
    /// snapshot of the new phase (cloning the Insert payload).
    pub fn wait_for_signal(&self) -> SignaledPhase {
        let mut guard = self.phase.lock();
        loop {
            match &*guard {
                Phase::Queued => self.cv.wait(&mut guard),
                Phase::Lead => return SignaledPhase::Lead,
                Phase::Insert { mem, group } => {
                    return SignaledPhase::Insert {
                        mem: mem.clone(),
                        group: group.clone(),
                    }
                }
                Phase::Done(err) => return SignaledPhase::Done(err.clone()),
            }
        }
    }

    /// Blocks until the phase is `Done`, returning its error if any.
    pub fn wait_done(&self) -> Option<String> {
        let mut guard = self.phase.lock();
        loop {
            if let Phase::Done(err) = &*guard {
                return err.clone();
            }
            self.cv.wait(&mut guard);
        }
    }
}

/// Owned snapshot of a phase transition.
pub enum SignaledPhase {
    Lead,
    Insert {
        mem: Arc<MemTable>,
        group: Arc<GroupSync>,
    },
    Done(Option<String>),
}

/// Upper bound on the batch bytes one write group aggregates.
pub const MAX_WRITE_GROUP_BYTES: usize = 1 << 20;

/// Selects the slots forming the leader's group (RocksDB-style group
/// commit: one log write for every writer the leader takes along).
///
/// The leader is `queue[0]`. Followers are taken in order while they are
/// compatible (same WAL/sync settings) and [`MAX_WRITE_GROUP_BYTES`] holds.
pub fn form_group(queue: &std::collections::VecDeque<Arc<WriterSlot>>) -> Vec<Arc<WriterSlot>> {
    let leader = queue
        .front()
        .expect("form_group called with empty queue")
        .clone();
    let mut group = vec![leader.clone()];
    let mut bytes = leader.batch.lock().size();
    for slot in queue.iter().skip(1) {
        if slot.sync != leader.sync || slot.disable_wal != leader.disable_wal {
            break;
        }
        let b = slot.batch.lock().size();
        if bytes + b > MAX_WRITE_GROUP_BYTES {
            break;
        }
        bytes += b;
        group.push(slot.clone());
    }
    group
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn slot_with(n_keys: usize, sync: bool, disable_wal: bool) -> Arc<WriterSlot> {
        let mut b = WriteBatch::new();
        for i in 0..n_keys {
            b.put(format!("k{i}").as_bytes(), b"v");
        }
        WriterSlot::new(b, sync, disable_wal)
    }

    #[test]
    fn group_sync_counts_down() {
        let g = Arc::new(GroupSync::new(3));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let g = g.clone();
                std::thread::spawn(move || g.complete())
            })
            .collect();
        g.wait_all();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn form_group_respects_compatibility() {
        let mut q = VecDeque::new();
        q.push_back(slot_with(1, false, false));
        q.push_back(slot_with(1, false, false));
        q.push_back(slot_with(1, true, false)); // sync mismatch stops here
        q.push_back(slot_with(1, false, false));
        let g = form_group(&q);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn form_group_respects_byte_budget() {
        let mut q = VecDeque::new();
        for _ in 0..10 {
            let mut b = WriteBatch::new();
            b.put(b"k", &vec![0u8; MAX_WRITE_GROUP_BYTES / 3]);
            q.push_back(WriterSlot::new(b, false, false));
        }
        // Three slots are just over the budget: the leader takes one along.
        assert!(3 * q[0].batch.lock().size() > MAX_WRITE_GROUP_BYTES);
        assert_eq!(form_group(&q).len(), 2);
    }

    #[test]
    fn phase_signaling_wakes_waiter() {
        let slot = slot_with(1, false, false);
        let s2 = slot.clone();
        let waiter = std::thread::spawn(move || s2.wait_for_signal());
        std::thread::sleep(std::time::Duration::from_millis(10));
        slot.set_phase(Phase::Lead);
        assert!(matches!(waiter.join().unwrap(), SignaledPhase::Lead));
        slot.set_phase(Phase::Done(None));
        assert_eq!(slot.wait_done(), None);
        slot.set_phase(Phase::Done(Some("boom".into())));
        assert_eq!(slot.wait_done(), Some("boom".into()));
    }

    #[test]
    fn disable_wal_mismatch_breaks_group() {
        let mut q = VecDeque::new();
        q.push_back(slot_with(1, false, true));
        q.push_back(slot_with(1, false, false));
        let g = form_group(&q);
        assert_eq!(g.len(), 1);
    }
}
