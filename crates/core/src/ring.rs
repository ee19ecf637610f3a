//! The lock-free core of the accessing layer: a bounded, Vyukov-style MPSC
//! ring with a closed bit. [`crate::queue`] adds batching, parking and
//! backpressure on top.
//!
//! # Model checking
//!
//! This file imports nothing from the rest of the crate and reaches its
//! atomics and cells through the small facade below, so `--cfg loom` can
//! swap in `loom`'s checked versions. `modelcheck/` — a package outside
//! the workspace, the only one with a registry dependency — includes it by
//! `#[path]` and exhaustively checks push / pop / close interleavings:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test --release --manifest-path modelcheck/Cargo.toml
//! ```
//!
//! Waiting (yield, park) is `queue`'s and is not modelled — loom has no
//! `thread::park`; the stress tests cover it.
//!
//! The per-request methods are `#[inline]`: their one caller is
//! `queue::RequestQueue`, and a module of their own would otherwise put
//! them in another codegen unit than the loops that call them (`fill`
//! measured 3–5 % lower without the attribute, EXPERIMENTS.md "One build").

#[cfg(loom)]
mod sync {
    pub(crate) use loom::cell::UnsafeCell;
    pub(crate) use loom::sync::atomic::{AtomicUsize, Ordering};
}

#[cfg(not(loom))]
mod sync {
    pub(crate) use std::sync::atomic::{AtomicUsize, Ordering};

    /// API-compatible subset of `loom::cell::UnsafeCell`.
    #[derive(Debug)]
    pub(crate) struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    impl<T> UnsafeCell<T> {
        pub(crate) fn new(v: T) -> UnsafeCell<T> {
            UnsafeCell(std::cell::UnsafeCell::new(v))
        }

        pub(crate) fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        pub(crate) fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }
    }
}

use sync::{AtomicUsize, Ordering, UnsafeCell};

/// Pads (and aligns) a value to two cache lines, so producer-side and
/// consumer-side words never false-share.
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) T);

/// Why a `try_push` did not enqueue.
pub enum PushError<T> {
    /// Every slot is occupied; retry after the consumer makes progress.
    Full(T),
    /// The ring is closed; the value will never be accepted.
    Closed(T),
}

impl<T> PushError<T> {
    /// The value that was not enqueued.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(v) | PushError::Closed(v) => v,
        }
    }
}

struct Slot<T> {
    /// Vyukov sequence number: `index` when free for the producer of
    /// lap `index / capacity`, `index + 1` once published, and
    /// `index + capacity` after the consumer empties it.
    seq: AtomicUsize,
    val: UnsafeCell<std::mem::MaybeUninit<T>>,
}

/// Bounded MPSC ring. Producers are lock- and wait-free apart from the
/// slot-claim CAS; **pops and peeks must come from one thread at a time**
/// (`RequestQueue` serializes its consumer section).
///
/// The `tail` word carries a closed bit in bit 0 (indices are shifted
/// left by one), so closing is a single `fetch_or` that is atomic with
/// respect to every concurrent push.
pub(crate) struct Ring<T> {
    mask: usize,
    slots: Box<[Slot<T>]>,
    /// `next_write_index << 1 | closed_bit`. Producers CAS this.
    tail: CachePadded<AtomicUsize>,
    /// Next read index (plain, consumer-only).
    head: CachePadded<AtomicUsize>,
}

const CLOSED_BIT: usize = 1;

// SAFETY: a slot's value is written by the one producer that claimed its
// index and read by the one consumer, ordered by the release store and
// acquire load of the slot's `seq`; values only move between threads,
// hence `T: Send`. Everything else is atomics.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    pub(crate) fn with_capacity(capacity: usize) -> Ring<T> {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                val: UnsafeCell::new(std::mem::MaybeUninit::uninit()),
            })
            .collect();
        Ring {
            mask: cap - 1,
            slots,
            tail: CachePadded(AtomicUsize::new(0)),
            head: CachePadded(AtomicUsize::new(0)),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Multi-producer enqueue: one CAS to claim a slot, one release store
    /// to publish it.
    #[inline]
    pub(crate) fn try_push(&self, v: T) -> Result<(), PushError<T>> {
        let mut tail = self.tail.0.load(Ordering::Relaxed);
        loop {
            if tail & CLOSED_BIT != 0 {
                return Err(PushError::Closed(v));
            }
            let idx = tail >> 1;
            let slot = &self.slots[idx & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - idx as isize;
            if dif == 0 {
                match self.tail.0.compare_exchange_weak(
                    tail,
                    (idx.wrapping_add(1)) << 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS made this producer the only
                        // writer of slot `idx`, and `seq == idx` says the
                        // consumer is done with last lap's value.
                        slot.val.with_mut(|p| unsafe { (*p).write(v) });
                        slot.seq.store(idx.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(t) => tail = t,
                }
            } else if dif < 0 {
                // The slot still holds last lap's value: full. Re-check
                // tail first — a stale read must not misreport Full.
                let t = self.tail.0.load(Ordering::Relaxed);
                if t == tail {
                    return Err(PushError::Full(v));
                }
                tail = t;
            } else {
                // Another producer claimed this index; reload and retry.
                tail = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Single-consumer dequeue.
    #[inline]
    pub(crate) fn try_pop(&self) -> Option<T> {
        let head = self.head.0.load(Ordering::Relaxed);
        let slot = &self.slots[head & self.mask];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq == head.wrapping_add(1) {
            // SAFETY: `seq == head + 1` was stored by the producer after it
            // wrote the value; the single consumer reads it out once, then
            // hands the slot to the next lap.
            let v = slot.val.with_mut(|p| unsafe { (*p).assume_init_read() });
            slot.seq
                .store(head.wrapping_add(self.capacity()), Ordering::Release);
            self.head.0.store(head.wrapping_add(1), Ordering::Relaxed);
            Some(v)
        } else {
            None
        }
    }

    /// Single-consumer peek at the next value (if published).
    #[inline]
    pub(crate) fn peek<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        let head = self.head.0.load(Ordering::Relaxed);
        let slot = &self.slots[head & self.mask];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq == head.wrapping_add(1) {
            // SAFETY: published as in `try_pop`, and no producer touches the
            // slot until the consumer advances `seq`.
            Some(slot.val.with(|p| f(unsafe { (*p).assume_init_ref() })))
        } else {
            None
        }
    }

    /// Atomically rejects all future pushes. Pushes that already claimed
    /// a slot will still publish; [`Ring::drained`] turns true only after
    /// the consumer has popped them all.
    pub(crate) fn close(&self) {
        self.tail.0.fetch_or(CLOSED_BIT, Ordering::SeqCst);
    }

    #[inline]
    pub(crate) fn is_closed(&self) -> bool {
        self.tail.0.load(Ordering::Acquire) & CLOSED_BIT != 0
    }

    /// Consumer-side: closed and every accepted element was popped. While
    /// this is false after a close, some producer may still be publishing
    /// a claimed slot — the consumer spins it in (the window between a
    /// producer's claim-CAS and its publish store is a handful of
    /// instructions, so this is nearly instantaneous).
    #[inline]
    pub(crate) fn drained(&self) -> bool {
        let tail = self.tail.0.load(Ordering::Acquire);
        tail & CLOSED_BIT != 0 && self.head.0.load(Ordering::Relaxed) == tail >> 1
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Exclusive access: drop whatever was published but never popped.
        while self.try_pop().is_some() {}
    }
}
