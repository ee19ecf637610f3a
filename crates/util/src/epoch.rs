//! Epoch-based memory reclamation for lock-free readers (FASTER-style).
//!
//! The hot-record read cache publishes records through atomic pointer
//! words that readers dereference without taking any lock. Removal
//! (invalidation, eviction, migration flush) unlinks the word with a CAS
//! — but the memory behind it cannot be freed while some reader, pinned
//! before the unlink, may still be dereferencing it. This module provides
//! the deferred-free half of that protocol:
//!
//! * [`pin`] — a reader enters an epoch before touching any shared
//!   pointer and holds the returned [`Guard`] for the duration of the
//!   access. Pinning is lock-free and, after a thread's first pin
//!   (which registers a reclaimed or freshly leaked participant slot),
//!   allocation-free: one TLS read, one atomic store, one atomic load.
//! * [`retire`] — the unlinking thread hands the unlinked box here
//!   *after* its CAS. The box is stamped with the current global epoch
//!   and parked in a limbo list; its destructor runs only once every
//!   participant that was pinned at (or before) that epoch has unpinned.
//! * [`synchronize`] — "publish, then act once every thread has moved
//!   on": advance the epoch and wait until no participant is still
//!   pinned below it, i.e. until every reader that could have loaded a
//!   pointer the caller replaced before the call has unpinned
//!   (`p2kvs::shard`'s migration and retire fence).
//!
//! # Safety argument
//!
//! The global epoch is a monotone counter. `pin` loops `store slot ←
//! epoch; re-read epoch` (all `SeqCst`) until the epoch is stable across
//! the store, so a pinned slot always holds an epoch the thread
//! *observed while its pin was already visible*. `retire` reads the
//! epoch **after** the caller's unlink. Collection first advances the
//! epoch, then frees exactly the limbo items whose stamp is below the
//! minimum epoch held by any active slot. For a freed item stamped `e`,
//! every active reader was therefore pinned at an epoch `> e` — i.e.
//! after the global epoch had advanced past `e`, which happens after the
//! retire, which happens after the unlink. Such a reader can only have
//! loaded the pointer word *after* the unlink CAS removed it, so it
//! never saw the freed record. Readers that did see it were pinned with
//! an epoch `≤ e` and block collection until they unpin.
//!
//! [`synchronize`] is the same argument without a limbo item: it bumps
//! the epoch from `e` to `e + 1` *after* the caller's publish and
//! returns once every active slot holds `≥ e + 1`. A reader still
//! pinned at `≤ e` may have loaded the replaced pointer and is waited
//! for; a reader pinned at `e + 1` observed the bump, hence the publish.
//! A reader caught between reading `e` and storing it is invisible to
//! the scan, but its re-read sees `e + 1` and it re-stamps before it
//! touches any pointer.
//!
//! The domain is global and dependency-free: participant slots are
//! leaked once per peak-concurrent-thread and recycled through a
//! `claimed` flag, so thread churn does not grow the registry forever.

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Mutex;

/// Collect (advance the epoch and sweep the limbo list) once this many
/// retired items are parked. Bounds limbo memory without putting the
/// sweep on every retire.
const COLLECT_THRESHOLD: usize = 64;

/// One participant: the epoch its owner thread is pinned at (0 = not
/// pinned) and whether a live thread owns it. Slots are leaked and
/// recycled, never freed.
struct Slot {
    active: AtomicU64,
    claimed: AtomicBool,
    next: *const Slot,
}

// `next` is written once before publication and read-only afterwards.
unsafe impl Sync for Slot {}
unsafe impl Send for Slot {}

/// Head of the global participant list.
static SLOTS: AtomicPtr<Slot> = AtomicPtr::new(std::ptr::null_mut());

/// The global epoch. Starts at 1 so an `active` of 0 can mean
/// "unpinned".
static EPOCH: AtomicU64 = AtomicU64::new(1);

/// Retired items awaiting their epoch: `(stamp, boxed value)`.
static LIMBO: Mutex<Vec<(u64, Box<dyn Any + Send>)>> = Mutex::new(Vec::new());

/// Claims a recycled slot or leaks a new one.
fn acquire_slot() -> &'static Slot {
    let mut cur = SLOTS.load(Ordering::Acquire);
    while !cur.is_null() {
        let slot = unsafe { &*cur };
        if slot
            .claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            return slot;
        }
        cur = slot.next as *mut Slot;
    }
    // No free slot: publish a fresh one (leaked — slots are recycled
    // across threads for the life of the process).
    let mut head = SLOTS.load(Ordering::Acquire);
    let slot = Box::leak(Box::new(Slot {
        active: AtomicU64::new(0),
        claimed: AtomicBool::new(true),
        next: head,
    }));
    loop {
        match SLOTS.compare_exchange(head, slot, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return slot,
            Err(now) => {
                head = now;
                slot.next = head;
            }
        }
    }
}

/// Per-thread registration: the claimed slot plus the nesting depth of
/// live guards (re-entrant pins are counted, not re-stamped).
struct Registration {
    slot: &'static Slot,
    depth: Cell<usize>,
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.slot.active.store(0, Ordering::SeqCst);
        self.slot.claimed.store(false, Ordering::Release);
    }
}

std::thread_local! {
    static REG: Registration = Registration {
        slot: acquire_slot(),
        depth: Cell::new(0),
    };
}

/// An active pin. Readers hold this across every dereference of an
/// epoch-protected pointer; dropping it exits the epoch.
pub struct Guard {
    slot: &'static Slot,
    /// Guards are thread-bound (the pin lives in this thread's slot).
    _not_send: PhantomData<*mut ()>,
}

/// Enters the current epoch. Lock-free; allocation-free after the
/// calling thread's first pin.
pub fn pin() -> Guard {
    REG.with(|r| {
        if r.depth.get() == 0 {
            let mut e = EPOCH.load(Ordering::SeqCst);
            loop {
                r.slot.active.store(e, Ordering::SeqCst);
                let now = EPOCH.load(Ordering::SeqCst);
                if now == e {
                    break;
                }
                e = now;
            }
        }
        r.depth.set(r.depth.get() + 1);
        Guard {
            slot: r.slot,
            _not_send: PhantomData,
        }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        // `try_with`: a guard dropped during thread teardown (after the
        // registration's own destructor) must not re-create the TLS.
        let cleared = REG
            .try_with(|r| {
                let d = r.depth.get().saturating_sub(1);
                r.depth.set(d);
                d == 0
            })
            .unwrap_or(true);
        if cleared {
            self.slot.active.store(0, Ordering::SeqCst);
        }
    }
}

/// Defers dropping `value` until every reader pinned at or before the
/// current epoch has unpinned. Call **after** unlinking the value from
/// all shared pointers.
pub fn retire<T: Send + 'static>(value: Box<T>) {
    let stamp = EPOCH.load(Ordering::SeqCst);
    let freed = {
        let mut limbo = LIMBO.lock().expect("epoch limbo poisoned");
        limbo.push((stamp, value as Box<dyn Any + Send>));
        if limbo.len() >= COLLECT_THRESHOLD {
            collect_locked(&mut limbo)
        } else {
            Vec::new()
        }
    };
    // Destructors run off the lock: a `Drop` may itself pin or retire.
    drop(freed);
}

/// Advances the epoch and frees every limbo item no active reader can
/// still see. Returns how many items were freed. Safe to call from any
/// thread at any time (e.g. on cache drop).
pub fn try_collect() -> usize {
    let freed = collect_locked(&mut LIMBO.lock().expect("epoch limbo poisoned"));
    freed.len()
}

/// Items currently parked in limbo (tests and introspection).
pub fn pending() -> usize {
    LIMBO.lock().expect("epoch limbo poisoned").len()
}

/// Advances the epoch and blocks until no participant is still pinned
/// below it: every guard taken before the call has dropped on return,
/// and guards taken after it never delay it. The caller must not be
/// pinned itself. Yields first, then naps: on a uniprocessor the pinned
/// thread needs the core, and a backpressured push can hold its pin.
pub fn synchronize() {
    debug_assert!(
        REG.with(|r| r.depth.get()) == 0,
        "synchronize() called under a pin would wait on itself"
    );
    let target = EPOCH.fetch_add(1, Ordering::SeqCst) + 1;
    let mut rounds = 0u32;
    while min_active() < target {
        rounds += 1;
        if rounds < 64 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
    }
}

/// The lowest epoch any participant is pinned at (`u64::MAX` if none).
fn min_active() -> u64 {
    let mut min = u64::MAX;
    let mut cur = SLOTS.load(Ordering::SeqCst);
    while !cur.is_null() {
        // SAFETY: slots are leaked, never freed (see `acquire_slot`).
        let slot = unsafe { &*cur };
        let e = slot.active.load(Ordering::SeqCst);
        if e != 0 {
            min = min.min(e);
        }
        cur = slot.next as *mut Slot;
    }
    min
}

/// Sweeps `limbo` and hands the freed items back for the caller to drop
/// after unlocking: a destructor may retire, pin, or just take long.
fn collect_locked(limbo: &mut Vec<(u64, Box<dyn Any + Send>)>) -> Vec<Box<dyn Any + Send>> {
    // Advance first: readers pinning from here on stamp an epoch above
    // every limbo item, so they cannot block this sweep.
    EPOCH.fetch_add(1, Ordering::SeqCst);
    let min_active = min_active();
    // An item stamped `e` is free once every active reader is pinned
    // strictly above `e` (see the module-level safety argument).
    let mut freed = Vec::new();
    let mut i = 0;
    while i < limbo.len() {
        if limbo[i].0 < min_active {
            freed.push(limbo.swap_remove(i).1);
        } else {
            i += 1;
        }
    }
    freed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, MutexGuard};

    /// The domain is process-global: a guard one test holds on purpose
    /// delays another's reclamation, so the tests run one at a time.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    struct DropFlag(Arc<AtomicUsize>);
    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn retired_value_outlives_active_pin() {
        let _serial = serial();
        let drops = Arc::new(AtomicUsize::new(0));
        let guard = pin();
        retire(Box::new(DropFlag(drops.clone())));
        // Collect as hard as we can: our own pin must hold the value.
        for _ in 0..8 {
            try_collect();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under a live pin");
        drop(guard);
        // Unpinned: the next collection may free it.
        for _ in 0..8 {
            try_collect();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1, "leaked after unpin");
    }

    #[test]
    fn nested_pins_count() {
        let _serial = serial();
        let a = pin();
        let b = pin();
        drop(a);
        let drops = Arc::new(AtomicUsize::new(0));
        retire(Box::new(DropFlag(drops.clone())));
        try_collect();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "inner pin ignored");
        drop(b);
        try_collect();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unpinned_threads_do_not_block_collection() {
        let _serial = serial();
        let drops = Arc::new(AtomicUsize::new(0));
        let d = drops.clone();
        std::thread::spawn(move || {
            let _g = pin();
            retire(Box::new(DropFlag(d)));
            // Guard drops here; thread exit releases the slot.
        })
        .join()
        .unwrap();
        for _ in 0..8 {
            try_collect();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn drop_that_retires_is_collected_without_deadlock() {
        let _serial = serial();
        // Regression: destructors used to run under the limbo mutex, so
        // a `Drop` that retired re-entered it and hung.
        struct Chain(Option<Box<DropFlag>>);
        impl Drop for Chain {
            fn drop(&mut self) {
                retire(self.0.take().expect("dropped once"));
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        retire(Box::new(Chain(Some(Box::new(DropFlag(drops.clone()))))));
        for _ in 0..8 {
            try_collect();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    /// Runs `synchronize` on a helper thread, reporting its return.
    /// Comes back once the helper has bumped the epoch, i.e. is waiting.
    fn synchronize_elsewhere() -> (std::thread::JoinHandle<()>, Arc<AtomicBool>) {
        let before = EPOCH.load(Ordering::SeqCst);
        let returned = Arc::new(AtomicBool::new(false));
        let r = returned.clone();
        let h = std::thread::spawn(move || {
            synchronize();
            r.store(true, Ordering::SeqCst);
        });
        while EPOCH.load(Ordering::SeqCst) == before {
            std::thread::yield_now();
        }
        (h, returned)
    }

    #[test]
    fn synchronize_is_a_no_op_without_pins() {
        let _serial = serial();
        let before = EPOCH.load(Ordering::SeqCst);
        synchronize();
        assert!(EPOCH.load(Ordering::SeqCst) > before, "the epoch advanced");
    }

    #[test]
    fn synchronize_waits_for_an_earlier_guard_only() {
        let _serial = serial();
        let early = pin();
        let (h, returned) = synchronize_elsewhere();
        // The helper is past its bump; give a wrong wait time to end.
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(
            !returned.load(Ordering::SeqCst),
            "returned while a guard taken before the call was alive"
        );
        // A guard taken after the bump is pinned above it and must not
        // delay the call: hold one on a third thread across the release.
        let late_taken = Arc::new(AtomicBool::new(false));
        let release_late = Arc::new(AtomicBool::new(false));
        let (taken, release) = (late_taken.clone(), release_late.clone());
        let late = std::thread::spawn(move || {
            let _g = pin();
            taken.store(true, Ordering::SeqCst);
            while !release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        while !late_taken.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        drop(early);
        h.join().unwrap();
        assert!(returned.load(Ordering::SeqCst));
        release_late.store(true, Ordering::SeqCst);
        late.join().unwrap();
    }

    #[test]
    fn synchronize_from_two_threads_at_once() {
        let _serial = serial();
        let held = pin();
        let (a, a_done) = synchronize_elsewhere();
        let (b, b_done) = synchronize_elsewhere();
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!a_done.load(Ordering::SeqCst) && !b_done.load(Ordering::SeqCst));
        drop(held);
        a.join().unwrap();
        b.join().unwrap();
    }

    #[test]
    fn concurrent_pin_retire_smoke() {
        let _serial = serial();
        let drops = Arc::new(AtomicUsize::new(0));
        let n: usize = 4;
        let per: usize = 200;
        let mut handles = Vec::new();
        for _ in 0..n {
            let d = drops.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let g = pin();
                    if i % 3 == 0 {
                        retire(Box::new(DropFlag(d.clone())));
                    }
                    drop(g);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for _ in 0..8 {
            try_collect();
        }
        let expected: usize = n * per.div_ceil(3);
        assert_eq!(drops.load(Ordering::SeqCst), expected);
    }
}
