//! `Mutex`, `RwLock` and `Condvar` over `std::sync` that do not poison.
//!
//! A thread that panics while holding a std lock poisons it, and every
//! later `lock()` returns an error the caller must unwrap. The workspace
//! never inspects that error: a panicking worker fail-stops its store
//! (DESIGN.md §7) and teardown must still be able to take the locks it
//! held. These wrappers recover the guard instead, so `lock()`, `read()`
//! and `write()` return guards directly and [`Condvar::wait`] takes the
//! guard by `&mut` — the signatures every lock site in the workspace is
//! written against.

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Duration;

/// A mutual-exclusion lock whose `lock()` cannot fail.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// Holds a [`Mutex`] locked; unlocks on drop.
///
/// The std guard sits in an `Option` only so [`Condvar::wait`] can hand it
/// to std by value and put the re-acquired one back; it is `Some` whenever
/// a caller can observe it.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// A new, unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// The protected value, without locking: `&mut self` proves no guard
    /// is alive.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0
            .as_ref()
            .expect("guard is held outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_mut()
            .expect("guard is held outside Condvar::wait")
    }
}

/// A condition variable for [`Mutex`].
#[derive(Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// A condition variable with no waiters.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Releases `guard`'s lock, sleeps until notified, and re-acquires it.
    /// Wake-ups can be spurious: call it in a loop that re-checks the
    /// condition.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.0.take().expect("guard is held outside Condvar::wait");
        guard.0 = Some(self.0.wait(held).unwrap_or_else(PoisonError::into_inner));
    }

    /// [`wait`](Self::wait) that gives up after `timeout`; returns whether
    /// it did.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> bool {
        let held = guard.0.take().expect("guard is held outside Condvar::wait");
        let (held, result) = self
            .0
            .wait_timeout(held, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(held);
        result.timed_out()
    }

    /// Wakes one waiter, if any.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A reader-writer lock whose `read()` and `write()` cannot fail.
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new, unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until shared access is held.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until exclusive access is held.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    /// Runs `f`, which must panic, on its own thread: the guards it holds
    /// are dropped by unwinding.
    fn dies<F: FnOnce() + Send + 'static>(f: F) {
        assert!(std::thread::spawn(f).join().is_err());
    }

    #[test]
    fn a_panic_under_the_mutex_does_not_poison_it() {
        let m = Arc::new(Mutex::new(1u32));
        let m2 = m.clone();
        dies(move || {
            let mut g = m2.lock();
            *g = 2;
            panic!("deliberate: dies holding the lock");
        });
        assert_eq!(*m.lock(), 2);
        let mut m = Arc::try_unwrap(m).ok().expect("the other thread is gone");
        assert_eq!(*m.get_mut(), 2);
    }

    #[test]
    fn a_panic_under_the_rwlock_does_not_poison_it() {
        let l = Arc::new(RwLock::new(vec![1u8]));
        let l2 = l.clone();
        dies(move || {
            let mut g = l2.write();
            g.push(2);
            panic!("deliberate: dies holding the write lock");
        });
        assert_eq!(*l.read(), [1, 2]);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn wait_for_reports_a_timeout_and_a_notification_apart() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let mut g = pair.0.lock();
        let start = Instant::now();
        // Nobody notifies: only a spurious wake-up returns `false` here.
        while !pair.1.wait_for(&mut g, Duration::from_millis(20)) {}
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert!(!*g, "the guard is usable again after a timed-out wait");

        let p2 = pair.clone();
        let setter = std::thread::spawn(move || {
            *p2.0.lock() = true;
            p2.1.notify_one();
        });
        // The setter cannot take the lock before `wait_for` releases it, so
        // the notification cannot be missed.
        while !*g {
            assert!(
                !pair.1.wait_for(&mut g, Duration::from_secs(30)),
                "lost wake-up"
            );
        }
        drop(g);
        setter.join().unwrap();
    }

    #[test]
    fn wait_in_a_loop_survives_wakeups_that_change_nothing() {
        const TARGET: u32 = 50;
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let p2 = pair.clone();
        // Every increment notifies, so the waiter is woken up to TARGET - 1
        // times with its condition still false — what a spurious wake-up
        // looks like to it.
        let bumper = std::thread::spawn(move || {
            for _ in 0..TARGET {
                *p2.0.lock() += 1;
                p2.1.notify_all();
                std::thread::yield_now();
            }
        });
        let mut g = pair.0.lock();
        while *g < TARGET {
            pair.1.wait(&mut g);
        }
        assert_eq!(*g, TARGET);
        drop(g);
        bumper.join().unwrap();
    }
}
