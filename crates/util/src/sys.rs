//! The three libc calls the workspace makes, declared here instead of
//! through a bindings crate. The struct layouts are those of 64-bit Linux,
//! so the calls are gated on exactly that; anywhere else each function is
//! its "unsupported" answer.

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod imp {
    use std::time::Duration;

    /// glibc's `cpu_set_t`: a 1024-bit mask.
    #[repr(C)]
    struct CpuSet([u64; 16]);

    /// `struct timespec` where `time_t` and `long` are both 64 bits.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        fn sched_getcpu() -> i32;
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }

    pub fn pin_to_cpu(cpu: usize) -> bool {
        let mut set = CpuSet([0; 16]);
        let Some(word) = set.0.get_mut(cpu / 64) else {
            return false;
        };
        *word |= 1 << (cpu % 64);
        // SAFETY: `set` is a live `cpu_set_t` of the size passed, and the
        // call only reads it. Pid 0 means the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }

    pub fn current_cpu() -> Option<usize> {
        // SAFETY: no preconditions; returns -1 on error.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }

    pub fn process_cpu_time() -> Duration {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live `timespec` for the call to fill in.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
            return Duration::ZERO;
        }
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    pub fn pin_to_cpu(_cpu: usize) -> bool {
        false
    }

    pub fn current_cpu() -> Option<usize> {
        None
    }

    pub fn process_cpu_time() -> std::time::Duration {
        std::time::Duration::ZERO
    }
}

/// `pin_to_cpu(cpu)`: restricts the calling thread to `cpu`; `false` if
/// refused or unsupported. `current_cpu()`: the CPU the calling thread runs
/// on, if the platform says. `process_cpu_time()`: CPU time, user + system,
/// of every thread of this process; zero if unsupported.
pub(crate) use imp::{current_cpu, pin_to_cpu, process_cpu_time};
