//! Thread-to-core pinning.
//!
//! p2KVS pins each worker thread to a dedicated CPU core so that workers do
//! not migrate under OS scheduling (the paper measures a 10–15% win from
//! pinning alone, Fig 5a). On 64-bit Linux this uses `sched_setaffinity`; on
//! other platforms pinning is a no-op and [`pin_to_core`] reports failure.

/// Number of logical CPUs available to this process.
pub fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Pins the calling thread to logical CPU `core`.
///
/// Returns `true` on success. Out-of-range cores are wrapped modulo the
/// available CPU count so callers can pin "worker i" without first sizing
/// the machine.
pub fn pin_to_core(core: usize) -> bool {
    crate::sys::pin_to_cpu(core % num_cpus())
}

/// Returns the CPU the calling thread is currently running on, if known.
pub fn current_core() -> Option<usize> {
    crate::sys::current_cpu()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_cpus_is_positive() {
        assert!(num_cpus() >= 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_lands_on_requested_core() {
        let ok = std::thread::spawn(|| {
            if !pin_to_core(0) {
                // Restricted environments (cpuset cgroups) may refuse; that
                // is not a correctness failure of the wrapper.
                return true;
            }
            current_core() == Some(0)
        })
        .join()
        .unwrap();
        assert!(ok);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_wraps_out_of_range_cores() {
        std::thread::spawn(|| {
            // Must not panic or fail outright for absurd indices.
            let _ = pin_to_core(usize::MAX - 1);
        })
        .join()
        .unwrap();
    }
}
