//! Bump arena backing MemTable skiplist nodes.
//!
//! Allocations are never freed individually; everything is released when
//! the arena (and therefore the MemTable) is dropped. Chunks are pinned
//! boxed slices, so returned pointers stay valid for the arena's lifetime
//! even while other threads allocate concurrently.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};

use p2kvs_util::sync::Mutex;

/// Default chunk size; large allocations get their own chunk.
const CHUNK_SIZE: usize = 256 * 1024;

struct ArenaCore {
    /// Owned chunks; never shrunk or reallocated.
    chunks: Vec<Box<[u8]>>,
    /// Bump offset within the last chunk.
    offset: usize,
}

/// A thread-safe bump allocator.
pub struct Arena {
    core: Mutex<ArenaCore>,
    allocated: AtomicUsize,
}

impl Default for Arena {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: all mutation happens under the internal mutex; handed-out
// pointers reference chunk memory that is never moved or freed until drop.
unsafe impl Send for Arena {}
unsafe impl Sync for Arena {}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Arena {
        Arena {
            core: Mutex::new(ArenaCore {
                chunks: Vec::new(),
                offset: 0,
            }),
            allocated: AtomicUsize::new(0),
        }
    }

    /// Allocates `size` zeroed bytes aligned to `align` (a power of two).
    ///
    /// The returned pointer is valid and stable until the arena is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or `size` is zero.
    pub fn alloc(&self, size: usize, align: usize) -> NonNull<u8> {
        assert!(align.is_power_of_two(), "align must be a power of two");
        assert!(size > 0, "zero-size arena allocation");
        let mut core = self.core.lock();
        let need_new_chunk = match core.chunks.last() {
            None => true,
            Some(chunk) => {
                let base = chunk.as_ptr() as usize;
                let aligned = (base + core.offset + align - 1) & !(align - 1);
                aligned + size > base + chunk.len()
            }
        };
        if need_new_chunk {
            let chunk_len = CHUNK_SIZE.max(size + align);
            core.chunks.push(vec![0u8; chunk_len].into_boxed_slice());
            core.offset = 0;
        }
        let offset = core.offset;
        let chunk = core.chunks.last_mut().expect("chunk just ensured");
        let base = chunk.as_ptr() as usize;
        let aligned = (base + offset + align - 1) & !(align - 1);
        let start = aligned - base;
        let ptr = chunk.as_mut_ptr();
        core.offset = start + size;
        self.allocated.fetch_add(size, Ordering::Relaxed);
        // SAFETY: `start + size <= chunk.len()` by the checks above, and the
        // chunk memory is owned by the arena and never moved.
        unsafe { NonNull::new_unchecked(ptr.add(start)) }
    }

    /// Copies `data` into the arena, returning a stable pointer to it.
    pub fn alloc_bytes(&self, data: &[u8]) -> NonNull<u8> {
        let ptr = self.alloc(data.len().max(1), 1);
        // SAFETY: `ptr` points at `data.len().max(1)` freshly allocated
        // bytes that no other thread references yet.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), ptr.as_ptr(), data.len());
        }
        ptr
    }

    /// Total bytes handed out (approximate memory usage of the owner).
    pub fn allocated_bytes(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_stable_and_disjoint() {
        let arena = Arena::new();
        let mut ptrs = Vec::new();
        for i in 0..1000usize {
            let p = arena.alloc(16, 8);
            // SAFETY: freshly allocated 16-byte region, exclusively ours.
            unsafe {
                std::ptr::write(p.as_ptr() as *mut u64, i as u64);
            }
            ptrs.push(p);
        }
        for (i, p) in ptrs.iter().enumerate() {
            // SAFETY: pointers remain valid until the arena drops.
            let v = unsafe { std::ptr::read(p.as_ptr() as *const u64) };
            assert_eq!(v, i as u64);
        }
        assert!(arena.allocated_bytes() >= 16_000);
    }

    #[test]
    fn alignment_is_respected() {
        let arena = Arena::new();
        for align in [1usize, 2, 4, 8, 16, 64] {
            for size in [1usize, 3, 17, 1000] {
                let p = arena.alloc(size, align);
                assert_eq!(p.as_ptr() as usize % align, 0);
            }
        }
    }

    #[test]
    fn large_allocation_gets_own_chunk() {
        let arena = Arena::new();
        let p = arena.alloc(CHUNK_SIZE * 2, 8);
        // SAFETY: region is CHUNK_SIZE*2 bytes, write the last byte.
        unsafe {
            *p.as_ptr().add(CHUNK_SIZE * 2 - 1) = 0xab;
        }
    }

    #[test]
    fn alloc_bytes_copies() {
        let arena = Arena::new();
        let p = arena.alloc_bytes(b"payload");
        // SAFETY: 7 bytes were just copied to `p`.
        let got = unsafe { std::slice::from_raw_parts(p.as_ptr(), 7) };
        assert_eq!(got, b"payload");
        // Empty slices must not panic.
        let _ = arena.alloc_bytes(b"");
    }

    #[test]
    fn concurrent_allocation_is_safe() {
        let arena = std::sync::Arc::new(Arena::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let arena = arena.clone();
                std::thread::spawn(move || {
                    let mut ptrs = Vec::new();
                    for i in 0..500usize {
                        let p = arena.alloc(24, 8);
                        // SAFETY: exclusive fresh region.
                        unsafe {
                            std::ptr::write(p.as_ptr() as *mut u64, (t * 1000 + i) as u64);
                        }
                        ptrs.push((p, (t * 1000 + i) as u64));
                    }
                    for (p, expect) in ptrs {
                        // SAFETY: stable pointer, written above by this thread.
                        let v = unsafe { std::ptr::read(p.as_ptr() as *const u64) };
                        assert_eq!(v, expect);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
