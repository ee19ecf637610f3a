//! Lock-free hot-record read cache in front of the shard map.
//!
//! BENCH_skew showed that migrating hot shards flattens per-worker load
//! but cannot make hot keys *cheaper* — every GET still pays the
//! queue→worker→engine round-trip (~tens of µs). This cache
//! short-circuits that path for the hot set, FASTER/F2-style: client
//! threads probe a concurrent hash index before any queue submit and, on
//! a hit, return the value with no lock, no queue, and no allocation
//! beyond the returned value bytes.
//!
//! # Structure
//!
//! A power-of-two array of 8-byte atomic slot words. Each non-zero word
//! packs a 48-bit pointer to an immutable, heap-allocated
//! [`CacheRecord`] with a 16-bit hash tag in the high bits; a probe
//! walks a fixed window of [`PROBE`] slots and dereferences only
//! tag-matching words. Records are published with a single CAS
//! (0 → word) and removed with a single CAS (word → 0); removed records
//! are handed to [`p2kvs_util::epoch`] and freed only after every pinned
//! reader has moved on, which is what makes the lockless dereference
//! sound (safety argument in `epoch.rs` and DESIGN.md §11).
//!
//! # Coherence protocol
//!
//! The cache is write-through-invalidate with versioned fills:
//!
//! * **Invalidation-on-write** — the owning worker invalidates a key
//!   *after* the engine write and *before* the request is acked, so a
//!   client that observed its own ack can never read the overwritten
//!   value (read-your-writes). A hit that races ahead of the
//!   invalidation linearizes before the not-yet-acked write.
//! * **Versioned fill** — fills happen on the worker read path. The
//!   filler snapshots the shard's version counter *before* the engine
//!   read; `fill` re-checks it after publishing and self-evicts if any
//!   invalidation bumped it in between, so a racing write can never
//!   leave stale data installed.
//! * **Migration keeps entries** — a shard move changes which worker
//!   runs the shard's writes and fills, never the engine or the key an
//!   entry is filed under, and the handoff markers order the old
//!   owner's last write before the new owner's first (DESIGN.md §11.3),
//!   so an entry valid before the move stays valid after it.
//!
//! Only present values are cached (no negative caching), and the cache
//! is volatile: recovery always comes up cold.
//!
//! # Admission
//!
//! Fills are gated by a doorkeeper sketch ([`ReadCache::admit`],
//! TinyLFU-style): a key is admitted only on its *second* miss, so
//! read-once traffic — scans, backfills, verification sweeps — never
//! pays the record allocation or churns resident entries, while
//! anything touched twice is cached from its second miss on. This is
//! what keeps the all-miss overhead of an enabled cache small. The
//! benchmark ledger's `micro.cache.miss_ns` times a miss; the
//! `cache_hitrate` gate reads only the full-hot-set hit rate.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};

use p2kvs_util::epoch;
use p2kvs_util::hash::{fnv1a64, mix64};

/// Slots probed per key. Removals punch holes, so the probe never
/// early-exits on an empty slot; a fixed window keeps both lookup and
/// invalidation O(1).
pub const PROBE: usize = 8;

/// Fixed per-entry overhead charged against the byte budget (record
/// header, slot word, allocator slack).
pub const RECORD_OVERHEAD: u64 = 64;

/// Target bytes per slot when sizing the index: keeps occupancy low
/// enough that an 8-slot window almost always has room.
const BYTES_PER_SLOT: u64 = 64;

const TAG_SHIFT: u32 = 48;
const PTR_MASK: u64 = (1 << TAG_SHIFT) - 1;

/// One cached record. Immutable after publication except for the CLOCK
/// reference bit.
struct CacheRecord {
    shard: u32,
    /// CLOCK/second-chance reference bit: set on hit, cleared (then
    /// evicted on the next pass) by the eviction hand.
    referenced: AtomicBool,
    /// Bytes charged against the budget for this record.
    charge: u64,
    key: Box<[u8]>,
    value: Box<[u8]>,
}

/// Monotonic counters sampled into `metrics_snapshot` as
/// `p2kvs_cache_*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub fills: u64,
    pub evictions: u64,
    pub invalidations: u64,
    /// Current charged bytes (gauge, not a counter).
    pub bytes: u64,
}

/// The shared, lock-free hot-record read cache. See the module docs for
/// the structure and coherence protocol.
pub struct ReadCache {
    /// Packed `tag<<48 | ptr` words; 0 = empty.
    slots: Box<[AtomicU64]>,
    mask: usize,
    capacity: u64,
    bytes: AtomicU64,
    /// CLOCK eviction hand (slot index, free-running).
    hand: AtomicUsize,
    /// Per-shard invalidation versions backing the fill race check.
    versions: Box<[AtomicU64]>,
    /// First-touch admission sketch: one tag byte per bucket, written on
    /// every rejected miss. See [`ReadCache::admit`].
    doorkeeper: Box<[AtomicU8]>,
    dk_mask: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    fills: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl ReadCache {
    /// Creates a cache with a byte budget of `capacity` serving `shards`
    /// shards. `capacity` must be non-zero (a zero budget means "no
    /// cache" and the store simply doesn't construct one).
    pub fn new(capacity: u64, shards: usize) -> ReadCache {
        assert!(capacity > 0, "zero-capacity cache must not be constructed");
        let nslots = (capacity / BYTES_PER_SLOT)
            .next_power_of_two()
            .clamp(64, 1 << 24) as usize;
        let slots: Box<[AtomicU64]> = (0..nslots).map(|_| AtomicU64::new(0)).collect();
        let versions: Box<[AtomicU64]> = (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect();
        // One tag byte per slot (nslots is a power of two clamped
        // between powers of two, so the sketch size is one as well): a
        // smaller sketch overwrites tail keys' tags before their second
        // touch, visibly costing hit rate near full hot-set capacity.
        let dk = nslots.clamp(1 << 10, 1 << 20);
        let doorkeeper: Box<[AtomicU8]> = (0..dk).map(|_| AtomicU8::new(0)).collect();
        ReadCache {
            slots,
            mask: nslots - 1,
            doorkeeper,
            dk_mask: dk - 1,
            capacity,
            bytes: AtomicU64::new(0),
            hand: AtomicUsize::new(0),
            versions,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fills: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn hash(shard: u32, key: &[u8]) -> u64 {
        mix64(fnv1a64(key) ^ ((shard as u64) << 32 | 0x9E37_79B9))
    }

    fn tag_of(hash: u64) -> u16 {
        (hash >> TAG_SHIFT) as u16
    }

    fn pack(ptr: *const CacheRecord, tag: u16) -> Option<u64> {
        let p = ptr as u64;
        // Linux user-space addresses fit in 48 bits (57 with LA57); if a
        // pointer ever doesn't, skip caching rather than corrupt it.
        if p & !PTR_MASK != 0 {
            return None;
        }
        Some(p | ((tag as u64) << TAG_SHIFT))
    }

    fn ptr_of(word: u64) -> *const CacheRecord {
        (word & PTR_MASK) as *const CacheRecord
    }

    fn word_tag(word: u64) -> u16 {
        (word >> TAG_SHIFT) as u16
    }

    /// The shard's current invalidation version. Fillers snapshot this
    /// **before** the engine read and pass it to [`ReadCache::fill`].
    pub fn version(&self, shard: u32) -> u64 {
        self.versions[shard as usize].load(Ordering::SeqCst)
    }

    /// Probes for `key` in `shard`. Lock-free; allocates only the
    /// returned value bytes (plus, on a thread's very first call, its
    /// epoch registration).
    pub fn lookup(&self, shard: u32, key: &[u8]) -> Option<Vec<u8>> {
        let h = Self::hash(shard, key);
        let tag = Self::tag_of(h);
        let _guard = epoch::pin();
        for i in 0..PROBE {
            let word = self.slots[(h as usize).wrapping_add(i) & self.mask].load(Ordering::Acquire);
            if word == 0 || Self::word_tag(word) != tag {
                continue;
            }
            // The word was loaded under our epoch pin: even if it is
            // concurrently unlinked, the record is retired, not freed,
            // until we unpin.
            let rec = unsafe { &*Self::ptr_of(word) };
            if rec.shard == shard && rec.key.as_ref() == key {
                rec.referenced.store(true, Ordering::Relaxed);
                let value = rec.value.to_vec();
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(value);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// First-touch admission filter (doorkeeper): returns whether a
    /// missed key has earned a [`ReadCache::fill`]. The first miss
    /// stamps the key's tag into a small sketch and is rejected; a
    /// second miss finds the tag and is admitted, so read-once traffic
    /// never allocates a record or evicts resident entries. The sketch
    /// is never cleared — colliding keys overwrite each other's tags,
    /// which ages it for free, and a key invalidated by a write keeps
    /// its tag so hot keys refill on their first post-write miss. A
    /// false positive (two keys sharing bucket *and* tag) merely admits
    /// an occasional single-touch key.
    pub fn admit(&self, shard: u32, key: &[u8]) -> bool {
        let h = Self::hash(shard, key);
        let idx = ((h >> 16) as usize) & self.dk_mask;
        // 0 means "empty bucket": remap so an untouched sketch never
        // admits.
        let tag = match (h >> 40) as u8 {
            0 => 1,
            t => t,
        };
        self.doorkeeper[idx].swap(tag, Ordering::Relaxed) == tag
    }

    /// Installs `key → value` read from `shard` at invalidation version
    /// `seen_version` (snapshotted via [`ReadCache::version`] before the
    /// engine read). Best-effort: a full window, an unsatisfiable
    /// budget, or a lost race simply skips the fill.
    pub fn fill(&self, shard: u32, key: &[u8], value: &[u8], seen_version: u64) {
        let charge = key.len() as u64 + value.len() as u64 + RECORD_OVERHEAD;
        if charge > self.capacity {
            return;
        }
        let h = Self::hash(shard, key);
        let tag = Self::tag_of(h);
        let _guard = epoch::pin();
        // Make room under the byte budget first (bounded scan).
        if self.bytes.load(Ordering::Relaxed) + charge > self.capacity {
            self.evict(charge);
            if self.bytes.load(Ordering::Relaxed) + charge > self.capacity {
                return;
            }
        }
        let rec = Box::new(CacheRecord {
            shard,
            referenced: AtomicBool::new(false),
            charge,
            key: key.into(),
            value: value.into(),
        });
        let ptr = Box::into_raw(rec);
        let Some(word) = Self::pack(ptr, tag) else {
            drop(unsafe { Box::from_raw(ptr) });
            return;
        };
        let mut installed_at = None;
        for i in 0..PROBE {
            let idx = (h as usize).wrapping_add(i) & self.mask;
            let cur = self.slots[idx].load(Ordering::Acquire);
            if cur != 0 && Self::word_tag(cur) == tag {
                let other = unsafe { &*Self::ptr_of(cur) };
                if other.shard == shard && other.key.as_ref() == key {
                    // A concurrent fill won; keep the incumbent.
                    drop(unsafe { Box::from_raw(ptr) });
                    return;
                }
            }
            if cur == 0
                && self.slots[idx]
                    .compare_exchange(0, word, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                installed_at = Some(idx);
                break;
            }
        }
        if installed_at.is_none() {
            // Window full: force a victim inside the window so hot
            // buckets still turn over.
            installed_at = self.displace_into_window(h, word);
        }
        let Some(idx) = installed_at else {
            drop(unsafe { Box::from_raw(ptr) });
            return;
        };
        self.bytes.fetch_add(charge, Ordering::Relaxed);
        self.fills.fetch_add(1, Ordering::Relaxed);
        // Fill race check: if any invalidation for this shard landed
        // between the caller's engine read and now, the value may be
        // stale — unpublish it ourselves.
        if self.versions[shard as usize].load(Ordering::SeqCst) != seen_version
            && self.remove_at(idx, word)
        {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evicts one record from the probe window of `h` and CASes `word`
    /// into the freed slot. Returns the slot index on success. Caller
    /// holds an epoch pin.
    fn displace_into_window(&self, h: u64, word: u64) -> Option<usize> {
        for pass in 0..2 {
            for i in 0..PROBE {
                let idx = (h as usize).wrapping_add(i) & self.mask;
                let cur = self.slots[idx].load(Ordering::Acquire);
                if cur == 0 {
                    if self.slots[idx]
                        .compare_exchange(0, word, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return Some(idx);
                    }
                    continue;
                }
                let rec = unsafe { &*Self::ptr_of(cur) };
                // First pass honours the reference bit; second pass is
                // forced so a fully-hot window still admits new keys.
                if pass == 0 && rec.referenced.swap(false, Ordering::Relaxed) {
                    continue;
                }
                if self.remove_at(idx, cur) {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    if self.slots[idx]
                        .compare_exchange(0, word, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return Some(idx);
                    }
                }
            }
        }
        None
    }

    /// Unlinks `word` from `slot[idx]` and retires its record,
    /// subtracting its charge. Returns false if someone else removed it
    /// first. Caller holds an epoch pin.
    fn remove_at(&self, idx: usize, word: u64) -> bool {
        if self.slots[idx]
            .compare_exchange(word, 0, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        let rec = unsafe { Box::from_raw(Self::ptr_of(word) as *mut CacheRecord) };
        self.bytes.fetch_sub(rec.charge, Ordering::Relaxed);
        epoch::retire(rec);
        true
    }

    /// Drops every cached entry for `key` in `shard` and bumps the
    /// shard's version so in-flight fills that read before the write
    /// cannot (re)install stale data. Called by the owning worker after
    /// the engine write, **before** the request is acked.
    pub fn invalidate(&self, shard: u32, key: &[u8]) {
        self.versions[shard as usize].fetch_add(1, Ordering::SeqCst);
        let h = Self::hash(shard, key);
        let tag = Self::tag_of(h);
        let _guard = epoch::pin();
        for i in 0..PROBE {
            let idx = (h as usize).wrapping_add(i) & self.mask;
            let word = self.slots[idx].load(Ordering::Acquire);
            if word == 0 || Self::word_tag(word) != tag {
                continue;
            }
            let rec = unsafe { &*Self::ptr_of(word) };
            if rec.shard == shard && rec.key.as_ref() == key && self.remove_at(idx, word) {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                // Keep scanning: concurrent fills can briefly leave
                // duplicates in the window.
            }
        }
    }

    /// CLOCK/second-chance sweep freeing at least `need` bytes (best
    /// effort, bounded at two full revolutions). Caller holds an epoch
    /// pin.
    fn evict(&self, need: u64) {
        let n = self.slots.len();
        let mut freed = 0u64;
        let mut scanned = 0usize;
        while freed < need && scanned < 2 * n {
            let idx = self.hand.fetch_add(1, Ordering::Relaxed) & self.mask;
            scanned += 1;
            let word = self.slots[idx].load(Ordering::Acquire);
            if word == 0 {
                continue;
            }
            let rec = unsafe { &*Self::ptr_of(word) };
            if rec.referenced.swap(false, Ordering::Relaxed) {
                continue; // second chance
            }
            let charge = rec.charge;
            if self.remove_at(idx, word) {
                freed += charge;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Current counter values (and the byte gauge).
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fills: self.fills.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// The configured byte budget.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of live entries (full scan; tests and diagnostics).
    pub fn entries(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Acquire) != 0)
            .count() as u64
    }
}

impl Drop for ReadCache {
    fn drop(&mut self) {
        // `&mut self`: no concurrent readers can exist, so records can
        // be freed directly instead of through the epoch domain.
        for slot in self.slots.iter() {
            let word = slot.swap(0, Ordering::AcqRel);
            if word != 0 {
                drop(unsafe { Box::from_raw(Self::ptr_of(word) as *mut CacheRecord) });
            }
        }
        // Opportunistically drain anything this cache retired earlier.
        epoch::try_collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> ReadCache {
        ReadCache::new(64 << 10, 8)
    }

    #[test]
    fn fill_then_lookup_roundtrip() {
        let c = cache();
        assert_eq!(c.lookup(1, b"k"), None);
        let v = c.version(1);
        c.fill(1, b"k", b"hello", v);
        assert_eq!(c.lookup(1, b"k").as_deref(), Some(&b"hello"[..]));
        // Same key, different shard: distinct entry space.
        assert_eq!(c.lookup(2, b"k"), None);
        let s = c.counters();
        assert_eq!((s.hits, s.fills), (1, 1));
        assert_eq!(s.misses, 2);
        assert!(s.bytes > 0);
    }

    #[test]
    fn invalidate_removes_and_bumps_version() {
        let c = cache();
        let v = c.version(3);
        c.fill(3, b"a", b"1", v);
        assert!(c.lookup(3, b"a").is_some());
        c.invalidate(3, b"a");
        assert_eq!(c.lookup(3, b"a"), None);
        assert_ne!(c.version(3), v);
        assert_eq!(c.counters().bytes, 0);
    }

    #[test]
    fn stale_fill_is_rejected_by_version_check() {
        let c = cache();
        let v = c.version(0);
        // A write lands (and invalidates) between the engine read and
        // the fill: the fill must not stick.
        c.invalidate(0, b"k");
        c.fill(0, b"k", b"stale", v);
        assert_eq!(c.lookup(0, b"k"), None);
        assert_eq!(c.counters().bytes, 0);
    }

    #[test]
    fn byte_budget_is_respected_via_eviction() {
        let c = ReadCache::new(4 << 10, 1);
        let val = vec![7u8; 256];
        for i in 0..200u32 {
            let key = i.to_be_bytes();
            let v = c.version(0);
            c.fill(0, &key, &val, v);
            assert!(
                c.counters().bytes <= c.capacity(),
                "budget exceeded at {i}: {}",
                c.counters().bytes
            );
        }
        let s = c.counters();
        assert!(s.evictions > 0, "no evictions under pressure");
        assert!(s.fills > 10, "almost nothing was admitted");
    }

    #[test]
    fn oversized_values_are_skipped() {
        let c = ReadCache::new(1 << 10, 1);
        let v = c.version(0);
        c.fill(0, b"big", &vec![0u8; 4096], v);
        assert_eq!(c.lookup(0, b"big"), None);
        assert_eq!(c.counters().bytes, 0);
    }

    #[test]
    fn clock_keeps_referenced_entries() {
        let c = ReadCache::new(8 << 10, 1);
        let hot = b"hot-key";
        let v = c.version(0);
        c.fill(0, hot, &[1u8; 64], v);
        // Keep the hot key referenced while cold traffic churns.
        for i in 0..500u32 {
            assert!(c.lookup(0, hot).is_some(), "hot key evicted at {i}");
            let key = i.to_be_bytes();
            let v = c.version(0);
            c.fill(0, &key, &[0u8; 64], v);
        }
        assert!(c.counters().evictions > 0);
    }

    #[test]
    fn doorkeeper_admits_on_the_second_touch() {
        let c = cache();
        assert!(!c.admit(0, b"twice"), "first touch must be rejected");
        assert!(c.admit(0, b"twice"), "second touch must be admitted");
        assert!(c.admit(0, b"twice"), "the tag is sticky once set");
        // A scan of distinct keys is (almost) never admitted.
        let admitted = (0..10_000u32)
            .filter(|i| c.admit(1, &i.to_be_bytes()))
            .count();
        assert!(
            admitted < 100,
            "{admitted} single-touch keys of 10000 were admitted"
        );
    }

    #[test]
    fn concurrent_fill_invalidate_lookup_smoke() {
        use std::sync::Arc;
        let c = Arc::new(ReadCache::new(256 << 10, 4));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u32 {
                    let shard = t % 4;
                    let key = (i % 64).to_be_bytes();
                    match i % 3 {
                        0 => {
                            let v = c.version(shard);
                            c.fill(shard, &key, &i.to_be_bytes(), v);
                        }
                        1 => {
                            let _ = c.lookup(shard, &key);
                        }
                        _ => c.invalidate(shard, &key),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.counters();
        let lookups_per_thread = (0..2_000u32).filter(|i| i % 3 == 1).count() as u64;
        assert_eq!(s.hits + s.misses, 4 * lookups_per_thread);
    }
}
