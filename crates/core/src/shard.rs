//! Two-level shard routing: `key → shard → worker` (the generalization
//! of §4.2's balanced request allocation).
//!
//! The paper routes `Hash(key) % N` straight onto `N` worker-owned
//! instances, hard-wiring the partition count to the worker count. This
//! module splits that coupling in two:
//!
//! * A [`Partitioner`] maps keys onto `S` **virtual shards** — engine
//!   instances with their own WAL/MemTable, exactly like the paper's
//!   instances, just more of them than workers (default `4×`).
//! * A versioned [`ShardMap`] maps shards onto workers and workers
//!   onto their rings. It is one immutable snapshot behind one pointer
//!   (the [`MapCell`]); the submit path pays an epoch pin and a pointer
//!   load — no lock, no refcount — and migrations, worker spawns and
//!   worker retires each republish a whole new snapshot.
//!
//! The fence: a submitter *pins* the snapshot (`p2kvs_util::epoch`) for
//! exactly the duration of its ring push ([`MapCell::send`]). After
//! publishing a successor, the writer calls `epoch::synchronize()` —
//! from then on no request routed under a displaced snapshot can still
//! be in flight toward a ring, so a handoff marker pushed *after* it is
//! provably behind every old-epoch request in the source worker's FIFO
//! ring, and a retired worker's ring can be closed without failing a
//! request. That ordering is what preserves per-key issue order across a
//! migration (DESIGN.md §9); the worker-side re-route path exists as a
//! defensive backstop, not as the fence.
//!
//! With `shards == workers` the initial map is the identity and the
//! whole machinery reduces to the paper's static layout.

use std::collections::HashMap;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p2kvs_util::epoch;
use p2kvs_util::hash::fnv1a64;
use parking_lot::{Condvar, Mutex};

use crate::error::{Error, Result};
use crate::queue::RequestQueue;
use crate::types::Request;
use crate::worker::ScanTable;

/// Maps keys to shard indices.
///
/// `partitions()` must equal the store's shard count; [`crate::P2Kvs`]
/// validates this at open and rejects mismatched partitioners instead
/// of indexing out of bounds at the first submit.
pub trait Partitioner: Send + Sync + 'static {
    /// The shard owning `key`.
    fn shard_of(&self, key: &[u8]) -> usize;

    /// Number of shards this partitioner spreads keys over.
    fn partitions(&self) -> usize;
}

/// The paper's default: `Hash(key) % S`. Load-balanced (even under
/// zipfian skew, hot keys spread across partitions), zero metadata, and no
/// read amplification because partitions never overlap.
pub struct HashPartitioner {
    n: usize,
}

impl HashPartitioner {
    /// Creates a partitioner over `n` shards.
    pub fn new(n: usize) -> HashPartitioner {
        HashPartitioner { n: n.max(1) }
    }
}

impl Partitioner for HashPartitioner {
    fn shard_of(&self, key: &[u8]) -> usize {
        (fnv1a64(key) % self.n as u64) as usize
    }

    fn partitions(&self) -> usize {
        self.n
    }
}

/// Alternative partitioning by sorted key ranges (mentioned in §4.2 as a
/// configurable strategy for workloads whose access pattern matches known
/// ranges). `boundaries` are the split points: shard `i` owns keys in
/// `[boundaries[i-1], boundaries[i])`.
pub struct RangePartitioner {
    boundaries: Vec<Vec<u8>>,
}

impl RangePartitioner {
    /// Creates a partitioner with the given split points (sorted, then
    /// deduplicated: a repeated boundary would describe an empty,
    /// unreachable partition and inflate `partitions()` past what
    /// `shard_of` can ever return).
    pub fn new(mut boundaries: Vec<Vec<u8>>) -> RangePartitioner {
        boundaries.sort();
        boundaries.dedup();
        RangePartitioner { boundaries }
    }
}

impl Partitioner for RangePartitioner {
    fn shard_of(&self, key: &[u8]) -> usize {
        self.boundaries.partition_point(|b| b.as_slice() <= key)
    }

    fn partitions(&self) -> usize {
        self.boundaries.len() + 1
    }
}

// ---------------------------------------------------------------------
// The routing snapshot: shard → worker → ring
// ---------------------------------------------------------------------

/// One immutable routing snapshot: which worker owns each shard, and
/// which ring each worker drains. A migration, a worker spawn and a
/// worker retire each build a successor ([`ShardMap::with_owner`],
/// `with_ring`) and publish it through the [`MapCell`].
#[derive(Clone)]
pub struct ShardMap {
    /// The ownership version: bumps once per migration. Ring installs
    /// and clears republish under the same epoch — no shard moved.
    epoch: u64,
    owner: Vec<u32>,
    /// Worker id → its request ring; `None` for a retired (or not yet
    /// spawned) slot.
    rings: Vec<Option<Arc<RequestQueue>>>,
}

impl ShardMap {
    /// The initial round-robin assignment: shard `i` belongs to worker
    /// `i % workers`. With `shards == workers` this is the identity map
    /// (the paper's static layout). Rings arrive as workers spawn.
    pub fn initial(shards: usize, workers: usize) -> ShardMap {
        let workers = workers.max(1) as u32;
        ShardMap {
            epoch: 1,
            owner: (0..shards.max(1) as u32).map(|s| s % workers).collect(),
            rings: Vec::new(),
        }
    }

    /// The ownership version. Bumps by one per migration.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.owner.len()
    }

    /// The worker owning `shard`.
    pub fn owner(&self, shard: usize) -> usize {
        self.owner[shard] as usize
    }

    /// A successor map (epoch + 1) with `shard` reassigned to `worker`.
    pub fn with_owner(&self, shard: usize, worker: usize) -> ShardMap {
        let mut next = self.clone();
        next.owner[shard] = worker as u32;
        next.epoch += 1;
        next
    }

    /// The shards currently assigned to `worker`.
    pub fn shards_of(&self, worker: usize) -> Vec<usize> {
        (0..self.owner.len())
            .filter(|s| self.owner[*s] as usize == worker)
            .collect()
    }

    /// A successor map with worker `w`'s slot set to `ring` — installed
    /// at spawn (growing the table if needed), cleared at retire.
    pub(crate) fn with_ring(&self, w: usize, ring: Option<Arc<RequestQueue>>) -> ShardMap {
        let mut next = self.clone();
        if w >= next.rings.len() {
            next.rings.resize(w + 1, None);
        }
        next.rings[w] = ring;
        next
    }

    /// Worker `w`'s ring, if the slot is live.
    pub(crate) fn ring(&self, w: usize) -> Option<&Arc<RequestQueue>> {
        self.rings.get(w).and_then(|r| r.as_ref())
    }

    /// Requests queued on worker `w`'s ring (0 for a retired slot).
    pub(crate) fn depth_of(&self, w: usize) -> usize {
        self.ring(w).map_or(0, |q| q.len())
    }

    /// Number of worker slots ever provisioned (live + retired).
    pub(crate) fn slot_count(&self) -> usize {
        self.rings.len()
    }

    /// Pushes to worker `w`'s ring. A retired slot hands the request
    /// back exactly like [`RequestQueue::push`] on a closed ring.
    pub(crate) fn send_to(&self, w: usize, req: Request) -> std::result::Result<(), Request> {
        match self.ring(w) {
            Some(q) => q.push(req),
            None => Err(req),
        }
    }
}

/// The one pointer the submit path routes through (DESIGN.md §9.2).
///
/// Readers [`pin`](MapCell::pin) the current snapshot — an epoch pin
/// (`p2kvs_util::epoch`, the read cache's domain) plus a pointer load —
/// and hold it only across a ring push; `send` is that whole
/// sequence. Writers are serialised by the store's balancer state
/// lock: [`publish`](MapCell::publish) a successor, then
/// `epoch::synchronize()`, after which no push routed under a displaced
/// snapshot is still in flight — the fence a handoff marker and a ring
/// close rely on. A parked pin stalls those writers (never deadlocks
/// them: workers keep draining), and a writer must not be pinned itself.
pub struct MapCell {
    current: AtomicPtr<ShardMap>,
}

/// A pinned routing snapshot; dereferences to the [`ShardMap`].
pub struct MapPin<'a> {
    map: &'a ShardMap,
    _guard: epoch::Guard,
}

impl std::ops::Deref for MapPin<'_> {
    type Target = ShardMap;

    fn deref(&self) -> &ShardMap {
        self.map
    }
}

impl MapCell {
    /// Wraps the initial map.
    pub fn new(map: ShardMap) -> MapCell {
        MapCell {
            current: AtomicPtr::new(Box::into_raw(Box::new(map))),
        }
    }

    /// Pins the current snapshot until the pin drops.
    pub fn pin(&self) -> MapPin<'_> {
        let guard = epoch::pin();
        // SAFETY: `current` always holds a live `Box` (set in `new` and
        // `publish`, freed only by `publish` through `epoch::retire` and
        // by `drop`). Loaded under `guard`, the snapshot outlives every
        // use through the returned pin, which carries the guard.
        let map = unsafe { &*self.current.load(Ordering::SeqCst) };
        MapPin { map, _guard: guard }
    }

    /// The current owner of `shard`, without retaining a pin. Use only
    /// where a stale answer is acceptable (re-route, metrics).
    pub fn owner(&self, shard: usize) -> usize {
        self.pin().owner(shard)
    }

    /// The current ownership epoch.
    pub fn epoch(&self) -> u64 {
        self.pin().epoch()
    }

    /// Routes `req` to the worker owning `shard`: pin → owner → ring →
    /// push → unpin.
    pub(crate) fn send(&self, shard: usize, req: Request) -> std::result::Result<(), Request> {
        let pin = self.pin();
        pin.send_to(pin.owner(shard), req)
    }

    /// Pushes `req` to worker `w`'s ring, whoever owns the request's
    /// shard (handoff markers, re-route).
    pub(crate) fn send_to(&self, w: usize, req: Request) -> std::result::Result<(), Request> {
        self.pin().send_to(w, req)
    }

    /// Replaces the snapshot; the displaced one is reclaimed once no pin
    /// can still reference it. The *routing* fence is the caller's
    /// `epoch::synchronize()` afterwards.
    pub fn publish(&self, next: ShardMap) {
        let next = Box::into_raw(Box::new(next));
        let old = self.current.swap(next, Ordering::SeqCst);
        // SAFETY: `old` came from `Box::into_raw` and the swap removed
        // the only shared copy of it, so this is its one reclamation;
        // `retire` defers the drop past every pin that loaded it.
        epoch::retire(unsafe { Box::from_raw(old) });
    }
}

impl Drop for MapCell {
    fn drop(&mut self) {
        // SAFETY: the pointer is a live `Box` (see `pin`), and `&mut
        // self` proves no `MapPin` borrows the cell any more.
        drop(unsafe { Box::from_raw(*self.current.get_mut()) });
    }
}

// ---------------------------------------------------------------------
// Per-shard service gauges
// ---------------------------------------------------------------------

/// Counters one shard's executing worker publishes and the balancer
/// consumes. Lives for the store's lifetime; follows the shard across
/// migrations (the counters are cumulative, owner is a gauge).
#[derive(Default)]
pub struct ShardStats {
    /// Requests executed against this shard.
    pub ops: AtomicU64,
    /// Nanoseconds of worker service time spent on this shard.
    pub busy_ns: AtomicU64,
    /// The worker currently owning the shard.
    pub owner: AtomicUsize,
}

impl ShardStats {
    /// Records one executed batch.
    pub fn record(&self, ops: u64, busy: Duration) {
        self.ops.fetch_add(ops, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(busy.as_nanos().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Handoff depot
// ---------------------------------------------------------------------

/// Worker-local state that travels with a shard during a handoff: the
/// parked streaming-scan cursors. The engine handle itself never moves —
/// every worker can reach every engine through the shared directory;
/// ownership is only the *right* to execute against it.
pub(crate) struct Parcel {
    pub scans: ScanTable,
}

/// Phases of one in-flight handoff, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HandoffPhase {
    /// Map published, fence draining; the source has not yet packaged.
    Fencing,
    /// The source deposited the parcel and signalled the target.
    Deposited,
}

#[derive(Default)]
struct DepotInner {
    parcels: HashMap<u64, Parcel>,
    phases: HashMap<u64, HandoffPhase>,
    /// Handoffs that ended without an install (target queue closed).
    aborted: u64,
    /// Completed installs.
    installed: u64,
}

/// Side-channel for shard handoffs. The *ordering* of a handoff rides
/// the worker queues (the `HandoffOut` / `ShardInstall` markers); the
/// depot only ferries the non-clonable parcel between the two worker
/// threads and lets the migrator await settlement.
pub(crate) struct HandoffDepot {
    inner: Mutex<DepotInner>,
    cv: Condvar,
}

impl HandoffDepot {
    pub fn new() -> HandoffDepot {
        HandoffDepot {
            inner: Mutex::new(DepotInner::default()),
            cv: Condvar::new(),
        }
    }

    /// Marks a handoff of `shard` as started. Errors if one is already in
    /// flight (the migrator serializes, so this is a logic guard).
    pub fn begin(&self, shard: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.phases.contains_key(&shard) {
            return Err(Error::Engine(format!(
                "shard {shard} already has a handoff in flight"
            )));
        }
        inner.phases.insert(shard, HandoffPhase::Fencing);
        Ok(())
    }

    /// Source side: parks the parcel for the target to collect.
    pub fn deposit(&self, shard: u64, parcel: Parcel) {
        let mut inner = self.inner.lock();
        inner.parcels.insert(shard, parcel);
        inner.phases.insert(shard, HandoffPhase::Deposited);
    }

    /// Target side: collects the parcel (if the source deposited one).
    pub fn take(&self, shard: u64) -> Option<Parcel> {
        self.inner.lock().parcels.remove(&shard)
    }

    /// Target side: the shard is installed; wake the migrator.
    pub fn complete(&self, shard: u64) {
        let mut inner = self.inner.lock();
        inner.phases.remove(&shard);
        inner.installed += 1;
        self.cv.notify_all();
    }

    /// Ends a handoff without an install (target queue closed during
    /// shutdown). Drops the parcel, releasing any parked cursors.
    pub fn abort(&self, shard: u64) {
        let mut inner = self.inner.lock();
        inner.parcels.remove(&shard);
        if inner.phases.remove(&shard).is_some() {
            inner.aborted += 1;
        }
        self.cv.notify_all();
    }

    /// Migrator side: blocks until the handoff of `shard` settles
    /// (installed or aborted). Returns `false` on timeout.
    pub fn wait_settled(&self, shard: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        while inner.phases.contains_key(&shard) {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.cv.wait_for(&mut inner, deadline - now);
        }
        true
    }

    /// Completed installs so far (the migration counter).
    pub fn installed(&self) -> u64 {
        self.inner.lock().installed
    }

    /// Handoffs that ended without an install.
    pub fn aborted(&self) -> u64 {
        self.inner.lock().aborted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_stable_and_in_range() {
        let p = HashPartitioner::new(8);
        assert_eq!(p.partitions(), 8);
        for i in 0..1000 {
            let key = format!("user{i}");
            let s = p.shard_of(key.as_bytes());
            assert!(s < 8);
            assert_eq!(s, p.shard_of(key.as_bytes()), "routing must be stable");
        }
    }

    #[test]
    fn hash_partitioner_balances_dense_keys() {
        let p = HashPartitioner::new(8);
        let mut counts = [0usize; 8];
        for i in 0..80_000u64 {
            counts[p.shard_of(format!("user{i:016}").as_bytes())] += 1;
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min < min / 5, "imbalance: {counts:?}");
    }

    #[test]
    fn hash_partitioner_balances_zipfian_hot_keys() {
        // Even when requests are highly skewed toward a few keys, distinct
        // hot keys spread across partitions (§4.2's claim).
        let p = HashPartitioner::new(4);
        let hot: Vec<usize> = (0..64)
            .map(|i| p.shard_of(format!("hot{i}").as_bytes()))
            .collect();
        for s in 0..4 {
            assert!(hot.contains(&s), "shard {s} got no hot keys");
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let p = HashPartitioner::new(0);
        assert_eq!(p.partitions(), 1);
        assert_eq!(p.shard_of(b"k"), 0);
    }

    #[test]
    fn range_partitioner_routes_by_boundaries() {
        let p = RangePartitioner::new(vec![b"g".to_vec(), b"p".to_vec()]);
        assert_eq!(p.partitions(), 3);
        assert_eq!(p.shard_of(b"apple"), 0);
        assert_eq!(p.shard_of(b"g"), 1, "boundary belongs to the right");
        assert_eq!(p.shard_of(b"monkey"), 1);
        assert_eq!(p.shard_of(b"zebra"), 2);
    }

    #[test]
    fn range_partitioner_sorts_boundaries() {
        let p = RangePartitioner::new(vec![b"p".to_vec(), b"g".to_vec()]);
        assert_eq!(p.shard_of(b"h"), 1);
    }

    #[test]
    fn range_partitioner_dedups_duplicate_boundaries() {
        // Regression: duplicate split points used to survive into the
        // boundary list, creating empty partitions `[b, b)` that no key
        // can route to while `partitions()` counted them — a mismatch
        // that open-time validation would then reject for no user error.
        let p = RangePartitioner::new(vec![
            b"g".to_vec(),
            b"g".to_vec(),
            b"p".to_vec(),
            b"g".to_vec(),
        ]);
        assert_eq!(p.partitions(), 3, "duplicates collapse");
        let mut seen = std::collections::HashSet::new();
        for key in [&b"a"[..], b"g", b"h", b"p", b"z"] {
            seen.insert(p.shard_of(key));
        }
        assert_eq!(seen.len(), 3, "every partition is reachable");
    }

    #[test]
    fn initial_map_is_round_robin_and_identity_when_square() {
        let m = ShardMap::initial(8, 2);
        assert_eq!(m.shards(), 8);
        assert_eq!(m.epoch(), 1);
        for s in 0..8 {
            assert_eq!(m.owner(s), s % 2);
        }
        assert_eq!(m.shards_of(0), vec![0, 2, 4, 6]);
        let id = ShardMap::initial(4, 4);
        for s in 0..4 {
            assert_eq!(id.owner(s), s, "shards == workers is the paper's layout");
        }
    }

    #[test]
    fn with_owner_bumps_epoch_and_keeps_the_rest() {
        let m = ShardMap::initial(4, 2);
        let n = m.with_owner(3, 0);
        assert_eq!(n.epoch(), m.epoch() + 1);
        assert_eq!(n.owner(3), 0);
        for s in 0..3 {
            assert_eq!(n.owner(s), m.owner(s));
        }
    }

    fn ring() -> Arc<RequestQueue> {
        Arc::new(RequestQueue::with_capacity(8))
    }

    fn noop_get() -> Request {
        let op = crate::types::Op::Get { key: b"k".to_vec() };
        Request::asynchronous(op, Box::new(|_| {}))
    }

    /// Pops the one queued request and completes it.
    fn drain_one(q: &RequestQueue) {
        let mut batch = q.pop_batch(1).expect("one request is queued");
        batch.pop().unwrap().finish_err(&Error::Closed);
    }

    #[test]
    fn ring_slots_install_clear_and_grow() {
        let m = ShardMap::initial(4, 2);
        assert_eq!(m.slot_count(), 0, "rings arrive with the workers");
        let m = m.with_ring(0, Some(ring()));
        assert_eq!((m.slot_count(), m.epoch()), (1, 1), "no shard moved");
        assert!(m.ring(0).is_some());
        assert!(m.ring(1).is_none(), "out of range reads as retired");
        let m = m.with_ring(3, Some(ring()));
        assert_eq!(m.slot_count(), 4, "install grows the table");
        assert!(m.ring(1).is_none() && m.ring(2).is_none());
        assert!(m.ring(3).is_some());
        let kept = m.with_owner(0, 1);
        assert!(kept.ring(0).is_some(), "rings ride along");
        assert!(kept.ring(3).is_some(), "rings ride along");
        m.send_to(3, noop_get()).ok().unwrap();
        assert_eq!(m.depth_of(3), 1);
        let cleared = m.with_ring(3, None);
        assert!(cleared.ring(3).is_none());
        assert_eq!(cleared.slot_count(), 4, "clear keeps the slot");
        assert_eq!(cleared.depth_of(3), 0, "retired slot reads depth 0");
        assert_eq!(m.depth_of(3), 1, "the predecessor is untouched");
        drain_one(m.ring(3).unwrap());
    }

    #[test]
    fn send_to_a_cleared_slot_hands_the_request_back() {
        let q = ring();
        let cell = MapCell::new(ShardMap::initial(1, 1).with_ring(0, Some(q.clone())));
        cell.send(0, noop_get()).ok().unwrap();
        assert_eq!(q.len(), 1, "routed shard 0 → worker 0 → its ring");
        cell.publish(cell.pin().with_ring(0, None));
        let back = cell.send(0, noop_get());
        assert!(back.is_err(), "cleared slot behaves like a closed ring");
        back.unwrap_err().finish_err(&Error::Closed);
        q.close();
        let back = q.push(noop_get());
        assert!(back.is_err(), "… which hands the request back the same way");
        back.unwrap_err().finish_err(&Error::Closed);
        drain_one(&q);
    }

    #[test]
    fn map_cell_publish_and_synchronize() {
        let cell = MapCell::new(ShardMap::initial(4, 2));
        let pin = cell.pin();
        assert_eq!(pin.epoch(), 1);
        cell.publish(pin.with_owner(0, 1));
        assert_eq!(cell.epoch(), 2);
        assert_eq!(cell.owner(0), 1);
        assert_eq!(pin.owner(0), 0, "the pinned snapshot stays readable");
        // synchronize must block while `pin` is live; run it on a helper
        // (the pin is thread-bound) and release the pin after a beat.
        let returned = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let r = returned.clone();
        let h = std::thread::spawn(move || {
            epoch::synchronize();
            r.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !returned.load(Ordering::SeqCst),
            "synchronize returned before the pin dropped"
        );
        drop(pin);
        h.join().unwrap();
    }

    #[test]
    fn depot_roundtrip_and_settlement() {
        let depot = HandoffDepot::new();
        depot.begin(3).unwrap();
        assert!(depot.begin(3).is_err(), "double handoff rejected");
        depot.deposit(3, Parcel { scans: ScanTable::default() });
        assert!(depot.take(3).is_some());
        assert!(depot.take(3).is_none(), "parcel collected once");
        let waiter = {
            let depot = Arc::new(depot);
            let d = depot.clone();
            let h = std::thread::spawn(move || d.wait_settled(3, Duration::from_secs(5)));
            std::thread::sleep(Duration::from_millis(10));
            depot.complete(3);
            assert_eq!(depot.installed(), 1);
            h
        };
        assert!(waiter.join().unwrap(), "settled, not timed out");
    }

    #[test]
    fn depot_abort_releases_waiters() {
        let depot = Arc::new(HandoffDepot::new());
        depot.begin(1).unwrap();
        let d = depot.clone();
        let h = std::thread::spawn(move || d.wait_settled(1, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        depot.abort(1);
        assert!(h.join().unwrap());
        assert_eq!(depot.aborted(), 1);
        assert_eq!(depot.installed(), 0);
    }

    #[test]
    fn depot_wait_times_out() {
        let depot = HandoffDepot::new();
        depot.begin(9).unwrap();
        assert!(!depot.wait_settled(9, Duration::from_millis(30)));
    }
}
