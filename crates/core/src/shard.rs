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
//! Multi-shard client calls fan out through `MapCell::scatter`: one
//! `send` per entry, one completion slot for the caller to park on.
//!
//! With `shards == workers` the initial map is the identity and the
//! whole machinery reduces to the paper's static layout.

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use p2kvs_obs::TraceCtx;
use p2kvs_util::epoch;
use p2kvs_util::hash::fnv1a64;
use p2kvs_util::sync::Mutex;

use crate::error::{Error, Result};
use crate::queue::RequestQueue;
use crate::types::{CompletionSlot, Op, Request, Response, SyncWaiter};

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
    /// Blocking calls routed through this cell whose wait outlasted the
    /// yield bound and parked (`p2kvs_waiter_parks_total`).
    pub(crate) waiter_parks: AtomicU64,
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
            waiter_parks: AtomicU64::new(0),
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
// Scatter: the one client fan-out
// ---------------------------------------------------------------------

/// The replies of one scatter, gathered from the workers.
struct Gather {
    /// One reply per entry, in entry order.
    replies: Vec<Result<Response>>,
    /// Entries not answered yet; answering the last wakes the caller.
    pending: usize,
    done: Option<Arc<CompletionSlot>>,
}

/// A scatter whose entries are all on their way: [`Scattered::wait`]
/// parks until the last of them is answered.
/// The second field counts the park ([`MapCell::waiter_parks`]).
pub(crate) struct Scattered<'a>(Option<(Arc<Mutex<Gather>>, SyncWaiter)>, &'a AtomicU64);

impl Scattered<'_> {
    /// Parks **once**, on one pooled completion slot, until every entry
    /// is answered; returns the replies in entry order.
    pub(crate) fn wait(self) -> Vec<Result<Response>> {
        let Some((gather, waiter)) = self.0 else {
            return Vec::new();
        };
        let _ = waiter.wait_counting(self.1);
        let replies = std::mem::take(&mut gather.lock().replies);
        replies
    }
}

impl MapCell {
    /// The fan-out every multi-shard client call is built on: routes
    /// one request per `(shard, op)` entry — each on its own, entries of
    /// different shards have no mutual order to keep — and gathers the
    /// replies. `ctx` rides on every entry.
    pub(crate) fn scatter(
        &self,
        ctx: TraceCtx,
        entries: Vec<(usize, Op)>,
    ) -> Vec<Result<Response>> {
        self.scatter_push(ctx, entries).wait()
    }

    /// The push half of [`MapCell::scatter`], for a caller that must
    /// not wait where it pushes (the backup freeze pushes under the
    /// balancer state lock). After the first failed push the remaining
    /// entries are failed with [`Error::Closed`] without being enqueued,
    /// through the same completion, so the count still reaches zero and
    /// everything that was enqueued is still awaited.
    pub(crate) fn scatter_push(&self, ctx: TraceCtx, entries: Vec<(usize, Op)>) -> Scattered<'_> {
        if entries.is_empty() {
            return Scattered(None, &self.waiter_parks);
        }
        let (done, waiter) = SyncWaiter::pair();
        let gather = Arc::new(Mutex::new(Gather {
            replies: entries.iter().map(|_| Err(Error::Closed)).collect(),
            pending: entries.len(),
            done: Some(done),
        }));
        let mut closed = false;
        for (i, (shard, op)) in entries.into_iter().enumerate() {
            let g = gather.clone();
            let answer = Box::new(move |reply| {
                let mut g = g.lock();
                g.replies[i] = reply;
                g.pending -= 1;
                if g.pending == 0 {
                    let done = g.done.take().expect("the last answer comes once");
                    drop(g);
                    done.fulfill(Ok(Response::Done));
                }
            });
            let req = Request::asynchronous(op, answer)
                .on_shard(shard as u64)
                .traced(ctx);
            if closed {
                req.finish_err(&Error::Closed);
            } else if let Err(req) = self.send(shard, req) {
                closed = true;
                req.finish_err(&Error::Closed);
            }
        }
        Scattered(Some((gather, waiter)), &self.waiter_parks)
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

    /// A map of `n` shards over `n` undrained rings, shard `i` on ring
    /// `i`: the test plays the workers.
    fn undrained(n: usize) -> (MapCell, Vec<Arc<RequestQueue>>) {
        let rings: Vec<_> = (0..n).map(|_| ring()).collect();
        let map = rings
            .iter()
            .enumerate()
            .fold(ShardMap::initial(n, n), |m, (w, q)| {
                m.with_ring(w, Some(q.clone()))
            });
        (MapCell::new(map), rings)
    }

    fn get(key: u8) -> Op {
        Op::Get { key: vec![key] }
    }

    fn pop(q: &RequestQueue) -> Request {
        q.pop_batch(1)
            .expect("one request is queued")
            .pop()
            .unwrap()
    }

    #[test]
    fn scatter_of_nothing_touches_neither_a_ring_nor_a_slot() {
        let (cell, rings) = undrained(1);
        let pooled = crate::types::pooled_slots();
        assert!(cell.scatter(TraceCtx::NONE, Vec::new()).is_empty());
        assert_eq!(rings[0].len(), 0);
        assert_eq!(crate::types::pooled_slots(), pooled);
    }

    #[test]
    fn scatter_parks_once_and_gathers_in_entry_order() {
        let (cell, rings) = undrained(3);
        // Leave one slot in this thread's pool, to watch it go and return.
        let (req, waiter) = Request::sync(get(0));
        req.finish(Ok(Response::Done));
        waiter.wait().unwrap();
        let pooled = crate::types::pooled_slots();
        assert!(pooled >= 1);
        let ctx = TraceCtx { id: 7 };
        let scattered = cell.scatter_push(ctx, (0..3).map(|s| (s, get(s as u8))).collect());
        assert_eq!(
            crate::types::pooled_slots(),
            pooled - 1,
            "three entries, one slot"
        );
        // The workers answer in reverse order, and the middle one fails.
        for w in (0..3).rev() {
            let req = pop(&rings[w]);
            assert_eq!(
                (req.shard, req.trace),
                (w as u64, ctx),
                "every entry carries the ctx"
            );
            assert!(matches!(&req.op, Op::Get { key } if key == &[w as u8]));
            req.finish(match w {
                1 => Err(Error::Engine("boom".into())),
                _ => Ok(Response::Value(Some(vec![w as u8]))),
            });
        }
        let replies = scattered.wait();
        assert_eq!(replies.len(), 3);
        assert!(matches!(&replies[0], Ok(Response::Value(Some(v))) if v == &[0]));
        assert!(matches!(&replies[1], Err(Error::Engine(e)) if e == "boom"));
        assert!(
            matches!(&replies[2], Ok(Response::Value(Some(v))) if v == &[2]),
            "a sibling's error hides no reply"
        );
        assert_eq!(
            crate::types::pooled_slots(),
            pooled,
            "the slot went back clean"
        );
    }

    #[test]
    fn scatter_fails_the_rest_unenqueued_once_a_push_fails() {
        let (cell, rings) = undrained(3);
        rings[1].close();
        let scattered = cell.scatter_push(TraceCtx::NONE, [0, 1, 2, 0].map(|s| (s, get(9))).into());
        assert_eq!(
            (rings[0].len(), rings[2].len()),
            (1, 0),
            "nothing is enqueued past the failed push"
        );
        pop(&rings[0]).finish(Ok(Response::Done));
        let replies = scattered.wait();
        assert!(
            matches!(replies[0], Ok(Response::Done)),
            "what was enqueued is awaited"
        );
        for reply in &replies[1..] {
            assert!(matches!(reply, Err(Error::Closed)));
        }
        assert_eq!(replies.len(), 4);
    }
}
