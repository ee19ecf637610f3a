//! Request and response types flowing through the accessing layer.
//!
//! The synchronous interface's completion slots are the second half of
//! the hot path (the first is the queue): every blocking `put`/`get`
//! hands a slot to the worker and parks on it. Instead of allocating a
//! fresh `Mutex` + `Condvar` pair per request (the original
//! `SyncCompletion`, deleted in favour of this), a [`CompletionSlot`] is
//! a single atomic state word plus a parked-thread cell, **recycled
//! through a thread-local freelist** — the steady-state submission path
//! allocates nothing, and fulfilling a request wakes the waiter only if
//! it actually parked: a waiter still in the yield phase of
//! `crate::queue::wait_until` — where a round trip through an unloaded
//! worker finds it — costs the worker zero syscalls.

use std::cell::RefCell;
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use crate::error::{Error, Result};

/// One update inside a (possibly transactional) write batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert `key -> value`.
    Put { key: Vec<u8>, value: Vec<u8> },
    /// Delete `key`.
    Delete { key: Vec<u8> },
}

impl WriteOp {
    /// The key this update targets.
    pub fn key(&self) -> &[u8] {
        match self {
            WriteOp::Put { key, .. } | WriteOp::Delete { key } => key,
        }
    }

    /// Approximate payload bytes.
    pub fn size(&self) -> usize {
        match self {
            WriteOp::Put { key, value } => key.len() + value.len(),
            WriteOp::Delete { key } => key.len(),
        }
    }
}

/// An operation submitted to a worker queue.
#[derive(Debug, Clone)]
pub enum Op {
    /// Insert one pair.
    Put { key: Vec<u8>, value: Vec<u8> },
    /// Delete one key.
    Delete { key: Vec<u8> },
    /// Point lookup.
    Get { key: Vec<u8> },
    /// Point lookups of several keys of one shard in one ring entry (what
    /// `P2Kvs::get_many` submits per shard it touches). The reply is
    /// [`Response::Values`], in key order. Merges with neighbouring reads
    /// like a run of [`Op::Get`]s would.
    MultiGet { keys: Vec<Vec<u8>> },
    /// Opens a streaming scan over keys in `[start, end)` (`end = None`
    /// leaves it open-ended) and returns the first chunk of at most
    /// `limit` entries / `max_bytes` payload bytes. The reply is
    /// [`Response::Chunk`]; a `Some(cursor)` in it means more data is
    /// available via [`Op::ScanNext`]. Replaces the old blocking
    /// `Scan`/`Range` ops: a worker never runs a scan longer than one
    /// chunk per request, so queued point ops interleave between chunks.
    ScanOpen {
        start: Vec<u8>,
        end: Option<Vec<u8>>,
        limit: usize,
        max_bytes: usize,
    },
    /// Pulls the next chunk from a cursor returned by a previous
    /// [`Response::Chunk`] on the same worker.
    ScanNext {
        cursor: u64,
        limit: usize,
        max_bytes: usize,
    },
    /// Releases a cursor early (the consumer stopped before exhaustion).
    /// Idempotent: closing an unknown or already-exhausted cursor is Ok.
    ScanClose { cursor: u64 },
    /// A transaction sub-batch carrying a Global Sequence Number. Never
    /// merged with other requests by OBM.
    TxnBatch { ops: Vec<WriteOp>, gsn: u64 },
    /// First handoff marker (migration protocol, DESIGN.md §9): tells
    /// the owning worker to give `shard` up. The FIFO guarantees every
    /// old-epoch request is ahead of it; the worker leaves the shard's
    /// parked scan cursors in the shard's handoff slot and acks, or
    /// replies with an error if it does not own the shard. Internal:
    /// sent only by the migrator, which waits for the reply.
    HandoffOut { shard: u64 },
    /// Second handoff marker, sent by the migrator to the new owner once
    /// `HandoffOut` is acked: the worker adopts the cursors from the
    /// slot, owns the shard, replays any requests it stashed while the
    /// shard was in flight, and acks. Internal.
    ShardInstall { shard: u64 },
    /// Online-backup freeze marker: the owning worker forks `shard`'s
    /// engine snapshot and deposits it in the backup hub. Unlike the
    /// handoff markers this flows through the normal ownership check, so
    /// a shard mid-migration stashes or reroutes it like any other
    /// request and the freeze executes exactly once, after the install
    /// replay. Internal: never produced by the public API.
    BackupFreeze { shard: u64 },
}

/// OBM request classes (Algorithm 1 merges only same-class neighbours).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Mergeable writes (PUT/UPDATE/DELETE).
    Write,
    /// Mergeable reads (GET).
    Read,
    /// Never merged into one engine call: SCAN/RANGE requests, GSN-tagged
    /// batches and control markers. Consecutive Solo requests drain as one
    /// run like reads and writes, but a marker ([`Op::is_marker`]) drains
    /// alone and ends a run.
    Solo,
}

impl OpClass {
    /// Stable integer id (index into `p2kvs_obs::CLASS_LABELS`).
    pub fn index(self) -> usize {
        match self {
            OpClass::Write => 0,
            OpClass::Read => 1,
            OpClass::Solo => 2,
        }
    }

    /// Metric label for this class.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Write => "write",
            OpClass::Read => "read",
            OpClass::Solo => "solo",
        }
    }
}

impl Op {
    /// The request's OBM class.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Put { .. } | Op::Delete { .. } => OpClass::Write,
            Op::Get { .. } | Op::MultiGet { .. } => OpClass::Read,
            Op::ScanOpen { .. }
            | Op::ScanNext { .. }
            | Op::ScanClose { .. }
            | Op::TxnBatch { .. }
            | Op::HandoffOut { .. }
            | Op::ShardInstall { .. }
            | Op::BackupFreeze { .. } => OpClass::Solo,
        }
    }

    /// A control marker: the queue drains it as a batch of one.
    pub fn is_marker(&self) -> bool {
        matches!(
            self,
            Op::HandoffOut { .. } | Op::ShardInstall { .. } | Op::BackupFreeze { .. }
        )
    }

    /// How many keys the request carries. OBM's batch bound and the
    /// workers' `ops` / `merged_ops` counters are in keys, so a
    /// [`Op::MultiGet`] weighs what the `Get`s it replaces would.
    pub fn keys(&self) -> usize {
        match self {
            Op::MultiGet { keys } => keys.len(),
            _ => 1,
        }
    }
}

/// Result payload of a completed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Write acknowledged.
    Done,
    /// GET result.
    Value(Option<Vec<u8>>),
    /// [`Op::MultiGet`] result, one entry per key in key order.
    Values(Vec<Option<Vec<u8>>>),
    /// One chunk of a streaming scan. `cursor` names the worker-side
    /// cursor to pass to [`Op::ScanNext`] for more data; `None` means the
    /// scan is exhausted (or fit entirely in this chunk).
    Chunk {
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        cursor: Option<u64>,
    },
}

/// How a finished request reports back.
pub enum Completion {
    /// A waiting user thread (synchronous interface): it yields, then
    /// parks on the slot until the worker stores the result.
    Sync(Arc<CompletionSlot>),
    /// Fire-and-forget callback (asynchronous interface, §4.1).
    Async(Box<dyn FnOnce(Result<Response>) + Send>),
}

/// Slot states. EMPTY → (PARKED →) DONE, then recycled back to EMPTY.
const SLOT_EMPTY: u32 = 0;
const SLOT_PARKED: u32 = 1;
const SLOT_DONE: u32 = 2;

/// Bound on the per-thread freelist (slots, ~100 B each).
const POOL_LIMIT: usize = 64;

thread_local! {
    /// Per-thread completion-slot freelist. `Request::sync` pops from it,
    /// `SyncWaiter::wait` pushes back — zero cross-thread traffic, zero
    /// allocation in steady state.
    static SLOT_POOL: RefCell<Vec<Arc<CompletionSlot>>> = const { RefCell::new(Vec::new()) };
}

/// Shared one-shot completion slot: one atomic state word, a result
/// cell, and the parked waiter's thread handle. All cell accesses are
/// ordered by the state word; see the safety notes on each method.
pub struct CompletionSlot {
    state: AtomicU32,
    result: UnsafeCell<Option<Result<Response>>>,
    waiter: UnsafeCell<Option<Thread>>,
}

// SAFETY: the state machine gives each cell a single writer at a time —
// `result` is written by the (sole) fulfiller before the DONE transition
// and read by the (sole) waiter after observing DONE; `waiter` is
// written by the waiter before its EMPTY→PARKED transition and consumed
// by the fulfiller only after observing PARKED.
unsafe impl Send for CompletionSlot {}
unsafe impl Sync for CompletionSlot {}

impl Default for CompletionSlot {
    fn default() -> Self {
        CompletionSlot {
            state: AtomicU32::new(SLOT_EMPTY),
            result: UnsafeCell::new(None),
            waiter: UnsafeCell::new(None),
        }
    }
}

impl CompletionSlot {
    /// Stores the result and wakes the waiter **iff it parked**. Consumes
    /// the worker's reference *before* the unpark so the woken waiter
    /// usually observes itself as the sole owner and can recycle the
    /// slot.
    pub fn fulfill(self: Arc<Self>, result: Result<Response>) {
        // SAFETY: sole fulfiller (a Request is finished once), and the
        // waiter reads `result` only after the Release swap below.
        unsafe { *self.result.get() = Some(result) };
        let prev = self.state.swap(SLOT_DONE, Ordering::AcqRel);
        debug_assert_ne!(prev, SLOT_DONE, "completion fulfilled twice");
        // SAFETY: PARKED was set after the waiter wrote its handle
        // (release CAS); the Acquire swap above makes that write visible,
        // and the waiter never touches the cell again before DONE.
        let waiter = if prev == SLOT_PARKED {
            unsafe { (*self.waiter.get()).take() }
        } else {
            None
        };
        drop(self);
        if let Some(t) = waiter {
            t.unpark();
        }
    }

    /// Yields (`crate::queue::wait_until`), then parks until the result
    /// arrives; a wait that registers to be woken counts in `parks`.
    fn wait_result(&self, parks: &AtomicU64) -> Result<Response> {
        let done = || (self.state.load(Ordering::Acquire) == SLOT_DONE).then_some(());
        if crate::queue::wait_until(done).is_none() {
            // Register for the wakeup. SAFETY: the fulfiller reads
            // `waiter` only after observing PARKED, which this
            // release CAS publishes after the write.
            unsafe { *self.waiter.get() = Some(std::thread::current()) };
            if self
                .state
                .compare_exchange(SLOT_EMPTY, SLOT_PARKED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                parks.fetch_add(1, Ordering::Relaxed);
                while self.state.load(Ordering::Acquire) != SLOT_DONE {
                    std::thread::park();
                }
            }
        }
        // SAFETY: state is DONE (Acquire): the fulfiller's write to
        // `result` is visible and it will never touch the cell again.
        unsafe { (*self.result.get()).take() }.expect("completed slot holds a result")
    }

    /// Resets a slot for reuse. Caller must hold the only reference.
    fn reset(&self) {
        // SAFETY: sole owner (checked by the caller via strong_count == 1
        // plus an Acquire fence pairing with the fulfiller's Arc drop).
        unsafe {
            *self.result.get() = None;
            *self.waiter.get() = None;
        }
        self.state.store(SLOT_EMPTY, Ordering::Relaxed);
    }
}

/// The user-thread half of a synchronous request: wait once, get the
/// result, and the slot goes back to the submitting thread's pool.
pub struct SyncWaiter {
    slot: Arc<CompletionSlot>,
}

impl SyncWaiter {
    /// A (pooled) completion slot and its waiter half. Whoever holds the
    /// slot must [`CompletionSlot::fulfill`] it exactly once.
    pub(crate) fn pair() -> (Arc<CompletionSlot>, SyncWaiter) {
        let slot = SLOT_POOL
            .try_with(|pool| pool.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        (slot.clone(), SyncWaiter { slot })
    }

    /// Blocks (yield, then park) until the worker fulfills the request.
    pub fn wait(self) -> Result<Response> {
        self.wait_counting(&AtomicU64::new(0))
    }

    /// [`SyncWaiter::wait`], counting a wait that parked in `parks`.
    pub(crate) fn wait_counting(self, parks: &AtomicU64) -> Result<Response> {
        let SyncWaiter { slot } = self;
        let result = slot.wait_result(parks);
        // Recycle if the worker has already dropped its reference —
        // `fulfill` drops before unparking, so a parked waiter almost
        // always recycles; a yielding one occasionally races the drop
        // and simply lets the slot free instead.
        if Arc::strong_count(&slot) == 1 {
            // Pairs with the Release decrement of the fulfiller's Arc
            // drop: everything it did to the slot happens-before reset.
            fence(Ordering::Acquire);
            slot.reset();
            let _ = SLOT_POOL.try_with(|pool| {
                let mut pool = pool.borrow_mut();
                if pool.len() < POOL_LIMIT {
                    pool.push(slot);
                }
            });
        }
        result
    }
}

/// A queued request: the operation plus its completion.
pub struct Request {
    pub op: Op,
    pub completion: Completion,
    /// The virtual shard this request targets (0 for ops that are not
    /// keyed, e.g. scans fanned out per shard set it to their shard).
    /// Workers use it to route between owned engines, OBM merges only
    /// same-shard neighbours, and a worker that no longer owns the shard
    /// re-routes by it.
    pub shard: u64,
    /// Nanosecond timestamp when the request entered the queue (for queue
    /// wait accounting).
    pub enqueued: std::time::Instant,
    /// Trace identity ([`TraceCtx::NONE`] for the unsampled majority).
    /// A single `Copy` word, so carrying it keeps the submit and consume
    /// paths allocation-free.
    pub trace: p2kvs_obs::TraceCtx,
    /// Whether the sender keeps sending without waiting for this answer
    /// (`put_async`). A blocking call's requests are not — the `ScanClose`
    /// after a scan included — and the worker that answered one yields
    /// for the caller's next before it parks (`crate::queue`).
    pub pipelined: bool,
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("op", &self.op)
            .field(
                "completion",
                &match self.completion {
                    Completion::Sync(_) => "sync",
                    Completion::Async(_) => "async",
                },
            )
            .finish_non_exhaustive()
    }
}

impl Request {
    /// Builds a synchronous request, returning it with the waiter half of
    /// its (pooled) completion slot.
    pub fn sync(op: Op) -> (Request, SyncWaiter) {
        let (slot, waiter) = SyncWaiter::pair();
        (
            Request {
                op,
                completion: Completion::Sync(slot),
                shard: 0,
                enqueued: p2kvs_util::timing::now(),
                trace: p2kvs_obs::TraceCtx::NONE,
                pipelined: false,
            },
            waiter,
        )
    }

    /// Builds an asynchronous request.
    pub fn asynchronous(op: Op, cb: Box<dyn FnOnce(Result<Response>) + Send>) -> Request {
        Request {
            op,
            completion: Completion::Async(cb),
            shard: 0,
            enqueued: p2kvs_util::timing::now(),
            trace: p2kvs_obs::TraceCtx::NONE,
            pipelined: false,
        }
    }

    /// Sets the target shard (builder style).
    pub fn on_shard(mut self, shard: u64) -> Request {
        self.shard = shard;
        self
    }

    /// Sets the trace context (builder style).
    pub fn traced(mut self, trace: p2kvs_obs::TraceCtx) -> Request {
        self.trace = trace;
        self
    }

    /// Completes the request with `result`.
    pub fn finish(self, result: Result<Response>) {
        match self.completion {
            Completion::Sync(c) => c.fulfill(result),
            Completion::Async(cb) => cb(result),
        }
    }

    /// Completes the request with a cloned error.
    pub fn finish_err(self, err: &Error) {
        self.finish(Err(err.clone()));
    }
}

#[cfg(test)]
/// Slots in this thread's freelist (tests count the slots a call takes).
pub(crate) fn pooled_slots() -> usize {
    SLOT_POOL.with(|pool| pool.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_index_matches_obs_labels() {
        for class in [OpClass::Write, OpClass::Read, OpClass::Solo] {
            assert_eq!(p2kvs_obs::CLASS_LABELS[class.index()], class.label());
        }
    }

    #[test]
    fn op_classes() {
        assert_eq!(
            Op::Put {
                key: vec![],
                value: vec![]
            }
            .class(),
            OpClass::Write
        );
        assert_eq!(Op::Delete { key: vec![] }.class(), OpClass::Write);
        assert_eq!(Op::Get { key: vec![] }.class(), OpClass::Read);
        let multi = Op::MultiGet {
            keys: vec![vec![1], vec![2], vec![3]],
        };
        assert_eq!(multi.class(), OpClass::Read);
        assert_eq!(multi.keys(), 3);
        assert_eq!(Op::Get { key: vec![] }.keys(), 1);
        assert_eq!(
            Op::ScanOpen {
                start: vec![],
                end: None,
                limit: 1,
                max_bytes: 1,
            }
            .class(),
            OpClass::Solo
        );
        assert_eq!(
            Op::ScanNext {
                cursor: 1,
                limit: 1,
                max_bytes: 1,
            }
            .class(),
            OpClass::Solo
        );
        assert_eq!(Op::ScanClose { cursor: 1 }.class(), OpClass::Solo);
        assert_eq!(
            Op::TxnBatch {
                ops: vec![],
                gsn: 1
            }
            .class(),
            OpClass::Solo
        );
        assert_eq!(Op::BackupFreeze { shard: 0 }.class(), OpClass::Solo);
    }

    #[test]
    fn sync_completion_wakes_waiter() {
        let (req, completion) = Request::sync(Op::Get { key: b"k".to_vec() });
        let waiter = std::thread::spawn(move || completion.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        req.finish(Ok(Response::Value(Some(b"v".to_vec()))));
        assert_eq!(
            waiter.join().unwrap().unwrap(),
            Response::Value(Some(b"v".to_vec()))
        );
    }

    #[test]
    fn sync_completion_parked_waiter_wakes() {
        // Force the park path: fulfill long after the waiter's yield
        // bound has passed.
        let (req, completion) = Request::sync(Op::Get { key: b"k".to_vec() });
        let waiter = std::thread::spawn(move || completion.wait());
        std::thread::sleep(std::time::Duration::from_millis(150));
        req.finish(Ok(Response::Done));
        assert_eq!(waiter.join().unwrap().unwrap(), Response::Done);
    }

    #[test]
    fn fulfilled_before_wait_returns_immediately() {
        let (req, completion) = Request::sync(Op::Put {
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        });
        req.finish(Ok(Response::Done));
        assert_eq!(completion.wait().unwrap(), Response::Done);
    }

    #[test]
    fn completion_slots_recycle_through_thread_pool() {
        // Fulfill from this thread: the worker-side Arc is dropped inside
        // `fulfill`, so `wait` observes sole ownership and recycles.
        let (req, waiter) = Request::sync(Op::Get { key: b"a".to_vec() });
        let first = Arc::as_ptr(match &req.completion {
            Completion::Sync(c) => c,
            _ => unreachable!(),
        });
        req.finish(Ok(Response::Done));
        waiter.wait().unwrap();
        let (req2, waiter2) = Request::sync(Op::Get { key: b"b".to_vec() });
        let second = Arc::as_ptr(match &req2.completion {
            Completion::Sync(c) => c,
            _ => unreachable!(),
        });
        assert_eq!(first, second, "slot came back from the freelist");
        req2.finish(Ok(Response::Done));
        waiter2.wait().unwrap();
    }

    #[test]
    fn recycled_slot_carries_no_stale_state() {
        let (req, waiter) = Request::sync(Op::Get { key: b"x".to_vec() });
        req.finish(Ok(Response::Value(Some(b"old".to_vec()))));
        assert_eq!(
            waiter.wait().unwrap(),
            Response::Value(Some(b"old".to_vec()))
        );
        // Reuse the slot for a request with a different result.
        let (req, waiter) = Request::sync(Op::Get { key: b"y".to_vec() });
        req.finish(Ok(Response::Value(None)));
        assert_eq!(waiter.wait().unwrap(), Response::Value(None));
    }

    #[test]
    fn async_completion_invokes_callback() {
        let (tx, rx) = std::sync::mpsc::channel();
        let req = Request::asynchronous(
            Op::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
            Box::new(move |r| tx.send(r.is_ok()).unwrap()),
        );
        req.finish(Ok(Response::Done));
        assert!(rx.recv().unwrap());
    }

    #[test]
    fn write_op_accessors() {
        let p = WriteOp::Put {
            key: b"k".to_vec(),
            value: b"vvv".to_vec(),
        };
        assert_eq!(p.key(), b"k");
        assert_eq!(p.size(), 4);
        let d = WriteOp::Delete {
            key: b"kk".to_vec(),
        };
        assert_eq!(d.size(), 2);
    }
}
