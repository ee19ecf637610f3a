//! Accessing-layer micro-benchmarks: the user-thread → worker handoff in
//! isolation (no engine).
//!
//! Measures the two costs the paper's §4.1 accessing layer must keep far
//! below one KV operation: **enqueue → completion round-trip latency**
//! and **fan-in throughput** (N synchronous user threads hammering one
//! worker queue), for both queue implementations:
//!
//! * `ring` — the production lock-free bounded MPSC ring
//!   ([`p2kvs::queue::RequestQueue`]);
//! * `mutex` — the previous Mutex + Condvar queue, kept here as
//!   [`MutexQueue`] precisely so this comparison cannot rot.
//!
//! The consumer side is an echo worker: it drains OBM batches with the
//! production `pop_batch_into` semantics and completes every request
//! immediately, so the numbers contain only accessing-layer work. The
//! [`run_default_sweep`] entry point emits the `BENCH_accessing.json`
//! artifact consumed by CI and `EXPERIMENTS.md`.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use p2kvs::queue::RequestQueue;
use p2kvs::types::{Op, OpClass, Request, Response};

/// Which queue implementation a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueImpl {
    /// The production lock-free bounded MPSC ring.
    Ring,
    /// The Mutex + Condvar baseline.
    Mutex,
}

impl QueueImpl {
    /// Artifact label.
    pub fn label(self) -> &'static str {
        match self {
            QueueImpl::Ring => "ring",
            QueueImpl::Mutex => "mutex",
        }
    }
}

/// The framework's original Mutex + Condvar queue, the baseline the ring
/// is measured against: unbounded, one lock acquisition plus one notify
/// per push.
#[derive(Default)]
pub struct MutexQueue {
    inner: Mutex<MutexQueueInner>,
    cv: Condvar,
}

#[derive(Default)]
struct MutexQueueInner {
    queue: VecDeque<Request>,
    closed: bool,
}

impl MutexQueue {
    /// Creates an empty queue.
    pub fn new() -> MutexQueue {
        MutexQueue::default()
    }

    /// Enqueues `req`; `Err(req)` if closed.
    pub fn push(&self, req: Request) -> Result<(), Request> {
        let mut inner = self.inner.lock().expect("mutex queue");
        if inner.closed {
            return Err(req);
        }
        inner.queue.push_back(req);
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocking batch pop with the same OBM semantics as
    /// [`RequestQueue::pop_batch_into`].
    pub fn pop_batch_into(&self, max: usize, batch: &mut Vec<Request>) -> bool {
        batch.clear();
        let mut inner = self.inner.lock().expect("mutex queue");
        loop {
            if let Some(first) = inner.queue.pop_front() {
                let class = first.op.class();
                batch.push(first);
                if class != OpClass::Solo {
                    while batch.len() < max
                        && inner.queue.front().is_some_and(|r| r.op.class() == class)
                    {
                        batch.push(inner.queue.pop_front().expect("front just checked"));
                    }
                }
                return true;
            }
            if inner.closed {
                return false;
            }
            inner = self.cv.wait(inner).expect("mutex queue");
        }
    }

    /// Closes the queue: waiting consumers drain what is left and stop.
    pub fn close(&self) {
        self.inner.lock().expect("mutex queue").closed = true;
        self.cv.notify_all();
    }
}

enum AnyQueue {
    Ring(RequestQueue),
    Mutex(MutexQueue),
}

impl AnyQueue {
    fn new(imp: QueueImpl, capacity: usize) -> AnyQueue {
        match imp {
            QueueImpl::Ring => AnyQueue::Ring(RequestQueue::with_capacity(capacity)),
            QueueImpl::Mutex => AnyQueue::Mutex(MutexQueue::new()),
        }
    }

    fn push(&self, req: Request) -> Result<(), Request> {
        match self {
            AnyQueue::Ring(q) => q.push(req),
            AnyQueue::Mutex(q) => q.push(req),
        }
    }

    fn pop_batch_into(&self, max: usize, batch: &mut Vec<Request>) -> bool {
        match self {
            AnyQueue::Ring(q) => q.pop_batch_into(max, batch),
            AnyQueue::Mutex(q) => q.pop_batch_into(max, batch),
        }
    }

    fn close(&self) {
        match self {
            AnyQueue::Ring(q) => q.close(),
            AnyQueue::Mutex(q) => q.close(),
        }
    }
}

/// One fan-in measurement.
#[derive(Debug, Clone)]
pub struct FanInResult {
    /// Queue implementation label (`ring` / `mutex`).
    pub queue: &'static str,
    /// Client shape: `round_trip` (one outstanding sync op per thread —
    /// the latency floor) or `pipelined` (a window of outstanding async
    /// ops per thread — the throughput shape).
    pub mode: &'static str,
    /// Outstanding requests each user thread keeps in flight (1 for
    /// `round_trip`).
    pub window: usize,
    /// Synchronous user threads.
    pub threads: usize,
    /// Total completed round trips.
    pub ops: usize,
    /// Wall time for the whole run.
    pub elapsed_secs: f64,
    /// Completed round trips per second (all threads).
    pub ops_per_sec: f64,
    /// Mean OBM batch size observed by the echo worker
    /// (`WorkerStats::avg_batch_size` equivalent for this harness).
    pub avg_batch: f64,
    /// Median enqueue→completion round trip.
    pub p50_rt_ns: u64,
    /// Tail enqueue→completion round trip.
    pub p99_rt_ns: u64,
}

/// Runs `threads` synchronous producers against one echo consumer on the
/// given queue implementation. Every producer performs `ops_per_thread`
/// blocking PUT round trips (16 B keys, 100 B values — the paper's
/// default record shape) and records each round-trip latency.
pub fn fan_in(
    imp: QueueImpl,
    threads: usize,
    ops_per_thread: usize,
    batch_max: usize,
) -> FanInResult {
    let queue = Arc::new(AnyQueue::new(imp, 1024));

    let consumer = {
        let queue = queue.clone();
        thread::spawn(move || {
            let mut batch = Vec::with_capacity(batch_max);
            let mut batches = 0u64;
            let mut ops = 0u64;
            while queue.pop_batch_into(batch_max, &mut batch) {
                batches += 1;
                ops += batch.len() as u64;
                for req in batch.drain(..) {
                    req.finish(Ok(Response::Done));
                }
            }
            (ops, batches)
        })
    };

    let start = Instant::now();
    let producers: Vec<_> = (0..threads)
        .map(|t| {
            let queue = queue.clone();
            thread::spawn(move || {
                let mut lat = Vec::with_capacity(ops_per_thread);
                let value = vec![0xabu8; 100];
                for i in 0..ops_per_thread {
                    let mut key = format!("user{t:02}num{i:08}").into_bytes();
                    key.truncate(16);
                    let began = Instant::now();
                    let (req, waiter) = Request::sync(Op::Put {
                        key,
                        value: value.clone(),
                    });
                    queue.push(req).ok().expect("queue open");
                    waiter.wait().expect("echo worker fulfills");
                    lat.push(began.elapsed().as_nanos() as u64);
                }
                lat
            })
        })
        .collect();

    let mut latencies: Vec<u64> = Vec::with_capacity(threads * ops_per_thread);
    for p in producers {
        latencies.extend(p.join().expect("producer"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    queue.close();
    let (ops, batches) = consumer.join().expect("consumer");

    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    FanInResult {
        queue: imp.label(),
        mode: "round_trip",
        window: 1,
        threads,
        ops: ops as usize,
        elapsed_secs: elapsed,
        ops_per_sec: ops as f64 / elapsed.max(1e-9),
        avg_batch: if batches == 0 {
            0.0
        } else {
            ops as f64 / batches as f64
        },
        p50_rt_ns: pct(0.50),
        p99_rt_ns: pct(0.99),
    }
}

/// Like [`fan_in`], but each user thread keeps a `window` of asynchronous
/// requests outstanding instead of blocking on every op. This is the
/// throughput shape: the handoff cost itself dominates (no context
/// switch per op), so it is where the lock-free ring separates from the
/// mutex baseline — and where OBM sees deep queues and forms real
/// batches. Latency percentiles are enqueue→completion (queueing delay
/// under window pressure included).
pub fn pipelined(
    imp: QueueImpl,
    threads: usize,
    ops_per_thread: usize,
    batch_max: usize,
    window: usize,
) -> FanInResult {
    let queue = Arc::new(AnyQueue::new(imp, 1024));

    let consumer = {
        let queue = queue.clone();
        thread::spawn(move || {
            let mut batch = Vec::with_capacity(batch_max);
            let mut batches = 0u64;
            let mut ops = 0u64;
            while queue.pop_batch_into(batch_max, &mut batch) {
                batches += 1;
                ops += batch.len() as u64;
                for req in batch.drain(..) {
                    req.finish(Ok(Response::Done));
                }
            }
            (ops, batches)
        })
    };

    // Latency is sampled 1-in-16: instrumenting every op would add two
    // clock reads per request and dilute the queue cost being measured.
    const LAT_SAMPLE: usize = 16;
    let start = Instant::now();
    let producers: Vec<_> = (0..threads)
        .map(|_| {
            let queue = queue.clone();
            thread::spawn(move || {
                let inflight = Arc::new(AtomicUsize::new(0));
                let lat: Arc<Vec<AtomicU64>> = Arc::new(
                    (0..ops_per_thread.div_ceil(LAT_SAMPLE))
                        .map(|_| AtomicU64::new(0))
                        .collect(),
                );
                for i in 0..ops_per_thread {
                    while inflight.load(Ordering::Acquire) >= window {
                        thread::yield_now();
                    }
                    inflight.fetch_add(1, Ordering::AcqRel);
                    let inflight = inflight.clone();
                    let op = Op::Put {
                        key: (i as u64).to_le_bytes().to_vec(),
                        value: vec![0xabu8; 100],
                    };
                    let req = if i % LAT_SAMPLE == 0 {
                        let lat = lat.clone();
                        let began = Instant::now();
                        Request::asynchronous(
                            op,
                            Box::new(move |_| {
                                lat[i / LAT_SAMPLE]
                                    .store(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
                                inflight.fetch_sub(1, Ordering::AcqRel);
                            }),
                        )
                    } else {
                        Request::asynchronous(
                            op,
                            Box::new(move |_| {
                                inflight.fetch_sub(1, Ordering::AcqRel);
                            }),
                        )
                    };
                    queue.push(req).ok().expect("queue open");
                }
                while inflight.load(Ordering::Acquire) > 0 {
                    thread::yield_now();
                }
                lat.iter()
                    .map(|l| l.load(Ordering::Relaxed))
                    .collect::<Vec<u64>>()
            })
        })
        .collect();

    let mut latencies: Vec<u64> = Vec::with_capacity(threads * ops_per_thread);
    for p in producers {
        latencies.extend(p.join().expect("producer"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    queue.close();
    let (ops, batches) = consumer.join().expect("consumer");

    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    FanInResult {
        queue: imp.label(),
        mode: "pipelined",
        window,
        threads,
        ops: ops as usize,
        elapsed_secs: elapsed,
        ops_per_sec: ops as f64 / elapsed.max(1e-9),
        avg_batch: if batches == 0 {
            0.0
        } else {
            ops as f64 / batches as f64
        },
        p50_rt_ns: pct(0.50),
        p99_rt_ns: pct(0.99),
    }
}

/// Outstanding ops per thread in the pipelined sweep (batched clients).
pub const PIPELINE_WINDOW: usize = 64;

/// Both-mode sweep over `thread_counts` for both queue implementations.
pub fn sweep(thread_counts: &[usize], ops_per_thread: usize, batch_max: usize) -> Vec<FanInResult> {
    let mut out = Vec::new();
    for &threads in thread_counts {
        for imp in [QueueImpl::Mutex, QueueImpl::Ring] {
            out.push(fan_in(imp, threads, ops_per_thread, batch_max));
            out.push(pipelined(
                imp,
                threads,
                ops_per_thread,
                batch_max,
                PIPELINE_WINDOW,
            ));
        }
    }
    out
}

/// Ring/mutex pipelined-throughput ratio at `threads` (0.0 when either
/// side is absent).
pub fn speedup_at(results: &[FanInResult], threads: usize) -> f64 {
    let find = |label: &str| {
        results
            .iter()
            .find(|r| r.queue == label && r.mode == "pipelined" && r.threads == threads)
            .map(|r| r.ops_per_sec)
    };
    match (find("ring"), find("mutex")) {
        (Some(ring), Some(mutex)) if mutex > 0.0 => ring / mutex,
        _ => 0.0,
    }
}

/// Renders results as the `BENCH_accessing.json` artifact.
pub fn render_json(results: &[FanInResult], ops_per_thread: usize, batch_max: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        &crate::artifact::RunMeta::new("accessing", 0)
            .num("ops_per_thread", ops_per_thread)
            .num("batch_max", batch_max)
            .render(),
    );
    s.push_str(&format!(
        "  \"speedup_ring_vs_mutex_at_8_threads\": {:.3},\n",
        speedup_at(results, 8)
    ));
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"queue\": \"{}\", \"mode\": \"{}\", \"window\": {}, \"threads\": {}, \
             \"ops\": {}, \"elapsed_secs\": {:.6}, \"ops_per_sec\": {:.1}, \"avg_batch\": {:.3}, \
             \"p50_rt_ns\": {}, \"p99_rt_ns\": {}}}{}\n",
            r.queue,
            r.mode,
            r.window,
            r.threads,
            r.ops,
            r.elapsed_secs,
            r.ops_per_sec,
            r.avg_batch,
            r.p50_rt_ns,
            r.p99_rt_ns,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Where the artifact goes: `$P2KVS_METRICS_DIR` when set (alongside the
/// per-run metrics artifacts), the working directory otherwise.
pub fn artifact_path() -> PathBuf {
    match std::env::var(crate::artifact::METRICS_DIR_ENV) {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir).join("BENCH_accessing.json"),
        _ => PathBuf::from("BENCH_accessing.json"),
    }
}

/// Runs the default sweep (1/2/4/8/16 user threads, both client shapes,
/// `M = 32`, op count scaled by `P2KVS_SCALE`) and writes
/// `BENCH_accessing.json` to `path`.
pub fn run_default_sweep(path: &Path) -> std::io::Result<Vec<FanInResult>> {
    let ops_per_thread = crate::scaled(20_000) as usize;
    let batch_max = 32;
    let results = sweep(&[1, 2, 4, 8, 16], ops_per_thread, batch_max);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_json(&results, ops_per_thread, batch_max))?;
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_queue_baseline_matches_semantics() {
        let put = |k: &str| {
            let op = Op::Put {
                key: k.as_bytes().to_vec(),
                value: b"v".to_vec(),
            };
            Request::sync(op).0
        };
        let q = MutexQueue::new();
        q.push(put("1")).ok().unwrap();
        q.push(put("2")).ok().unwrap();
        q.push(Request::sync(Op::Get { key: b"3".to_vec() }).0)
            .ok()
            .unwrap();
        let mut batch = Vec::new();
        assert!(q.pop_batch_into(32, &mut batch));
        assert_eq!(batch.len(), 2, "the write run, not the read behind it");
        assert!(q.pop_batch_into(32, &mut batch));
        assert_eq!(batch.len(), 1);
        q.close();
        assert!(q.push(put("rejected")).is_err());
        assert!(!q.pop_batch_into(32, &mut batch), "closed and drained");
    }

    #[test]
    fn fan_in_completes_and_reports() {
        let r = fan_in(QueueImpl::Ring, 2, 200, 32);
        assert_eq!(r.ops, 400);
        assert!(r.ops_per_sec > 0.0);
        assert!(r.avg_batch >= 1.0);
        assert!(r.p50_rt_ns <= r.p99_rt_ns);
        let m = fan_in(QueueImpl::Mutex, 2, 200, 32);
        assert_eq!(m.ops, 400);
    }

    #[test]
    fn pipelined_completes_and_reports() {
        let r = pipelined(QueueImpl::Ring, 2, 300, 32, 16);
        assert_eq!(r.ops, 600);
        assert_eq!(r.mode, "pipelined");
        assert!(r.avg_batch >= 1.0);
        let m = pipelined(QueueImpl::Mutex, 2, 300, 32, 16);
        assert_eq!(m.ops, 600);
    }

    #[test]
    fn json_render_is_complete() {
        let results = sweep(&[1], 50, 32);
        let json = render_json(&results, 50, 32);
        assert!(json.contains("\"bench\": \"accessing\""));
        assert!(json.contains("\"queue\": \"ring\""));
        assert!(json.contains("\"queue\": \"mutex\""));
        assert!(json.contains("\"mode\": \"pipelined\""));
        assert!(json.contains("\"mode\": \"round_trip\""));
        assert!(json.contains("speedup_ring_vs_mutex_at_8_threads"));
    }
}
