//! Multi-threaded workload runner.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use p2kvs_util::histogram::Histogram;
use p2kvs_util::rate::RateLimiter;

use crate::workload::{OpKind, OpGenerator, Workload};

/// The client interface the runner drives. Implemented by the bench crate
/// for every engine and for the p2KVS store.
pub trait KvClient: Send + Sync {
    /// Insert or update.
    fn insert(&self, key: &[u8], value: &[u8]) -> Result<(), String>;

    /// Point lookup.
    fn read(&self, key: &[u8]) -> Result<Option<Vec<u8>>, String>;

    /// Update (defaults to insert semantics).
    fn update(&self, key: &[u8], value: &[u8]) -> Result<(), String> {
        self.insert(key, value)
    }

    /// Scan `len` items from `key`; returns the number retrieved.
    fn scan(&self, key: &[u8], len: usize) -> Result<usize, String>;
}

/// Run parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Client (user) threads.
    pub threads: usize,
    /// Offered load in ops/s across all threads (0 = unlimited).
    pub rate_limit: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 1,
            rate_limit: 0,
        }
    }
}

/// Aggregate results of one run.
#[derive(Clone)]
pub struct RunResult {
    /// Operations completed.
    pub ops: u64,
    /// Wall time.
    pub elapsed: Duration,
    /// Per-operation latency (nanoseconds).
    pub latency: Histogram,
    /// Operations that returned an error.
    pub errors: u64,
}

impl RunResult {
    /// Throughput in operations per second.
    pub fn qps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{:.0} ops/s over {} ops ({:.2}s); lat {}",
            self.qps(),
            self.ops,
            self.elapsed.as_secs_f64(),
            self.latency.summary_us()
        )
    }
}

/// Pre-loads `spec.record_count` records via `threads` loader threads.
pub fn load_table<C: KvClient + ?Sized>(client: &C, spec: &Workload, threads: usize) -> Result<(), String> {
    let next = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let mut handles: Vec<std::thread::ScopedJoinHandle<'_, Result<(), String>>> = Vec::new();
        for _ in 0..threads.max(1) {
            let next = &next;
            handles.push(scope.spawn(move || {
                let keys = crate::generator::KeySpace::hashed();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= spec.record_count {
                        return Ok(());
                    }
                    client.insert(&keys.key(i), &keys.value(i, spec.value_size))?;
                }
            }));
        }
        for h in handles {
            h.join().expect("loader thread panicked")?;
        }
        Ok(())
    })
}

/// Runs `spec.op_count` operations against `client` with `config.threads`
/// user threads, each drawing from its own generator.
pub fn run_workload<C: KvClient + ?Sized>(client: &C, spec: &Workload, config: &RunConfig) -> RunResult {
    let threads = config.threads.max(1);
    let remaining = AtomicU64::new(spec.op_count);
    let limiter = RateLimiter::new(config.rate_limit);
    let start = Instant::now();
    let results: Vec<(Histogram, u64, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let remaining = &remaining;
            let limiter = &limiter;
            let mut gen: OpGenerator = spec.generator(t);
            handles.push(scope.spawn(move || {
                let mut hist = Histogram::new();
                let mut done = 0u64;
                let mut errors = 0u64;
                loop {
                    if remaining
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                        .is_err()
                    {
                        break;
                    }
                    let op = gen.next_op();
                    limiter.acquire();
                    let t0 = Instant::now();
                    let ok = execute(client, op);
                    hist.record(t0.elapsed().as_nanos() as u64);
                    done += 1;
                    if !ok {
                        errors += 1;
                    }
                }
                (hist, done, errors)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut latency = Histogram::new();
    let mut ops = 0;
    let mut errors = 0;
    for (h, d, e) in results {
        latency.merge(&h);
        ops += d;
        errors += e;
    }
    RunResult {
        ops,
        elapsed,
        latency,
        errors,
    }
}

fn execute<C: KvClient + ?Sized>(client: &C, op: OpKind) -> bool {
    match op {
        OpKind::Insert { key, value } => client.insert(&key, &value).is_ok(),
        OpKind::Update { key, value } => client.update(&key, &value).is_ok(),
        OpKind::Read { key } => client.read(&key).is_ok(),
        OpKind::Scan { key, len } => client.scan(&key, len).is_ok(),
        OpKind::ReadModifyWrite { key, value } => {
            client.read(&key).is_ok() && client.update(&key, &value).is_ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadKind;
    use p2kvs_util::sync::Mutex;
    use std::collections::HashMap;

    /// In-memory reference client.
    #[derive(Default)]
    struct MapClient {
        map: Mutex<HashMap<Vec<u8>, Vec<u8>>>,
        reads: AtomicU64,
        writes: AtomicU64,
    }

    impl KvClient for MapClient {
        fn insert(&self, key: &[u8], value: &[u8]) -> Result<(), String> {
            self.writes.fetch_add(1, Ordering::Relaxed);
            self.map.lock().insert(key.to_vec(), value.to_vec());
            Ok(())
        }

        fn read(&self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            Ok(self.map.lock().get(key).cloned())
        }

        fn scan(&self, _key: &[u8], len: usize) -> Result<usize, String> {
            Ok(len)
        }
    }

    #[test]
    fn load_then_run_completes_exact_op_count() {
        let client = MapClient::default();
        let spec = Workload::table1(WorkloadKind::A, 1000, 5000);
        load_table(&client, &spec, 4).unwrap();
        assert_eq!(client.map.lock().len(), 1000);
        let result = run_workload(&client, &spec, &RunConfig { threads: 4, rate_limit: 0 });
        assert_eq!(result.ops, 5000);
        assert_eq!(result.errors, 0);
        assert!(result.qps() > 0.0);
        assert_eq!(result.latency.count(), 5000);
        // Workload A reads should mostly hit loaded keys.
        assert!(client.reads.load(Ordering::Relaxed) > 2000);
    }

    #[test]
    fn rate_limit_caps_throughput() {
        let client = MapClient::default();
        let spec = Workload::table1(WorkloadKind::C, 100, 500);
        load_table(&client, &spec, 1).unwrap();
        let result = run_workload(
            &client,
            &spec,
            &RunConfig {
                threads: 2,
                rate_limit: 10_000,
            },
        );
        assert!(
            result.elapsed >= Duration::from_millis(40),
            "500 ops at 10k/s should take ≥ 50ms, took {:?}",
            result.elapsed
        );
    }

    #[test]
    fn summary_renders() {
        let client = MapClient::default();
        let spec = Workload::table1(WorkloadKind::C, 10, 10);
        load_table(&client, &spec, 1).unwrap();
        let result = run_workload(&client, &spec, &RunConfig::default());
        let s = result.summary();
        assert!(s.contains("ops/s"));
    }
}
