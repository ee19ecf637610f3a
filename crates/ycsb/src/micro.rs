//! `db_bench`-style micro workloads (Figs 1, 12–15).
//!
//! Five single-purpose operation streams: `fillseq`, `fillrandom`,
//! `overwrite`, `readseq`, `readrandom` — the exact set Fig 1 runs on the
//! three device profiles.

use p2kvs_util::rng::Rng;

use crate::generator::{KeySpace, Uniform};
use crate::runner::KvClient;
use crate::workload::OpKind;

/// The five micro workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroKind {
    /// Sequential PUT of fresh keys.
    FillSeq,
    /// Random PUT of fresh keys.
    FillRandom,
    /// Random UPDATE of existing keys.
    Overwrite,
    /// Sequential GET (forward scan order).
    ReadSeq,
    /// Random GET.
    ReadRandom,
}

impl MicroKind {
    /// All micro workloads in Fig 1 order.
    pub fn all() -> [MicroKind; 5] {
        use MicroKind::*;
        [FillSeq, FillRandom, Overwrite, ReadSeq, ReadRandom]
    }

    /// Display name (db_bench convention).
    pub fn name(&self) -> &'static str {
        match self {
            MicroKind::FillSeq => "fillseq",
            MicroKind::FillRandom => "fillrandom",
            MicroKind::Overwrite => "overwrite",
            MicroKind::ReadSeq => "readseq",
            MicroKind::ReadRandom => "readrandom",
        }
    }

    /// Whether the workload needs the table pre-loaded with `n` keys.
    pub fn needs_load(&self) -> bool {
        matches!(
            self,
            MicroKind::Overwrite | MicroKind::ReadSeq | MicroKind::ReadRandom
        )
    }
}

/// Per-thread micro-op stream over a key space of `n` items.
pub struct MicroGenerator {
    kind: MicroKind,
    ordered: KeySpace,
    hashed: KeySpace,
    uniform: Uniform,
    n: u64,
    cursor: u64,
    thread: u64,
    value_size: usize,
    rng: Rng,
}

impl MicroGenerator {
    /// Creates the stream for `thread` over `n` existing keys.
    pub fn new(kind: MicroKind, n: u64, value_size: usize, thread: u64) -> MicroGenerator {
        MicroGenerator {
            kind,
            ordered: KeySpace::ordered(),
            hashed: KeySpace::hashed(),
            uniform: Uniform::new(n.max(1)),
            n: n.max(1),
            cursor: 0,
            thread,
            value_size,
            rng: Rng::new(0xabcd ^ thread),
        }
    }

    /// Next operation.
    pub fn next_op(&mut self) -> OpKind {
        let i = self.cursor;
        self.cursor += 1;
        match self.kind {
            MicroKind::FillSeq => {
                // Thread-striped ordered keys.
                let idx = i * 1024 + self.thread;
                OpKind::Insert {
                    key: self.ordered.key(idx),
                    value: self.ordered.value(idx, self.value_size),
                }
            }
            MicroKind::FillRandom => {
                let idx = i * 1024 + self.thread;
                OpKind::Insert {
                    key: self.hashed.key(idx),
                    value: self.hashed.value(idx, self.value_size),
                }
            }
            MicroKind::Overwrite => {
                let idx = self.uniform.next(&mut self.rng);
                OpKind::Update {
                    key: self.hashed.key(idx),
                    value: self.hashed.value(idx ^ i, self.value_size),
                }
            }
            MicroKind::ReadSeq => OpKind::Read {
                key: self.hashed.key(i % self.n),
            },
            MicroKind::ReadRandom => OpKind::Read {
                key: self.hashed.key(self.uniform.next(&mut self.rng)),
            },
        }
    }
}

/// Runs `ops` micro operations with `threads` threads; returns completed
/// ops and elapsed seconds (errors count as completed for timing).
pub fn run_micro<C: KvClient + ?Sized>(
    client: &C,
    kind: MicroKind,
    existing: u64,
    ops: u64,
    value_size: usize,
    threads: usize,
) -> crate::runner::RunResult {
    use std::sync::atomic::{AtomicU64, Ordering};
    let remaining = AtomicU64::new(ops);
    let start = std::time::Instant::now();
    let results: Vec<(p2kvs_util::histogram::Histogram, u64, u64)> =
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads.max(1) {
                let remaining = &remaining;
                let mut gen = MicroGenerator::new(kind, existing, value_size, t as u64);
                handles.push(scope.spawn(move || {
                    let mut hist = p2kvs_util::histogram::Histogram::new();
                    let mut done = 0u64;
                    let mut errors = 0u64;
                    loop {
                        if remaining
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                                v.checked_sub(1)
                            })
                            .is_err()
                        {
                            break;
                        }
                        let op = gen.next_op();
                        let t0 = std::time::Instant::now();
                        let ok = match op {
                            OpKind::Insert { key, value } => client.insert(&key, &value).is_ok(),
                            OpKind::Update { key, value } => client.update(&key, &value).is_ok(),
                            OpKind::Read { key } => client.read(&key).is_ok(),
                            _ => unreachable!("micro workloads have no scans"),
                        };
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
                .map(|h| h.join().expect("micro thread panicked"))
                .collect()
        });
    let elapsed = start.elapsed();
    let mut latency = p2kvs_util::histogram::Histogram::new();
    let mut total = 0;
    let mut errors = 0;
    for (h, d, e) in results {
        latency.merge(&h);
        total += d;
        errors += e;
    }
    crate::runner::RunResult {
        ops: total,
        elapsed,
        latency,
        errors,
    }
}

/// Loads `n` hashed keys (prerequisite of overwrite/readseq/readrandom).
pub fn load_hashed<C: KvClient + ?Sized>(client: &C, n: u64, value_size: usize, threads: usize) {
    use std::sync::atomic::{AtomicU64, Ordering};
    let next = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            let next = &next;
            scope.spawn(move || {
                let keys = KeySpace::hashed();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    let _ = client.insert(&keys.key(i), &keys.value(i, value_size));
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2kvs_util::sync::Mutex;
    use std::collections::HashMap;

    #[derive(Default)]
    struct MapClient {
        map: Mutex<HashMap<Vec<u8>, Vec<u8>>>,
    }

    impl KvClient for MapClient {
        fn insert(&self, key: &[u8], value: &[u8]) -> Result<(), String> {
            self.map.lock().insert(key.to_vec(), value.to_vec());
            Ok(())
        }
        fn read(&self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
            Ok(self.map.lock().get(key).cloned())
        }
        fn scan(&self, _key: &[u8], len: usize) -> Result<usize, String> {
            Ok(len)
        }
    }

    #[test]
    fn fillseq_produces_ordered_unique_keys() {
        let mut g = MicroGenerator::new(MicroKind::FillSeq, 0, 16, 0);
        let mut last = Vec::new();
        for _ in 0..100 {
            if let OpKind::Insert { key, .. } = g.next_op() {
                assert!(key > last, "fillseq keys must be increasing");
                last = key;
            } else {
                panic!("fillseq must insert");
            }
        }
    }

    #[test]
    fn fillrandom_keys_unique_across_threads() {
        let mut g0 = MicroGenerator::new(MicroKind::FillRandom, 0, 16, 0);
        let mut g1 = MicroGenerator::new(MicroKind::FillRandom, 0, 16, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            for g in [&mut g0, &mut g1] {
                if let OpKind::Insert { key, .. } = g.next_op() {
                    assert!(seen.insert(key));
                }
            }
        }
    }

    #[test]
    fn run_micro_full_cycle() {
        let client = MapClient::default();
        load_hashed(&client, 1000, 16, 4);
        assert_eq!(client.map.lock().len(), 1000);
        for kind in MicroKind::all() {
            let r = run_micro(&client, kind, 1000, 2000, 16, 4);
            assert_eq!(r.ops, 2000, "{}", kind.name());
            assert_eq!(r.errors, 0);
        }
        // readrandom after load hits existing keys.
        let keys = KeySpace::hashed();
        assert!(client.map.lock().contains_key(&keys.key(0)));
    }

    #[test]
    fn names_and_load_requirements() {
        assert_eq!(MicroKind::FillSeq.name(), "fillseq");
        assert!(!MicroKind::FillSeq.needs_load());
        assert!(MicroKind::ReadRandom.needs_load());
        assert!(MicroKind::Overwrite.needs_load());
        assert_eq!(MicroKind::all().len(), 5);
    }
}
