//! The one client harness every figure runs: the paper's Table-1 YCSB
//! mixes (LOAD, A–F) and the five `db_bench` micro streams of Figs 1 and
//! 12–15, the zipfian sampler they draw from, and the one [`load`] and one
//! [`drive`] that push them through any [`KvClient`] — so the same request
//! bytes hit RocksDB-mode `lsmkv`, p2KVS, KVell and WiredTiger.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use p2kvs::KvsEngine;
use p2kvs_util::hash::{fnv1a64, mix64};
use p2kvs_util::histogram::Histogram;
use p2kvs_util::rate::RateLimiter;
use p2kvs_util::rng::Rng;

use crate::setups::value_of;

/// Zipfian skew of YCSB (θ = 0.99), the request skew of Table 1.
pub const THETA: f64 = 0.99;

/// Zipfian sampler over `n` ranks via an explicit CDF table: exact, where
/// the usual rejection method (Gray et al.) approximates, at `8n` bytes
/// and a binary search per draw. Rank 0 is the hottest.
pub struct Zipf {
    pub(crate) cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution: rank `r` has mass `∝ 1/(r+1)^theta`.
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Maps a uniform draw to a rank.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }

    /// Smallest count of leading (hottest) ranks whose combined mass
    /// reaches `mass` — the cache bench's hot-set size.
    pub fn head_count(&self, mass: f64) -> usize {
        (self.cdf.partition_point(|c| *c < mass) + 1).min(self.cdf.len())
    }
}

/// The calls [`load`] and [`drive`] make.
pub trait KvClient: Send + Sync {
    /// Insert or update.
    fn insert(&self, key: &[u8], value: &[u8]) -> Result<(), String>;

    /// Point lookup.
    fn read(&self, key: &[u8]) -> Result<Option<Vec<u8>>, String>;

    /// Scan `len` items from `key`; returns the number retrieved.
    fn scan(&self, key: &[u8], len: usize) -> Result<usize, String>;
}

/// An engine instance is a client as it is: one shared instance the user
/// threads call directly (KVell, WiredTiger, lsmkv with default writes).
impl<E: KvsEngine> KvClient for E {
    fn insert(&self, key: &[u8], value: &[u8]) -> Result<(), String> {
        self.put(key, value).map_err(|e| e.to_string())
    }

    fn read(&self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.get(key).map_err(|e| e.to_string())
    }

    fn scan(&self, key: &[u8], len: usize) -> Result<usize, String> {
        KvsEngine::scan(self, key, len)
            .map(|v| v.len())
            .map_err(|e| e.to_string())
    }
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// PUT of a new key (LOAD, D, E inserts, fills).
    Insert { key: Vec<u8>, value: Vec<u8> },
    /// PUT over an existing key.
    Update { key: Vec<u8>, value: Vec<u8> },
    /// GET.
    Read { key: Vec<u8> },
    /// SCAN from `key` for `len` items.
    Scan { key: Vec<u8>, len: usize },
    /// GET then PUT of the same key (workload F).
    ReadModifyWrite { key: Vec<u8>, value: Vec<u8> },
}

/// Item `i`'s key in the hashed scheme (YCSB's): consecutive items land
/// far apart in key order.
pub fn hashed_key(i: u64) -> Vec<u8> {
    format!("user{:020}", fnv1a64(&i.to_le_bytes())).into_bytes()
}

/// Item `i`'s key in the ordered scheme (`fillseq`, the range figure):
/// key order is item order.
pub fn ordered_key(i: u64) -> Vec<u8> {
    format!("user{i:020}").into_bytes()
}

/// A source of op streams: thread `t` of a [`drive`] draws from
/// `thread(t)`, a function of `t` alone.
pub trait Stream: Sync {
    /// One thread's endless operation sequence.
    type Ops: Iterator<Item = OpKind>;

    /// Thread `t`'s stream.
    fn thread(&self, t: u64) -> Self::Ops;
}

/// Request distributions used by Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    Uniform,
    Zipfian,
    Latest,
}

/// Named workloads from Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// 100% PUT, uniform.
    Load,
    /// 50% UPDATE, 50% GET, zipfian.
    A,
    /// 5% UPDATE, 95% GET, zipfian.
    B,
    /// 100% GET, zipfian.
    C,
    /// 5% PUT, 95% GET, latest.
    D,
    /// 5% PUT, 95% SCAN, uniform.
    E,
    /// 50% RMW, 50% GET, zipfian.
    F,
}

impl WorkloadKind {
    /// All Table 1 workloads in order.
    pub fn all() -> [WorkloadKind; 7] {
        use WorkloadKind::*;
        [Load, A, B, C, D, E, F]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Load => "LOAD",
            WorkloadKind::A => "A",
            WorkloadKind::B => "B",
            WorkloadKind::C => "C",
            WorkloadKind::D => "D",
            WorkloadKind::E => "E",
            WorkloadKind::F => "F",
        }
    }

    /// The request distribution of Table 1.
    pub fn distribution(&self) -> Distribution {
        match self {
            WorkloadKind::Load | WorkloadKind::E => Distribution::Uniform,
            WorkloadKind::D => Distribution::Latest,
            _ => Distribution::Zipfian,
        }
    }
}

/// A fully parameterized Table-1 workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which Table 1 mix.
    pub kind: WorkloadKind,
    /// Records [`load`]ed before the run (existing key population).
    pub record_count: u64,
    /// Operations to perform.
    pub op_count: u64,
    /// Value size in bytes (paper default: 128-byte KV pairs).
    pub value_size: usize,
    /// Maximum SCAN length (workload E; YCSB default 100).
    pub max_scan_len: usize,
}

impl Workload {
    /// Builds a Table 1 workload with the paper's 128-byte values.
    pub fn table1(kind: WorkloadKind, record_count: u64, op_count: u64) -> Workload {
        Workload {
            kind,
            record_count,
            op_count,
            value_size: 128,
            max_scan_len: 100,
        }
    }
}

impl Stream for Workload {
    type Ops = OpGenerator;

    fn thread(&self, t: u64) -> OpGenerator {
        // A uniform stream never draws a rank: skip building its table.
        let n = match self.kind.distribution() {
            Distribution::Uniform => 1,
            _ => self.record_count.max(1) as usize,
        };
        OpGenerator {
            spec: self.clone(),
            zipf: Zipf::new(n, THETA),
            insert_cursor: 0,
            thread: t,
            rng: Rng::new(0x9e37 ^ t),
        }
    }
}

/// One thread's Table-1 operation stream.
pub struct OpGenerator {
    spec: Workload,
    zipf: Zipf,
    /// Next insert index (thread-striped so threads never collide).
    insert_cursor: u64,
    thread: u64,
    rng: Rng,
}

impl OpGenerator {
    /// An existing item drawn from the workload's distribution. A zipfian
    /// rank is scrambled over the key space (YCSB's
    /// `ScrambledZipfianGenerator`), so hot items are not key-order
    /// neighbours — what lets hash partitioning spread them over workers
    /// (§4.2); a latest draw counts back from the newest loaded item.
    fn item(&mut self) -> u64 {
        let n = self.spec.record_count.max(1);
        match self.spec.kind.distribution() {
            Distribution::Uniform => self.rng.below(n),
            Distribution::Zipfian => mix64(self.zipf.rank(self.rng.unit()) as u64) % n,
            Distribution::Latest => (n - 1).saturating_sub(self.zipf.rank(self.rng.unit()) as u64),
        }
    }

    fn read(&mut self) -> OpKind {
        OpKind::Read {
            key: hashed_key(self.item()),
        }
    }

    fn insert(&mut self) -> OpKind {
        let key = hashed_key(self.spec.record_count + self.insert_cursor * 1024 + self.thread);
        self.insert_cursor += 1;
        OpKind::Insert {
            value: value_of(&key, self.spec.value_size),
            key,
        }
    }

    /// Draws a write with probability `p`, else a read.
    fn mix(&mut self, p: f64, write: fn(&mut OpGenerator) -> OpKind) -> OpKind {
        if self.rng.unit() < p {
            write(self)
        } else {
            self.read()
        }
    }

    fn update(&mut self) -> OpKind {
        let key = hashed_key(self.item());
        OpKind::Update {
            value: value_of(&key, self.spec.value_size),
            key,
        }
    }
}

impl Iterator for OpGenerator {
    type Item = OpKind;

    fn next(&mut self) -> Option<OpKind> {
        Some(match self.spec.kind {
            WorkloadKind::Load => self.insert(),
            WorkloadKind::A => self.mix(0.50, OpGenerator::update),
            WorkloadKind::B => self.mix(0.05, OpGenerator::update),
            WorkloadKind::C => self.read(),
            WorkloadKind::D => self.mix(0.05, OpGenerator::insert),
            WorkloadKind::E => {
                if self.rng.unit() < 0.05 {
                    self.insert()
                } else {
                    let len = 1 + self.rng.below(self.spec.max_scan_len as u64) as usize;
                    OpKind::Scan {
                        key: hashed_key(self.item()),
                        len,
                    }
                }
            }
            WorkloadKind::F => self.mix(0.50, |g| {
                let key = hashed_key(g.item());
                OpKind::ReadModifyWrite {
                    value: value_of(&key, g.spec.value_size),
                    key,
                }
            }),
        })
    }
}

/// The five `db_bench` micro workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroKind {
    /// Sequential PUT of fresh keys.
    FillSeq,
    /// Random PUT of fresh keys.
    FillRandom,
    /// Random UPDATE of existing keys.
    Overwrite,
    /// Sequential GET (item order).
    ReadSeq,
    /// Random GET.
    ReadRandom,
}

impl MicroKind {
    /// Whether the workload needs the table pre-loaded with its
    /// `existing` items.
    pub fn needs_load(&self) -> bool {
        matches!(
            self,
            MicroKind::Overwrite | MicroKind::ReadSeq | MicroKind::ReadRandom
        )
    }
}

/// A micro workload over `existing` [`load`]ed items with `value_size`-byte
/// values. Fills write thread-striped fresh items, so threads never
/// collide.
#[derive(Debug, Clone, Copy)]
pub struct Micro {
    pub kind: MicroKind,
    pub existing: u64,
    pub value_size: usize,
}

impl Micro {
    /// The `kind` stream over `existing` items.
    pub fn new(kind: MicroKind, existing: u64, value_size: usize) -> Micro {
        Micro {
            kind,
            existing,
            value_size,
        }
    }
}

impl Stream for Micro {
    type Ops = MicroGenerator;

    fn thread(&self, t: u64) -> MicroGenerator {
        MicroGenerator {
            spec: *self,
            cursor: 0,
            thread: t,
            rng: Rng::new(0xabcd ^ t),
        }
    }
}

/// One thread's micro operation stream.
pub struct MicroGenerator {
    spec: Micro,
    cursor: u64,
    thread: u64,
    rng: Rng,
}

impl Iterator for MicroGenerator {
    type Item = OpKind;

    fn next(&mut self) -> Option<OpKind> {
        let (i, n) = (self.cursor, self.spec.existing.max(1));
        self.cursor += 1;
        let fresh = i * 1024 + self.thread;
        let key = match self.spec.kind {
            MicroKind::FillSeq => ordered_key(fresh),
            MicroKind::FillRandom => hashed_key(fresh),
            MicroKind::Overwrite | MicroKind::ReadRandom => hashed_key(self.rng.below(n)),
            MicroKind::ReadSeq => hashed_key(i % n),
        };
        let value = || value_of(&key, self.spec.value_size);
        Some(match self.spec.kind {
            MicroKind::FillSeq | MicroKind::FillRandom => OpKind::Insert {
                value: value(),
                key,
            },
            MicroKind::Overwrite => OpKind::Update {
                value: value(),
                key,
            },
            MicroKind::ReadSeq | MicroKind::ReadRandom => OpKind::Read { key },
        })
    }
}

/// Loads items `0..n` under their [`hashed_key`]s with [`value_of`]
/// values from 8 threads: the population Table 1's A–F and the read micro
/// streams run over. Returns the first failed insert.
pub fn load<C: KvClient + ?Sized>(client: &C, n: u64, value_size: usize) -> Result<(), String> {
    let next = AtomicU64::new(0);
    std::thread::scope(|s| {
        let loaders: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return Ok(());
                    }
                    let key = hashed_key(i);
                    client.insert(&key, &value_of(&key, value_size))?;
                })
            })
            .collect();
        loaders
            .into_iter()
            .try_for_each(|h| h.join().expect("loader thread"))
    })
}

/// How [`drive`] runs a stream.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Client threads.
    pub threads: usize,
    /// Operations across all threads.
    pub ops: u64,
    /// Pin client thread `t` to core `16 + t`, leaving the first cores to
    /// workers and background threads.
    pub pin: bool,
    /// Offered load in ops/s across all threads (0 = closed loop).
    pub rate: u64,
}

impl Run {
    /// `ops` closed-loop operations from `threads` threads.
    pub fn new(threads: usize, ops: u64, pin: bool) -> Run {
        Run {
            threads,
            ops,
            pin,
            rate: 0,
        }
    }
}

/// What one [`drive`] measured.
pub struct RunResult {
    /// Calls made.
    pub ops: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Wall time.
    pub elapsed: Duration,
    /// Per-call latency, nanoseconds.
    pub latency: Histogram,
}

impl RunResult {
    /// Successful calls per second: a failed call is not throughput.
    pub fn qps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            (self.ops - self.errors) as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Time the client threads spent inside calls, summed.
    pub fn fg_busy(&self) -> Duration {
        Duration::from_nanos(self.latency.sum() as u64)
    }
}

static FAILED_CALLS: AtomicU64 = AtomicU64::new(0);

/// Failed calls every [`drive`] in this process counted since the last
/// call: `repro` fails a figure that had any.
pub fn take_failed_calls() -> u64 {
    FAILED_CALLS.swap(0, Ordering::Relaxed)
}

/// Runs `run.ops` operations of `stream` against `client` from
/// `run.threads` threads, thread `t` drawing from `stream.thread(t)`.
pub fn drive<C: KvClient + ?Sized>(client: &C, stream: &impl Stream, run: Run) -> RunResult {
    let remaining = AtomicU64::new(run.ops);
    let limiter = RateLimiter::new(run.rate);
    let start = Instant::now();
    let threads: Vec<(Histogram, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..run.threads.max(1))
            .map(|t| {
                let (remaining, limiter) = (&remaining, &limiter);
                s.spawn(move || {
                    if run.pin {
                        p2kvs_util::affinity::pin_to_core(16 + t);
                    }
                    let (mut latency, mut errors) = (Histogram::new(), 0);
                    for op in stream.thread(t as u64) {
                        if remaining
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                                v.checked_sub(1)
                            })
                            .is_err()
                        {
                            break;
                        }
                        limiter.acquire();
                        let began = Instant::now();
                        errors += u64::from(!execute(client, op));
                        latency.record(began.elapsed().as_nanos() as u64);
                    }
                    (latency, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed();
    let (mut latency, mut errors) = (Histogram::new(), 0);
    for (h, e) in threads {
        latency.merge(&h);
        errors += e;
    }
    FAILED_CALLS.fetch_add(errors, Ordering::Relaxed);
    RunResult {
        ops: latency.count(),
        errors,
        elapsed,
        latency,
    }
}

/// Runs `op`; false when a call failed.
fn execute<C: KvClient + ?Sized>(client: &C, op: OpKind) -> bool {
    match op {
        OpKind::Insert { key, value } | OpKind::Update { key, value } => {
            client.insert(&key, &value).is_ok()
        }
        OpKind::Read { key } => client.read(&key).is_ok(),
        OpKind::Scan { key, len } => client.scan(&key, len).is_ok(),
        OpKind::ReadModifyWrite { key, value } => {
            client.read(&key).is_ok() && client.insert(&key, &value).is_ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2kvs_util::sync::Mutex;
    use std::collections::{HashMap, HashSet};

    /// In-memory reference client; with `fail_every` = k > 0, every k-th
    /// insert it receives fails.
    #[derive(Default)]
    struct MapClient {
        map: Mutex<HashMap<Vec<u8>, Vec<u8>>>,
        inserts: AtomicU64,
        reads: AtomicU64,
        fail_every: u64,
    }

    impl KvClient for MapClient {
        fn insert(&self, key: &[u8], value: &[u8]) -> Result<(), String> {
            let n = self.inserts.fetch_add(1, Ordering::Relaxed) + 1;
            if n.is_multiple_of(self.fail_every) {
                return Err("injected".into());
            }
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

    fn count_ops(kind: WorkloadKind, n: usize) -> HashMap<&'static str, usize> {
        let mut g = Workload::table1(kind, 10_000, n as u64).thread(0);
        let mut counts = HashMap::new();
        for op in g.by_ref().take(n) {
            let label = match op {
                OpKind::Insert { .. } => "insert",
                OpKind::Update { .. } => "update",
                OpKind::Read { .. } => "read",
                OpKind::Scan { .. } => "scan",
                OpKind::ReadModifyWrite { .. } => "rmw",
            };
            *counts.entry(label).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn load_is_all_inserts() {
        let c = count_ops(WorkloadKind::Load, 1000);
        assert_eq!(c["insert"], 1000);
    }

    #[test]
    fn workload_a_is_half_updates() {
        let c = count_ops(WorkloadKind::A, 20_000);
        let updates = c["update"] as f64 / 20_000.0;
        assert!((0.45..0.55).contains(&updates), "update ratio {updates}");
    }

    #[test]
    fn workload_b_is_mostly_reads() {
        let c = count_ops(WorkloadKind::B, 20_000);
        assert!(c["read"] > 18_000);
        assert!(c["update"] > 500);
    }

    #[test]
    fn workload_c_is_all_reads() {
        let c = count_ops(WorkloadKind::C, 1000);
        assert_eq!(c["read"], 1000);
    }

    #[test]
    fn workload_d_inserts_and_reads() {
        let c = count_ops(WorkloadKind::D, 20_000);
        assert!(c["read"] > 18_000);
        assert!(c["insert"] > 500);
    }

    #[test]
    fn workload_e_scans() {
        let c = count_ops(WorkloadKind::E, 20_000);
        assert!(c["scan"] > 18_000);
        assert!(c["insert"] > 500);
    }

    #[test]
    fn workload_f_has_rmw() {
        let c = count_ops(WorkloadKind::F, 20_000);
        let rmw = c["rmw"] as f64 / 20_000.0;
        assert!((0.45..0.55).contains(&rmw), "rmw ratio {rmw}");
    }

    #[test]
    fn table1_distributions() {
        assert_eq!(WorkloadKind::Load.distribution(), Distribution::Uniform);
        assert_eq!(WorkloadKind::A.distribution(), Distribution::Zipfian);
        assert_eq!(WorkloadKind::D.distribution(), Distribution::Latest);
        assert_eq!(WorkloadKind::E.distribution(), Distribution::Uniform);
        assert_eq!(WorkloadKind::all().len(), 7);
    }

    #[test]
    fn insert_keys_are_disjoint_across_threads() {
        let spec = Workload::table1(WorkloadKind::Load, 100, 1000);
        let (mut g0, mut g1) = (spec.thread(0), spec.thread(1));
        let mut keys = HashSet::new();
        for _ in 0..500 {
            for g in [&mut g0, &mut g1] {
                if let Some(OpKind::Insert { key, .. }) = g.next() {
                    assert!(keys.insert(key), "duplicate insert key across threads");
                }
            }
        }
    }

    #[test]
    fn scan_lengths_bounded() {
        let g = Workload::table1(WorkloadKind::E, 1000, 1000).thread(0);
        for op in g.take(1000) {
            if let OpKind::Scan { len, .. } = op {
                assert!((1..=100).contains(&len));
            }
        }
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let zipf = Zipf::new(10_000, THETA);
        let mut rng = Rng::new(7);
        let mut counts = vec![0u32; 10_000];
        const N: u32 = 100_000;
        for _ in 0..N {
            counts[zipf.rank(rng.unit())] += 1;
        }
        // Item 0 must be by far the hottest; top-10 items take a large
        // share (YCSB zipfian ~ top 10 of 10k ≈ 25%+).
        let top10: u32 = counts[..10].iter().sum();
        assert!(counts[0] > N / 20, "item0 count {}", counts[0]);
        assert!(top10 > N / 5, "top10 {top10}");
        // But the tail is still exercised.
        assert!(counts[5000..].iter().filter(|&&c| c > 0).count() > 100);
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_items() {
        let mut g = Workload::table1(WorkloadKind::C, 10_000, 0).thread(3);
        let mut counts = HashMap::new();
        for _ in 0..50_000 {
            let i = g.item();
            assert!(i < 10_000);
            *counts.entry(i).or_insert(0u32) += 1;
        }
        // Still skewed: one item dominates...
        let max = counts.values().max().copied().unwrap();
        assert!(max > 2_000, "hottest item only {max}");
        // ...but the hottest items are scattered, not items 0..k.
        let mut by_count: Vec<_> = counts.iter().collect();
        by_count.sort_by_key(|(_, c)| std::cmp::Reverse(**c));
        let hot_ids: Vec<u64> = by_count[..5].iter().map(|(i, _)| **i).collect();
        assert!(
            hot_ids.iter().any(|&i| i > 1000),
            "hot items should be scattered: {hot_ids:?}"
        );
    }

    #[test]
    fn latest_prefers_recent() {
        let mut g = Workload::table1(WorkloadKind::D, 50_001, 0).thread(9);
        let max = 50_000u64;
        let mut recent = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            let v = g.item();
            assert!(v <= max);
            if v > max - 100 {
                recent += 1;
            }
        }
        assert!(recent > N / 10, "recent hits {recent}");
    }

    #[test]
    fn keys_and_values_are_deterministic() {
        assert_eq!(hashed_key(42), hashed_key(42));
        assert_ne!(hashed_key(42), hashed_key(43));
        let v = value_of(&hashed_key(7), 128);
        assert_eq!(v.len(), 128);
        assert_eq!(v, value_of(&hashed_key(7), 128));
        assert_ne!(v, value_of(&hashed_key(8), 128));
        for size in [0usize, 1, 7, 9, 100, 1023] {
            assert_eq!(value_of(&hashed_key(1), size).len(), size);
        }
        // Ordered keys sort by index.
        assert!(ordered_key(1) < ordered_key(2));
        assert!(ordered_key(99) < ordered_key(100));
    }

    #[test]
    fn fillseq_produces_ordered_unique_keys() {
        let g = Micro::new(MicroKind::FillSeq, 0, 16).thread(0);
        let mut last = Vec::new();
        for op in g.take(100) {
            let OpKind::Insert { key, .. } = op else {
                panic!("fillseq must insert");
            };
            assert!(key > last, "fillseq keys must be increasing");
            last = key;
        }
    }

    #[test]
    fn fillrandom_keys_unique_across_threads() {
        let micro = Micro::new(MicroKind::FillRandom, 0, 16);
        let (mut g0, mut g1) = (micro.thread(0), micro.thread(1));
        let mut seen = HashSet::new();
        for _ in 0..500 {
            for g in [&mut g0, &mut g1] {
                if let Some(OpKind::Insert { key, .. }) = g.next() {
                    assert!(seen.insert(key));
                }
            }
        }
    }

    #[test]
    fn micro_load_requirements() {
        assert!(!MicroKind::FillSeq.needs_load());
        assert!(!MicroKind::FillRandom.needs_load());
        assert!(MicroKind::ReadRandom.needs_load());
        assert!(MicroKind::ReadSeq.needs_load());
        assert!(MicroKind::Overwrite.needs_load());
    }

    #[test]
    fn load_then_run_completes_exact_op_count() {
        let client = MapClient::default();
        let spec = Workload::table1(WorkloadKind::A, 1000, 5000);
        load(&client, spec.record_count, spec.value_size).unwrap();
        assert_eq!(client.map.lock().len(), 1000);
        let result = drive(&client, &spec, Run::new(4, spec.op_count, false));
        assert_eq!(result.ops, 5000);
        assert_eq!(result.errors, 0);
        assert!(result.qps() > 0.0);
        assert_eq!(result.latency.count(), 5000);
        // Workload A reads should mostly hit loaded keys.
        assert!(client.reads.load(Ordering::Relaxed) > 2000);
        // Every micro stream runs clean over the same loaded items.
        for kind in [
            MicroKind::FillSeq,
            MicroKind::FillRandom,
            MicroKind::Overwrite,
            MicroKind::ReadSeq,
            MicroKind::ReadRandom,
        ] {
            let r = drive(
                &client,
                &Micro::new(kind, 1000, 16),
                Run::new(4, 2000, false),
            );
            assert_eq!((r.ops, r.errors), (2000, 0), "{kind:?}");
        }
        assert!(client.map.lock().contains_key(&hashed_key(0)));
    }

    #[test]
    fn failed_calls_are_counted_and_not_throughput() {
        let client = MapClient {
            fail_every: 3,
            ..MapClient::default()
        };
        let r = drive(
            &client,
            &Micro::new(MicroKind::FillRandom, 0, 16),
            Run::new(3, 3000, false),
        );
        assert_eq!(r.ops, 3000);
        assert_eq!(r.errors, r.ops / 3);
        let ok_qps = (r.ops - r.errors) as f64 / r.elapsed.as_secs_f64();
        assert!((r.qps() - ok_qps).abs() < 1e-6 * ok_qps);
        assert!(
            load(&client, 100, 16).is_err(),
            "a failed insert fails the load"
        );
    }

    #[test]
    fn rate_limit_caps_throughput() {
        let client = MapClient::default();
        let spec = Workload::table1(WorkloadKind::C, 100, 500);
        load(&client, spec.record_count, spec.value_size).unwrap();
        let result = drive(
            &client,
            &spec,
            Run {
                rate: 10_000,
                ..Run::new(2, spec.op_count, false)
            },
        );
        assert!(
            result.elapsed >= Duration::from_millis(40),
            "500 ops at 10k/s should take ≥ 50ms, took {:?}",
            result.elapsed
        );
    }
}
