//! The four workloads: set-up, the measured closed loops, and result
//! verification. Everything goes through the public `P2Kvs` API.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::Thread;

use p2kvs::{P2Kvs, WriteOp};
use p2kvs_util::hash::mix64;

use crate::gen::{self, Rng, Zipf};
use crate::setup::{Bench, Engine, CLIENTS};
use crate::stats::{median, percentile, ratio, Samples};
use crate::trace::{self, Kind};

/// Records loaded before `read_hot`, `read_cold` and `mixed`: ≈ 148 MB of
/// user data against a 16 MiB read cache and 8 × 8 MiB block caches.
pub const KEYS: u64 = 1_000_000;
/// Hot subset of `read_hot`: ≈ 12 MiB of cache records, fits the 16 MiB
/// read cache.
pub const HOT_KEYS: u64 = 65_536;
/// Keys per `get_many` call in `read_cold`, and `get`s per timed burst in
/// `read_hot`.
pub const BATCH: usize = 32;
/// Outstanding `put_async` per client in `fill`.
pub const FILL_WINDOW: usize = 32;
/// Outstanding `put_async` per client while loading (set-up only).
pub const LOAD_WINDOW: usize = 128;
pub const SCAN_LEN: usize = 50;
pub const TXN_KEYS: usize = 4;
/// Keys read back after `fill` and `mixed`.
pub const READBACK: u64 = 40_000;
/// Blocking `put`s (updates) that close the set-up of the read-only
/// workloads, for their `put_p50_us`.
pub const PROBE_PUTS: u64 = 20_000;
/// Untimed fill into a throw-away store before anything is measured.
pub const WARMUP_OPS: u64 = 100_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Fill,
    ReadHot,
    ReadCold,
    Mixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fill,
        Workload::ReadHot,
        Workload::ReadCold,
        Workload::Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fill => "fill",
            Workload::ReadHot => "read_hot",
            Workload::ReadCold => "read_cold",
            Workload::Mixed => "mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client calls issued per second of `--seconds`. Op counts are fixed
    /// (so counters repeat) and sized so that the measured phase takes
    /// about `--seconds` on the 2-vCPU reference container.
    pub fn calls_per_second(self) -> u64 {
        match self {
            Workload::Fill => 100_000,
            Workload::ReadHot => 3_000_000,
            Workload::ReadCold => 1_600,
            Workload::Mixed => 15_000,
        }
    }

    /// Client calls of a measured phase sized for `seconds`, a multiple of
    /// `CLIENTS × BATCH` so clients and bursts divide evenly.
    pub fn calls(self, seconds: f64) -> u64 {
        let unit = (CLIENTS * BATCH) as u64;
        let n = (self.calls_per_second() as f64 * seconds) as u64;
        (n / unit).max(1) * unit
    }

    /// Whether the measured phase writes (and is followed by a read-back).
    pub fn writes(self) -> bool {
        matches!(self, Workload::Fill | Workload::Mixed)
    }

    /// Whether set-up loads [`KEYS`] records.
    pub fn loads(self) -> bool {
        self != Workload::Fill
    }
}

/// Maps the benchmark's dense record numbers onto the store's key space.
/// The seed picks the base, so two seeds share no key.
#[derive(Clone, Copy)]
pub struct Keyspace {
    base: u64,
}

impl Keyspace {
    pub fn new(seed: u64) -> Keyspace {
        Keyspace {
            base: mix64(seed) & 0xffff_ffff_0000_0000,
        }
    }

    /// Index stamped into the value of record `i`.
    pub fn idx(self, i: u64) -> u64 {
        self.base + i
    }

    /// The key id below which a `SCAN_LEN` scan over records `0..n` must
    /// come back full: the `SCAN_LEN`-th largest id.
    fn full_scan_bound(self, n: u64) -> u64 {
        let mut ids: Vec<u64> = (0..n).map(|i| gen::key_id(self.idx(i))).collect();
        let k = ids.len() - SCAN_LEN;
        *ids.select_nth_unstable(k).1
    }
}

/// A request id unique within one store: stamped into every written value
/// as its version, and the link between a client write span and the
/// engine span that applied it.
fn request_id(pass: u64, client: usize, seq: u64) -> u64 {
    (pass << 56) | ((client as u64) << 48) | seq
}

/// `pass` of the set-up load and of the measured phase.
const LOAD_PASS: u64 = 1;
const MEASURED_PASS: u64 = 2;
const PROBE_PASS: u64 = 3;

/// Indices into [`PhaseResult::latency`].
pub const LAT_PUT_ASYNC: usize = 0;
pub const LAT_GET_BURST: usize = 1;
pub const LAT_GET_MANY: usize = 2;
pub const LAT_GET: usize = 3;
pub const LAT_PUT: usize = 4;
pub const LAT_SCAN: usize = 5;
pub const LAT_TXN: usize = 6;
pub const LAT_KINDS: usize = 7;

/// What one client did in a measured phase.
#[derive(Default)]
pub struct ClientResult {
    /// Results checked, and how many were wrong or errors.
    attempted: u64,
    failed: u64,
    /// Call-to-return latencies by kind (`LAT_*`).
    latency: [Samples; LAT_KINDS],
    /// When the client started, and the throughput units it completed in
    /// each [`SLICE_NS`] since.
    started_ns: u64,
    slices: Vec<u64>,
}

/// Length of one slice of a client's progress.
const SLICE_NS: u64 = 1_000_000_000;

impl ClientResult {
    fn start() -> ClientResult {
        ClientResult {
            started_ns: trace::now_ns(),
            ..ClientResult::default()
        }
    }

    /// Counts `units` completed at `now_ns`.
    fn progress(&mut self, now_ns: u64, units: u64) {
        let slice = ((now_ns - self.started_ns) / SLICE_NS) as usize;
        if self.slices.len() <= slice {
            self.slices.resize(slice + 1, 0);
        }
        self.slices[slice] += units;
    }
}

/// What one measured phase did.
pub struct PhaseResult {
    /// Throughput units completed: keys for `read_cold`, calls otherwise.
    pub units: u64,
    /// First client start to last client end.
    pub wall_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    clients: Vec<ClientResult>,
}

impl PhaseResult {
    /// Units per second of wall time, so every stall of the store inside
    /// the phase is charged.
    pub fn overall_rate(&self) -> f64 {
        ratio(self.units as f64, self.wall_ns as f64 / 1e9)
    }

    /// Units per second all clients completed in each one-second slice of
    /// the phase that every client ran through to the end.
    pub fn slice_rates(&self) -> Vec<f64> {
        let full = self.clients.iter().map(|c| c.slices.len().saturating_sub(1)).min();
        (0..full.unwrap_or(0))
            .map(|i| self.clients.iter().map(|c| c.slices[i]).sum::<u64>() as f64)
            .map(|units| units * 1e9 / SLICE_NS as f64)
            .collect()
    }

    /// The median of [`Self::slice_rates`]: a stretch in which the host
    /// runs slow moves it only once it covers half the phase. The overall
    /// rate when the phase is shorter than two slices.
    pub fn throughput(&self) -> f64 {
        let rates = self.slice_rates();
        if rates.is_empty() {
            self.overall_rate()
        } else {
            median(rates)
        }
    }

    /// Percentile `p` of the latencies of `kind` over both clients, in
    /// microseconds, with the sample count.
    pub fn latency_us(&self, kind: usize, p: f64) -> (f64, usize) {
        let mut all: Vec<u32> = Vec::new();
        for c in &self.clients {
            all.extend_from_slice(&c.latency[kind].0);
        }
        all.sort_unstable();
        (percentile(&all, p) / 1e3, all.len())
    }
}

/// Runs `client(c)` on [`CLIENTS`] threads released together.
fn run_clients(units: u64, client: impl Fn(usize) -> ClientResult + Sync) -> PhaseResult {
    let barrier = Barrier::new(CLIENTS);
    let clients: Vec<(ClientResult, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, client) = (&barrier, &client);
                std::thread::Builder::new()
                    .name(format!("bench-client-{c}"))
                    .spawn_scoped(s, move || {
                        barrier.wait();
                        let start_ns = trace::now_ns();
                        let r = client(c);
                        (r, start_ns, trace::now_ns())
                    })
                    .expect("spawn client")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = clients.iter().map(|(_, start, _)| *start).min().unwrap_or(0);
    let end = clients.iter().map(|(_, _, end)| *end).max().unwrap_or(0);
    let clients: Vec<ClientResult> = clients.into_iter().map(|(r, _, _)| r).collect();
    PhaseResult {
        units,
        wall_ns: end - start,
        attempted: clients.iter().map(|r| r.attempted).sum(),
        failed: clients.iter().map(|r| r.failed).sum(),
        clients,
    }
}

/// Bounds a client's outstanding `put_async` calls. The client refills
/// once half the window has completed, as a caller batching completions
/// would, so it is woken once per half window rather than once per reply.
struct Window {
    inflight: AtomicUsize,
    limit: usize,
    owner: Thread,
}

impl Window {
    fn new(limit: usize) -> Arc<Window> {
        Arc::new(Window {
            inflight: AtomicUsize::new(0),
            limit,
            owner: std::thread::current(),
        })
    }

    fn low(&self) -> usize {
        self.limit / 2
    }

    fn acquire(&self) {
        if self.inflight.load(Ordering::Acquire) >= self.limit {
            while self.inflight.load(Ordering::Acquire) > self.low() {
                std::thread::park();
            }
        }
        self.inflight.fetch_add(1, Ordering::AcqRel);
    }

    fn release(&self) {
        let left = self.inflight.fetch_sub(1, Ordering::AcqRel) - 1;
        if left == self.low() || left == 0 {
            self.owner.unpark();
        }
    }

    fn drain(&self) {
        while self.inflight.load(Ordering::Acquire) > 0 {
            std::thread::park();
        }
    }
}

/// Writes records `first, first + CLIENTS, …` (`count` of them) with
/// `put_async`, at most `window` outstanding. The latency of each put runs
/// from the call to its completion callback.
fn put_records<E: Engine>(
    store: &P2Kvs<E>,
    ks: Keyspace,
    pass: u64,
    client: usize,
    count: u64,
    window: usize,
) -> ClientResult {
    let tracing = trace::enabled();
    let window = Window::new(window);
    let sink = Arc::new(Mutex::new(Samples::with_capacity(count as usize)));
    let failed = Arc::new(AtomicU64::new(0));
    let mut out = ClientResult::start();
    for j in 0..count {
        let idx = ks.idx(j * CLIENTS as u64 + client as u64);
        let id = request_id(pass, client, j);
        let (key, value) = (gen::key_of(idx), gen::value_of(idx, id));
        window.acquire();
        let (window_cb, sink, failed_cb) = (window.clone(), sink.clone(), failed.clone());
        let start_ns = trace::now_ns();
        // Counted when issued: the window holds issue to completion rate.
        out.progress(start_ns, 1);
        let pushed = store.put_async(&key, &value, move |r| {
            let end_ns = trace::now_ns();
            if r.is_err() {
                failed_cb.fetch_add(1, Ordering::Relaxed);
            }
            sink.lock().expect("latency sink").push_ns(end_ns - start_ns);
            if tracing {
                trace::record_client(Kind::ClientPutAsync, start_ns, end_ns, id);
            }
            window_cb.release();
        });
        if pushed.is_err() {
            // The callback was dropped unrun with the rejected request.
            failed.fetch_add(1, Ordering::Relaxed);
            window.inflight.fetch_sub(1, Ordering::AcqRel);
        }
    }
    window.drain();
    out.attempted = count;
    out.failed = failed.load(Ordering::Relaxed);
    out.latency[LAT_PUT_ASYNC] = std::mem::take(&mut *sink.lock().expect("latency sink"));
    out
}

/// Loads records `0..n` and settles background work (set-up of the three
/// loaded workloads).
pub fn load<E: Engine>(b: &Bench<E>, ks: Keyspace, n: u64) -> PhaseResult {
    let per_client = n / CLIENTS as u64;
    let r = run_clients(n, |c| put_records(&b.store, ks, LOAD_PASS, c, per_client, LOAD_WINDOW));
    b.wait_idle();
    r
}

/// Reads the hot subset, [`BATCH`] keys per `get_many` and each batch
/// twice in a row: the doorkeeper admits a key to the read cache on its
/// second miss, and forgets a first miss that many other keys follow.
pub fn warm_hot<E: Engine>(b: &Bench<E>, ks: Keyspace) -> u64 {
    let chunks = HOT_KEYS / BATCH as u64;
    let r = run_clients(0, |c| {
        let mut out = ClientResult::default();
        for chunk in (0..chunks).filter(|chunk| chunk % CLIENTS as u64 == c as u64) {
            let first = chunk * BATCH as u64;
            let idxs: Vec<u64> = (first..first + BATCH as u64).map(|i| ks.idx(i)).collect();
            checked_get_many(&b.store, &idxs, false, &mut out);
            checked_get_many(&b.store, &idxs, false, &mut out);
        }
        out
    });
    r.failed
}

/// `fill`: `calls` unique-key `put_async`, [`FILL_WINDOW`] per client.
pub fn fill<E: Engine>(b: &Bench<E>, ks: Keyspace, calls: u64) -> PhaseResult {
    let per_client = calls / CLIENTS as u64;
    run_clients(calls, |c| {
        put_records(&b.store, ks, MEASURED_PASS, c, per_client, FILL_WINDOW)
    })
}

/// One checked `get`.
fn checked_get<E: Engine>(store: &P2Kvs<E>, idx: u64, tracing: bool, out: &mut ClientResult) {
    let key = gen::key_of(idx);
    let token = tracing.then(|| trace::open(Kind::ClientGet, [gen::key_id(idx)]));
    let r = store.get(&key);
    if let Some(t) = token {
        trace::close(t);
    }
    out.attempted += 1;
    match r {
        Ok(Some(v)) if gen::value_ok(idx, &v) => {}
        _ => out.failed += 1,
    }
}

/// `read_hot`: `calls` `get`s, zipfian over the hot subset, timed in
/// bursts of [`BATCH`] (one `get` is too short to time with two clock
/// reads).
pub fn read_hot<E: Engine>(b: &Bench<E>, ks: Keyspace, seed: u64, calls: u64) -> PhaseResult {
    let zipf = Zipf::new(HOT_KEYS);
    let bursts = calls / (CLIENTS * BATCH) as u64;
    run_clients(calls, |c| {
        let tracing = trace::enabled();
        if tracing {
            trace::reserve((bursts as usize) * BATCH, (bursts as usize) * BATCH);
        }
        let mut rng = Rng::new(seed, c as u64);
        let mut out = ClientResult::start();
        out.latency[LAT_GET_BURST] = Samples::with_capacity(bursts as usize);
        for _ in 0..bursts {
            let t0 = trace::now_ns();
            for _ in 0..BATCH {
                let idx = ks.idx(zipf.sample(&mut rng));
                checked_get(&b.store, idx, tracing, &mut out);
            }
            let t1 = trace::now_ns();
            out.latency[LAT_GET_BURST].push_ns(t1 - t0);
            out.progress(t1, BATCH as u64);
        }
        out
    })
}

/// One checked `get_many` of the records `idxs`.
fn checked_get_many<E: Engine>(
    store: &P2Kvs<E>,
    idxs: &[u64],
    tracing: bool,
    out: &mut ClientResult,
) {
    let keys: Vec<Vec<u8>> = idxs.iter().map(|&i| gen::key_of(i).to_vec()).collect();
    let token =
        tracing.then(|| trace::open(Kind::ClientGetMany, idxs.iter().map(|&i| gen::key_id(i))));
    let r = store.get_many(&keys);
    if let Some(t) = token {
        trace::close(t);
    }
    out.attempted += idxs.len() as u64;
    match r {
        Ok(values) if values.len() == idxs.len() => {
            for (idx, v) in idxs.iter().zip(values) {
                if !v.is_some_and(|v| gen::value_ok(*idx, &v)) {
                    out.failed += 1;
                }
            }
        }
        _ => out.failed += idxs.len() as u64,
    }
}

/// `read_cold`: `calls` `get_many` of [`BATCH`] uniform keys.
pub fn read_cold<E: Engine>(b: &Bench<E>, ks: Keyspace, seed: u64, calls: u64) -> PhaseResult {
    let per_client = calls / CLIENTS as u64;
    run_clients(calls * BATCH as u64, |c| {
        let tracing = trace::enabled();
        let mut rng = Rng::new(seed, c as u64);
        let mut out = ClientResult::start();
        out.latency[LAT_GET_MANY] = Samples::with_capacity(per_client as usize);
        for _ in 0..per_client {
            let idxs: Vec<u64> = (0..BATCH).map(|_| ks.idx(rng.below(KEYS))).collect();
            let t0 = trace::now_ns();
            checked_get_many(&b.store, &idxs, tracing, &mut out);
            let t1 = trace::now_ns();
            out.latency[LAT_GET_MANY].push_ns(t1 - t0);
            out.progress(t1, BATCH as u64);
        }
        out
    })
}

/// Checks a scan result: sorted, starting at or after the probe, every
/// entry intact, and full unless the probe is within `SCAN_LEN` keys of
/// the end of the key space.
fn scan_ok(probe_id: u64, full_bound: u64, entries: &[(Vec<u8>, Vec<u8>)]) -> bool {
    let sorted = entries.windows(2).all(|w| w[0].0 < w[1].0);
    let starts_after = entries
        .first()
        .map_or(true, |(k, _)| gen::id_of_key(k).is_some_and(|id| id >= probe_id));
    let intact = entries.iter().all(|(k, v)| gen::entry_ok(k, v));
    let full = entries.len() == SCAN_LEN || (entries.len() < SCAN_LEN && probe_id > full_bound);
    sorted && starts_after && intact && full
}

/// One call of the `mixed` workload.
pub enum Call {
    Get { idx: u64 },
    Put { idx: u64, id: u64 },
    Scan { idx: u64 },
    /// Record `idxs[k]` is written with request id `id + k`.
    Txn { idxs: [u64; TXN_KEYS], id: u64 },
}

/// Draws the next `mixed` call: zipfian over all loaded records, 45 %
/// `get`, 45 % `put` (update), 5 % `scan(key, 50)`, 5 % 4-key
/// `write_batch` (mostly cross-shard, so the GSN path).
pub fn next_mixed_call(rng: &mut Rng, zipf: &Zipf, ks: Keyspace, id: u64) -> Call {
    let idx = ks.idx(zipf.sample(rng));
    match rng.below(100) {
        0..=44 => Call::Get { idx },
        45..=89 => Call::Put { idx, id },
        90..=94 => Call::Scan { idx },
        _ => {
            let mut idxs = [idx; TXN_KEYS];
            for slot in &mut idxs[1..] {
                *slot = ks.idx(zipf.sample(rng));
            }
            Call::Txn { idxs, id }
        }
    }
}

/// `mixed`: `calls` blocking calls drawn by [`next_mixed_call`].
pub fn mixed<E: Engine>(b: &Bench<E>, ks: Keyspace, seed: u64, calls: u64) -> PhaseResult {
    let zipf = Zipf::new(KEYS);
    let full_bound = ks.full_scan_bound(KEYS);
    let per_client = calls / CLIENTS as u64;
    run_clients(calls, |c| {
        let tracing = trace::enabled();
        let store = &b.store;
        let mut rng = Rng::new(seed, c as u64);
        let mut out = ClientResult::start();
        for seq in 0..per_client {
            let id = request_id(MEASURED_PASS, c, seq * TXN_KEYS as u64);
            let call = next_mixed_call(&mut rng, &zipf, ks, id);
            let t0 = trace::now_ns();
            let lat = match call {
                Call::Get { idx } => {
                    checked_get(store, idx, tracing, &mut out);
                    LAT_GET
                }
                Call::Put { idx, id } => {
                    let (key, value) = (gen::key_of(idx), gen::value_of(idx, id));
                    let token = tracing.then(|| trace::open(Kind::ClientPut, [id]));
                    let r = store.put(&key, &value);
                    if let Some(t) = token {
                        trace::close(t);
                    }
                    out.attempted += 1;
                    out.failed += u64::from(r.is_err());
                    LAT_PUT
                }
                Call::Scan { idx } => {
                    let key = gen::key_of(idx);
                    let probe_id = gen::key_id(idx);
                    let token = tracing.then(|| trace::open(Kind::ClientScan, [probe_id]));
                    let r = store.scan(&key, SCAN_LEN);
                    if let Some(t) = token {
                        trace::close(t);
                    }
                    out.attempted += 1;
                    if !r.is_ok_and(|entries| scan_ok(probe_id, full_bound, &entries)) {
                        out.failed += 1;
                    }
                    LAT_SCAN
                }
                Call::Txn { idxs, id } => {
                    let ids = (0..TXN_KEYS as u64).map(move |k| id + k);
                    let ops: Vec<WriteOp> = idxs
                        .iter()
                        .zip(ids.clone())
                        .map(|(&idx, id)| WriteOp::Put {
                            key: gen::key_of(idx).to_vec(),
                            value: gen::value_of(idx, id),
                        })
                        .collect();
                    let token = tracing.then(|| trace::open(Kind::ClientTxn, ids));
                    let r = store.write_batch(ops);
                    if let Some(t) = token {
                        trace::close(t);
                    }
                    out.attempted += 1;
                    out.failed += u64::from(r.is_err());
                    LAT_TXN
                }
            };
            let t1 = trace::now_ns();
            out.latency[lat].push_ns(t1 - t0);
            out.progress(t1, 1);
        }
        out
    })
}

/// Reads back [`READBACK`] seeded records out of `0..n`, timing each
/// `get`; every one must be found intact.
pub fn read_back<E: Engine>(b: &Bench<E>, ks: Keyspace, seed: u64, n: u64) -> PhaseResult {
    run_clients(READBACK, |c| {
        let mut rng = Rng::new(seed, u64::MAX - c as u64);
        let mut out = ClientResult::start();
        for _ in 0..READBACK / CLIENTS as u64 {
            let t0 = trace::now_ns();
            checked_get(&b.store, ks.idx(rng.below(n)), false, &mut out);
            out.latency[LAT_GET].push_ns(trace::now_ns() - t0);
        }
        out
    })
}

/// Updates [`PROBE_PUTS`] seeded records out of the loaded ones with
/// blocking `put`s, timing each.
pub fn probe_puts<E: Engine>(b: &Bench<E>, ks: Keyspace, seed: u64) -> PhaseResult {
    run_clients(PROBE_PUTS, |c| {
        let mut rng = Rng::new(seed, u64::MAX - c as u64);
        let mut out = ClientResult::start();
        for seq in 0..PROBE_PUTS / CLIENTS as u64 {
            let idx = ks.idx(rng.below(KEYS));
            let (key, value) = (gen::key_of(idx), gen::value_of(idx, request_id(PROBE_PASS, c, seq)));
            let t0 = trace::now_ns();
            let r = b.store.put(&key, &value);
            out.latency[LAT_PUT].push_ns(trace::now_ns() - t0);
            out.attempted += 1;
            out.failed += u64::from(r.is_err());
        }
        out
    })
}

/// Warms a cold process: an untimed fill into a throw-away store.
pub fn warm_process() {
    let b = crate::setup::open_plain();
    let ks = Keyspace::new(0);
    fill(&b, ks, WARMUP_OPS);
    b.wait_idle();
}
