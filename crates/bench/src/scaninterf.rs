//! Scan-interference micro-benchmark: point-GET latency with and without
//! a concurrent large scan, for the chunked streaming scan path versus
//! the old blocking behavior.
//!
//! The scenario is the one the streaming scan subsystem exists for
//! (YCSB-E-style mixes): one client continuously drains full-store scans
//! while another issues synchronous point GETs. With the old monolithic
//! `Op::Scan` a whole per-instance scan ran inside one worker dequeue, so
//! every point op queued behind it waited the full scan — that behavior
//! is reproduced exactly by setting `scan_chunk_entries`/`bytes` to
//! `usize::MAX` (the worker clamp becomes a no-op and the opening chunk
//! returns the entire instance). The chunked configuration uses the
//! production defaults, where a scan yields to queued point ops after
//! every bounded chunk.
//!
//! The store runs a single worker so that every point GET shares a queue
//! with the scan. With more workers a GET only collides with the scan
//! when its key hashes to the worker currently serving a scan chunk, and
//! the store-side merge of already-fetched chunks leaves workers idle
//! between bursts — both dilute the queueing effect into the measurement
//! noise. Head-of-line blocking is per worker queue, so the single-queue
//! configuration is the honest unit of measurement; multi-worker stores
//! experience the same tail on the scanned worker's key slice.
//!
//! [`run_default`] runs both configurations over identically loaded
//! stores, verifies the scan output is byte-identical between them, and
//! writes the `BENCH_scan.json` artifact consumed by CI and
//! `EXPERIMENTS.md`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, P2KvsOptions};
use p2kvs_storage::{DeviceProfile, SimEnv};

/// One configuration's measurements.
#[derive(Debug, Clone)]
pub struct InterfResult {
    /// `blocking` (old behavior) or `chunked` (streaming default).
    pub config: &'static str,
    /// Effective per-chunk entry bound.
    pub chunk_entries: usize,
    /// Point-GET p50 with no scan running, nanoseconds.
    pub p50_get_idle_ns: u64,
    /// Point-GET p99 with no scan running, nanoseconds.
    pub p99_get_idle_ns: u64,
    /// Point-GET p50 while full-store scans drain continuously.
    pub p50_get_scan_ns: u64,
    /// Point-GET p99 while full-store scans drain continuously.
    pub p99_get_scan_ns: u64,
    /// GETs completed during the interference window.
    pub gets_during_scan: u64,
    /// Full-store scans completed during the interference window.
    pub scans_completed: u64,
    /// Entries streamed per second by the scanner during the window.
    pub scan_entries_per_sec: f64,
    /// Scan chunks served by the workers over the whole run.
    pub scan_chunks: u64,
    /// Cursor resumes served by the workers over the whole run.
    pub scan_resumes: u64,
}

/// Keys are `key%08d` over a deterministic permutation; values are
/// `value_bytes` of a key-derived byte. No `rand` dependency: a fixed
/// LCG keeps runs reproducible.
fn nth_key(i: u64) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Numerical Recipes LCG constants.
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

fn open_store(name: &str, workers: usize, chunk_entries: usize) -> P2Kvs<lsmkv::Db> {
    // The paper's device: simulated NVMe Optane with per-IO latency and
    // bandwidth accounting. Small memtables and block caches force scans
    // (and most GETs) through the device, as on a real SSD-resident
    // dataset — an all-in-memory store serves chunks so fast that worker
    // occupancy, the thing this benchmark measures, never materializes.
    let env: p2kvs_storage::EnvRef = Arc::new(SimEnv::with_profile(DeviceProfile::nvme_optane()));
    let mut lsm = lsmkv::Options::rocksdb_like(env);
    lsm.memtable_size = 256 << 10;
    lsm.target_file_size = 1 << 20;
    lsm.block_cache_size = 256 << 10;
    let mut opts = P2KvsOptions::with_workers(workers);
    opts.pin_workers = false;
    // Cache off: this bench measures GET latency *through the queue*
    // while scans stream — client-side cache hits would bypass exactly
    // the interference under test.
    opts.cache_capacity = 0;
    opts.scan_chunk_entries = chunk_entries;
    if chunk_entries == usize::MAX {
        opts.scan_chunk_bytes = usize::MAX;
    }
    P2Kvs::open(LsmFactory::new(lsm), name, opts).unwrap()
}

fn load(store: &P2Kvs<lsmkv::Db>, entries: u64, value_bytes: usize) {
    for i in 0..entries {
        let v = vec![(i % 251) as u8; value_bytes];
        store.put(&nth_key(i), &v).unwrap();
    }
}

/// Synchronous point GETs of existing keys for `window`, returning the
/// sorted latency samples.
fn get_loop(store: &P2Kvs<lsmkv::Db>, entries: u64, window: Duration) -> Vec<u64> {
    let mut lat = Vec::with_capacity(1 << 16);
    let mut rng = Lcg(0x5ca1ab1e);
    let start = Instant::now();
    while start.elapsed() < window {
        let key = nth_key(rng.next() % entries);
        let began = Instant::now();
        let got = store.get(&key).unwrap();
        lat.push(began.elapsed().as_nanos() as u64);
        assert!(got.is_some(), "preloaded key missing");
    }
    lat.sort_unstable();
    lat
}

/// Measures one configuration: idle point-GET latency, then point-GET
/// latency while a scanner thread drains full-store scans back to back.
pub fn measure(
    config: &'static str,
    chunk_entries: usize,
    entries: u64,
    value_bytes: usize,
    window: Duration,
) -> (InterfResult, Vec<(Vec<u8>, Vec<u8>)>) {
    let store = open_store(config, 1, chunk_entries);
    load(&store, entries, value_bytes);

    // Quiescent reference drain — also the byte-identity artifact.
    let reference = store.scan(b"", entries as usize + 1).unwrap();
    assert_eq!(reference.len(), entries as usize);

    // Phase 1: no scan running.
    let idle = get_loop(&store, entries, window);

    // Phase 2: continuous full-store scans beside the GET loop.
    let stop = AtomicBool::new(false);
    let scans_done = AtomicU64::new(0);
    let entries_streamed = AtomicU64::new(0);
    let (during, scan_secs) = thread::scope(|s| {
        let scanner = {
            let store = &store;
            let stop = &stop;
            let scans_done = &scans_done;
            let entries_streamed = &entries_streamed;
            s.spawn(move || {
                let began = Instant::now();
                while !stop.load(Ordering::Acquire) {
                    let got = store.scan(b"", entries as usize + 1).unwrap();
                    entries_streamed.fetch_add(got.len() as u64, Ordering::Relaxed);
                    scans_done.fetch_add(1, Ordering::Relaxed);
                }
                began.elapsed().as_secs_f64()
            })
        };
        let during = get_loop(&store, entries, window);
        stop.store(true, Ordering::Release);
        let scan_secs = scanner.join().unwrap();
        (during, scan_secs)
    });

    let snap = store.snapshot();
    let result = InterfResult {
        config,
        chunk_entries,
        p50_get_idle_ns: crate::percentile(&idle, 0.50),
        p99_get_idle_ns: crate::percentile(&idle, 0.99),
        p50_get_scan_ns: crate::percentile(&during, 0.50),
        p99_get_scan_ns: crate::percentile(&during, 0.99),
        gets_during_scan: during.len() as u64,
        scans_completed: scans_done.load(Ordering::Relaxed),
        scan_entries_per_sec: entries_streamed.load(Ordering::Relaxed) as f64
            / scan_secs.max(1e-9),
        scan_chunks: snap.workers.iter().map(|w| w.scan_chunks).sum(),
        scan_resumes: snap.workers.iter().map(|w| w.scan_resumes).sum(),
    };
    (result, reference)
}

/// p99 point-GET improvement of `chunked` over `blocking` during the
/// interference window (>1 means chunking helped).
pub fn p99_improvement(results: &[InterfResult]) -> f64 {
    let find = |c: &str| {
        results
            .iter()
            .find(|r| r.config == c)
            .map(|r| r.p99_get_scan_ns)
    };
    match (find("blocking"), find("chunked")) {
        (Some(b), Some(c)) if c > 0 => b as f64 / c as f64,
        _ => 0.0,
    }
}

/// Renders the `BENCH_scan.json` artifact.
pub fn render_json(
    results: &[InterfResult],
    entries: u64,
    value_bytes: usize,
    identical: bool,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        &crate::artifact::RunMeta::new("scan_interference", 0)
            .num("entries", entries)
            .num("value_bytes", value_bytes)
            .render(),
    );
    s.push_str(&format!(
        "  \"scan_results_identical\": {identical},\n"
    ));
    s.push_str(&format!(
        "  \"p99_point_get_improvement_during_scan\": {:.3},\n",
        p99_improvement(results)
    ));
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let chunk = if r.chunk_entries == usize::MAX {
            "\"unbounded\"".to_string()
        } else {
            r.chunk_entries.to_string()
        };
        s.push_str(&format!(
            "    {{\"config\": \"{}\", \"chunk_entries\": {}, \
             \"p50_get_idle_ns\": {}, \"p99_get_idle_ns\": {}, \
             \"p50_get_scan_ns\": {}, \"p99_get_scan_ns\": {}, \
             \"gets_during_scan\": {}, \"scans_completed\": {}, \
             \"scan_entries_per_sec\": {:.1}, \"scan_chunks\": {}, \
             \"scan_resumes\": {}}}{}\n",
            r.config,
            chunk,
            r.p50_get_idle_ns,
            r.p99_get_idle_ns,
            r.p50_get_scan_ns,
            r.p99_get_scan_ns,
            r.gets_during_scan,
            r.scans_completed,
            r.scan_entries_per_sec,
            r.scan_chunks,
            r.scan_resumes,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Where the artifact goes: `$P2KVS_METRICS_DIR` when set, the working
/// directory otherwise.
pub fn artifact_path() -> PathBuf {
    match std::env::var(crate::artifact::METRICS_DIR_ENV) {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir).join("BENCH_scan.json"),
        _ => PathBuf::from("BENCH_scan.json"),
    }
}

/// Runs both configurations (100k entries × 100 B values scaled by
/// `P2KVS_SCALE`, 3 s measurement windows) and writes `BENCH_scan.json`
/// to `path`. Panics if the two configurations disagree on the scan
/// content — the refactor must be invisible to scan results.
pub fn run_default(path: &Path) -> std::io::Result<Vec<InterfResult>> {
    let entries = crate::scaled(100_000);
    let value_bytes = 100;
    let window = Duration::from_secs(3);

    let (chunked, chunked_ref) = measure("chunked", 256, entries, value_bytes, window);
    let (blocking, blocking_ref) = measure("blocking", usize::MAX, entries, value_bytes, window);
    let identical = chunked_ref == blocking_ref;
    assert!(
        identical,
        "chunked and blocking scans must return identical results"
    );

    let results = vec![blocking, chunked];
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_json(&results, entries, value_bytes, identical))?;
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_and_scans_agree() {
        let (r, reference) = measure("chunked", 64, 2_000, 32, Duration::from_millis(200));
        assert_eq!(reference.len(), 2_000);
        assert!(r.gets_during_scan > 0);
        assert!(r.scans_completed > 0);
        assert!(r.p50_get_idle_ns <= r.p99_get_idle_ns);
        assert!(r.p50_get_scan_ns <= r.p99_get_scan_ns);
        assert!(r.scan_chunks > 0);
    }

    #[test]
    fn json_render_is_complete() {
        let (r, _) = measure("blocking", usize::MAX, 500, 16, Duration::from_millis(100));
        let json = render_json(&[r], 500, 16, true);
        assert!(json.contains("\"bench\": \"scan_interference\""));
        assert!(json.contains("\"config\": \"blocking\""));
        assert!(json.contains("\"chunk_entries\": \"unbounded\""));
        assert!(json.contains("p99_point_get_improvement_during_scan"));
        assert!(json.contains("\"scan_results_identical\": true"));
    }
}
