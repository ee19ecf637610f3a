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
//! [`run`] measures both configurations over identically loaded stores and
//! records whether their scan output is byte-identical; the artifact is
//! `BENCH_scan.json`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use p2kvs::{P2Kvs, P2KvsOptions};
use p2kvs_util::rng::Rng;

use crate::artifact::{Fields, Report, Value};
use crate::setups;

const VALUE_BYTES: usize = 100;
/// Length of each measurement window (idle, then under scan).
const WINDOW: Duration = Duration::from_secs(3);

fn nth_key(i: u64) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

fn open_store(name: &str, chunk_entries: usize) -> P2Kvs<lsmkv::Db> {
    let mut opts = P2KvsOptions::with_workers(1);
    // Cache off: this bench measures GET latency *through the queue*
    // while scans stream — client-side cache hits would bypass exactly
    // the interference under test.
    opts.cache_capacity = 0;
    opts.scan_chunk_entries = chunk_entries;
    if chunk_entries == usize::MAX {
        opts.scan_chunk_bytes = usize::MAX;
    }
    setups::scenario_store(name, setups::scenario_engine(setups::nvme_env()), opts)
}

/// Synchronous point GETs of existing keys for `window`, returning the
/// sorted latency samples.
fn get_loop(store: &P2Kvs<lsmkv::Db>, entries: u64, window: Duration) -> Vec<u64> {
    let mut lat = Vec::with_capacity(1 << 16);
    let mut rng = Rng::new(0x5ca1ab1e);
    let start = Instant::now();
    while start.elapsed() < window {
        let key = nth_key(rng.below(entries));
        let began = Instant::now();
        let got = store.get(&key).unwrap();
        lat.push(began.elapsed().as_nanos() as u64);
        assert!(got.is_some(), "preloaded key missing");
    }
    lat.sort_unstable();
    lat
}

/// Measures one configuration (`blocking`, the old behavior, or `chunked`,
/// the streaming default): idle point-GET latency, then point-GET latency
/// while a scanner thread drains full-store scans back to back. Returns
/// the row and a quiescent full scan for the identity check.
fn measure(
    config: &'static str,
    chunk_entries: usize,
    entries: u64,
    window: Duration,
) -> (Fields, Vec<(Vec<u8>, Vec<u8>)>) {
    let store = open_store(config, chunk_entries);
    setups::load(&store, (0..entries).map(nth_key), VALUE_BYTES);

    let reference = store.scan(b"", entries as usize + 1).unwrap();
    assert_eq!(reference.len(), entries as usize);

    let idle = get_loop(&store, entries, window);

    let stop = AtomicBool::new(false);
    let scans_done = AtomicU64::new(0);
    let entries_streamed = AtomicU64::new(0);
    let (during, scan_secs) = thread::scope(|s| {
        let scanner = s.spawn(|| {
            let began = Instant::now();
            while !stop.load(Ordering::Acquire) {
                let got = store.scan(b"", entries as usize + 1).unwrap();
                entries_streamed.fetch_add(got.len() as u64, Ordering::Relaxed);
                scans_done.fetch_add(1, Ordering::Relaxed);
            }
            began.elapsed().as_secs_f64()
        });
        let during = get_loop(&store, entries, window);
        stop.store(true, Ordering::Release);
        (during, scanner.join().unwrap())
    });

    let snap = store.snapshot();
    let chunk = match chunk_entries {
        usize::MAX => Value::from("unbounded"),
        n => n.into(),
    };
    let row = Fields::new()
        .with("config", config)
        .with("chunk_entries", chunk)
        .with("p50_get_idle_ns", crate::percentile(&idle, 0.50))
        .with("p99_get_idle_ns", crate::percentile(&idle, 0.99))
        .with("p50_get_scan_ns", crate::percentile(&during, 0.50))
        .with("p99_get_scan_ns", crate::percentile(&during, 0.99))
        .with("gets_during_scan", during.len())
        .with("scans_completed", scans_done.load(Ordering::Relaxed))
        .float(
            "scan_entries_per_sec",
            entries_streamed.load(Ordering::Relaxed) as f64 / scan_secs.max(1e-9),
            1,
        )
        .with(
            "scan_chunks",
            snap.workers.iter().map(|w| w.scan_chunks).sum::<u64>(),
        )
        .with(
            "scan_resumes",
            snap.workers.iter().map(|w| w.scan_resumes).sum::<u64>(),
        );
    (row, reference)
}

fn run_sized(entries: u64, window: Duration) -> Report {
    let (chunked, chunked_ref) = measure("chunked", 256, entries, window);
    let (blocking, blocking_ref) = measure("blocking", usize::MAX, entries, window);
    // >1 means chunking helped the point-GET tail during the scan.
    let improvement = blocking.num("p99_get_scan_ns") / chunked.num("p99_get_scan_ns").max(1.0);
    Report {
        bench: "scan_interference",
        seed: 0,
        config: Fields::new()
            .with("entries", entries)
            .with("value_bytes", VALUE_BYTES),
        summary: Fields::new()
            .with("scan_results_identical", chunked_ref == blocking_ref)
            .float("p99_point_get_improvement_during_scan", improvement, 3),
        rows: vec![blocking, chunked],
    }
}

/// Both configurations over 100k entries × 100 B values (scaled by
/// `P2KVS_SCALE`), 3 s measurement windows.
pub fn run() -> Report {
    run_sized(crate::scaled(100_000), WINDOW)
}

/// Chunking must be invisible to scan results; the latency improvement is
/// reported, not gated.
pub fn gate(summary: &Fields, _full_scale: bool) -> Vec<String> {
    if summary.is("scan_results_identical") {
        return Vec::new();
    }
    vec!["chunked and blocking scans returned different results".into()]
}

/// The scenario at a size a unit test can afford.
#[cfg(test)]
pub(crate) fn smoke() -> Report {
    run_sized(2_000, Duration::from_millis(200))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_and_scans_agree() {
        let (r, reference) = measure("chunked", 64, 2_000, Duration::from_millis(200));
        assert_eq!(reference.len(), 2_000);
        assert!(r.int("gets_during_scan") > 0);
        assert!(r.int("scans_completed") > 0);
        assert!(r.int("p50_get_idle_ns") <= r.int("p99_get_idle_ns"));
        assert!(r.int("p50_get_scan_ns") <= r.int("p99_get_scan_ns"));
        assert!(r.int("scan_chunks") > 0);
    }

    #[test]
    fn json_render_is_complete() {
        let json = run_sized(500, Duration::from_millis(100)).render_json();
        assert!(json.contains("\"bench\": \"scan_interference\""));
        assert!(json.contains("\"config\": \"blocking\""));
        assert!(json.contains("\"chunk_entries\": \"unbounded\""));
        assert!(json.contains("p99_point_get_improvement_during_scan"));
        assert!(json.contains("\"scan_results_identical\": true"));
    }

    #[test]
    fn gate_holds_only_identical_scans() {
        let summary = |identical: bool| {
            Fields::new()
                .with("scan_results_identical", identical)
                .float("p99_point_get_improvement_during_scan", 0.7, 3)
        };
        assert!(gate(&summary(true), true).is_empty());
        assert_eq!(
            gate(&summary(false), false).len(),
            1,
            "identity is gated at every scale"
        );
    }
}
