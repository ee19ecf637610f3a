//! Scan-interference micro-benchmark: point-GET latency with and without
//! a concurrent large scan on the chunked streaming scan path.
//!
//! The scenario is the one the streaming scan subsystem exists for
//! (YCSB-E-style mixes): one client continuously drains full-store scans
//! while another issues synchronous point GETs. With the old monolithic
//! `Op::Scan` a whole per-instance scan ran inside one worker dequeue, so
//! every point op queued behind it waited the full scan. Every worker
//! clamps a scan to [`SCAN_CHUNK_ENTRIES`] entries (and 1 MiB) per
//! dequeue, so a scan yields to queued point ops after every bounded
//! chunk. The recorded blocking baseline is in EXPERIMENTS.md.
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
//! [`run`] measures the store and records whether its scans return exactly
//! the loaded data; the artifact is `BENCH_scan.json`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::Instant;

use p2kvs::worker::SCAN_CHUNK_ENTRIES;
use p2kvs::P2KvsOptions;
use p2kvs_util::rng::Rng;

use crate::artifact::{Fields, Report};
use crate::clients::P2Client;
use crate::setups;
use crate::workload::{self, value_of, GateMix, Run};

const VALUE_BYTES: usize = 100;
/// Point GETs per measured window (idle, then under scan), at every
/// scale: each p99 rests on 100 samples. Under scan a GET waits behind
/// scan chunks, so the window spans many full scans: on 2 vCPUs, 25 scans
/// of 100k entries (≈ 2.7 s) at full scale and ~50 of 5 000 entries at
/// CI's `P2KVS_SCALE=0.05`.
const GETS: u64 = 10_000;

fn nth_key(i: u64) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

fn open_store(name: &str) -> P2Client<lsmkv::Db> {
    let mut opts = P2KvsOptions::with_workers(1);
    // Cache off: this bench measures GET latency *through the queue*
    // while scans stream — client-side cache hits would bypass exactly
    // the interference under test.
    opts.cache_capacity = 0;
    setups::scenario_store(name, setups::scenario_engine(setups::nvme_env()), opts)
}

/// Measures idle point-GET latency, then point-GET latency while a
/// scanner thread drains full-store scans back to back, [`GETS`] each.
/// Returns the row and whether a quiescent full scan returned exactly the
/// loaded data.
fn measure(entries: u64) -> (Fields, bool) {
    let client = open_store("chunked");
    let store = &client.store;
    workload::load(&client, entries, nth_key, VALUE_BYTES).expect("load");

    let loaded = (0..entries).map(|i| (nth_key(i), value_of(&nth_key(i), VALUE_BYTES)));
    let identical = store
        .scan(b"", entries as usize + 1)
        .unwrap()
        .into_iter()
        .eq(loaded);

    let gets = GateMix {
        seed: 0x5ca1ab1e,
        put_percent: 0,
        value_len: VALUE_BYTES,
        pick: |rng: &mut Rng| nth_key(rng.below(entries)),
    };
    let window = || workload::drive(&client, &gets, Run::new(1, GETS, false));
    let idle = window();

    let stop = AtomicBool::new(false);
    let scans_done = AtomicU64::new(0);
    let entries_streamed = AtomicU64::new(0);
    let (during, scan_secs) = thread::scope(|s| {
        let scanner = s.spawn(|| {
            let began = Instant::now();
            // At least one scan, however short the GET window.
            loop {
                let got = store.scan(b"", entries as usize + 1).unwrap();
                entries_streamed.fetch_add(got.len() as u64, Ordering::Relaxed);
                scans_done.fetch_add(1, Ordering::Relaxed);
                if stop.load(Ordering::Acquire) {
                    return began.elapsed().as_secs_f64();
                }
            }
        });
        let during = window();
        stop.store(true, Ordering::Release);
        (during, scanner.join().unwrap())
    });

    let snap = store.snapshot();
    let row = Fields::new()
        .with("config", "chunked")
        .with("chunk_entries", SCAN_CHUNK_ENTRIES)
        .with("p50_get_idle_ns", idle.reads.quantile(0.50))
        .with("p99_get_idle_ns", idle.reads.quantile(0.99))
        .with("p50_get_scan_ns", during.reads.quantile(0.50))
        .with("p99_get_scan_ns", during.reads.quantile(0.99))
        .with("gets_during_scan", during.ops)
        .with("failed_calls", idle.errors + during.errors)
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
    (row, identical)
}

fn run_sized(entries: u64) -> Report {
    let (chunked, identical) = measure(entries);
    Report {
        bench: "scan_interference",
        seed: 0,
        config: Fields::new()
            .with("entries", entries)
            .with("value_bytes", VALUE_BYTES),
        summary: Fields::new().with("scan_results_identical", identical),
        rows: vec![chunked],
    }
}

/// 100k entries × 100 B values (scaled by `P2KVS_SCALE`), [`GETS`] GETs
/// per window.
pub fn run() -> Report {
    run_sized(crate::scaled(100_000))
}

/// Chunking must be invisible to scan results; the latencies are
/// reported, not gated.
pub fn gate(summary: &Fields) -> Vec<String> {
    if summary.is("scan_results_identical") {
        return Vec::new();
    }
    vec!["a chunked scan did not return the loaded data".into()]
}

/// The scenario at a size a unit test can afford.
#[cfg(test)]
pub(crate) fn smoke() -> Report {
    run_sized(2_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_and_scans_agree() {
        let (r, identical) = measure(2_000);
        assert!(identical);
        assert_eq!(r.int("gets_during_scan"), GETS);
        assert_eq!(r.int("failed_calls"), 0);
        assert!(r.int("scans_completed") > 0);
        assert!(r.int("p50_get_idle_ns") <= r.int("p99_get_idle_ns"));
        assert!(r.int("p50_get_scan_ns") <= r.int("p99_get_scan_ns"));
        assert!(r.int("scan_chunks") > 0);
    }

    #[test]
    fn json_render_is_complete() {
        let json = run_sized(500).render_json();
        assert!(json.contains("\"bench\": \"scan_interference\""));
        assert!(json.contains("\"config\": \"chunked\""));
        assert!(json.contains("\"scan_results_identical\": true"));
    }

    #[test]
    fn gate_holds_only_identical_scans() {
        let summary = |identical: bool| Fields::new().with("scan_results_identical", identical);
        assert!(gate(&summary(true)).is_empty());
        assert_eq!(gate(&summary(false)).len(), 1);
    }
}
