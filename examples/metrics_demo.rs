//! Observability demo: open a 4-worker store, run a mixed workload, and
//! inspect it through the metrics layer — queue-wait/service histograms
//! per request class, live queue depths, engine-internal breakdowns, the
//! tail-kept spans of slow groups, and both text expositions.
//!
//! ```text
//! cargo run -p p2kvs-examples --bin metrics_demo
//! ```

use std::sync::Arc;

use lsmkv::Options;
use p2kvs::engine::LsmFactory;
use p2kvs::obs::CLASS_LABELS;
use p2kvs::{P2Kvs, P2KvsOptions, SpanKind};
use p2kvs_storage::MemEnv;

fn main() {
    let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::new());
    let factory = LsmFactory::new(Options::rocksdb_like(env));
    // The spans of any group slower than 1 ms end-to-end are kept.
    let opts = P2KvsOptions::with_workers(4);
    let store = P2Kvs::open(factory, "metrics-demo-db", opts).expect("open store");

    // --- Mixed workload: puts, gets, deletes, a scan ---------------------
    for i in 0..5_000u32 {
        let key = format!("user:{:05}", i % 2_000);
        match i % 10 {
            0..=5 => store
                .put(key.as_bytes(), format!("v{i}").as_bytes())
                .unwrap(),
            6..=8 => {
                store.get(key.as_bytes()).unwrap();
            }
            _ => store.delete(key.as_bytes()).unwrap(),
        }
        // A one-line progress report: a live store answers
        // `metrics_snapshot()` at any time, no reporter thread needed.
        if i % 1_000 == 999 {
            let m = store.metrics_snapshot();
            eprintln!(
                "[metrics_demo] ops={} slow_events={}",
                store.snapshot().total_ops(),
                m.counter("p2kvs_slow_requests_total").unwrap_or(0),
            );
        }
    }
    let _ = store.scan(b"user:", 100).unwrap();

    // --- The snapshot, both renders --------------------------------------
    let snapshot = store.metrics_snapshot();
    println!("===== Prometheus text exposition =====");
    print!("{}", snapshot.render_prometheus());
    println!("\n===== JSON exposition (the repro artifact format) =====");
    print!("{}", snapshot.render_json());

    // --- Queue-wait vs. service split, per class -------------------------
    println!("\n===== Queue-wait vs. service (p50/p99, µs) =====");
    for base in ["p2kvs_queue_wait_ns", "p2kvs_service_ns"] {
        for (name, h) in snapshot.histograms_of(base) {
            if h.count == 0 {
                continue;
            }
            println!(
                "{name}: n={} p50={:.1}us p99={:.1}us p99.9={:.1}us max={:.1}us",
                h.count,
                h.p50 as f64 / 1e3,
                h.p99 as f64 / 1e3,
                h.p999 as f64 / 1e3,
                h.max as f64 / 1e3,
            );
        }
    }

    // --- Recent slow groups ----------------------------------------------
    // A slow group keeps a `queue_wait` and an `obm_batch` span under one
    // tail id.
    let spans = store.trace_spans();
    let slow: Vec<_> = spans
        .iter()
        .filter(|s| s.tail_kept() && s.kind == SpanKind::Batch)
        .collect();
    let recent = &slow[slow.len().saturating_sub(5)..];
    println!("\n===== {} most recent slow groups =====", recent.len());
    for batch in recent {
        let queue_wait_us = spans
            .iter()
            .find(|s| s.trace_id == batch.trace_id && s.kind == SpanKind::QueueWait)
            .map_or(0, |s| s.dur_us);
        println!(
            "worker={} class={} queue_wait={}us service={}us batch={}",
            batch.worker,
            CLASS_LABELS[batch.aux as usize],
            queue_wait_us,
            batch.dur_us,
            batch.batch_size,
        );
    }

    store.close();
}
