//! Causal tracing demo: sample every request, then render the slowest
//! request's span tree — queue-wait, OBM batch membership, the engine
//! call with its WAL/memtable/read phases, and simulated device I/O —
//! alongside the store's live snapshot and the flight recorder's
//! recent control-plane history. Finishes by writing the whole capture
//! as Chrome-trace JSON for ui.perfetto.dev.
//!
//! ```text
//! cargo run -p p2kvs-examples --bin trace_demo
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, P2KvsOptions, SpanKind, SpanRecord};
use p2kvs_storage::{DeviceProfile, MemEnv};

fn main() {
    // A simulated NVMe device (per-IO latency + bandwidth accounting) so
    // the device_io spans carry real busy time, and shards decoupled
    // from workers so a migration shows up in the flight recorder.
    let env: p2kvs_storage::EnvRef = Arc::new(MemEnv::with_profile(DeviceProfile::nvme_optane()));
    let mut lsm = lsmkv::Options::rocksdb_like(env);
    lsm.memtable_size = 64 << 10; // Small memtables: flushes get journaled too.
    let mut opts = P2KvsOptions::with_workers(2);
    opts.shards = 4;
    opts.trace_sample = 1; // Demo: trace every request (default is 1/64).
    let store = P2Kvs::open(LsmFactory::new(lsm), "trace-demo-db", opts).expect("open store");

    // --- Workload: puts, async burst, gets, a scan, a migration ---------
    for i in 0..2_000u32 {
        let key = format!("item:{:05}", i % 800);
        store
            .put(key.as_bytes(), format!("value-{i}").as_bytes())
            .unwrap();
    }
    for i in 0..2_000u32 {
        store
            .get(format!("item:{:05}", i % 800).as_bytes())
            .unwrap();
    }
    let _ = store.scan(b"item:", 200).unwrap();
    store.migrate_shard(0, 1).expect("handoff");
    for i in 0..200u32 {
        store
            .put(format!("post:{i:04}").as_bytes(), b"after-migration")
            .unwrap();
    }

    // --- The slowest sampled request, as a span tree ---------------------
    let spans = store.trace_spans();
    let mut traces: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    // Head-sampled trees only: a slow group's tail-kept pair stops at
    // the batch span.
    for s in spans.iter().filter(|s| !s.tail_kept()) {
        traces.entry(s.trace_id).or_default().push(*s);
    }
    let slowest = traces
        .values()
        .max_by_key(|t| t.iter().map(|s| s.dur_us).max().unwrap_or(0))
        .expect("at least one sampled trace");
    println!(
        "===== Slowest sampled request (trace {}) =====",
        slowest[0].trace_id
    );
    for s in slowest {
        let depth = match s.kind {
            SpanKind::QueueWait | SpanKind::Batch => 0,
            SpanKind::Engine => 1,
            _ => 2,
        };
        let extra = match s.kind {
            SpanKind::Batch => format!("  [batch #{} merged {} ops]", s.batch_id, s.batch_size),
            SpanKind::DeviceIo => format!("  [{} device bytes]", s.aux),
            _ => String::new(),
        };
        println!(
            "{}{:<10} worker={} shard={} start={}us dur={}us{}",
            "  ".repeat(depth),
            s.kind.name(),
            s.worker,
            s.shard,
            s.start_us,
            s.dur_us,
            extra
        );
    }

    // --- Live state: the map, the snapshot, the metrics ------------------
    let stats = store.snapshot();
    let metrics = store.metrics_snapshot();
    let counter = |name: &str| metrics.counter(name).unwrap_or(0);
    println!("\n===== snapshot() and metrics_snapshot() =====");
    println!(
        "map epoch {} | {} migrations | {} spans recorded | journal seq {}",
        store.map_epoch(),
        stats.migrations,
        counter("p2kvs_trace_spans_total"),
        counter("p2kvs_flight_records_total")
    );
    let owners = store.shard_owners();
    for (i, w) in stats.workers.iter().enumerate() {
        let shards: Vec<usize> = (0..owners.len()).filter(|&s| owners[s] == i).collect();
        println!(
            "worker {i}: shards {shards:?}, queue depth {}, active scans {}",
            w.queue_depth, w.active_scans
        );
    }

    // --- The flight recorder's recent history -----------------------------
    println!("\n===== flight recorder (last 12 control-plane events) =====");
    for r in store.flight_records(12) {
        println!(
            "  seq {:>4}  +{:>8}us  {:<17} a={} b={} c={} gsn={}",
            r.seq,
            r.ts_us,
            r.kind.name(),
            r.a,
            r.b,
            r.c,
            r.gsn
        );
    }

    // --- Perfetto export ---------------------------------------------------
    let json = store.export_trace();
    std::fs::write("trace_demo.json", &json).expect("write trace_demo.json");
    println!(
        "\nwrote trace_demo.json ({} bytes) — open it at https://ui.perfetto.dev \
         (or chrome://tracing) to see every sampled request and journal event on a timeline",
        json.len()
    );
}
