//! Runs one workload and turns what it measured into named metrics.
//!
//! `--trace 0` runs the workload untraced over the plain product types and
//! reports the end-to-end metrics. `--trace 1` runs it twice at a quarter
//! of the size over the span-recording wrappers, each time on a freshly
//! set-up store — once with recording off (the reference pass, which also
//! supplies the counters) and once with recording on — and reports the
//! per-layer metrics.

use std::path::PathBuf;
use std::time::Instant;

use crate::micro;
use crate::setup::{self, Bench, Counters, Engine};
use crate::stats::{ratio, Metrics};
use crate::trace::{self, Budget};
use crate::workloads::{self as wl, Keyspace, PhaseResult, Workload};

/// Share of the `--trace 0` size each `--trace 1` pass runs at.
const TRACE_FRACTION: f64 = 0.25;

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dump_trace: Option<PathBuf>,
}

pub struct Output {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Client calls in each measured pass.
    pub calls: u64,
    pub phases: Phases,
}

/// Wall seconds of each phase of a run, in order.
type Phases = Vec<(&'static str, f64)>;

/// Runs `f` and records how long it took as phase `name`.
fn timed<T>(phases: &mut Phases, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    phases.push((name, t0.elapsed().as_secs_f64()));
    out
}

/// A store ready for its workload's measured phase.
struct SetUp<E: Engine> {
    bench: Bench<E>,
    /// The blocking puts that closed the set-up of a read-only workload.
    probe: Option<PhaseResult>,
    /// Set-up operations that failed.
    failed: u64,
}

/// Builds the store a workload measures on.
fn set_up<E: Engine>(
    open: impl Fn() -> Bench<E>,
    w: Workload,
    ks: Keyspace,
    seed: u64,
) -> SetUp<E> {
    let bench = open();
    println!("# opened: {} shards", bench.store.engines().len());
    if !w.loads() {
        return SetUp { bench, probe: None, failed: 0 };
    }
    let mut failed = wl::load(&bench, ks, wl::KEYS).failed;
    let probe = (!w.writes()).then(|| wl::probe_puts(&bench, ks, seed));
    failed += probe.as_ref().map_or(0, |p| p.failed);
    if w == Workload::ReadHot {
        failed += wl::warm_hot(&bench, ks);
    }
    SetUp { bench, probe, failed }
}

fn measure<E: Engine>(
    b: &Bench<E>,
    w: Workload,
    ks: Keyspace,
    seed: u64,
    calls: u64,
) -> PhaseResult {
    match w {
        Workload::Fill => wl::fill(b, ks, calls),
        Workload::ReadHot => wl::read_hot(b, ks, seed, calls),
        Workload::ReadCold => wl::read_cold(b, ks, seed, calls),
        Workload::Mixed => wl::mixed(b, ks, seed, calls),
    }
}

/// Records the workload wrote: `fill` writes new ones, `mixed` updates.
fn live_records(w: Workload, calls: u64) -> u64 {
    if w == Workload::Fill {
        calls
    } else {
        wl::KEYS
    }
}

pub fn run(cfg: &Config) -> Output {
    let mut out = Output {
        attempted: 0,
        failed: 0,
        metrics: Metrics::default(),
        calls: 0,
        phases: Vec::new(),
    };
    let mut phases = Phases::new();
    let started = Instant::now();
    timed(&mut phases, "warmup", wl::warm_process);
    if cfg.trace {
        per_layer(cfg, &mut out, &mut phases);
    } else {
        end_to_end(cfg, started, &mut out, &mut phases);
    }
    out.phases = phases;
    out
}

fn end_to_end(cfg: &Config, started: Instant, out: &mut Output, phases: &mut Phases) {
    let w = cfg.workload;
    let ks = Keyspace::new(cfg.seed);
    let calls = w.calls(cfg.seconds);
    out.calls = calls;

    let SetUp { bench, probe, failed: setup_failed } =
        timed(phases, "setup", || set_up(setup::open_plain, w, ks, cfg.seed));
    // Everything the run did before it measures: the process warm-up, the
    // open, the load and the cache warming.
    let setup_s = started.elapsed().as_secs_f64();
    let before = bench.counters();
    let steal_before_ms = setup::host_steal_ms();
    let phase = timed(phases, "measure", || measure(&bench, w, ks, cfg.seed, calls));
    // Not the program's doing, but the first thing to look at in a slow run.
    println!(
        "# host ran something else for {} ms of CPU time during the measured phase",
        setup::host_steal_ms().saturating_sub(steal_before_ms)
    );
    timed(phases, "settle", || bench.wait_idle());
    let after = bench.counters();
    println!(
        "# read cache in the measured phase: {} hits, {} misses",
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses
    );
    out.attempted = phase.attempted;
    out.failed = phase.failed + setup_failed;
    let read_back = w.writes().then(|| {
        timed(phases, "readback", || {
            wl::read_back(&bench, ks, cfg.seed, live_records(w, calls))
        })
    });
    if let Some(r) = &read_back {
        out.attempted += r.attempted;
        out.failed += r.failed;
    }

    // Where the workload's `get` and `put` latencies come from; see the
    // table in README.md.
    let (probe, read_back) = (probe.as_ref(), read_back.as_ref());
    let (get, put) = match w {
        Workload::Fill => (
            (read_back.expect("fill is read back"), wl::LAT_GET, 1.0),
            (&phase, wl::LAT_PUT_ASYNC),
        ),
        Workload::ReadHot => (
            (&phase, wl::LAT_GET_BURST, wl::BATCH as f64),
            (probe.expect("set-up probed"), wl::LAT_PUT),
        ),
        Workload::ReadCold => (
            (&phase, wl::LAT_GET_MANY, 1.0),
            (probe.expect("set-up probed"), wl::LAT_PUT),
        ),
        Workload::Mixed => ((&phase, wl::LAT_GET, 1.0), (&phase, wl::LAT_PUT)),
    };
    let get_us = |p: f64| {
        let (us, samples) = get.0.latency_us(get.1, p);
        (us / get.2, samples)
    };

    let m = &mut out.metrics;
    m.put("throughput_ops_s", phase.throughput(), "ops/s");
    println!(
        "# units / wall (not an end-to-end metric) = {} ops/s",
        phase.overall_rate()
    );
    let rates: Vec<String> = phase.slice_rates().iter().map(|r| format!("{r:.0}")).collect();
    println!("# units in each second: {}", rates.join(" "));
    m.put_latency("get_p50_us", get_us(50.0));
    m.put_latency("put_p50_us", put.0.latency_us(put.1, 50.0));
    // Not gated: on this host the tail follows the host's timer and wake-up
    // jitter (quartile spread up to 48 % over ten runs).
    println!("# get_p99_us (not an end-to-end metric) = {} us", get_us(99.0).0);
    println!("# put_p99_us (not an end-to-end metric) = {} us", put.0.latency_us(put.1, 99.0).0);
    println!(
        "# slowest get = {} us, slowest put = {} us",
        get_us(100.0).0,
        put.0.latency_us(put.1, 100.0).0
    );
    // Over the store's whole life, load included, with every deferred
    // compaction charged.
    m.put(
        "write_amp",
        ratio(after.io.bytes_written as f64, after.user_bytes as f64),
        "x",
    );
    m.put(
        "space_amp",
        ratio(
            bench.sim.fs().total_resident_bytes() as f64,
            (live_records(w, calls) * crate::gen::RECORD_BYTES) as f64,
        ),
        "x",
    );
    m.put("setup_s", setup_s, "s");
}

fn per_layer(cfg: &Config, out: &mut Output, phases: &mut Phases) {
    let w = cfg.workload;
    let ks = Keyspace::new(cfg.seed);
    let calls = w.calls(cfg.seconds * TRACE_FRACTION);
    out.calls = calls;

    // Both passes issue the same calls against a store built the same
    // way, so their difference is what recording costs.
    let SetUp { bench, failed: setup_failed, .. } =
        timed(phases, "setup", || set_up(setup::open_traced, w, ks, cfg.seed));
    let before = bench.counters();
    let reference = timed(phases, "reference", || measure(&bench, w, ks, cfg.seed, calls));
    let measured_at = bench.counters();
    timed(phases, "settle", || bench.wait_idle());
    let settle_s = phases.last().expect("just timed").1;
    let after = bench.counters();
    drop(bench);

    let SetUp { bench, failed: traced_setup_failed, .. } =
        timed(phases, "setup", || set_up(setup::open_traced, w, ks, cfg.seed));
    trace::set_enabled(true);
    let traced = timed(phases, "traced", || measure(&bench, w, ks, cfg.seed, calls));
    trace::set_enabled(false);
    // Closing the store ends its worker, background and read-pool
    // threads, which hands their spans to the collector.
    drop(bench);
    let bufs = trace::take_all();
    let budget = timed(phases, "aggregate", || trace::budget(&bufs));
    if let Some(path) = &cfg.dump_trace {
        let file = std::fs::File::create(path).expect("create trace dump");
        let mut file = std::io::BufWriter::new(file);
        trace::dump(&bufs, &mut file).expect("write trace dump");
        std::io::Write::flush(&mut file).expect("flush trace dump");
    }

    out.attempted = reference.attempted + traced.attempted;
    out.failed = reference.failed + traced.failed + setup_failed + traced_setup_failed;
    let m = &mut out.metrics;
    counter_metrics(m, &reference, &before, &measured_at, &after, settle_s);
    client_metrics(m, &reference);
    budget_metrics(m, &budget, &reference, &traced);
    timed(phases, "micro", || micro::run(m));
    m.put("process.peak_rss_mb", setup::peak_rss_mb(), "MiB");
}

const MB: f64 = 1e6;

/// Layer metrics that are differences of public counters over the
/// reference pass (`before` → `measured_at`) and its settling
/// (`measured_at` → `after`).
fn counter_metrics(
    m: &mut Metrics,
    phase: &PhaseResult,
    before: &Counters,
    measured_at: &Counters,
    after: &Counters,
    settle_s: f64,
) {
    let d = |f: fn(&Counters) -> u64| (f(after) - f(before)) as f64;
    let wall_ns = (measured_at.at_ns - before.at_ns) as f64;

    let lookups = d(|c| c.cache_hits) + d(|c| c.cache_misses);
    let engine_lookups = d(|c| c.cache_misses);
    m.put("core.cache.hit_rate", ratio(d(|c| c.cache_hits), lookups), "ratio");
    m.put("core.cache.evictions", d(|c| c.cache_evictions), "count");

    let busy: Vec<f64> = measured_at
        .worker_busy_ns
        .iter()
        .zip(&before.worker_busy_ns)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let max_busy = busy.iter().copied().fold(0.0, f64::max);
    let min_busy = busy.iter().copied().fold(f64::MAX, f64::min);
    m.put(
        "core.worker.avg_batch",
        ratio(d(|c| c.worker_ops), d(|c| c.worker_batches)),
        "ops/call",
    );
    m.put(
        "core.worker.merge_ratio",
        ratio(d(|c| c.worker_merged), d(|c| c.worker_ops)),
        "ratio",
    );
    m.put(
        "core.worker.utilization",
        ratio(busy.iter().sum::<f64>(), wall_ns * busy.len() as f64),
        "ratio",
    );
    m.put("core.worker.busy_spread", ratio(max_busy, min_busy.max(1.0)), "ratio");
    m.put(
        "core.scan.chunks_per_scan",
        ratio(d(|c| c.scan_chunks), d(|c| c.scans)),
        "count",
    );

    let writes = d(|c| c.engine_writes);
    m.put("lsmkv.wal_us_per_write", ratio(d(|c| c.wal_ns) / 1e3, writes), "us");
    m.put(
        "lsmkv.memtable_us_per_write",
        ratio(d(|c| c.memtable_ns) / 1e3, writes),
        "us",
    );
    m.put(
        "lsmkv.memtable_hit_rate",
        ratio(d(|c| c.memtable_hits), engine_lookups),
        "ratio",
    );
    m.put(
        "lsmkv.bloom_skip_rate",
        ratio(d(|c| c.bloom_skips), engine_lookups),
        "1/lookup",
    );
    m.put("lsmkv.flushes", d(|c| c.flushes), "count");
    m.put("lsmkv.compactions", d(|c| c.compactions), "count");
    m.put("lsmkv.compaction_mb", d(|c| c.compaction_bytes) / MB, "MB");
    m.put("lsmkv.stall_ms", d(|c| c.stall_ns) / 1e6, "ms");
    m.put("lsmkv.settle_s", settle_s, "s");

    let io = after.io.delta(&before.io);
    let during = measured_at.io.delta(&before.io);
    m.put("storage.wal_mb", io.wal_bytes as f64 / MB, "MB");
    m.put(
        "storage.compaction_mb",
        (io.flush_bytes + io.compaction_bytes) as f64 / MB,
        "MB",
    );
    m.put("storage.read_mb", io.bytes_read as f64 / MB, "MB");
    m.put("storage.syncs", io.syncs as f64, "count");
    m.put("storage.write_ops", io.write_ops as f64, "count");
    m.put("storage.read_ops", io.read_ops as f64, "count");
    m.put(
        "storage.reads_per_get",
        ratio(during.read_ops as f64, engine_lookups),
        "1/lookup",
    );
    // Achieved against available per-queue depth while the clients ran.
    let depth = setup::device().queue_depth as f64;
    for (q, name) in ["storage.q0_util", "storage.q1_util"].into_iter().enumerate() {
        m.put(name, ratio(during.queues[q].busy_ns as f64, wall_ns * depth), "ratio");
    }
    m.put("storage.model_busy_s", io.busy_ns as f64 / 1e9, "s");

    m.put(
        "process.cpu_per_op_us",
        ratio((measured_at.cpu_ns - before.cpu_ns) as f64 / 1e3, phase.units as f64),
        "us",
    );
}

/// The reference pass's units ÷ wall time (every stall charged, where the
/// end-to-end throughput is a median over slices) and its client-side
/// latencies by call type, zero where the workload makes no such call.
fn client_metrics(m: &mut Metrics, phase: &PhaseResult) {
    m.put("client.overall_ops_s", phase.overall_rate(), "ops/s");
    for (prefix, kind) in [
        ("client.put_async", wl::LAT_PUT_ASYNC),
        ("client.get_burst", wl::LAT_GET_BURST),
        ("client.getmany", wl::LAT_GET_MANY),
        ("client.get", wl::LAT_GET),
        ("client.put", wl::LAT_PUT),
        ("core.scan", wl::LAT_SCAN),
        ("core.txn", wl::LAT_TXN),
    ] {
        m.put_latency(&format!("{prefix}.p50_us"), phase.latency_us(kind, 50.0));
        m.put_latency(&format!("{prefix}.p99_us"), phase.latency_us(kind, 99.0));
    }
}

/// The layer budget of the traced pass, in mean microseconds per client
/// call, and what tracing cost.
fn budget_metrics(m: &mut Metrics, b: &Budget, reference: &PhaseResult, traced: &PhaseResult) {
    let per_op_us = |ns: u64| ratio(ns as f64 / 1e3, b.ops as f64);
    m.put("trace.client_mean_us", per_op_us(b.client_ns), "us");
    m.put("core.cache.inline_us", per_op_us(b.inline_ns), "us");
    m.put("core.queue.wait_us", per_op_us(b.queue_wait_ns), "us");
    m.put("core.engine.self_us", per_op_us(b.engine_self_ns), "us");
    m.put("storage.wait_us", per_op_us(b.storage_wait_ns), "us");
    m.put("core.worker.complete_us", per_op_us(b.complete_ns), "us");
    let mut inline_get = b.inline_get_ns.clone();
    inline_get.sort_unstable();
    m.put(
        "core.cache.get_p50_ns",
        crate::stats::percentile(&inline_get, 50.0),
        "ns",
    );
    m.put(
        "trace.overhead_pct",
        (1.0 - ratio(traced.throughput(), reference.throughput())) * 100.0,
        "%",
    );
    m.put("trace.unmatched_pct", b.unmatched_pct(), "%");
    m.put("trace.budget_residual_pct", b.residual_pct(), "%");
}
