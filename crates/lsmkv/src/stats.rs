//! Engine statistics, including the write-path latency breakdown.
//!
//! The paper's root-cause analysis (Fig 6) splits user-thread write latency
//! into **WAL**, **MemTable**, **WAL lock**, **MemTable lock**, and
//! **Others**. The write queue records exactly those components per request
//! into [`WriteBreakdown`]; the `repro fig6` harness prints the resulting
//! percentages.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sum-and-count accumulator (nanoseconds).
#[derive(Default)]
pub struct LatencyAccumulator {
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl LatencyAccumulator {
    /// Records one observation.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum_ns() as f64 / c as f64
        }
    }
}

/// Per-write breakdown of where a user thread's time went.
#[derive(Default)]
pub struct WriteBreakdown {
    /// Executing write-ahead logging (encode + append + flush).
    pub wal: LatencyAccumulator,
    /// Inserting into the MemTable (skiplist update).
    pub memtable: LatencyAccumulator,
    /// Waiting for the group-logging leader (lock acquisition + wakeup).
    pub wal_lock: LatencyAccumulator,
    /// Synchronizing with the group during MemTable insertion.
    pub memtable_lock: LatencyAccumulator,
    /// Everything else (allocation, queueing, stalls).
    pub other: LatencyAccumulator,
}

/// A snapshot of the five breakdown components, averaged per write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakdownSnapshot {
    pub wal_us: f64,
    pub memtable_us: f64,
    pub wal_lock_us: f64,
    pub memtable_lock_us: f64,
    pub other_us: f64,
}

impl BreakdownSnapshot {
    /// Total average write latency in microseconds.
    pub fn total_us(&self) -> f64 {
        self.wal_us + self.memtable_us + self.wal_lock_us + self.memtable_lock_us + self.other_us
    }

    /// Percentage of the total spent in each component, in declaration
    /// order (WAL, MemTable, WAL lock, MemTable lock, Others).
    pub fn percentages(&self) -> [f64; 5] {
        let t = self.total_us();
        if t == 0.0 {
            return [0.0; 5];
        }
        [
            self.wal_us / t * 100.0,
            self.memtable_us / t * 100.0,
            self.wal_lock_us / t * 100.0,
            self.memtable_lock_us / t * 100.0,
            self.other_us / t * 100.0,
        ]
    }
}

impl WriteBreakdown {
    /// Averages per component, in microseconds.
    pub fn snapshot(&self) -> BreakdownSnapshot {
        BreakdownSnapshot {
            wal_us: self.wal.mean_ns() / 1e3,
            memtable_us: self.memtable.mean_ns() / 1e3,
            wal_lock_us: self.wal_lock.mean_ns() / 1e3,
            memtable_lock_us: self.memtable_lock.mean_ns() / 1e3,
            other_us: self.other.mean_ns() / 1e3,
        }
    }
}

/// What the compactions picked from one level took and wrote: one row of
/// the write-amplification ledger (DESIGN.md §13.6). A job at level L
/// merges `bytes_in` of L with `bytes_overlapped` of L+1 into
/// `bytes_written` at L+1; files that changed level without being
/// rewritten are counted apart and cost no table bytes.
#[derive(Default)]
pub struct LevelStats {
    /// Compactions that rewrote files of this level.
    pub jobs: AtomicU64,
    /// Files those jobs took from this level.
    pub files_in: AtomicU64,
    /// Bytes of those files.
    pub bytes_in: AtomicU64,
    /// Bytes of the output level the jobs rewrote with them.
    pub bytes_overlapped: AtomicU64,
    /// Bytes the jobs wrote to the output level.
    pub bytes_written: AtomicU64,
    /// Files moved to the output level by a manifest edit alone.
    pub files_moved: AtomicU64,
    /// Bytes of those files.
    pub bytes_moved: AtomicU64,
}

/// Cumulative counters for one database instance.
#[derive(Default)]
pub struct DbStats {
    /// Write-path latency breakdown.
    pub breakdown: WriteBreakdown,
    /// Completed write requests (user-visible, not groups).
    pub writes: AtomicU64,
    /// Write groups committed (leaders).
    pub write_groups: AtomicU64,
    /// Keys written.
    pub keys_written: AtomicU64,
    /// User bytes written (key+value payload).
    pub user_bytes_written: AtomicU64,
    /// Point lookups served.
    pub gets: AtomicU64,
    /// Multiget batches served.
    pub multigets: AtomicU64,
    /// Gets answered from a MemTable.
    pub memtable_hits: AtomicU64,
    /// MemTable searches skipped because the memtable's whole-key filter
    /// ruled the key out (one per key and memtable).
    pub memtable_filter_skips: AtomicU64,
    /// SST probes skipped thanks to bloom filters.
    pub bloom_skips: AtomicU64,
    /// MemTable flushes (minor compactions).
    pub flushes: AtomicU64,
    /// Major compactions run.
    pub compactions: AtomicU64,
    /// Bytes read by compactions.
    pub compaction_bytes_read: AtomicU64,
    /// Table bytes written by flushes *and* compactions: `flush_bytes_written`
    /// plus every level's `bytes_written`. The benchmark's
    /// `lsmkv.compaction_mb` reads this sum, so it keeps this meaning.
    pub compaction_bytes_written: AtomicU64,
    /// Table bytes written by flushes alone.
    pub flush_bytes_written: AtomicU64,
    /// WAL bytes appended, record framing included.
    pub wal_bytes_written: AtomicU64,
    /// MANIFEST and CURRENT bytes written.
    pub manifest_bytes_written: AtomicU64,
    /// Per source level, what its compactions took and wrote.
    pub levels: Vec<LevelStats>,
    /// Nanoseconds writers spent stalled on L0/imm backpressure.
    pub stall_ns: AtomicU64,
    /// CPU time consumed by background flush/compaction jobs.
    pub bg_busy: LatencyAccumulator,
    /// Read-path time (memtable probe + SST lookups) per `get`/`multiget`
    /// call. The cumulative sum is the read-phase clock p2KVS samples
    /// around an engine call to attribute trace time to the read path.
    pub read_path: LatencyAccumulator,
}

impl DbStats {
    /// Creates zeroed stats for a tree of `num_levels` levels.
    pub fn new(num_levels: usize) -> DbStats {
        DbStats {
            levels: (0..num_levels).map(|_| LevelStats::default()).collect(),
            ..DbStats::default()
        }
    }

    /// Every counter and breakdown component as `(name, value)` pairs
    /// with `engine_`-prefixed Prometheus-style names — the shape the
    /// p2KVS observability registry samples per instance. Breakdown
    /// components are per-write averages in microseconds (the Fig 6
    /// split); `*_total` entries are cumulative counts.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let b = self.breakdown.snapshot();
        let c = |counter: &AtomicU64| counter.load(Ordering::Relaxed) as f64;
        let mut out = vec![
            ("engine_wal_us".to_string(), b.wal_us),
            ("engine_memtable_us".to_string(), b.memtable_us),
            ("engine_wal_lock_us".to_string(), b.wal_lock_us),
            ("engine_memtable_lock_us".to_string(), b.memtable_lock_us),
            ("engine_other_us".to_string(), b.other_us),
            ("engine_write_us".to_string(), b.total_us()),
            ("engine_writes_total".to_string(), c(&self.writes)),
            (
                "engine_write_groups_total".to_string(),
                c(&self.write_groups),
            ),
            (
                "engine_keys_written_total".to_string(),
                c(&self.keys_written),
            ),
            (
                "engine_user_bytes_written_total".to_string(),
                c(&self.user_bytes_written),
            ),
            ("engine_gets_total".to_string(), c(&self.gets)),
            ("engine_multigets_total".to_string(), c(&self.multigets)),
            (
                "engine_memtable_hits_total".to_string(),
                c(&self.memtable_hits),
            ),
            (
                "engine_memtable_filter_skips_total".to_string(),
                c(&self.memtable_filter_skips),
            ),
            ("engine_bloom_skips_total".to_string(), c(&self.bloom_skips)),
            ("engine_flushes_total".to_string(), c(&self.flushes)),
            ("engine_compactions_total".to_string(), c(&self.compactions)),
            (
                "engine_compaction_bytes_read_total".to_string(),
                c(&self.compaction_bytes_read),
            ),
            (
                "engine_compaction_bytes_written_total".to_string(),
                c(&self.compaction_bytes_written),
            ),
            ("engine_stall_ns_total".to_string(), c(&self.stall_ns)),
            (
                "engine_bg_busy_ns_total".to_string(),
                self.bg_busy.sum_ns() as f64,
            ),
            (
                "engine_read_ns_total".to_string(),
                self.read_path.sum_ns() as f64,
            ),
            (
                "engine_flush_bytes_written_total".to_string(),
                c(&self.flush_bytes_written),
            ),
            (
                "engine_wal_bytes_written_total".to_string(),
                c(&self.wal_bytes_written),
            ),
            (
                "engine_manifest_bytes_written_total".to_string(),
                c(&self.manifest_bytes_written),
            ),
        ];
        // One set of `level`-labeled series per level that has been
        // compacted from.
        for (level, l) in self.levels.iter().enumerate() {
            if c(&l.jobs) + c(&l.files_moved) == 0.0 {
                continue;
            }
            for (name, counter) in [
                ("jobs", &l.jobs),
                ("files_in", &l.files_in),
                ("bytes_in", &l.bytes_in),
                ("bytes_overlapped", &l.bytes_overlapped),
                ("bytes_written", &l.bytes_written),
                ("files_moved", &l.files_moved),
                ("bytes_moved", &l.bytes_moved),
            ] {
                out.push((
                    format!("engine_level_{name}_total{{level=\"{level}\"}}"),
                    c(counter),
                ));
            }
        }
        out
    }

    /// Every byte the engine has asked the device to write: WAL, MANIFEST,
    /// flush output and every level's compaction output. The env's own
    /// `bytes_written` is the check on it.
    pub fn device_bytes_written(&self) -> u64 {
        let c = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        c(&self.wal_bytes_written)
            + c(&self.manifest_bytes_written)
            + c(&self.flush_bytes_written)
            + self.levels.iter().map(|l| c(&l.bytes_written)).sum::<u64>()
    }

    /// The write-amplification ledger as a table: one row per source of
    /// device writes, each with its bytes per user byte, summing to the
    /// total. Level rows also show what VAT (arXiv 2003.00103) prices a
    /// level by — the ratio of output-level bytes to level bytes a job
    /// actually merged.
    pub fn write_amp_table(&self) -> String {
        let c = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let user = c(&self.user_bytes_written).max(1) as f64;
        let mb = |bytes: u64| bytes as f64 / 1e6;
        let mut t = format!(
            "{:<8} {:>5} {:>6} {:>8} {:>10} {:>8} {:>6} {:>10} {:>7}\n",
            "source",
            "jobs",
            "files",
            "in MB",
            "overlap MB",
            "moved MB",
            "ratio",
            "written MB",
            "w-amp"
        );
        let mut row = |name: &str, level: Option<&LevelStats>, written: u64| {
            let detail = level.map_or_else(
                || " ".repeat(48),
                |l| {
                    format!(
                        "{:>5} {:>6} {:>8.1} {:>10.1} {:>8.1} {:>6.2}",
                        c(&l.jobs),
                        c(&l.files_in),
                        mb(c(&l.bytes_in)),
                        mb(c(&l.bytes_overlapped)),
                        mb(c(&l.bytes_moved)),
                        c(&l.bytes_overlapped) as f64 / c(&l.bytes_in).max(1) as f64,
                    )
                },
            );
            t.push_str(&format!(
                "{name:<8} {detail} {:>10.1} {:>7.3}\n",
                mb(written),
                written as f64 / user
            ));
        };
        row("WAL", None, c(&self.wal_bytes_written));
        row("MANIFEST", None, c(&self.manifest_bytes_written));
        row("flush", None, c(&self.flush_bytes_written));
        for (level, l) in self.levels.iter().enumerate() {
            if c(&l.jobs) + c(&l.files_moved) > 0 {
                row(
                    &format!("L{level}->L{}", level + 1),
                    Some(l),
                    c(&l.bytes_written),
                );
            }
        }
        row("total", None, self.device_bytes_written());
        t
    }

    /// Adds `d` to the stall-time counter.
    pub fn add_stall(&self, d: Duration) {
        self.stall_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Convenience relaxed add.
    #[inline]
    pub fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_math() {
        let a = LatencyAccumulator::default();
        assert_eq!(a.mean_ns(), 0.0);
        a.record(100);
        a.record(300);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum_ns(), 400);
        assert_eq!(a.mean_ns(), 200.0);
    }

    #[test]
    fn breakdown_percentages_sum_to_100() {
        let b = WriteBreakdown::default();
        b.wal.record(2_100);
        b.memtable.record(2_900);
        b.wal_lock.record(1_000);
        b.memtable_lock.record(500);
        b.other.record(3_500);
        let snap = b.snapshot();
        let total: f64 = snap.percentages().iter().sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert!((snap.total_us() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = WriteBreakdown::default();
        assert_eq!(b.snapshot().percentages(), [0.0; 5]);
    }

    #[test]
    fn metrics_expose_breakdown_and_counters() {
        let s = DbStats::new(7);
        s.breakdown.wal.record(2_000);
        s.breakdown.memtable.record(1_000);
        DbStats::bump(&s.writes, 3);
        DbStats::bump(&s.flushes, 1);
        DbStats::bump(&s.memtable_filter_skips, 5);
        let metrics = s.metrics();
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing metric {name}"))
                .1
        };
        assert!((get("engine_wal_us") - 2.0).abs() < 1e-9);
        assert!((get("engine_memtable_us") - 1.0).abs() < 1e-9);
        assert_eq!(get("engine_writes_total"), 3.0);
        assert_eq!(get("engine_flushes_total"), 1.0);
        assert_eq!(get("engine_memtable_filter_skips_total"), 5.0);
        assert!(
            metrics.iter().all(|(n, _)| n.starts_with("engine_")),
            "all engine metrics share the engine_ prefix"
        );
    }

    #[test]
    fn ledger_rows_are_labeled_by_level_and_sum_to_the_device_bytes() {
        let s = DbStats::new(4);
        DbStats::bump(&s.user_bytes_written, 1_000);
        DbStats::bump(&s.wal_bytes_written, 1_100);
        DbStats::bump(&s.manifest_bytes_written, 10);
        DbStats::bump(&s.flush_bytes_written, 1_050);
        DbStats::bump(&s.levels[0].jobs, 1);
        DbStats::bump(&s.levels[0].bytes_in, 1_050);
        DbStats::bump(&s.levels[0].bytes_overlapped, 2_100);
        DbStats::bump(&s.levels[0].bytes_written, 3_000);
        DbStats::bump(&s.levels[2].files_moved, 2);
        DbStats::bump(&s.levels[2].bytes_moved, 500);
        assert_eq!(s.device_bytes_written(), 1_100 + 10 + 1_050 + 3_000);
        let metrics = s.metrics();
        let get = |name: &str| metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(
            get("engine_level_bytes_written_total{level=\"0\"}"),
            Some(3_000.0)
        );
        assert_eq!(
            get("engine_level_bytes_moved_total{level=\"2\"}"),
            Some(500.0)
        );
        assert_eq!(get("engine_level_jobs_total{level=\"2\"}"), Some(0.0));
        // A level nothing was compacted from has no row.
        assert_eq!(get("engine_level_jobs_total{level=\"1\"}"), None);
        let table = s.write_amp_table();
        assert_eq!(table.lines().count(), 1 + 3 + 2 + 1, "{table}");
        let l0 = table.lines().find(|l| l.starts_with("L0->L1")).unwrap();
        assert!(l0.contains("2.00") && l0.ends_with("3.000"), "{l0}");
        assert!(table.lines().last().unwrap().ends_with("5.160"), "{table}");
    }

    #[test]
    fn stall_accumulates() {
        let s = DbStats::new(7);
        s.add_stall(Duration::from_micros(5));
        s.add_stall(Duration::from_micros(7));
        assert_eq!(s.stall_ns.load(Ordering::Relaxed), 12_000);
    }
}
