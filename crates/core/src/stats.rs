//! Aggregated framework statistics.

use std::time::Duration;

/// Snapshot of one worker's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSnapshot {
    /// Requests completed, in keys (a multi-key read counts each key).
    pub ops: u64,
    /// Engine calls issued.
    pub batches: u64,
    /// Requests (in keys) that rode in multi-request batches.
    pub merged_ops: u64,
    /// Streaming scans opened.
    pub scans: u64,
    /// Scan chunks served (first chunks plus resumes).
    pub scan_chunks: u64,
    /// Cursor resumptions served.
    pub scan_resumes: u64,
    /// Cursors currently parked on the worker.
    pub active_scans: u64,
    /// Shards this worker currently owns.
    pub shards_owned: u64,
    /// Shards handed away (this worker was a migration source).
    pub handoffs_out: u64,
    /// Shards installed (this worker was a migration target).
    pub handoffs_in: u64,
    /// Requests held for a shard whose install marker had not yet
    /// arrived, then replayed at install.
    pub stashed: u64,
    /// Stale-epoch requests forwarded to the current owner. The routing
    /// fence keeps this at zero; the stress suites assert it.
    pub rerouted: u64,
    /// Times the worker found its ring empty (past the yield bound, if
    /// it ran one) and slept; the request ending each sleep paid a wake-up.
    pub parks: u64,
    /// Useful processing time.
    pub busy: Duration,
    /// Device wait the worker did not pay because the shard groups of a
    /// drained run overlapped their I/O.
    pub io_overlap_saved: Duration,
    /// Current queue depth.
    pub queue_depth: usize,
    /// Whether the slot currently runs a worker thread. Retired slots
    /// stay in the snapshot with their final counters (and zero
    /// `shards_owned`/`active_scans`/`queue_depth` — the drain zeroes
    /// them before the thread exits).
    pub live: bool,
}

/// Snapshot of one shard's cumulative load and current placement.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Requests executed against this shard.
    pub ops: u64,
    /// Worker service time spent on this shard.
    pub busy: Duration,
    /// The worker currently owning the shard.
    pub owner: usize,
}

/// Snapshot of the whole store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSnapshot {
    /// Per-worker counters.
    pub workers: Vec<WorkerSnapshot>,
    /// Per-shard load and ownership.
    pub shards: Vec<ShardSnapshot>,
    /// Completed shard-ownership migrations since open.
    pub migrations: u64,
    /// Blocking client calls that parked: they waited for a wake-up on
    /// top of the engine.
    pub waiter_parks: u64,
    /// Wall time since open.
    pub uptime: Duration,
    /// Approximate resident memory across engines.
    pub mem_usage: usize,
}

impl StoreSnapshot {
    /// Total requests completed.
    pub fn total_ops(&self) -> u64 {
        self.workers.iter().map(|w| w.ops).sum()
    }

    /// Mean requests per engine call across workers.
    pub fn avg_batch_size(&self) -> f64 {
        let ops: u64 = self.workers.iter().map(|w| w.ops).sum();
        let batches: u64 = self.workers.iter().map(|w| w.batches).sum();
        if batches == 0 {
            0.0
        } else {
            ops as f64 / batches as f64
        }
    }

    /// Fraction of requests that were merged by OBM.
    pub fn merge_ratio(&self) -> f64 {
        let ops: u64 = self.workers.iter().map(|w| w.ops).sum();
        let merged: u64 = self.workers.iter().map(|w| w.merged_ops).sum();
        if ops == 0 {
            0.0
        } else {
            merged as f64 / ops as f64
        }
    }

    /// Per-worker CPU utilization (busy / uptime), one entry per worker.
    pub fn worker_utilization(&self) -> Vec<f64> {
        let wall = self.uptime.as_secs_f64().max(1e-9);
        self.workers
            .iter()
            .map(|w| (w.busy.as_secs_f64() / wall).min(1.0))
            .collect()
    }

    /// Busiest-to-idlest worker ratio by busy time — the skew gauge the
    /// rebalancing benchmark reports. 1.0 is perfectly even; large
    /// values mean some workers saturate while others idle. Workers
    /// with (near-)zero busy time clamp to the measurement floor so an
    /// idle store reports 1.0, not infinity.
    pub fn busy_spread(&self) -> f64 {
        let floor = 1e-6;
        let busy: Vec<f64> = self
            .workers
            .iter()
            .map(|w| w.busy.as_secs_f64().max(floor))
            .collect();
        match (
            busy.iter().cloned().reduce(f64::max),
            busy.iter().cloned().reduce(f64::min),
        ) {
            (Some(max), Some(min)) => max / min,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(ops: u64, batches: u64, merged_ops: u64, busy: Duration) -> WorkerSnapshot {
        WorkerSnapshot {
            ops,
            batches,
            merged_ops,
            scans: 0,
            scan_chunks: 0,
            scan_resumes: 0,
            active_scans: 0,
            shards_owned: 1,
            handoffs_out: 0,
            handoffs_in: 0,
            stashed: 0,
            rerouted: 0,
            parks: 0,
            busy,
            io_overlap_saved: Duration::ZERO,
            queue_depth: 0,
            live: true,
        }
    }

    fn snap() -> StoreSnapshot {
        StoreSnapshot {
            workers: vec![
                WorkerSnapshot {
                    scans: 2,
                    scan_chunks: 6,
                    scan_resumes: 4,
                    active_scans: 1,
                    ..worker(100, 25, 80, Duration::from_millis(500))
                },
                WorkerSnapshot {
                    queue_depth: 3,
                    ..worker(60, 15, 40, Duration::from_millis(250))
                },
            ],
            shards: vec![
                ShardSnapshot {
                    ops: 100,
                    busy: Duration::from_millis(500),
                    owner: 0,
                },
                ShardSnapshot {
                    ops: 60,
                    busy: Duration::from_millis(250),
                    owner: 1,
                },
            ],
            migrations: 0,
            waiter_parks: 0,
            uptime: Duration::from_secs(1),
            mem_usage: 1024,
        }
    }

    #[test]
    fn aggregates() {
        let s = snap();
        assert_eq!(s.total_ops(), 160);
        assert!((s.avg_batch_size() - 4.0).abs() < 1e-9);
        assert!((s.merge_ratio() - 0.75).abs() < 1e-9);
        let util = s.worker_utilization();
        assert!((util[0] - 0.5).abs() < 1e-9);
        assert!((util[1] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn busy_spread_is_max_over_min() {
        let s = snap();
        assert!((s.busy_spread() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = StoreSnapshot {
            workers: vec![],
            shards: vec![],
            migrations: 0,
            waiter_parks: 0,
            uptime: Duration::from_secs(1),
            mem_usage: 0,
        };
        assert_eq!(s.total_ops(), 0);
        assert_eq!(s.avg_batch_size(), 0.0);
        assert_eq!(s.merge_ratio(), 0.0);
        assert_eq!(s.busy_spread(), 1.0);
    }
}
