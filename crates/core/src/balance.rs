//! Skew-aware rebalancing policy.
//!
//! The balancer closes the gap the paper's static `Hash(key) % N` layout
//! leaves open: under zipfian skew (YCSB-B, θ=0.99) a handful of shards
//! carry most of the load, and whichever workers own them saturate while
//! the rest idle. Because shards outnumber workers (default `4×`), load
//! can be evened out by **moving shard ownership** — pure queue
//! redirection, no data movement — which this module decides and
//! `P2Kvs::rebalance_once` executes via the epoch-fenced handoff.
//!
//! The policy is deliberately simple and allocation-light: per tick it
//! compares the busiest and idlest workers by accumulated per-shard
//! service time and, when the ratio between them exceeds
//! [`BalancePolicy::min_ratio`], proposes moving the hottest shard whose
//! transfer strictly reduces the pair's maximum. Proposals that cannot
//! help (the busiest worker owns a single shard, or its hottest shard is
//! larger than the gap) are skipped — oscillation is structurally
//! impossible because every accepted move lowers `max(busiest, idlest)`.

use crate::shard::ShardMap;

/// Tunables for the rebalancing decision.
#[derive(Debug, Clone, Copy)]
pub struct BalancePolicy {
    /// Trigger threshold: rebalance only when the busiest worker's load
    /// exceeds `min_ratio ×` the idlest worker's. 1.25 tolerates normal
    /// jitter; 1.0 chases noise.
    pub min_ratio: f64,
    /// Migrations proposed per tick. Handoffs are serialized and cheap
    /// (no data moves), but each waits out the submit path once — keep
    /// this small.
    pub max_moves: usize,
}

impl Default for BalancePolicy {
    fn default() -> Self {
        BalancePolicy {
            min_ratio: 1.25,
            max_moves: 2,
        }
    }
}

/// Tunables for utilization-driven pool scaling (DESIGN.md §14). When
/// [`crate::store::P2KvsOptions::scale`] carries one, each balancer tick
/// also compares the interval's aggregate busy time against what the
/// live workers *should* absorb at `target_util`, and scales the pool
/// one worker per tick toward the derived size — retiring via the
/// epoch-fenced drain, spawning with fresh rings.
#[derive(Debug, Clone, Copy)]
pub struct ScalePolicy {
    /// Per-worker busy fraction the pool aims for. The desired size is
    /// `ceil(busy_time / (target_util × interval))`: 0.6 keeps workers
    /// ~60% busy, leaving headroom for bursts.
    pub target_util: f64,
    /// Never retire below this many workers.
    pub min_workers: usize,
    /// Never spawn above this many workers.
    pub max_workers: usize,
    /// Ticks to sit out after a scale operation before the next one —
    /// the pool must not thrash on one interval's noise (migration
    /// costs are small but not free: each drain waits out the submit
    /// path once per shard moved).
    pub cooldown: u32,
}

impl Default for ScalePolicy {
    fn default() -> Self {
        ScalePolicy {
            target_util: 0.6,
            min_workers: 1,
            max_workers: 8,
            cooldown: 2,
        }
    }
}

impl ScalePolicy {
    /// The pool size that would absorb `busy_ns` of aggregate service
    /// time over an `interval_ns` window at `target_util` per worker,
    /// clamped to `[min_workers, max_workers]`.
    pub fn desired_workers(&self, busy_ns: u64, interval_ns: u64) -> usize {
        let per_worker = (interval_ns as f64 * self.target_util).max(1.0);
        let want = (busy_ns as f64 / per_worker).ceil() as usize;
        let floor = self.min_workers.max(1);
        want.clamp(floor, self.max_workers.max(floor))
    }
}

/// Plans up to [`BalancePolicy::max_moves`] ownership migrations given
/// the current map, the **live** worker ids (the elastic pool may have
/// retired slots), and the per-shard load observed since the last tick
/// (`load[s]` in any consistent unit — the store feeds service-time
/// nanoseconds). Returns `(shard, target_worker)` pairs; later pairs
/// assume earlier ones applied.
pub(crate) fn plan_moves(
    map: &ShardMap,
    live: &[usize],
    load: &[u64],
    policy: &BalancePolicy,
) -> Vec<(usize, usize)> {
    debug_assert_eq!(load.len(), map.shards());
    if live.is_empty() {
        return Vec::new();
    }
    let slots = live.iter().max().unwrap() + 1;
    let mut owner: Vec<usize> = (0..map.shards()).map(|s| map.owner(s)).collect();
    let mut per_worker = vec![0u64; slots];
    for (s, o) in owner.iter().enumerate() {
        if *o < slots {
            per_worker[*o] += load[s];
        }
    }
    let mut moves = Vec::new();
    for _ in 0..policy.max_moves {
        let busiest = match live.iter().copied().max_by_key(|w| per_worker[*w]) {
            Some(w) => w,
            None => break,
        };
        let idlest = match live.iter().copied().min_by_key(|w| per_worker[*w]) {
            Some(w) => w,
            None => break,
        };
        if busiest == idlest {
            break;
        }
        let hot = per_worker[busiest] as f64;
        let cold = per_worker[idlest] as f64;
        if hot < policy.min_ratio * cold.max(1.0) {
            break;
        }
        // The hottest shard on the busiest worker whose move strictly
        // reduces max(busiest, idlest): receiving it must leave the
        // idlest below the busiest's current load.
        let candidate = owner
            .iter()
            .enumerate()
            .filter(|(s, o)| {
                **o == busiest
                    && load[*s] > 0
                    && per_worker[idlest] + load[*s] < per_worker[busiest]
            })
            .max_by_key(|(s, _)| load[*s])
            .map(|(s, _)| s);
        let Some(shard) = candidate else { break };
        owner[shard] = idlest;
        per_worker[busiest] -= load[shard];
        per_worker[idlest] += load[shard];
        moves.push((shard, idlest));
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(shards: usize, workers: usize) -> ShardMap {
        ShardMap::initial(shards, workers)
    }

    #[test]
    fn balanced_load_plans_nothing() {
        // 8 shards, 2 workers, uniform load.
        let m = map(8, 2);
        let load = vec![100u64; 8];
        assert!(plan_moves(&m, &[0, 1], &load, &BalancePolicy::default()).is_empty());
    }

    #[test]
    fn skewed_load_moves_the_hot_shard_to_the_idle_worker() {
        // Worker 0 owns shards {0,2,4,6}; shard 0 is scorching.
        let m = map(8, 2);
        let mut load = vec![10u64; 8];
        load[0] = 1000;
        load[2] = 400;
        let moves = plan_moves(
            &m,
            &[0, 1],
            &load,
            &BalancePolicy {
                min_ratio: 1.25,
                max_moves: 1,
            },
        );
        // Worker 0 carries 1420 vs worker 1's 40; receiving shard 0
        // leaves worker 1 at 1040 < 1420, so the hottest shard itself
        // is movable and the greedy policy takes it.
        assert_eq!(moves, vec![(0, 1)]);
    }

    #[test]
    fn movable_hot_shard_goes_to_idlest() {
        // 4 workers; worker 0 carries two hot shards, everyone else idle.
        let m = map(8, 4);
        let mut load = vec![0u64; 8];
        load[0] = 500; // worker 0
        load[4] = 450; // worker 0
        load[1] = 10; // worker 1
        let moves = plan_moves(&m, &[0, 1, 2, 3], &load, &BalancePolicy::default());
        assert!(!moves.is_empty());
        let (shard, target) = moves[0];
        assert!(shard == 0 || shard == 4, "a hot shard moves");
        assert_ne!(target, 0, "away from the hot worker");
    }

    #[test]
    fn single_hot_shard_larger_than_gap_stays_put() {
        // Worker 0's only loaded shard is so hot that moving it would
        // just swap which worker saturates — no move.
        let m = map(2, 2);
        let load = vec![1000u64, 10];
        assert!(plan_moves(&m, &[0, 1], &load, &BalancePolicy::default()).is_empty());
    }

    #[test]
    fn below_threshold_imbalance_is_tolerated() {
        let m = map(4, 2);
        // Worker 0: 110, worker 1: 100 — inside the 1.25 dead band.
        let load = vec![60u64, 50, 50, 50];
        assert!(plan_moves(&m, &[0, 1], &load, &BalancePolicy::default()).is_empty());
    }

    #[test]
    fn successive_moves_account_for_earlier_ones() {
        // Two hot shards on worker 0 and max_moves 2: the second move
        // must see the first one applied (both must not dogpile onto the
        // same target blindly).
        let m = map(8, 4);
        let mut load = vec![1u64; 8];
        load[0] = 300;
        load[4] = 300;
        let moves = plan_moves(
            &m,
            &[0, 1, 2, 3],
            &load,
            &BalancePolicy {
                min_ratio: 1.1,
                max_moves: 2,
            },
        );
        assert_eq!(moves.len(), 2);
        assert_ne!(moves[0].1, moves[1].1, "hot shards spread to different workers");
    }

    #[test]
    fn retired_slots_never_receive_moves() {
        // The elastic pool retired worker 1: the live set is {0, 2}.
        // Every shard worker 1 used to own has already been drained, so
        // the plan must only ever target live ids.
        let m = map(8, 4);
        let mut load = vec![1u64; 8];
        load[0] = 500; // worker 0
        load[4] = 400; // worker 0
        let moves = plan_moves(
            &m,
            &[0, 2, 3],
            &load,
            &BalancePolicy {
                min_ratio: 1.1,
                max_moves: 2,
            },
        );
        assert!(!moves.is_empty());
        for (_, target) in &moves {
            assert_ne!(*target, 1, "retired slot 1 must not be a target");
        }
    }

    #[test]
    fn empty_and_single_live_sets_plan_nothing() {
        let m = map(4, 2);
        let load = vec![1000u64, 0, 0, 0];
        assert!(plan_moves(&m, &[], &load, &BalancePolicy::default()).is_empty());
        assert!(plan_moves(&m, &[0], &load, &BalancePolicy::default()).is_empty());
    }

    #[test]
    fn desired_workers_tracks_aggregate_busy_time() {
        let p = ScalePolicy {
            target_util: 0.5,
            min_workers: 1,
            max_workers: 8,
            cooldown: 0,
        };
        // 2s busy over a 1s window at 50% target → 4 workers.
        assert_eq!(p.desired_workers(2_000_000_000, 1_000_000_000), 4);
        // Idle window collapses to the floor.
        assert_eq!(p.desired_workers(0, 1_000_000_000), 1);
        // Saturation clamps at the ceiling.
        assert_eq!(p.desired_workers(100_000_000_000, 1_000_000_000), 8);
    }

    #[test]
    fn desired_workers_respects_min_floor() {
        let p = ScalePolicy {
            target_util: 0.6,
            min_workers: 2,
            max_workers: 6,
            cooldown: 1,
        };
        assert_eq!(p.desired_workers(0, 1_000_000_000), 2);
        // Fractional demand rounds up: 0.7s busy at 0.6 target = 1.16…
        // workers → 2 (already the floor), 1.3s → 3.
        assert_eq!(p.desired_workers(1_300_000_000, 1_000_000_000), 3);
    }
}
