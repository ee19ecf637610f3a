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
//! compares the busiest and idlest workers by the requests their shards
//! served since the last tick and, when the ratio between them exceeds
//! [`MIN_RATIO`], proposes moving the hottest shard whose
//! transfer strictly reduces the pair's maximum. Proposals that cannot
//! help (the busiest worker owns a single shard, or its hottest shard is
//! larger than the gap) are skipped — oscillation is structurally
//! impossible because every accepted move lowers `max(busiest, idlest)`.
//!
//! The load is a count, not a clock reading (DESIGN.md §9.4): the ops a
//! fixed op stream sends to each shard do not depend on how the host
//! scheduled the threads that served them, so the same stream always
//! yields the same plan.

use crate::shard::ShardMap;

/// Trigger threshold: the balancer rebalances only when the busiest
/// worker's load exceeds `MIN_RATIO ×` the idlest worker's. 1.25
/// tolerates normal jitter; 1.0 chases noise.
pub(crate) const MIN_RATIO: f64 = 1.25;

/// Migrations the balancer proposes per tick. Handoffs are serialized
/// and cheap (no data moves), but each waits out the submit path once —
/// keep this small.
pub(crate) const MAX_MOVES: usize = 2;

/// Plans up to `max_moves` ownership migrations given the current map,
/// the store's `workers` (ids `0..workers`), and the per-shard load
/// observed since the last tick (`load[s]` in any consistent unit — the
/// store feeds requests served). A move is planned only while the
/// busiest worker carries more than `min_ratio ×` the idlest one's load
/// (the store passes [`MIN_RATIO`] and [`MAX_MOVES`]). Returns
/// `(shard, target_worker)` pairs; later pairs assume earlier ones
/// applied.
pub(crate) fn plan_moves(
    map: &ShardMap,
    workers: usize,
    load: &[u64],
    min_ratio: f64,
    max_moves: usize,
) -> Vec<(usize, usize)> {
    debug_assert_eq!(load.len(), map.shards());
    let mut owner: Vec<usize> = (0..map.shards()).map(|s| map.owner(s)).collect();
    let mut per_worker = vec![0u64; workers];
    for (s, o) in owner.iter().enumerate() {
        per_worker[*o] += load[s];
    }
    let mut moves = Vec::new();
    for _ in 0..max_moves {
        let Some(busiest) = (0..workers).max_by_key(|w| per_worker[*w]) else {
            break;
        };
        let Some(idlest) = (0..workers).min_by_key(|w| per_worker[*w]) else {
            break;
        };
        if busiest == idlest {
            break;
        }
        let hot = per_worker[busiest] as f64;
        let cold = per_worker[idlest] as f64;
        if hot < min_ratio * cold.max(1.0) {
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
        assert!(plan_moves(&m, 2, &load, MIN_RATIO, MAX_MOVES).is_empty());
    }

    #[test]
    fn skewed_load_moves_the_hot_shard_to_the_idle_worker() {
        // Worker 0 owns shards {0,2,4,6}; shard 0 is scorching.
        let m = map(8, 2);
        let mut load = vec![10u64; 8];
        load[0] = 1000;
        load[2] = 400;
        let moves = plan_moves(&m, 2, &load, 1.25, 1);
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
        let moves = plan_moves(&m, 4, &load, MIN_RATIO, MAX_MOVES);
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
        assert!(plan_moves(&m, 2, &load, MIN_RATIO, MAX_MOVES).is_empty());
    }

    #[test]
    fn below_threshold_imbalance_is_tolerated() {
        let m = map(4, 2);
        // Worker 0: 110, worker 1: 100 — inside the 1.25 dead band.
        let load = vec![60u64, 50, 50, 50];
        assert!(plan_moves(&m, 2, &load, MIN_RATIO, MAX_MOVES).is_empty());
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
        let moves = plan_moves(&m, 4, &load, 1.1, 2);
        assert_eq!(moves.len(), 2);
        assert_ne!(
            moves[0].1, moves[1].1,
            "hot shards spread to different workers"
        );
    }

    #[test]
    fn a_lone_worker_or_an_idle_store_plans_nothing() {
        let load = vec![1000u64, 0, 0, 0];
        assert!(plan_moves(&map(4, 1), 1, &load, MIN_RATIO, MAX_MOVES).is_empty());
        assert!(plan_moves(&map(4, 2), 2, &[0; 4], MIN_RATIO, MAX_MOVES).is_empty());
    }
}
