//! The crash-point recovery matrix: a seeded workload over a real
//! [`P2Kvs`] store on a [`FaultyEnv`], an acked-writes oracle, and a
//! driver that power-fails the store at chosen sync points and validates
//! what recovery brings back.
//!
//! # How a matrix run works
//!
//! 1. **Dry run** — execute the workload with no fault plan and read
//!    [`FaultyEnv::sync_points`]: the number of globally numbered sync
//!    requests (WAL, TXNLOG, MANIFEST, SSTs, ...) the workload issues.
//!    Crashing *at* sync point N yields the durable state between syncs
//!    N-1 and N, so those numbers enumerate every distinct durable state.
//! 2. **Crash runs** — for each sampled point, run the same workload on a
//!    fresh env with `crash_at_sync = N` (plus a deterministic torn-tail
//!    budget so part of the crashing file's unsynced bytes survive).
//!    Operations issued after the crash fail; the driver records every
//!    ack in an [`Oracle`].
//! 3. **Recover + validate** — [`FaultyEnv::heal`] the env (power comes
//!    back), reopen through [`P2Kvs::open`] (TXNLOG recovery + GSN-
//!    filtered WAL replay), and check the recovered state against the
//!    oracle.
//!
//! # The oracle
//!
//! The workload runs `SyncPolicy::Always`, so an acked-Ok write is
//! durable by contract. Per key, the recovered value must equal the
//! effect of some attempted write at issue-order index >= the last
//! acked-Ok index (a failed or unacked later write *may* still have
//! reached the durable prefix — e.g. a torn tail that survived — but an
//! acked write may never be lost). Cross-instance transactions must be
//! atomic: a run's txn keys are fresh and unique, so after recovery each
//! transaction is all-present (mandatory when its commit was acked) or
//! all-absent.
//!
//! Workloads are deterministic in the *sequence of operations* (keys,
//! values, op kinds derive from the seed only), not in engine-internal
//! interleaving — which is why each crash run validates against the acks
//! it observed itself.

use std::collections::{HashMap, HashSet};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use lsmkv::SyncPolicy;
use p2kvs::engine::LsmFactory;
use p2kvs::{HashPartitioner, JournalKind, P2Kvs, P2KvsOptions, Partitioner, WriteOp};
use p2kvs_storage::{
    DeviceModel, DeviceProfile, EnvRef, FaultPlan, FaultyEnv, MemEnv, MemFs, QueueId,
};
use p2kvs_util::rng::Rng;

/// Workers (and therefore engine instances) every matrix store runs.
pub const WORKERS: usize = 4;
/// Distinct keys the plain/async phases write to.
const KEY_POOL: u64 = 24;
/// Rounds of (plain ops, async burst, cross-instance transaction).
const ROUNDS: usize = 8;
/// Blocking single-key ops per round.
const PLAIN_PER_ROUND: usize = 22;
/// `put_async` ops per round (quiesced before the round's transaction).
const BURST_PER_ROUND: usize = 8;
/// Keys per cross-instance transaction (spanning >= 2 instances).
const TXN_KEYS: usize = 4;
/// Bound on waiting for an async ack; trips only if a worker wedges.
const ACK_TIMEOUT: Duration = Duration::from_secs(30);

/// One attempted write to one key, in issue order.
#[derive(Clone)]
struct KeyWrite {
    /// Key state after this write applies (`None` = deleted).
    effect: Option<Vec<u8>>,
    /// Whether the store acked it Ok (durable under `SyncPolicy::Always`).
    acked: bool,
}

#[derive(Default, Clone)]
struct KeyHistory {
    writes: Vec<KeyWrite>,
}

/// A cross-instance transaction the workload attempted.
#[derive(Clone)]
pub struct TxnRecord {
    /// Fresh keys, unique to this transaction, spanning >= 2 instances.
    pub keys: Vec<Vec<u8>>,
    /// Value written to each key.
    pub values: Vec<Vec<u8>>,
    /// Whether `write_batch` returned Ok (commit record durable).
    pub acked: bool,
}

/// Everything one workload run attempted and which acks came back.
/// `Clone` lets the backup matrix freeze a copy at the cut — the acked
/// state an online backup's restore must reproduce exactly.
#[derive(Default, Clone)]
pub struct Oracle {
    keys: HashMap<Vec<u8>, KeyHistory>,
    /// Transactions in issue order.
    pub txns: Vec<TxnRecord>,
}

impl Oracle {
    fn record(&mut self, key: &[u8], effect: Option<Vec<u8>>, acked: bool) -> usize {
        let hist = self.keys.entry(key.to_vec()).or_default();
        hist.writes.push(KeyWrite { effect, acked });
        hist.writes.len() - 1
    }

    fn mark_acked(&mut self, key: &[u8], idx: usize) {
        self.keys.get_mut(key).expect("recorded key").writes[idx].acked = true;
    }

    /// Checks a recovered state (as a point-lookup function) against the
    /// oracle; returns human-readable violations, empty when consistent.
    pub fn check(&self, get: impl FnMut(&[u8]) -> Option<Vec<u8>>) -> Vec<String> {
        self.check_inner(get, true)
    }

    /// Like [`Oracle::check`] but without the all-or-nothing claim for
    /// *unacked* transactions. A failed cross-instance batch has no undo
    /// path: its applied sub-batches stay visible in the live store, and
    /// if a later flush writes them into an SST they survive recovery
    /// too (the flush-before-commit limitation — see DESIGN.md). Full
    /// rollback is only guaranteed when the failure is a crash, which
    /// freezes the store before any such flush; that case uses `check`.
    pub fn check_acked_only(&self, get: impl FnMut(&[u8]) -> Option<Vec<u8>>) -> Vec<String> {
        self.check_inner(get, false)
    }

    fn check_inner(
        &self,
        mut get: impl FnMut(&[u8]) -> Option<Vec<u8>>,
        unacked_atomicity: bool,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        for (key, hist) in &self.keys {
            let got = get(key);
            let last_acked = hist.writes.iter().rposition(|w| w.acked);
            if last_acked.is_none() && got.is_none() {
                continue; // Nothing acked; "never applied" is fine.
            }
            let start = last_acked.unwrap_or(0);
            let allowed = hist.writes[start..]
                .iter()
                .any(|w| w.effect.as_deref() == got.as_deref());
            if !allowed {
                violations.push(format!(
                    "key {}: recovered {} but the last acked write (index {start} \
                     of {}) and everything after it have different effects",
                    String::from_utf8_lossy(key),
                    got.as_deref().map_or("<absent>".into(), |v| String::from_utf8_lossy(v).into_owned()),
                    hist.writes.len(),
                ));
            }
        }
        for (t, txn) in self.txns.iter().enumerate() {
            let mut present = 0;
            let mut wrong = 0;
            for (k, v) in txn.keys.iter().zip(&txn.values) {
                match get(k) {
                    Some(got) if got == *v => present += 1,
                    Some(_) => wrong += 1,
                    None => {}
                }
            }
            if wrong > 0 {
                violations.push(format!("txn {t}: {wrong} key(s) hold foreign values"));
            }
            if txn.acked && present != txn.keys.len() {
                violations.push(format!(
                    "txn {t}: committed (acked) but only {present}/{} keys recovered",
                    txn.keys.len()
                ));
            } else if unacked_atomicity && !txn.acked && present != 0 && present != txn.keys.len() {
                violations.push(format!(
                    "txn {t}: atomicity violated — {present}/{} keys recovered",
                    txn.keys.len()
                ));
            }
        }
        violations
    }
}

/// Engine options every matrix store uses: always-sync WAL (acked => the
/// oracle may demand durability), memtables small enough that flushes,
/// SST writes and MANIFEST edits all land inside the workload's sync-
/// point range, and backpressure limits high enough that a post-crash
/// flush backlog can never stall (and so wedge) the finite workload.
pub fn engine_options(env: EnvRef) -> lsmkv::Options {
    let mut o = lsmkv::Options::rocksdb_like(env);
    o.sync = SyncPolicy::Always;
    o.memtable_size = 1 << 10;
    o.target_file_size = 2 << 10;
    o.base_level_size = 8 << 10;
    o.max_immutable_memtables = 8;
    o.l0_slowdown_trigger = 50;
    o.l0_stop_trigger = 100;
    o.compaction_threads = 1;
    o
}

/// Store options for the matrix: [`WORKERS`] instances, no core pinning
/// (CI runners), no metrics sampling overhead. Uses the paper layout
/// (`shards == workers`, no balancer) so engine dir `instance-{i}`
/// holds exactly partition `i` of the store's own `HashPartitioner` —
/// [`unfiltered_partial_txn`] relies on that mapping.
pub fn store_options() -> P2KvsOptions {
    let mut o = P2KvsOptions::paper_layout(WORKERS);
    o.pin_workers = false;
    o.metrics = false;
    o
}

/// Store options for the migration matrix: shards decoupled from
/// workers (`2×` [`WORKERS`]) so ownership handoffs are meaningful;
/// balancer off — the driver migrates at deterministic points instead.
pub fn migration_store_options() -> P2KvsOptions {
    let mut o = P2KvsOptions::with_workers(WORKERS);
    o.shards = 2 * WORKERS;
    o.pin_workers = false;
    o.metrics = false;
    o
}

fn open_store(env: &EnvRef) -> p2kvs::Result<P2Kvs<lsmkv::Db>> {
    P2Kvs::open(LsmFactory::new(engine_options(env.clone())), "db", store_options())
}

fn pool_key(i: u64) -> Vec<u8> {
    format!("key-{i:03}").into_bytes()
}

/// Deterministic fresh keys for round `round`'s transaction, salted until
/// they span at least two instances under the store's own partitioner.
fn txn_keys(round: usize) -> Vec<Vec<u8>> {
    let part = HashPartitioner::new(WORKERS);
    let mut salt = 0u64;
    loop {
        let keys: Vec<Vec<u8>> = (0..TXN_KEYS)
            .map(|j| format!("txn-{round}-{salt}-{j}").into_bytes())
            .collect();
        let spanned: HashSet<usize> = keys.iter().map(|k| part.shard_of(k)).collect();
        if spanned.len() >= 2 {
            return keys;
        }
        salt += 1;
    }
}

/// Runs the seeded workload against `store`, recording every attempted
/// write and every ack. The op sequence depends only on `seed`; after a
/// crash fires, the remaining ops simply come back as errors (unacked).
pub fn run_workload(store: &P2Kvs<lsmkv::Db>, seed: u64) -> Oracle {
    run_workload_hooked(store, seed, |_, _| {})
}

/// Like [`run_workload`] but invoking `hook(round, store)` at the end
/// of every round — the migration matrix uses it to hand shard
/// ownership between workers in the middle of the stream of acked
/// writes. The hook does not touch the RNG, so the op sequence stays
/// identical to the hook-free run.
pub fn run_workload_hooked(
    store: &P2Kvs<lsmkv::Db>,
    seed: u64,
    mut hook: impl FnMut(usize, &P2Kvs<lsmkv::Db>),
) -> Oracle {
    run_workload_with_oracle(store, seed, |round, st, _| hook(round, st))
}

/// Like [`run_workload_hooked`] but the hook also sees the oracle as
/// recorded so far. The backup matrix clones it the moment an online
/// backup's cut lands: with the workload quiesced between rounds, the
/// clone is exactly the acked state a restore of that backup must
/// reproduce.
pub fn run_workload_with_oracle(
    store: &P2Kvs<lsmkv::Db>,
    seed: u64,
    mut hook: impl FnMut(usize, &P2Kvs<lsmkv::Db>, &Oracle),
) -> Oracle {
    let mut rng = Rng::new(seed);
    let mut oracle = Oracle::default();
    let mut op_no: u64 = 0;
    for round in 0..ROUNDS {
        for _ in 0..PLAIN_PER_ROUND {
            op_no += 1;
            let key = pool_key(rng.below(KEY_POOL));
            if rng.below(7) == 0 {
                let acked = store.delete(&key).is_ok();
                oracle.record(&key, None, acked);
            } else {
                let value = format!("v-{op_no}-{:08x}", rng.next_u64() as u32).into_bytes();
                let acked = store.put(&key, &value).is_ok();
                oracle.record(&key, Some(value), acked);
            }
        }
        // Async burst, then quiesce: every callback is awaited before the
        // transaction below, so no non-transactional write is in flight
        // during the txn's [apply, commit] window (see DESIGN.md on the
        // flush-before-commit limitation).
        let (tx, rx) = mpsc::channel::<(Vec<u8>, usize, bool)>();
        let mut enqueued = 0;
        for _ in 0..BURST_PER_ROUND {
            op_no += 1;
            let key = pool_key(rng.below(KEY_POOL));
            let value = format!("a-{op_no}-{:08x}", rng.next_u64() as u32).into_bytes();
            let idx = oracle.record(&key, Some(value.clone()), false);
            let tx = tx.clone();
            let key_for_cb = key.clone();
            let pushed = store.put_async(&key, &value, move |r| {
                let _ = tx.send((key_for_cb, idx, r.is_ok()));
            });
            if pushed.is_ok() {
                enqueued += 1;
            }
        }
        drop(tx);
        for _ in 0..enqueued {
            match rx.recv_timeout(ACK_TIMEOUT) {
                Ok((key, idx, true)) => oracle.mark_acked(&key, idx),
                Ok(_) => {}
                Err(_) => panic!("async ack timed out — a worker wedged after a fault"),
            }
        }
        // One cross-instance transaction at a time, on fresh keys.
        let keys = txn_keys(round);
        let mut values = Vec::with_capacity(keys.len());
        for _ in &keys {
            op_no += 1;
            values.push(format!("t-{op_no}-{:08x}", rng.next_u64() as u32).into_bytes());
        }
        let ops: Vec<WriteOp> = keys
            .iter()
            .zip(&values)
            .map(|(k, v)| WriteOp::Put { key: k.clone(), value: v.clone() })
            .collect();
        let acked = store.write_batch(ops).is_ok();
        for (k, v) in keys.iter().zip(&values) {
            oracle.record(k, Some(v.clone()), acked);
        }
        oracle.txns.push(TxnRecord { keys, values, acked });
        hook(round, store, &oracle);
    }
    oracle
}

/// Dry-runs the workload and returns the total number of sync points it
/// exposes — the crash-point space of the matrix.
pub fn dry_run_sync_points(seed: u64) -> u64 {
    let faulty = Arc::new(FaultyEnv::over_mem());
    let env: EnvRef = faulty.clone();
    let store = open_store(&env).expect("fault-free open");
    run_workload(&store, seed);
    store.close();
    faulty.sync_points()
}

/// The result of one crash run.
pub struct CrashPointOutcome {
    /// The sync point the crash was planned at.
    pub point: u64,
    /// Whether the crash actually fired (a run can issue slightly fewer
    /// syncs than the dry run when group commit merges differently).
    pub crashed: bool,
    /// Oracle violations found in the recovered store; empty = pass.
    pub violations: Vec<String>,
    /// Flight-recorder records recovery parsed back out of `FLIGHT.log`.
    /// Usually positive (the creation-time `StoreOpen` is synced); zero
    /// only when the crash landed inside the journal's own first syncs.
    pub recovered_flight: usize,
}

/// Flight-recorder checks for a recovered store: the journal parsed back
/// from `FLIGHT.log` must be a gap-free sequence rooted at the store's
/// very first record (its creation-time [`JournalKind::StoreOpen`]). A
/// crash may cost unsynced *suffix* records — the torn tail — but must
/// never punch a hole in the middle or lose the head once later records
/// survived.
pub fn flight_journal_violations(store: &P2Kvs<lsmkv::Db>) -> Vec<String> {
    let mut v = Vec::new();
    let recs = store.recovered_flight_records();
    if let Some(gap) = p2kvs::obs::sequence_gap(recs) {
        v.push(format!("flight journal recovered with a hole: {gap}"));
    }
    if let Some(first) = recs.first() {
        if first.seq != 1 {
            v.push(format!(
                "flight journal lost its head: first recovered seq is {} (want 1)",
                first.seq
            ));
        }
        if first.kind != JournalKind::StoreOpen {
            v.push(format!(
                "flight journal's first record is {}, not store_open",
                first.kind.name()
            ));
        }
    }
    v
}

/// One crash-matrix variant: the store a run opens (before the crash
/// and again to recover), what disturbs it at the end of every workload
/// round, and what the recovered store owes beyond the oracle and
/// flight-journal checks every variant gets.
pub struct Scenario {
    /// Options both the crashed and the recovering store open with.
    pub options: P2KvsOptions,
    /// Runs at the end of every round, between acked writes. After the
    /// crash fires its operations fail like the workload's own — it must
    /// ignore errors — and it must not touch the RNG, so every variant
    /// issues the same op sequence.
    pub disturb: fn(usize, &P2Kvs<lsmkv::Db>),
    /// Extra violations found in the recovered store.
    pub post_check: fn(&P2Kvs<lsmkv::Db>) -> Vec<String>,
}

/// Walks a different shard across the workers each round, so sync
/// points land before, during, and after epoch-fenced handoffs.
fn migrate_one_shard(round: usize, store: &P2Kvs<lsmkv::Db>) {
    let _ = store.migrate_shard(round % store.shards(), (round + 1) % WORKERS);
}

/// Thrashes the pool around its opening size: even rounds grow to
/// `WORKERS + 1` (a fresh ring spawns), odd rounds shrink to
/// `WORKERS - 1` (the two highest live workers drain *every* shard they
/// own through the handoff, then their rings close and the threads
/// join), so sync points land between a retiring worker's per-shard
/// drains, right after a `worker_spawn` journal record, mid-join.
fn thrash_pool(round: usize, store: &P2Kvs<lsmkv::Db>) {
    let n = if round % 2 == 0 {
        WORKERS + 1
    } else {
        WORKERS - 1
    };
    let _ = store.scale_workers(n);
}

/// Reads the whole key pool, warming the read cache between rounds.
fn warm_cache(store: &P2Kvs<lsmkv::Db>) {
    for i in 0..KEY_POOL {
        let _ = store.get(&pool_key(i));
    }
}

/// The read cache is volatile: a reopen must stamp a fresh cache reset
/// (`cache_flush` with the sentinel shard) into the live journal,
/// sequenced after everything recovery brought back — proof a recovered
/// store never trusts pre-crash cache state.
fn cache_reset_journaled(store: &P2Kvs<lsmkv::Db>) -> Vec<String> {
    let recovered_max = store.recovered_flight_records().last().map_or(0, |r| r.seq);
    let reset = store
        .flight_records(usize::MAX)
        .iter()
        .any(|r| r.kind == JournalKind::CacheFlush && r.a == u64::MAX && r.seq > recovered_max);
    if reset {
        Vec::new()
    } else {
        vec![format!(
            "reopen journaled no cache_flush reset record after recovered seq {recovered_max}"
        )]
    }
}

impl Scenario {
    /// The paper layout, undisturbed.
    pub fn plain() -> Scenario {
        Scenario {
            options: store_options(),
            disturb: |_, _| {},
            post_check: |_| Vec::new(),
        }
    }

    /// Shards decoupled from workers and a shard migration every round.
    /// Recovery reopens under a fresh (round-robin) map — durability
    /// must not depend on which worker owned a shard at the crash.
    pub fn migration() -> Scenario {
        Scenario {
            options: migration_store_options(),
            disturb: migrate_one_shard,
            ..Scenario::plain()
        }
    }

    /// The migration layout with a `scale_workers` call every round.
    /// Recovery reopens at the fixed size: durability must not depend on
    /// how many workers were alive, or which were mid-retirement.
    pub fn scale() -> Scenario {
        Scenario {
            disturb: thrash_pool,
            ..Scenario::migration()
        }
    }

    /// The migration scenario with the read cache on and warmed every
    /// round, so the crash can land while the cache holds hot entries, a
    /// write is invalidating, or a handoff is flushing a shard's cached
    /// set.
    pub fn cached() -> Scenario {
        let mut options = migration_store_options();
        options.cache_capacity = 1 << 20;
        Scenario {
            options,
            disturb: |round, store| {
                warm_cache(store);
                migrate_one_shard(round, store);
            },
            post_check: cache_reset_journaled,
        }
    }

    /// Every disturbance in the same round: warm the cache, hand a shard
    /// off, then resize the pool under both.
    pub fn combined() -> Scenario {
        Scenario {
            disturb: |round, store| {
                warm_cache(store);
                migrate_one_shard(round, store);
                thrash_pool(round, store);
            },
            ..Scenario::cached()
        }
    }
}

/// Runs the workload under `scenario` with a crash planned at sync point
/// `point`, heals, recovers through [`P2Kvs::open`], and validates
/// against the oracle.
pub fn run_crash_scenario(seed: u64, point: u64, scenario: &Scenario) -> CrashPointOutcome {
    let faulty = Arc::new(FaultyEnv::over_mem());
    let env: EnvRef = faulty.clone();
    faulty.set_plan(FaultPlan {
        crash_at_sync: Some(point),
        // Vary the torn-write length deterministically with the point so
        // the matrix also covers partial unsynced tails surviving.
        torn_tail: (point % 17) as usize,
        ..FaultPlan::default()
    });
    let open = || {
        P2Kvs::open(
            LsmFactory::new(engine_options(env.clone())),
            "db",
            scenario.options.clone(),
        )
    };
    let oracle = match open() {
        // A crash with a small `point` fires during store creation.
        Err(_) => Oracle::default(),
        Ok(store) => {
            let oracle = run_workload_hooked(&store, seed, scenario.disturb);
            store.close();
            oracle
        }
    };
    let crashed = faulty.crashed();
    faulty.heal();
    let store = match open() {
        Ok(s) => s,
        Err(e) => {
            return CrashPointOutcome {
                point,
                crashed,
                violations: vec![format!("recovery failed to reopen the store: {e}")],
                recovered_flight: 0,
            }
        }
    };
    let mut violations = oracle.check(|k| store.get(k).expect("post-recovery read"));
    violations.extend(flight_journal_violations(&store));
    violations.extend((scenario.post_check)(&store));
    let recovered_flight = store.recovered_flight_records().len();
    store.close();
    CrashPointOutcome { point, crashed, violations, recovered_flight }
}

/// Which round's hook starts the online backup in the backup matrix.
const BACKUP_ROUND: usize = 2;
/// Which round's hook reaps the streamer — three rounds of foreground
/// writes, migrations, and transactions overlap the streaming window.
const BACKUP_WAIT_ROUND: usize = 5;

/// The result of one backup-under-crash run.
pub struct BackupCrashOutcome {
    /// The sync point the crash was planned at.
    pub point: u64,
    /// Whether the crash actually fired.
    pub crashed: bool,
    /// Whether the online backup's streamer completed (durable MANIFEST).
    /// `false` under an early crash — the matrix then asserts the
    /// partial directory is *rejected* by restore.
    pub backup_completed: bool,
    /// Violations across the recovered store and the restored copy.
    pub violations: Vec<String>,
}

/// Dry-runs the backup workload (same op stream, plus the online backup
/// and its streaming syncs) and returns the sync-point space. The
/// streamer runs concurrently with foreground syncs, so the numbering is
/// not exactly reproducible run-to-run — the count only sizes the
/// matrix; every crash run validates against its own observed acks.
pub fn dry_run_sync_points_with_backup(seed: u64) -> u64 {
    let faulty = Arc::new(FaultyEnv::over_mem());
    let env: EnvRef = faulty.clone();
    let store = P2Kvs::open(
        LsmFactory::new(engine_options(env.clone())),
        "db",
        migration_store_options(),
    )
    .expect("fault-free open");
    let mut handle = None;
    run_workload_with_oracle(&store, seed, |round, st, _| {
        migrate_one_shard(round, st);
        if round == BACKUP_ROUND {
            handle = st.backup("backup").ok();
        }
        if round == BACKUP_WAIT_ROUND {
            if let Some(h) = handle.take() {
                h.wait().expect("fault-free backup");
            }
        }
    });
    store.close();
    faulty.sync_points()
}

/// Backup-torture crash run: the migration workload with an online
/// backup cut at round [`BACKUP_ROUND`] and streamed concurrently with
/// the next three rounds, power-failed at sync point `point` — which can
/// land before the cut, inside the freeze window, mid-stream, or after
/// the `MANIFEST` sync. After healing:
///
/// * the primary store must recover per the standard oracle contract
///   (backup machinery must never weaken crash recovery), and
/// * a **completed** backup must restore to a store byte-identical to
///   the cut-time acked state — with nothing from past the cut leaking
///   in — no matter where the crash landed, while
/// * an **incomplete** backup directory must be rejected by
///   [`P2Kvs::restore`] with a clean [`p2kvs::Error::Backup`], never
///   fabricating a store from partial files.
pub fn run_crash_point_with_backup(seed: u64, point: u64) -> BackupCrashOutcome {
    let faulty = Arc::new(FaultyEnv::over_mem());
    let env: EnvRef = faulty.clone();
    faulty.set_plan(FaultPlan {
        crash_at_sync: Some(point),
        torn_tail: (point % 17) as usize,
        ..FaultPlan::default()
    });
    let open = |env: &EnvRef| {
        P2Kvs::open(
            LsmFactory::new(engine_options(env.clone())),
            "db",
            migration_store_options(),
        )
    };
    let mut handle: Option<p2kvs::BackupHandle> = None;
    let mut cut: Option<Oracle> = None;
    let mut completed = false;
    let oracle = match open(&env) {
        // A crash with a small `point` fires during store creation.
        Err(_) => Oracle::default(),
        Ok(store) => {
            let oracle = run_workload_with_oracle(&store, seed, |round, st, so_far| {
                // Keep the handoff pressure of the migration matrix: the
                // cut must hold across shard ownership changes both
                // before the freeze and during streaming.
                migrate_one_shard(round, st);
                if round == BACKUP_ROUND {
                    // After the crash the cut may fail outright (marker
                    // pushes or the freeze hit dead queues) — that run
                    // simply has no backup to restore.
                    if let Ok(h) = st.backup("backup") {
                        handle = Some(h);
                        cut = Some(so_far.clone());
                    }
                }
                if round == BACKUP_WAIT_ROUND {
                    if let Some(h) = handle.take() {
                        completed = h.wait().is_ok();
                    }
                }
            });
            store.close();
            oracle
        }
    };
    if let Some(h) = handle.take() {
        completed = h.wait().is_ok();
    }
    let crashed = faulty.crashed();
    faulty.heal();
    let mut violations = Vec::new();
    // 1. The primary store recovers per the standard contract.
    match open(&env) {
        Ok(store) => {
            violations.extend(oracle.check(|k| store.get(k).expect("post-recovery read")));
            violations.extend(flight_journal_violations(&store));
            store.close();
        }
        Err(e) => violations.push(format!("recovery failed to reopen the store: {e}")),
    }
    let restore = |dest: &str| {
        P2Kvs::restore(
            LsmFactory::new(engine_options(env.clone())),
            "backup",
            dest,
            migration_store_options(),
        )
    };
    if completed {
        // 2a. A completed backup restores to the cut, crash or no crash.
        let cut = cut.as_ref().expect("a completed backup implies a recorded cut");
        match restore("restored") {
            Ok(restored) => {
                violations.extend(
                    cut.check(|k| restored.get(k).expect("restored-copy read"))
                        .into_iter()
                        .map(|v| format!("restored copy: {v}")),
                );
                // Nothing leaks past the horizon: transactions issued
                // after the cut use fresh keys, so every one of them
                // must be absent from the copy.
                for (t, txn) in oracle.txns.iter().enumerate().skip(cut.txns.len()) {
                    for k in &txn.keys {
                        if restored.get(k).expect("restored-copy read").is_some() {
                            violations.push(format!(
                                "restored copy: post-cut txn {t} key {} leaked past the horizon",
                                String::from_utf8_lossy(k)
                            ));
                        }
                    }
                }
                // The copy carried the flight journal: gap-free, rooted
                // at the source's creation record, with the cut's own
                // provenance in it.
                violations.extend(
                    flight_journal_violations(&restored)
                        .into_iter()
                        .map(|v| format!("restored copy: {v}")),
                );
                let kinds: Vec<JournalKind> = restored
                    .recovered_flight_records()
                    .iter()
                    .map(|r| r.kind)
                    .collect();
                for want in [JournalKind::BackupBegin, JournalKind::BackupComplete] {
                    if !kinds.contains(&want) {
                        violations.push(format!(
                            "restored copy: recovered journal lacks {}",
                            want.name()
                        ));
                    }
                }
                restored.close();
            }
            Err(e) => violations.push(format!("restore of a completed backup failed: {e}")),
        }
    } else if crashed {
        // 2b. The backup never completed; whatever partial directory the
        // crash left behind must be rejected cleanly.
        match restore("restored") {
            Err(p2kvs::Error::Backup(_)) => {}
            Err(e) => violations.push(format!(
                "partial backup rejected with the wrong error kind: {e}"
            )),
            Ok(_) => {
                violations.push("restore opened a store from a partial backup".into())
            }
        }
    }
    BackupCrashOutcome { point, crashed, backup_completed: completed, violations }
}

/// Submission queues the queue-targeted subcompaction matrix models.
pub const QUEUE_MATRIX_QUEUES: usize = 4;

/// Engine options for the subcompaction matrix: the standard crash-
/// matrix tuning plus parallel compaction — two background jobs at
/// disjoint levels and three-way range-partitioned subcompactions, so a
/// major compaction has several output files in flight on different
/// queues when the power fails.
pub fn parallel_engine_options(env: EnvRef) -> lsmkv::Options {
    let mut o = engine_options(env);
    o.compaction_threads = 2;
    o.subcompactions = 3;
    o
}

/// A [`FaultyEnv`] over an instant-timing multi-queue device: the fault
/// layer counts appends and syncs **per submission queue** (the same
/// pin-then-ambient resolution the timing layer uses), so
/// [`FaultPlan::crash_at_queue_sync`] can target "the Nth sync on queue
/// q" deterministically even while concurrent compaction threads make
/// the *global* interleaving nondeterministic.
pub fn faulty_multi_queue(queues: usize) -> Arc<FaultyEnv> {
    let fs = Arc::new(MemFs::new());
    let device = Arc::new(DeviceModel::from_profile(
        DeviceProfile::instant().with_queues(queues),
    ));
    let inner = Arc::new(MemEnv::with_parts(fs.clone(), Some(device)));
    Arc::new(FaultyEnv::new(inner, fs))
}

/// Dry-runs the parallel workload on the multi-queue env and returns the
/// per-queue sync counts — the crash-point space of the queue matrix.
/// With queue affinity on (`WORKERS` == queues), shard `s`'s WAL and
/// flushes ride queue `s`, while subcompaction outputs spread over the
/// queues *after* the instance's home queue; every queue therefore
/// exposes both WAL and compaction-output sync points. Counts on
/// off-home queues vary slightly run-to-run (compaction scheduling is
/// load-dependent); they size the matrix, and every crash run validates
/// against the acks it observed itself.
pub fn dry_run_queue_sync_points(seed: u64) -> Vec<u64> {
    let faulty = faulty_multi_queue(QUEUE_MATRIX_QUEUES);
    let env: EnvRef = faulty.clone();
    let store = P2Kvs::open(
        LsmFactory::new(parallel_engine_options(env.clone())),
        "db",
        store_options(),
    )
    .expect("fault-free open");
    run_workload(&store, seed);
    store.close();
    (0..QUEUE_MATRIX_QUEUES).map(|q| faulty.sync_points_on(q)).collect()
}

/// Queue-targeted crash run: the parallel workload power-failed when the
/// `point`-th sync lands **on queue `queue`** — with subcompactions
/// spreading output files across queues, points on an instance's
/// off-home queues land in the middle of multi-threaded compactions,
/// between one subcompaction's output sync and its siblings'. After
/// healing, recovery must satisfy the standard oracle contract, and a
/// full store scan must read every surviving SST end to end: a version
/// edit that installed a truncated or torn subcompaction output would
/// surface here as a read error or a lost acked write.
pub fn run_queue_crash_point(seed: u64, queue: QueueId, point: u64) -> CrashPointOutcome {
    let faulty = faulty_multi_queue(QUEUE_MATRIX_QUEUES);
    let env: EnvRef = faulty.clone();
    faulty.set_plan(FaultPlan {
        crash_at_queue_sync: Some((queue, point)),
        // Deterministic torn-tail budget, varied so the matrix also
        // covers partially surviving unsynced compaction output.
        torn_tail: ((point + queue as u64) % 17) as usize,
        ..FaultPlan::default()
    });
    let open = |env: &EnvRef| {
        P2Kvs::open(
            LsmFactory::new(parallel_engine_options(env.clone())),
            "db",
            store_options(),
        )
    };
    let oracle = match open(&env) {
        // A crash with a small `point` fires during store creation.
        Err(_) => Oracle::default(),
        Ok(store) => {
            let oracle = run_workload(&store, seed);
            store.close();
            oracle
        }
    };
    let crashed = faulty.crashed();
    faulty.heal();
    let store = match open(&env) {
        Ok(s) => s,
        Err(e) => {
            return CrashPointOutcome {
                point,
                crashed,
                violations: vec![format!("recovery failed to reopen the store: {e}")],
                recovered_flight: 0,
            }
        }
    };
    let mut violations = oracle.check(|k| store.get(k).expect("post-recovery read"));
    violations.extend(flight_journal_violations(&store));
    // Truncated-output check: walk the whole recovered keyspace. The
    // scan touches every SST the recovered version sets reference — an
    // installed-but-torn compaction output fails the read here even when
    // the affected keys also exist in older, still-live files.
    if let Err(e) = store.range(b"", &[0xffu8; 8]) {
        violations.push(format!(
            "full scan of the recovered store failed — a version set references \
             unreadable (truncated?) compaction output: {e}"
        ));
    }
    let recovered_flight = store.recovered_flight_records().len();
    store.close();
    CrashPointOutcome { point, crashed, violations, recovered_flight }
}

/// The sampled crash points for a space of `total` sync points: every one
/// of the first 160, then a stride over the rest. Dense early coverage
/// catches creation/metadata crashes; the stride keeps the matrix bounded
/// while still visiting late flush/compaction states.
pub fn sample_points(total: u64) -> Vec<u64> {
    let dense_until = 160.min(total);
    let mut points: Vec<u64> = (1..=dense_until).collect();
    if total > dense_until {
        let rest = total - dense_until;
        let stride = (rest / 80).max(1);
        let mut p = dense_until + stride;
        while p <= total {
            points.push(p);
            p += stride;
        }
    }
    points
}

/// Negative control: runs the workload with a crash at `point`, then
/// reopens every instance **directly and without the GSN recovery
/// filter**. Returns `Some((present, total))` when some transaction that
/// was in flight at the crash is *partially* visible — the exact state
/// the p2KVS rollback (§4.5) exists to hide. `None` when the crash did
/// not fire, no transaction was in flight, or the naked replay happened
/// to be all-or-nothing at this point.
pub fn unfiltered_partial_txn(seed: u64, point: u64) -> Option<(usize, usize)> {
    let faulty = Arc::new(FaultyEnv::over_mem());
    let env: EnvRef = faulty.clone();
    faulty.set_plan(FaultPlan {
        crash_at_sync: Some(point),
        ..FaultPlan::default()
    });
    let store = open_store(&env).ok()?;
    let oracle = run_workload(&store, seed);
    store.close();
    if !faulty.crashed() {
        return None;
    }
    faulty.heal();
    let part = HashPartitioner::new(WORKERS);
    let dbs: Vec<Option<lsmkv::Db>> = (0..WORKERS)
        .map(|i| lsmkv::Db::open(engine_options(env.clone()), format!("db/instance-{i}")).ok())
        .collect();
    for txn in oracle.txns.iter().filter(|t| !t.acked) {
        let mut present = 0;
        for (k, v) in txn.keys.iter().zip(&txn.values) {
            let db = match &dbs[part.shard_of(k)] {
                Some(db) => db,
                None => continue,
            };
            if db.get(k).ok().flatten().as_deref() == Some(v.as_slice()) {
                present += 1;
            }
        }
        if present > 0 && present < txn.keys.len() {
            return Some((present, txn.keys.len()));
        }
    }
    None
}

/// Differential fault run (no crash): executes the workload on a store
/// whose env injects a transient sync failure at global sync `fail_sync`
/// and a transient read failure at global read `fail_read`, then checks
/// the **live** store and the **reopened** store against the oracle.
/// Returns the violations found (empty = the faulted history stayed
/// inside the oracle envelope).
pub fn differential_fault_run(
    seed: u64,
    fail_sync: Option<u64>,
    fail_read: Option<u64>,
) -> Vec<String> {
    let faulty = Arc::new(FaultyEnv::over_mem());
    let env: EnvRef = faulty.clone();
    faulty.set_plan(FaultPlan {
        fail_sync,
        fail_read,
        ..FaultPlan::default()
    });
    let store = match open_store(&env) {
        Ok(s) => s,
        // The injected fault hit store creation; a retry must succeed
        // (transient model) and there is no history to validate.
        Err(first) => {
            faulty.heal();
            match open_store(&env) {
                Ok(s) => {
                    s.close();
                    return Vec::new();
                }
                Err(e) => {
                    return vec![format!(
                        "transient fault at creation ({first}) wedged the store: reopen failed: {e}"
                    )]
                }
            }
        }
    };
    let oracle = run_workload(&store, seed);
    faulty.heal();
    // `check_acked_only`: a transiently failed cross-instance batch has
    // no undo path, so its applied sub-batches legitimately stay visible
    // (live, and — via the flush-before-commit window — possibly after
    // reopen too). Crash runs use the full check instead.
    let mut violations = oracle.check_acked_only(|k| store.get(k).expect("live read after heal"));
    store.close();
    match open_store(&env) {
        Ok(reopened) => {
            violations.extend(
                oracle
                    .check_acked_only(|k| reopened.get(k).expect("post-reopen read"))
                    .into_iter()
                    .map(|v| format!("after reopen: {v}")),
            );
            violations.extend(flight_journal_violations(&reopened));
            // No crash happened, so even unsynced journal appends reached
            // the env: the whole history must come back, not a prefix.
            if reopened.recovered_flight_records().is_empty() {
                violations.push("no crash, yet reopen recovered an empty flight journal".into());
            }
            reopened.close();
        }
        Err(e) => violations.push(format!("reopen after transient faults failed: {e}")),
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_exact_acked_state() {
        let mut o = Oracle::default();
        o.record(b"k", Some(b"v1".to_vec()), true);
        o.record(b"k", Some(b"v2".to_vec()), true);
        let state: HashMap<Vec<u8>, Vec<u8>> =
            [(b"k".to_vec(), b"v2".to_vec())].into_iter().collect();
        assert!(o.check(|k| state.get(k).cloned()).is_empty());
    }

    #[test]
    fn oracle_rejects_lost_acked_write() {
        let mut o = Oracle::default();
        o.record(b"k", Some(b"v1".to_vec()), true);
        // Recovered as v0-era absent: the acked write was lost.
        let v = o.check(|_| None);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn oracle_allows_unacked_tail_to_survive_or_not() {
        let mut o = Oracle::default();
        o.record(b"k", Some(b"v1".to_vec()), true);
        o.record(b"k", Some(b"v2".to_vec()), false); // in flight at crash
        let with_tail: HashMap<Vec<u8>, Vec<u8>> =
            [(b"k".to_vec(), b"v2".to_vec())].into_iter().collect();
        let without: HashMap<Vec<u8>, Vec<u8>> =
            [(b"k".to_vec(), b"v1".to_vec())].into_iter().collect();
        assert!(o.check(|k| with_tail.get(k).cloned()).is_empty());
        assert!(o.check(|k| without.get(k).cloned()).is_empty());
        // ...but rolling back past the acked write is a violation.
        assert!(!o.check(|_| None).is_empty());
    }

    #[test]
    fn oracle_rejects_partial_transaction() {
        let mut o = Oracle::default();
        let keys = vec![b"ta".to_vec(), b"tb".to_vec()];
        let values = vec![b"1".to_vec(), b"2".to_vec()];
        for (k, v) in keys.iter().zip(&values) {
            o.record(k, Some(v.clone()), false);
        }
        o.txns.push(TxnRecord { keys, values, acked: false });
        let partial: HashMap<Vec<u8>, Vec<u8>> =
            [(b"ta".to_vec(), b"1".to_vec())].into_iter().collect();
        let v = o.check(|k| partial.get(k).cloned());
        assert!(v.iter().any(|m| m.contains("atomicity")), "{v:?}");
        // The acked-only variant tolerates exactly this partial state
        // (no-undo limitation for transient failures).
        assert!(o.check_acked_only(|k| partial.get(k).cloned()).is_empty());
        // All-absent and all-present are both fine for an unacked txn.
        assert!(o.check(|_| None).is_empty());
        let full: HashMap<Vec<u8>, Vec<u8>> = [
            (b"ta".to_vec(), b"1".to_vec()),
            (b"tb".to_vec(), b"2".to_vec()),
        ]
        .into_iter()
        .collect();
        assert!(o.check(|k| full.get(k).cloned()).is_empty());
    }

    #[test]
    fn oracle_rejects_partial_committed_transaction() {
        let mut o = Oracle::default();
        let keys = vec![b"ta".to_vec(), b"tb".to_vec()];
        let values = vec![b"1".to_vec(), b"2".to_vec()];
        for (k, v) in keys.iter().zip(&values) {
            o.record(k, Some(v.clone()), true);
        }
        o.txns.push(TxnRecord { keys, values, acked: true });
        assert!(!o.check(|_| None).is_empty());
    }

    #[test]
    fn txn_keys_span_multiple_instances() {
        let part = HashPartitioner::new(WORKERS);
        for round in 0..ROUNDS {
            let keys = txn_keys(round);
            let spanned: HashSet<usize> = keys.iter().map(|k| part.shard_of(k)).collect();
            assert!(spanned.len() >= 2, "round {round}");
        }
    }

    #[test]
    fn workload_is_deterministic_and_exposes_enough_sync_points() {
        let a = dry_run_sync_points(7);
        assert!(a >= 220, "only {a} sync points — matrix space too small");
    }

    #[test]
    fn fault_free_run_has_no_violations() {
        let faulty = Arc::new(FaultyEnv::over_mem());
        let env: EnvRef = faulty.clone();
        let store = open_store(&env).unwrap();
        let oracle = run_workload(&store, 7);
        assert!(oracle.txns.iter().all(|t| t.acked));
        let v = oracle.check(|k| store.get(k).unwrap());
        assert!(v.is_empty(), "{v:?}");
        store.close();
        // And the state survives a clean reopen.
        let store = open_store(&env).unwrap();
        let v = oracle.check(|k| store.get(k).unwrap());
        assert!(v.is_empty(), "{v:?}");
        store.close();
    }

    #[test]
    fn a_few_crash_points_recover_cleanly() {
        for point in [3, 40, 120] {
            let out = run_crash_scenario(7, point, &Scenario::plain());
            assert!(out.crashed, "point {point} did not fire");
            assert!(out.violations.is_empty(), "point {point}: {:?}", out.violations);
            // Once the crash lands past store creation the synced
            // creation-time journal prefix must survive recovery.
            if point >= 40 {
                assert!(
                    out.recovered_flight > 0,
                    "point {point}: no flight records recovered"
                );
            }
        }
    }

    #[test]
    fn migration_workload_stays_consistent_without_faults() {
        let faulty = Arc::new(FaultyEnv::over_mem());
        let env: EnvRef = faulty.clone();
        let store = P2Kvs::open(
            LsmFactory::new(engine_options(env.clone())),
            "db",
            migration_store_options(),
        )
        .unwrap();
        let shards = store.shards();
        let oracle = run_workload_hooked(&store, 7, |round, st| {
            st.migrate_shard(round % shards, (round + 1) % WORKERS).unwrap();
        });
        assert!(store.migrations() >= 1, "at least one real handoff happened");
        assert!(oracle.txns.iter().all(|t| t.acked));
        let v = oracle.check(|k| store.get(k).unwrap());
        assert!(v.is_empty(), "{v:?}");
        store.close();
        // The state survives a reopen under a fresh round-robin map.
        let store = P2Kvs::open(
            LsmFactory::new(engine_options(env.clone())),
            "db",
            migration_store_options(),
        )
        .unwrap();
        let v = oracle.check(|k| store.get(k).unwrap());
        assert!(v.is_empty(), "{v:?}");
        store.close();
    }

    #[test]
    fn scale_workload_stays_consistent_without_faults() {
        let faulty = Arc::new(FaultyEnv::over_mem());
        let env: EnvRef = faulty.clone();
        let store = P2Kvs::open(
            LsmFactory::new(engine_options(env.clone())),
            "db",
            migration_store_options(),
        )
        .unwrap();
        let oracle = run_workload_hooked(&store, 7, |round, st| {
            let n = if round % 2 == 0 { WORKERS + 1 } else { WORKERS - 1 };
            st.scale_workers(n).unwrap();
        });
        // The last round (7, odd) left the pool at WORKERS - 1.
        assert_eq!(store.workers(), WORKERS - 1);
        assert!(oracle.txns.iter().all(|t| t.acked));
        let v = oracle.check(|k| store.get(k).unwrap());
        assert!(v.is_empty(), "{v:?}");
        // Every scale operation is journaled: four grows from the even
        // rounds plus the regrow after each shrink, and matching drains.
        let recs = store.flight_records(usize::MAX);
        let spawns = recs.iter().filter(|r| r.kind == JournalKind::WorkerSpawn).count();
        let retires = recs.iter().filter(|r| r.kind == JournalKind::WorkerRetire).count();
        assert!(spawns >= 4, "only {spawns} worker_spawn records");
        assert!(retires >= 4, "only {retires} worker_retire records");
        store.close();
        // The state survives a reopen at the fixed size.
        let store = P2Kvs::open(
            LsmFactory::new(engine_options(env.clone())),
            "db",
            migration_store_options(),
        )
        .unwrap();
        let v = oracle.check(|k| store.get(k).unwrap());
        assert!(v.is_empty(), "{v:?}");
        store.close();
    }

    #[test]
    fn scale_crash_points_recover_cleanly() {
        for point in [25, 90, 170] {
            let out = run_crash_scenario(17, point, &Scenario::scale());
            assert!(out.crashed, "point {point} did not fire");
            assert!(out.violations.is_empty(), "point {point}: {:?}", out.violations);
        }
    }

    #[test]
    fn a_few_crash_points_recover_cleanly_with_cache() {
        for point in [25, 90, 170] {
            let out = run_crash_scenario(13, point, &Scenario::cached());
            assert!(out.crashed, "point {point} did not fire");
            assert!(out.violations.is_empty(), "point {point}: {:?}", out.violations);
        }
    }

    #[test]
    fn migration_crash_points_recover_cleanly() {
        for point in [25, 90, 170] {
            let out = run_crash_scenario(11, point, &Scenario::migration());
            assert!(out.crashed, "point {point} did not fire");
            assert!(
                out.violations.is_empty(),
                "point {point}: {:?}",
                out.violations
            );
        }
    }

    #[test]
    fn a_few_crash_points_recover_cleanly_with_every_disturbance_combined() {
        for point in [25, 90, 170] {
            let out = run_crash_scenario(19, point, &Scenario::combined());
            assert!(out.crashed, "point {point} did not fire");
            assert!(out.violations.is_empty(), "point {point}: {:?}", out.violations);
        }
    }

    #[test]
    fn fault_free_backup_run_restores_the_cut_exactly() {
        // No crash planned: the online backup completes, the restored
        // copy matches the cut, and the post-cut rounds stay out of it.
        let out = run_crash_point_with_backup(7, u64::MAX);
        assert!(!out.crashed);
        assert!(out.backup_completed, "fault-free backup must complete");
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn a_few_backup_crash_points_recover_cleanly() {
        // Point 30 lands inside store creation (before the cut — the
        // partial-directory rejection path); the later points land
        // around the freeze window and the streaming window.
        for point in [30, 150, 250] {
            let out = run_crash_point_with_backup(7, point);
            assert!(out.crashed, "point {point} did not fire");
            assert!(out.violations.is_empty(), "point {point}: {:?}", out.violations);
        }
    }

    #[test]
    fn queue_workload_exposes_sync_points_on_every_queue() {
        let per_queue = dry_run_queue_sync_points(7);
        assert_eq!(per_queue.len(), QUEUE_MATRIX_QUEUES);
        for (q, &n) in per_queue.iter().enumerate() {
            assert!(
                n >= 10,
                "queue {q} saw only {n} sync points — affinity routed nothing there \
                 ({per_queue:?})"
            );
        }
    }

    #[test]
    fn a_few_queue_crash_points_recover_cleanly() {
        for (queue, point) in [(0, 20), (1, 15), (2, 10), (3, 10)] {
            let out = run_queue_crash_point(7, queue, point);
            assert!(out.crashed, "queue {queue} point {point} did not fire");
            assert!(
                out.violations.is_empty(),
                "queue {queue} point {point}: {:?}",
                out.violations
            );
        }
    }

    #[test]
    fn differential_runs_with_transient_faults_stay_in_envelope() {
        for seed in 0..3u64 {
            let v = differential_fault_run(seed, Some(30 + seed * 17), Some(10 + seed * 5));
            assert!(v.is_empty(), "seed {seed}: {v:?}");
        }
    }
}
