//! The crash-point recovery matrix: a seeded workload over a real
//! [`P2Kvs`] store on a [`FaultyEnv`], an acked-writes oracle, and one
//! run/recover path that every crash test in this crate goes through.
//!
//! # How a matrix run works
//!
//! 1. **Dry run** — [`dry_run`] executes a [`Scenario`] and returns the
//!    sync requests (WAL, TXNLOG, MANIFEST, SSTs, backup files, ...) it
//!    issued on each device queue. Crashing *at* sync point N yields the
//!    durable state between syncs N-1 and N, so those numbers enumerate
//!    every distinct durable state.
//! 2. **Run** — [`run`] executes the same workload on a fresh env under
//!    a [`FaultPlan`]: a power failure at a global ([`crash_at`]) or
//!    per-queue ([`crash_on_queue`]) sync point with a deterministic
//!    torn-tail budget, or transient faults. Operations issued after a
//!    crash fail; the workload records every ack in an [`Oracle`].
//! 3. **Recover** — [`Run::recover`] heals the env (power comes back),
//!    reopens through [`P2Kvs::open`] (TXNLOG recovery + GSN-filtered
//!    WAL replay), and applies every check to every scenario: the
//!    oracle, the flight journal, the scenario's `post_check`, a read of
//!    the whole keyspace and, when the scenario cut an online backup,
//!    the restore checks. [`run_matrix`] does this once per plan.
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
use p2kvs::{HashPartitioner, JournalKind, JournalRecord, P2Kvs, P2KvsOptions, Partitioner};
use p2kvs_storage::{EnvRef, FaultPlan, FaultyEnv, QueueId};
use p2kvs_util::rng::Rng;

type Store = P2Kvs<lsmkv::Db>;

/// Workers (and therefore engine instances) every matrix store runs.
pub const WORKERS: usize = 4;
/// Device submission queues of the multi-queue scenarios: one per
/// worker, so queue affinity gives every queue a home shard.
const QUEUES: usize = 4;
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
/// The round whose end cuts a backup scenario's online backup, and the
/// round whose end reaps its streamer: three rounds of foreground
/// writes, disturbances and transactions overlap the streaming window.
const BACKUP_ROUND: usize = 2;
const BACKUP_WAIT_ROUND: usize = 5;

/// One attempted write to one key, in issue order.
#[derive(Clone)]
struct KeyWrite {
    /// Key state after this write applies (`None` = deleted).
    effect: Option<Vec<u8>>,
    /// Whether the store acked it Ok (durable under `SyncPolicy::Always`).
    acked: bool,
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
/// `Clone` lets a backup run freeze a copy at the cut — the acked state
/// an online backup's restore must reproduce exactly.
#[derive(Default, Clone)]
pub struct Oracle {
    /// Per key, every attempted write in issue order.
    keys: HashMap<Vec<u8>, Vec<KeyWrite>>,
    /// Transactions in issue order.
    pub txns: Vec<TxnRecord>,
}

impl Oracle {
    fn record(&mut self, key: &[u8], effect: Option<Vec<u8>>, acked: bool) -> usize {
        let writes = self.keys.entry(key.to_vec()).or_default();
        writes.push(KeyWrite { effect, acked });
        writes.len() - 1
    }

    fn mark_acked(&mut self, key: &[u8], idx: usize) {
        self.keys.get_mut(key).expect("recorded key")[idx].acked = true;
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
        for (key, writes) in &self.keys {
            let got = get(key);
            let last_acked = writes.iter().rposition(|w| w.acked);
            if last_acked.is_none() && got.is_none() {
                continue; // Nothing acked; "never applied" is fine.
            }
            let start = last_acked.unwrap_or(0);
            if !writes[start..].iter().any(|w| w.effect == got) {
                let shown = got.as_deref().map(String::from_utf8_lossy);
                violations.push(format!(
                    "key {}: recovered {} but the last acked write (index {start} \
                     of {}) and everything after it have different effects",
                    String::from_utf8_lossy(key),
                    shown.as_deref().unwrap_or("<absent>"),
                    writes.len(),
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

/// [`engine_options`] plus parallel compaction — two background jobs at
/// disjoint levels and three-way range-partitioned subcompactions, so a
/// major compaction has several output files in flight on different
/// queues when the power fails.
fn parallel_engine_options(env: EnvRef) -> lsmkv::Options {
    let mut o = engine_options(env);
    o.compaction_threads = 2;
    o.subcompactions = 3;
    o
}

/// `options` with no metrics sampling.
fn quiet(mut options: P2KvsOptions) -> P2KvsOptions {
    options.metrics = false;
    options
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
/// write and every ack, and calls `hook(round, store, oracle so far)` at
/// the end of every round, with nothing in flight. The op sequence
/// depends only on `seed` (the hook must not touch the RNG); after a
/// crash fires, the remaining ops simply come back as errors (unacked).
fn run_workload(store: &Store, seed: u64, mut hook: impl FnMut(usize, &Store, &Oracle)) -> Oracle {
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
        let ops = keys.iter().zip(&values).map(|(k, v)| p2kvs::WriteOp::Put {
            key: k.clone(),
            value: v.clone(),
        });
        let acked = store.write_batch(ops.collect()).is_ok();
        for (k, v) in keys.iter().zip(&values) {
            oracle.record(k, Some(v.clone()), acked);
        }
        oracle.txns.push(TxnRecord {
            keys,
            values,
            acked,
        });
        hook(round, store, &oracle);
    }
    oracle
}

/// `violations`, each prefixed with the place it was found.
fn at(place: &str, violations: Vec<String>) -> impl Iterator<Item = String> + '_ {
    violations.into_iter().map(move |v| format!("{place}: {v}"))
}

/// Flight-recorder checks for a recovered store: the journal parsed back
/// from `FLIGHT.log` must be a gap-free sequence rooted at the store's
/// very first record (its creation-time [`JournalKind::StoreOpen`]). A
/// crash may cost unsynced *suffix* records — the torn tail — but must
/// never punch a hole in the middle or lose the head once later records
/// survived.
pub fn flight_journal_violations(store: &Store) -> Vec<String> {
    let recs = store.recovered_flight_records();
    let mut v = Vec::new();
    if let Some(gap) = p2kvs::obs::sequence_gap(recs) {
        v.push(format!("flight journal recovered with a hole: {gap}"));
    }
    match recs.first().map(|r| (r.seq, r.kind)) {
        None | Some((1, JournalKind::StoreOpen)) => {}
        Some((seq, kind)) => v.push(format!("journal lost its head: {kind:?} #{seq}")),
    }
    v
}

/// One crash-matrix variant: the store a run opens (before the crash
/// and again to recover), the device and engine under it, what disturbs
/// it at the end of every workload round, and what the recovered store
/// owes beyond the checks every variant gets.
pub struct Scenario {
    /// Options both the crashed and the recovering store open with.
    pub options: P2KvsOptions,
    /// Engine options over the run's env.
    pub engine: fn(EnvRef) -> lsmkv::Options,
    /// Device submission queues: 1 is [`FaultyEnv::over_mem`], more is
    /// [`FaultyEnv::over_queues`].
    pub queues: usize,
    /// Whether an online backup is cut at the end of round 2 and reaped
    /// at the end of round 5 (recovery then checks the copy).
    pub backup: bool,
    /// Runs at the end of every round, between acked writes. After the
    /// crash fires its operations fail like the workload's own — it must
    /// ignore errors — and it must not touch the RNG, so every variant
    /// issues the same op sequence.
    pub disturb: fn(usize, &Store),
    /// Extra violations found in the recovered store.
    pub post_check: fn(&Store) -> Vec<String>,
}

/// Walks a different shard across the workers each round, so sync
/// points land before, during, and after epoch-fenced handoffs.
fn migrate_one_shard(round: usize, store: &Store) {
    let _ = store.migrate_shard(round % store.shards(), (round + 1) % WORKERS);
}

/// Reads the whole key pool, warming the read cache between rounds.
fn warm_cache(store: &Store) {
    for i in 0..KEY_POOL {
        let _ = store.get(&pool_key(i));
    }
}

/// The read cache is volatile: a reopen must stamp a fresh cache reset
/// (`cache_flush` with the sentinel shard) into the live journal,
/// sequenced after everything recovery brought back — proof a recovered
/// store never trusts pre-crash cache state.
fn cache_reset_journaled(store: &Store) -> Vec<String> {
    let recovered = store.recovered_flight_records().last().map_or(0, |r| r.seq);
    let live = store.flight_records(usize::MAX);
    let reset = |r: &JournalRecord| r.kind == JournalKind::CacheFlush && r.a == u64::MAX;
    let found = live.iter().any(|r| reset(r) && r.seq > recovered);
    let missing = (!found).then(|| format!("no cache reset journaled after seq {recovered}"));
    missing.into_iter().collect()
}

impl Scenario {
    /// The paper layout (`shards == workers`, no balancer, so engine dir
    /// `instance-{i}` holds exactly partition `i` of the store's own
    /// `HashPartitioner` — [`unfiltered_partial_txn`] relies on that) on
    /// a one-queue device, undisturbed.
    pub fn plain() -> Scenario {
        Scenario {
            options: quiet(P2KvsOptions::paper_layout(WORKERS)),
            engine: engine_options,
            queues: 1,
            backup: false,
            disturb: |_, _| {},
            post_check: |_| Vec::new(),
        }
    }

    /// Shards decoupled from workers (`2×` [`WORKERS`], balancer off) and
    /// a shard migration every round. Recovery reopens under a fresh
    /// (round-robin) map — durability must not depend on which worker
    /// owned a shard at the crash.
    pub fn migration() -> Scenario {
        let mut options = quiet(P2KvsOptions::with_workers(WORKERS));
        options.shards = 2 * WORKERS;
        Scenario {
            options,
            disturb: migrate_one_shard,
            ..Scenario::plain()
        }
    }

    /// The migration scenario with the read cache on and warmed every
    /// round, so the crash can land while the cache holds hot entries, a
    /// write is invalidating, or a handoff is moving a shard whose
    /// entries stay cached.
    pub fn cached() -> Scenario {
        let mut s = Scenario::migration();
        s.options.cache_capacity = 1 << 20;
        s.disturb = |round, store| {
            warm_cache(store);
            migrate_one_shard(round, store);
        };
        s.post_check = cache_reset_journaled;
        s
    }

    /// The migration scenario with an online backup cut mid-stream, so
    /// the power fails before the cut, inside the freeze window,
    /// mid-stream, on the backup's own syncs, or after its `MANIFEST`
    /// sync — and the cut must hold across shard ownership changes.
    pub fn backup() -> Scenario {
        Scenario {
            backup: true,
            ..Scenario::migration()
        }
    }

    /// The paper layout with parallel compaction on a multi-queue
    /// device. Queue affinity routes shard `s`'s WAL and flushes to
    /// queue `s`, while subcompaction outputs spread over the queues
    /// after the instance's home queue, so every queue exposes both WAL
    /// and compaction-output sync points.
    pub fn subcompaction() -> Scenario {
        Scenario {
            engine: parallel_engine_options,
            queues: QUEUES,
            ..Scenario::plain()
        }
    }

    /// Every feature at once: the cache warmed and a shard handed off
    /// every round, an online backup streaming under them, parallel
    /// compaction on the multi-queue device.
    pub fn combined() -> Scenario {
        Scenario {
            engine: parallel_engine_options,
            queues: QUEUES,
            backup: true,
            ..Scenario::cached()
        }
    }

    /// Opens (or recovers) this scenario's store on `env`.
    pub fn open(&self, env: &Arc<FaultyEnv>) -> p2kvs::Result<Store> {
        let factory = LsmFactory::new((self.engine)(env.clone()));
        P2Kvs::open(factory, "db", self.options.clone())
    }
}

/// A power failure at global sync point `point`. The torn-write length
/// varies deterministically with the point, so a matrix also covers
/// partial unsynced tails surviving.
pub fn crash_at(point: u64) -> FaultPlan {
    FaultPlan {
        crash_at_sync: Some(point),
        torn_tail: (point % 17) as usize,
        ..FaultPlan::default()
    }
}

/// A power failure when the `point`-th sync lands on queue `queue` —
/// deterministic even while concurrent compaction threads shuffle the
/// global order, and landing mid-compaction: after some subcompactions
/// synced their output and before their siblings did.
pub fn crash_on_queue(queue: QueueId, point: u64) -> FaultPlan {
    FaultPlan {
        crash_at_queue_sync: Some((queue, point)),
        torn_tail: ((point + queue as u64) % 17) as usize,
        ..FaultPlan::default()
    }
}

/// One workload run under a fault plan, before recovery.
pub struct Run<'a> {
    /// The scenario the run executed.
    scenario: &'a Scenario,
    /// The env the run wrote through; still down if the crash fired.
    pub env: Arc<FaultyEnv>,
    /// Every attempted write and ack; empty when the store never opened.
    oracle: Oracle,
    /// Whether the planned crash fired.
    pub crashed: bool,
    /// What a run with no planned crash found in the live store.
    violations: Vec<String>,
    /// The acked state when the backup cut landed.
    cut: Option<Oracle>,
    /// Whether the backup completed (`None`: the scenario takes none).
    pub backup: Option<bool>,
}

/// Runs the workload under `scenario` on a fresh env with `plan` armed.
/// A run with no planned crash (fault-free, or transient faults) also
/// holds the live store to its acks before closing it.
pub fn run(seed: u64, scenario: &Scenario, plan: FaultPlan) -> Run<'_> {
    let env = Arc::new(match scenario.queues {
        1 => FaultyEnv::over_mem(),
        n => FaultyEnv::over_queues(n),
    });
    let transient = plan.crash_at_sync.is_none() && plan.crash_at_queue_sync.is_none();
    env.set_plan(plan);
    let (mut handle, mut cut, mut completed, mut violations) = (None, None, false, Vec::new());
    let oracle = match scenario.open(&env) {
        // A fault at a small sync point fires during store creation.
        Err(_) => Oracle::default(),
        Ok(store) => {
            let oracle = run_workload(&store, seed, |round, st, so_far| {
                (scenario.disturb)(round, st);
                // After a crash the cut may fail outright (marker pushes
                // or the freeze hit dead queues): no backup to restore.
                if scenario.backup && round == BACKUP_ROUND {
                    handle = st.backup("backup").ok();
                    cut = handle.as_ref().map(|_| so_far.clone());
                }
                if round == BACKUP_WAIT_ROUND {
                    completed = handle.take().is_some_and(|h| h.wait().is_ok());
                }
            });
            if transient {
                // Power stays on: disarm what has not fired; the live
                // store must already hold every acked write.
                env.heal();
                let live = oracle.check_acked_only(|k| store.get(k).expect("live read"));
                violations.extend(at("live store", live));
            }
            store.close();
            oracle
        }
    };
    let (crashed, backup) = (env.crashed(), scenario.backup.then_some(completed));
    Run {
        scenario,
        env,
        oracle,
        crashed,
        violations,
        cut,
        backup,
    }
}

/// What recovering one run found.
pub struct Outcome {
    /// Violations found live, in the recovered store, and in the
    /// restored copy; empty = pass.
    pub violations: Vec<String>,
    /// Flight records recovery parsed back out of `FLIGHT.log`: none only
    /// when the crash landed inside the journal's own first syncs.
    pub flight: Vec<JournalRecord>,
}

impl Run<'_> {
    /// Heals the env, reopens the store through [`P2Kvs::open`], and
    /// checks it against the oracle, the flight journal, the scenario's
    /// `post_check` and a read of the whole keyspace; then checks the
    /// scenario's backup, if it cut one.
    pub fn recover(&self) -> Outcome {
        self.env.heal();
        let mut violations = self.violations.clone();
        let mut flight = Vec::new();
        match self.scenario.open(&self.env) {
            Err(e) => violations.push(format!("recovery failed to reopen the store: {e}")),
            Ok(store) => {
                violations.extend(self.oracle.check(|k| store.get(k).expect("recovered read")));
                violations.extend(flight_journal_violations(&store));
                violations.extend((self.scenario.post_check)(&store));
                // The scan touches every SST the recovered version sets
                // reference: an installed-but-torn compaction output
                // fails here even when its keys also live in older files.
                if let Err(e) = store.range(b"", &[0xffu8; 8]) {
                    violations.push(format!(
                        "full scan of the recovered store failed — a version set \
                         references unreadable (truncated?) compaction output: {e}"
                    ));
                }
                flight = store.recovered_flight_records().to_vec();
                store.close();
            }
        }
        if let Some(completed) = self.backup {
            violations.extend(at("restored copy", self.backup_violations(completed)));
        }
        Outcome { violations, flight }
    }

    /// A completed backup must restore to exactly the cut-time acked
    /// state, with nothing from past the cut leaking in, no matter where
    /// the crash landed. A backup a crash left incomplete must be
    /// rejected with a clean [`p2kvs::Error::Backup`], never a store
    /// fabricated from partial files.
    fn backup_violations(&self, completed: bool) -> Vec<String> {
        if !completed && !self.crashed {
            return Vec::new();
        }
        let factory = LsmFactory::new((self.scenario.engine)(self.env.clone()));
        let options = self.scenario.options.clone();
        let restore = P2Kvs::restore(factory, "backup", "restored", options);
        let restored = match (completed, restore) {
            (true, Ok(restored)) => restored,
            (true, Err(e)) => return vec![format!("restore of a completed backup failed: {e}")],
            (false, Err(p2kvs::Error::Backup(_))) => return Vec::new(),
            (false, Err(e)) => return vec![format!("partial backup rejected wrongly: {e}")],
            (false, Ok(_)) => return vec!["opened from a partial backup".into()],
        };
        let cut = self.cut.as_ref().expect("completed, so cut");
        let mut v = cut.check(|k| restored.get(k).expect("restored read"));
        // Transactions issued after the cut use fresh keys, so every one
        // of them must be absent from the copy.
        for (t, txn) in self.oracle.txns.iter().enumerate().skip(cut.txns.len()) {
            for k in &txn.keys {
                if restored.get(k).expect("restored read").is_some() {
                    let k = String::from_utf8_lossy(k);
                    v.push(format!("post-cut txn {t} key {k} leaked past the horizon"));
                }
            }
        }
        // The copy carried the flight journal: gap-free, rooted at the
        // source's creation record, with the cut's own provenance in it.
        v.extend(flight_journal_violations(&restored));
        let recs = restored.recovered_flight_records();
        for want in [JournalKind::BackupBegin, JournalKind::BackupComplete] {
            if !recs.iter().any(|r| r.kind == want) {
                v.push(format!("recovered journal lacks {}", want.name()));
            }
        }
        restored.close();
        v
    }
}

/// The sync points `scenario` exposes on each device queue: a matrix's
/// crash-point space. The armed crash never fires; it keeps the run on
/// a crash run's path (no live check). Counts vary slightly run to run.
pub fn dry_run(seed: u64, scenario: &Scenario) -> Vec<u64> {
    let r = run(seed, scenario, crash_at(u64::MAX));
    assert_ne!(r.backup, Some(false), "fault-free backup must complete");
    let queues = 0..scenario.queues;
    queues.map(|q| r.env.sync_points_on(q)).collect()
}

/// The sampled crash points for a space of `total` sync points: every one
/// of the first 160, then a stride over the rest. Dense early coverage
/// catches creation/metadata crashes; the stride keeps the matrix bounded
/// while still visiting late flush/compaction states.
pub fn sample_points(total: u64) -> Vec<u64> {
    let dense = 160.min(total);
    let stride = ((total - dense) / 80).max(1);
    let sparse = (dense + stride..=total).step_by(stride as usize);
    (1..=dense).chain(sparse).collect()
}

/// What a matrix saw across its runs.
#[derive(Default, Debug)]
pub struct Tally {
    /// Runs made, one per plan.
    pub runs: usize,
    /// Runs whose planned crash fired.
    pub crashed: usize,
    /// Runs whose recovery brought flight records back.
    pub journaled: usize,
    /// Crashed runs whose backup completed and restored to its cut.
    pub completed: usize,
    /// Crashed runs whose partial backup restore rejected.
    pub rejected: usize,
}

/// Runs and recovers `scenario` once per plan and fails listing every
/// violation. The bulk of the runs must crash (a late point may not fire
/// when group commit merges more syncs than the dry run did) and bring
/// flight records back (only a crash inside store creation may recover
/// none); a backup scenario must both restore and reject a backup.
pub fn run_matrix(
    seed: u64,
    label: &str,
    scenario: &Scenario,
    plans: impl IntoIterator<Item = FaultPlan>,
) -> Tally {
    let mut t = Tally::default();
    let mut failures = Vec::new();
    for plan in plans {
        let r = run(seed, scenario, plan.clone());
        let out = r.recover();
        t.runs += 1;
        t.journaled += usize::from(!out.flight.is_empty());
        if r.crashed {
            t.crashed += 1;
            t.completed += usize::from(r.backup == Some(true));
            t.rejected += usize::from(r.backup == Some(false));
        }
        let place = format!("seed {seed}, {label}, {plan:?}");
        failures.extend(at(&place, out.violations));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    let backups = !scenario.backup || (t.completed >= 1 && t.rejected >= 1);
    let bulk = t.crashed >= t.runs / 2 && t.journaled >= t.runs / 2;
    assert!(bulk && backups, "thin {label} matrix at seed {seed}: {t:?}");
    t
}

/// Negative control: runs the workload with a crash at `point`, then
/// reopens every instance **directly and without the GSN recovery
/// filter**. Returns `Some((present, total))` when some transaction that
/// was in flight at the crash is *partially* visible — the exact state
/// the p2KVS rollback (§4.5) exists to hide. `None` when the crash did
/// not fire, no transaction was in flight, or the naked replay happened
/// to be all-or-nothing at this point.
pub fn unfiltered_partial_txn(seed: u64, point: u64) -> Option<(usize, usize)> {
    let (scenario, mut plan) = (Scenario::plain(), crash_at(point));
    plan.torn_tail = 0;
    let r = run(seed, &scenario, plan);
    if !r.crashed || r.oracle.txns.iter().all(|t| t.acked) {
        return None;
    }
    r.env.heal();
    let part = HashPartitioner::new(WORKERS);
    let dbs: Vec<Option<lsmkv::Db>> = (0..WORKERS)
        .map(|i| lsmkv::Db::open(engine_options(r.env.clone()), format!("db/instance-{i}")).ok())
        .collect();
    for txn in r.oracle.txns.iter().filter(|t| !t.acked) {
        let mut present = 0;
        for (k, v) in txn.keys.iter().zip(&txn.values) {
            let db = dbs[part.shard_of(k)].as_ref();
            if db.and_then(|db| db.get(k).ok().flatten()).as_ref() == Some(v) {
                present += 1;
            }
        }
        if present > 0 && present < txn.keys.len() {
            return Some((present, txn.keys.len()));
        }
    }
    None
}

/// Differential fault run (no crash): the plain scenario with a
/// transient sync failure at global sync `fail_sync` and a transient
/// read failure at global read `fail_read`. [`run`] checks the **live**
/// store; this checks the **reopened** one. Returns the violations
/// found (empty = the faulted history stayed inside the oracle
/// envelope).
pub fn differential_fault_run(
    seed: u64,
    fail_sync: Option<u64>,
    fail_read: Option<u64>,
) -> Vec<String> {
    let (scenario, mut plan) = (Scenario::plain(), FaultPlan::default());
    (plan.fail_sync, plan.fail_read) = (fail_sync, fail_read);
    let r = run(seed, &scenario, plan);
    r.env.heal();
    let mut violations = r.violations;
    match scenario.open(&r.env) {
        Err(e) => violations.push(format!("reopen after transient faults failed: {e}")),
        // The fault hit store creation: the retry succeeded (transient
        // model) and there is no history to validate.
        Ok(reopened) if r.oracle.txns.is_empty() => reopened.close(),
        Ok(reopened) => {
            // `check_acked_only`: a transiently failed cross-instance
            // batch has no undo path, so its applied sub-batches may stay
            // visible (via the flush-before-commit window, after reopen
            // too). Crash runs use the full check instead.
            let get = |k: &[u8]| reopened.get(k).expect("reopened read");
            violations.extend(at("after reopen", r.oracle.check_acked_only(get)));
            violations.extend(flight_journal_violations(&reopened));
            // No crash happened, so even unsynced journal appends reached
            // the env: the whole history must come back, not a prefix.
            if reopened.recovered_flight_records().is_empty() {
                violations.push("no crash, yet reopen recovered an empty flight journal".into());
            }
            reopened.close();
        }
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
        o.txns.push(TxnRecord {
            keys,
            values,
            acked: false,
        });
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
        o.txns.push(TxnRecord {
            keys,
            values,
            acked: true,
        });
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

    /// How many records of `kind` a recovery brought back.
    fn count(out: &Outcome, kind: JournalKind) -> usize {
        out.flight.iter().filter(|r| r.kind == kind).count()
    }

    /// Runs and recovers `scenario` fault-free: every transaction must
    /// commit and nothing (live, recovered, restored) may be violated.
    /// Returns the run's sync points per queue and the outcome.
    fn fault_free(seed: u64, scenario: &Scenario) -> (Vec<u64>, Outcome) {
        let r = run(seed, scenario, FaultPlan::default());
        assert!(r.oracle.txns.iter().all(|t| t.acked));
        let per_queue = (0..scenario.queues)
            .map(|q| r.env.sync_points_on(q))
            .collect();
        let out = r.recover();
        assert!(
            !r.crashed && out.violations.is_empty(),
            "{:?}",
            out.violations
        );
        assert_ne!(r.backup, Some(false), "a fault-free backup must complete");
        (per_queue, out)
    }

    /// Crashes `scenario` at each global sync point; every one must fire
    /// and recover cleanly.
    fn crash_points(seed: u64, scenario: &Scenario, points: [u64; 3]) -> [Outcome; 3] {
        points.map(|p| {
            let r = run(seed, scenario, crash_at(p));
            let out = r.recover();
            assert!(r.crashed, "point {p} did not fire");
            assert!(out.violations.is_empty(), "point {p}: {:?}", out.violations);
            out
        })
    }

    #[test]
    fn workload_is_deterministic_and_exposes_enough_sync_points() {
        let a = dry_run(7, &Scenario::plain())[0];
        assert!(a >= 220, "only {a} sync points — matrix space too small");
    }

    #[test]
    fn fault_free_run_has_no_violations() {
        // The live store and a clean reopen both hold every acked write.
        fault_free(7, &Scenario::plain());
    }

    #[test]
    fn a_few_crash_points_recover_cleanly() {
        let outs = crash_points(7, &Scenario::plain(), [3, 40, 120]);
        // Once the crash lands past store creation the synced
        // creation-time journal prefix must survive recovery.
        assert!(!outs[1].flight.is_empty() && !outs[2].flight.is_empty());
    }

    #[test]
    fn migration_workload_stays_consistent_without_faults() {
        // The state survives a reopen under a fresh round-robin map. Round
        // r moves shard r from worker r % 4 to (r + 1) % 4, a real
        // handoff every round: one that failed would be missing here.
        let (_, out) = fault_free(7, &Scenario::migration());
        assert_eq!(count(&out, JournalKind::ShardInstall), ROUNDS);
    }

    #[test]
    fn a_few_crash_points_recover_cleanly_with_cache() {
        crash_points(13, &Scenario::cached(), [25, 90, 170]);
    }

    #[test]
    fn migration_crash_points_recover_cleanly() {
        crash_points(11, &Scenario::migration(), [25, 90, 170]);
    }

    #[test]
    fn combined_workload_exercises_every_feature_without_faults() {
        // Recovery restored the completed backup and found the cut.
        let (per_queue, out) = fault_free(7, &Scenario::combined());
        assert!(count(&out, JournalKind::ShardInstall) >= 1, "no migration");
        assert!(
            per_queue.iter().all(|&n| n > 0),
            "a queue saw no sync: {per_queue:?}"
        );
    }

    #[test]
    fn a_few_crash_points_recover_cleanly_with_every_disturbance_combined() {
        crash_points(19, &Scenario::combined(), [25, 90, 170]);
    }

    #[test]
    fn fault_free_backup_run_restores_the_cut_exactly() {
        // The online backup completes, the restored copy matches the
        // cut, and the post-cut rounds stay out of it.
        fault_free(7, &Scenario::backup());
    }

    #[test]
    fn a_few_backup_crash_points_recover_cleanly() {
        // Point 30 lands inside store creation (before the cut — the
        // partial-directory rejection path); the later points land
        // around the freeze window and the streaming window.
        crash_points(7, &Scenario::backup(), [30, 150, 250]);
    }

    #[test]
    fn queue_workload_exposes_sync_points_on_every_queue() {
        let per_queue = dry_run(7, &Scenario::subcompaction());
        assert_eq!(per_queue.len(), QUEUES);
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
        let scenario = Scenario::subcompaction();
        for (queue, point) in [(0, 20), (1, 15), (2, 10), (3, 10)] {
            let r = run(7, &scenario, crash_on_queue(queue, point));
            let out = r.recover();
            assert!(r.crashed, "queue {queue} point {point} did not fire");
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
