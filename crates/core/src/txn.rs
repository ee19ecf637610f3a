//! Global Sequence Numbers and the transaction commit log (§4.5).
//!
//! Every cross-instance write batch gets a strictly increasing GSN and
//! tags its sub-batches with it. The manager persists `commit(gsn)` once
//! every sub-batch has been applied (and, for engines that honor it,
//! synced) — one device sync per transaction. Recovery reads the log,
//! collects the committed GSN set, and instances are reopened with a
//! filter that drops every tagged WAL batch whose GSN has no commit
//! record — rolling the transaction back on every shard at once.
//!
//! A GSN is never reused while a WAL still holds a batch tagged with it:
//! the store opens the manager *after* the engines and starts allocating
//! above both the highest commit record and the highest GSN any engine
//! replayed (`P2Kvs::open`).
//!
//! Record framing: `type: u8 (2 = commit) | gsn: fixed64 | crc32c:
//! fixed32` — 13 bytes, torn tails detected by CRC. Type 1 is the begin
//! record logs written before the commit-only format carry; it is read
//! (it raises `max_gsn`) and never written.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use p2kvs_storage::{EnvRef, WritableFile};
use p2kvs_util::crc32c::crc32c;
use p2kvs_util::sync::{Condvar, Mutex};

const REC_BEGIN: u8 = 1;
const REC_COMMIT: u8 = 2;
const REC_LEN: usize = 13;

/// The backup freeze gate: while `frozen`, new transactions block in
/// [`TxnManager::begin`]; `in_flight` counts transactions that have
/// begun but not yet committed or abandoned, which a freezer drains
/// before choosing its GSN horizon.
#[derive(Default)]
struct Gate {
    frozen: bool,
    in_flight: u64,
}

/// Allocates GSNs and persists transaction state.
pub struct TxnManager {
    log: Mutex<Box<dyn WritableFile>>,
    next_gsn: AtomicU64,
    committed_floor: AtomicU64,
    gate: Mutex<Gate>,
    gate_cv: Condvar,
}

/// State recovered from a commit log.
#[derive(Debug, Default, Clone)]
pub struct TxnRecovery {
    /// GSNs with a commit record.
    pub committed: HashSet<u64>,
    /// Highest GSN in any record; [`TxnManager::open`] allocates above it.
    pub max_gsn: u64,
    /// Trailing bytes ignored because they did not form a CRC-valid
    /// record — a torn tail from a crash mid-append. Zero on a clean log.
    pub truncated_tail_bytes: usize,
}

impl TxnRecovery {
    /// Whether a WAL batch tagged `gsn` should replay: untagged batches
    /// always do; tagged ones only if their transaction committed.
    pub fn should_replay(&self, gsn: u64) -> bool {
        gsn == 0 || self.committed.contains(&gsn)
    }
}

fn encode(kind: u8, gsn: u64) -> [u8; REC_LEN] {
    let mut rec = [0u8; REC_LEN];
    rec[0] = kind;
    rec[1..9].copy_from_slice(&gsn.to_le_bytes());
    let crc = crc32c(&rec[..9]);
    rec[9..].copy_from_slice(&crc.to_le_bytes());
    rec
}

impl TxnManager {
    fn log_path(dir: &Path) -> PathBuf {
        dir.join("TXNLOG")
    }

    /// Reads the commit log under `dir` (if any).
    pub fn recover(env: &EnvRef, dir: &Path) -> io::Result<TxnRecovery> {
        let path = Self::log_path(dir);
        let mut out = TxnRecovery::default();
        if !env.exists(&path) {
            return Ok(out);
        }
        let data = p2kvs_storage::env::read_all(&**env, &path)?;
        let mut off = 0;
        while off + REC_LEN <= data.len() {
            let rec = &data[off..off + REC_LEN];
            let crc = u32::from_le_bytes(rec[9..].try_into().expect("4 bytes"));
            if crc32c(&rec[..9]) != crc {
                break; // Torn tail.
            }
            let gsn = u64::from_le_bytes(rec[1..9].try_into().expect("8 bytes"));
            match rec[0] {
                REC_BEGIN => {}
                REC_COMMIT => {
                    out.committed.insert(gsn);
                }
                _ => break,
            }
            out.max_gsn = out.max_gsn.max(gsn);
            off += REC_LEN;
        }
        out.truncated_tail_bytes = data.len() - off;
        Ok(out)
    }

    /// Opens the manager, appending to any existing log. `recovered` is
    /// the state returned by [`TxnManager::recover`], its `max_gsn`
    /// raised by the caller to the highest GSN the engines replayed.
    pub fn open(env: &EnvRef, dir: &Path, recovered: &TxnRecovery) -> io::Result<TxnManager> {
        env.create_dir_all(dir)?;
        let log = env.new_appendable(&Self::log_path(dir))?;
        Ok(TxnManager {
            log: Mutex::new(log),
            next_gsn: AtomicU64::new(recovered.max_gsn + 1),
            committed_floor: AtomicU64::new(recovered.max_gsn),
            gate: Mutex::new(Gate::default()),
            gate_cv: Condvar::new(),
        })
    }

    /// Starts a transaction: allocates a GSN without touching the log
    /// (so it cannot fail; the `io::Result` is what callers were written
    /// against when it could). Blocks while a backup freeze holds the
    /// gate, so every GSN is strictly on one side of any backup horizon.
    pub fn begin(&self) -> io::Result<u64> {
        let mut gate = self.gate.lock();
        while gate.frozen {
            self.gate_cv.wait(&mut gate);
        }
        gate.in_flight += 1;
        Ok(self.next_gsn.fetch_add(1, Ordering::Relaxed))
    }

    /// Persists the commit record for `gsn` and releases its in-flight
    /// slot (a failed append still releases — the transaction is over
    /// either way, it just rolls back at recovery).
    pub fn commit(&self, gsn: u64) -> io::Result<()> {
        let rec = encode(REC_COMMIT, gsn);
        let result = {
            let mut log = self.log.lock();
            log.append(&rec).and_then(|()| log.sync())
        };
        self.release_in_flight();
        result?;
        self.committed_floor.fetch_max(gsn, Ordering::Relaxed);
        Ok(())
    }

    /// Releases a begun transaction that will never commit (a sub-batch
    /// failed). The GSN stays allocated and rolls back at recovery; the
    /// in-flight slot must still drain or a freezer would wait forever.
    pub fn abandon(&self, _gsn: u64) {
        self.release_in_flight();
    }

    fn release_in_flight(&self) {
        let mut gate = self.gate.lock();
        debug_assert!(gate.in_flight > 0, "release without a begun transaction");
        gate.in_flight = gate.in_flight.saturating_sub(1);
        if gate.in_flight == 0 {
            self.gate_cv.notify_all();
        }
    }

    /// Freezes the GSN stream for a backup: blocks new [`TxnManager::begin`]
    /// calls, waits for every in-flight transaction to commit or abandon,
    /// and returns the horizon — the highest GSN allocated so far. Until
    /// [`TxnManager::thaw`], every GSN ≤ horizon is fully settled and no
    /// GSN > horizon exists, so the horizon is a consistent cut of the
    /// cross-instance total order.
    pub fn freeze(&self) -> u64 {
        let mut gate = self.gate.lock();
        while gate.frozen {
            // Another freezer is active; queue behind it.
            self.gate_cv.wait(&mut gate);
        }
        gate.frozen = true;
        while gate.in_flight > 0 {
            self.gate_cv.wait(&mut gate);
        }
        self.next_gsn.load(Ordering::Relaxed) - 1
    }

    /// Reopens the gate closed by [`TxnManager::freeze`].
    pub fn thaw(&self) {
        let mut gate = self.gate.lock();
        gate.frozen = false;
        self.gate_cv.notify_all();
    }

    /// Highest GSN known committed (monitoring only).
    pub fn committed_floor(&self) -> u64 {
        self.committed_floor.load(Ordering::Relaxed)
    }

    /// Seeds a fresh commit log under `dir` so the next open allocates
    /// GSNs strictly above `horizon` — a restored store must never reuse
    /// a GSN that existed on the backed-up one. Writes a synced commit
    /// record for `horizon` (committed, so recovery's filter keeps every
    /// restored batch); a zero horizon needs no log at all.
    pub fn seed(env: &EnvRef, dir: &Path, horizon: u64) -> io::Result<()> {
        if horizon == 0 {
            return Ok(());
        }
        env.create_dir_all(dir)?;
        p2kvs_storage::env::write_all(&**env, &Self::log_path(dir), &encode(REC_COMMIT, horizon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2kvs_storage::MemEnv;
    use std::sync::Arc;

    fn env() -> EnvRef {
        Arc::new(MemEnv::new())
    }

    #[test]
    fn fresh_log_recovers_empty() {
        let env = env();
        let rec = TxnManager::recover(&env, Path::new("t")).unwrap();
        assert!(rec.committed.is_empty());
        assert!(rec.should_replay(0));
        assert!(!rec.should_replay(5));
    }

    #[test]
    fn begin_commit_roundtrip() {
        let env = env();
        let dir = Path::new("t");
        {
            let rec = TxnManager::recover(&env, dir).unwrap();
            let mgr = TxnManager::open(&env, dir, &rec).unwrap();
            let g1 = mgr.begin().unwrap();
            let g2 = mgr.begin().unwrap();
            assert!(g2 > g1);
            mgr.commit(g1).unwrap();
            // g2 never commits (crash).
        }
        let rec = TxnManager::recover(&env, dir).unwrap();
        assert!(rec.committed.contains(&1));
        assert!(!rec.committed.contains(&2));
        assert!(rec.should_replay(1));
        assert!(!rec.should_replay(2));
        // g2 left no record: only a WAL batch tagged with it can name it,
        // and the store raises `max_gsn` from those before it opens.
        assert_eq!(rec.max_gsn, 1);
    }

    #[test]
    fn gsns_continue_after_reopen() {
        let env = env();
        let dir = Path::new("t");
        let g_first = {
            let rec = TxnManager::recover(&env, dir).unwrap();
            let mgr = TxnManager::open(&env, dir, &rec).unwrap();
            let g = mgr.begin().unwrap();
            mgr.commit(g).unwrap();
            g
        };
        let rec = TxnManager::recover(&env, dir).unwrap();
        let mgr = TxnManager::open(&env, dir, &rec).unwrap();
        let g_next = mgr.begin().unwrap();
        assert!(g_next > g_first, "GSNs must never repeat");
    }

    #[test]
    fn out_of_order_commits_are_tracked_individually() {
        // Concurrent transactions can commit out of GSN order; recovery
        // must keep exactly the committed set, not a prefix.
        let env = env();
        let dir = Path::new("t");
        {
            let rec = TxnRecovery::default();
            let mgr = TxnManager::open(&env, dir, &rec).unwrap();
            let g1 = mgr.begin().unwrap();
            let g2 = mgr.begin().unwrap();
            let g3 = mgr.begin().unwrap();
            mgr.commit(g3).unwrap();
            mgr.commit(g1).unwrap();
            let _ = g2; // never committed
        }
        let rec = TxnManager::recover(&env, dir).unwrap();
        assert!(rec.should_replay(1));
        assert!(!rec.should_replay(2));
        assert!(rec.should_replay(3));
    }

    /// A log in the format written before begin records went: begin and
    /// commit pairs, interleaved, one transaction left open. It recovers
    /// the committed set the old reader did, and the begin records still
    /// hold allocation above every GSN they name.
    #[test]
    fn log_with_begin_records_recovers_the_same_committed_set() {
        let env = env();
        let dir = Path::new("t");
        let mut data = Vec::new();
        for (kind, gsn) in [
            (REC_BEGIN, 1),
            (REC_BEGIN, 2),
            (REC_COMMIT, 2),
            (REC_BEGIN, 3),
            (REC_COMMIT, 1),
        ] {
            data.extend_from_slice(&encode(kind, gsn));
        }
        p2kvs_storage::env::write_all(&*env, &TxnManager::log_path(dir), &data).unwrap();
        let rec = TxnManager::recover(&env, dir).unwrap();
        assert_eq!(rec.committed, HashSet::from([1, 2]));
        assert!(!rec.should_replay(3), "begun, never committed");
        assert_eq!(rec.max_gsn, 3);
        assert_eq!(rec.truncated_tail_bytes, 0);
        let mgr = TxnManager::open(&env, dir, &rec).unwrap();
        assert_eq!(mgr.begin().unwrap(), 4);
    }

    /// Writes a TXNLOG whose last record is cut to `keep` of its 13
    /// bytes, preceded by a committed transaction (gsn 1) and, when
    /// `tear_commit` is set, a begin for gsn 2 so the torn record is
    /// gsn 2's commit; otherwise the torn record is gsn 2's begin.
    fn torn_log(env: &EnvRef, dir: &Path, keep: usize, tear_commit: bool) {
        let mut data = Vec::new();
        data.extend_from_slice(&encode(REC_BEGIN, 1));
        data.extend_from_slice(&encode(REC_COMMIT, 1));
        if tear_commit {
            data.extend_from_slice(&encode(REC_BEGIN, 2));
            data.extend_from_slice(&encode(REC_COMMIT, 2)[..keep].to_vec());
        } else {
            data.extend_from_slice(&encode(REC_BEGIN, 2)[..keep].to_vec());
        }
        p2kvs_storage::env::write_all(&**env, &TxnManager::log_path(dir), &data).unwrap();
    }

    #[test]
    fn begin_record_torn_at_every_offset_rolls_back_cleanly() {
        // A crash can cut the 13-byte record at any byte boundary. At
        // every cut the recovery must stop at the tear, keep the earlier
        // committed transaction, and roll back the in-flight one.
        for keep in 1..13 {
            let env = env();
            let dir = Path::new("t");
            torn_log(&env, dir, keep, false);
            let rec = TxnManager::recover(&env, dir).unwrap();
            assert_eq!(rec.truncated_tail_bytes, keep, "cut at {keep}");
            assert!(rec.should_replay(1), "cut at {keep}: committed gsn kept");
            assert!(
                !rec.should_replay(2),
                "cut at {keep}: torn begin must not resurrect gsn 2"
            );
            assert_eq!(rec.max_gsn, 1, "cut at {keep}");
            // The manager must reopen over the torn log and keep
            // allocating fresh GSNs past everything it saw.
            let mgr = TxnManager::open(&env, dir, &rec).unwrap();
            let g = mgr.begin().unwrap();
            assert!(g > rec.max_gsn);
        }
    }

    #[test]
    fn commit_record_torn_at_every_offset_rolls_back_the_transaction() {
        for keep in 1..13 {
            let env = env();
            let dir = Path::new("t");
            torn_log(&env, dir, keep, true);
            let rec = TxnManager::recover(&env, dir).unwrap();
            assert_eq!(rec.truncated_tail_bytes, keep, "cut at {keep}");
            assert!(rec.should_replay(1), "cut at {keep}");
            assert!(
                !rec.should_replay(2),
                "cut at {keep}: a torn commit is no commit — gsn 2 rolls back"
            );
            assert_eq!(rec.max_gsn, 2, "cut at {keep}: begun gsn counts toward max");
        }
    }

    #[test]
    fn freeze_drains_in_flight_and_blocks_new_begins() {
        let env = env();
        let dir = Path::new("t");
        let mgr = Arc::new(TxnManager::open(&env, dir, &TxnRecovery::default()).unwrap());
        let g1 = mgr.begin().unwrap();
        // Freeze from another thread: it must not return while g1 is
        // in flight.
        let m2 = mgr.clone();
        let freezer = std::thread::spawn(move || {
            let horizon = m2.freeze();
            (horizon, std::time::Instant::now())
        });
        std::thread::sleep(std::time::Duration::from_millis(60));
        let committed_at = std::time::Instant::now();
        mgr.commit(g1).unwrap();
        let (horizon, froze_at) = freezer.join().unwrap();
        assert_eq!(horizon, g1, "horizon is the highest allocated GSN");
        assert!(froze_at >= committed_at, "freeze waited for the drain");
        // While frozen, a new begin blocks until thaw.
        let m3 = mgr.clone();
        let beginner = std::thread::spawn(move || m3.begin().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(60));
        let thawed_at = std::time::Instant::now();
        mgr.thaw();
        let g2 = beginner.join().unwrap();
        assert!(g2 > horizon, "post-thaw GSNs are past the horizon");
        assert!(std::time::Instant::now() >= thawed_at);
        mgr.commit(g2).unwrap();
    }

    #[test]
    fn abandon_releases_the_gate() {
        let env = env();
        let mgr = Arc::new(TxnManager::open(&env, Path::new("t"), &TxnRecovery::default()).unwrap());
        let g = mgr.begin().unwrap();
        mgr.abandon(g);
        // A freeze must not hang on the abandoned transaction.
        let horizon = mgr.freeze();
        assert_eq!(horizon, g);
        mgr.thaw();
        // The abandoned GSN rolls back at recovery (no commit record).
        drop(mgr);
        let rec = TxnManager::recover(&env, Path::new("t")).unwrap();
        assert!(!rec.should_replay(g));
    }

    #[test]
    fn seeded_log_continues_past_the_horizon() {
        let env = env();
        let dir = Path::new("restored");
        TxnManager::seed(&env, dir, 42).unwrap();
        let rec = TxnManager::recover(&env, dir).unwrap();
        assert_eq!(rec.max_gsn, 42);
        assert!(rec.should_replay(42), "the horizon itself is committed");
        assert!(!rec.should_replay(43));
        let mgr = TxnManager::open(&env, dir, &rec).unwrap();
        assert_eq!(mgr.begin().unwrap(), 43, "allocation resumes past the horizon");
        // Zero horizon: no log is needed or written.
        TxnManager::seed(&env, Path::new("r0"), 0).unwrap();
        assert!(!env.exists(Path::new("r0/TXNLOG")));
    }

    #[test]
    fn clean_log_reports_no_truncated_tail() {
        let env = env();
        let dir = Path::new("t");
        {
            let mgr = TxnManager::open(&env, dir, &TxnRecovery::default()).unwrap();
            let g = mgr.begin().unwrap();
            mgr.commit(g).unwrap();
        }
        let rec = TxnManager::recover(&env, dir).unwrap();
        assert_eq!(rec.truncated_tail_bytes, 0);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let env = env();
        let dir = Path::new("t");
        {
            let mgr = TxnManager::open(&env, dir, &TxnRecovery::default()).unwrap();
            let g = mgr.begin().unwrap();
            mgr.commit(g).unwrap();
        }
        // Corrupt the tail by appending garbage.
        let path = Path::new("t/TXNLOG");
        let mut data = p2kvs_storage::env::read_all(&*env, path).unwrap();
        data.extend_from_slice(&[0xde, 0xad, 0xbe]);
        p2kvs_storage::env::write_all(&*env, path, &data).unwrap();
        let rec = TxnManager::recover(&env, dir).unwrap();
        assert!(rec.should_replay(1));
        assert_eq!(rec.max_gsn, 1);
    }
}
