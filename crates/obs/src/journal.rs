//! The system flight recorder: a bounded, monotonically-sequenced
//! journal of control-plane events.
//!
//! Request-level history lives in histograms and span rings; the journal
//! answers the *other* question — "what was the system doing when X
//! happened?" It records shard handoffs, balancer decisions (with their
//! busy-ns evidence), engine compactions and flushes, injected fault
//! firings, scan open/close, and store lifecycle, each stamped with a
//! gap-free sequence number from one atomic counter and a microsecond
//! timestamp. Recent records stay in a bounded in-memory ring; an
//! optional sink (installed by the store) appends every record to a
//! journal file so the history survives a crash — the crash-recovery
//! matrix asserts that the recovered file is a contiguous,
//! gap-free prefix of the sequence.
//!
//! The crate knows nothing about storage; persistence is a callback so
//! the dependency points the right way (core installs an `Env`-backed
//! sink).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What kind of control-plane event a record describes, with the
/// meaning of the generic `a`/`b`/`c` payload fields per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalKind {
    /// Store opened (`a` = workers, `b` = shards, `c` = recovered
    /// journal records found on disk).
    StoreOpen,
    /// Store closed cleanly.
    StoreClose,
    /// A worker packaged a shard for migration (`a` = shard, `b` =
    /// source worker, `c` = parked scan cursors deposited).
    HandoffOut,
    /// A worker installed a migrated shard (`a` = shard, `b` = target
    /// worker, `c` = stashed requests replayed).
    ShardInstall,
    /// The balancer decided to move a shard (`a` = shard, `b` = target
    /// worker, `c` = busiest worker's busy-ns delta over the window —
    /// the evidence the decision was made on).
    BalanceMove,
    /// An engine memtable flush started (`a` = engine instance, `b` =
    /// approximate bytes).
    FlushStart,
    /// An engine memtable flush finished (`a` = instance, `b` = bytes).
    FlushFinish,
    /// An engine compaction started (`a` = instance, `b` = source
    /// level, `c` = input bytes).
    CompactionStart,
    /// An engine compaction finished (`a` = instance, `b` = source
    /// level, `c` = output bytes; the `gsn` slot is 1 when the files
    /// were moved to the next level as they were — `c` is then their
    /// size, and nothing was written).
    CompactionFinish,
    /// An injected fault fired (`a` = 1 append, 2 sync, 3 read, 4 crash,
    /// 7 queue crash; `b` = its op number, on its queue for 7; `c` = torn
    /// bytes kept; the `gsn` slot = 7's queue; codes 5, 6 are retired).
    FaultFired,
    /// A streaming scan opened a cursor (`a` = worker, `b` = cursor id,
    /// `c` = shard).
    ScanOpen,
    /// A cursor was closed or exhausted (`a` = worker, `b` = cursor id,
    /// `c` = shard).
    ScanClose,
    /// A cross-shard transaction committed; `gsn` carries its Global
    /// Sequence Number (`a` = shards touched).
    TxnCommit,
    /// The read cache dropped a shard's entries, or reset cold at open
    /// (`a` = shard, or `u64::MAX` for a full open-time reset; `b` =
    /// entries dropped; `c` = bytes dropped, or the configured capacity
    /// for an open-time reset).
    CacheFlush,
    /// An online backup chose its GSN horizon (`a` = shards, `b` = shard
    /// map epoch frozen into the manifest; `gsn` = the horizon).
    BackupBegin,
    /// A worker forked a shard's engine snapshot for an in-flight backup
    /// (`a` = shard, `b` = worker, `c` = snapshot fidelity: 0
    /// point-in-time, 1 materialized at freeze; `gsn` = the horizon).
    ShardFrozen,
    /// A backup finished streaming and its manifest is durable (`a` =
    /// shards streamed, `b` = total entries, `c` = total payload bytes;
    /// `gsn` = the horizon).
    BackupComplete,
    /// The pool spawned a worker — at open or a runtime scale-up (`a` =
    /// worker id, `b` = live workers after the spawn, `c` = home device
    /// queue + 1, or 0 when affinity is off).
    WorkerSpawn,
    /// The pool drained and retired a worker (`a` = worker id, `b` =
    /// live workers after the retire, `c` = shards migrated off it
    /// during the drain).
    WorkerRetire,
}

impl JournalKind {
    /// Stable wire/display name.
    pub fn name(self) -> &'static str {
        match self {
            JournalKind::StoreOpen => "store_open",
            JournalKind::StoreClose => "store_close",
            JournalKind::HandoffOut => "handoff_out",
            JournalKind::ShardInstall => "shard_install",
            JournalKind::BalanceMove => "balance_move",
            JournalKind::FlushStart => "flush_start",
            JournalKind::FlushFinish => "flush_finish",
            JournalKind::CompactionStart => "compaction_start",
            JournalKind::CompactionFinish => "compaction_finish",
            JournalKind::FaultFired => "fault_fired",
            JournalKind::ScanOpen => "scan_open",
            JournalKind::ScanClose => "scan_close",
            JournalKind::TxnCommit => "txn_commit",
            JournalKind::CacheFlush => "cache_flush",
            JournalKind::BackupBegin => "backup_begin",
            JournalKind::ShardFrozen => "shard_frozen",
            JournalKind::BackupComplete => "backup_complete",
            JournalKind::WorkerSpawn => "worker_spawn",
            JournalKind::WorkerRetire => "worker_retire",
        }
    }

    /// Inverse of [`JournalKind::name`], for parsing persisted journals.
    pub fn parse(name: &str) -> Option<JournalKind> {
        Some(match name {
            "store_open" => JournalKind::StoreOpen,
            "store_close" => JournalKind::StoreClose,
            "handoff_out" => JournalKind::HandoffOut,
            "shard_install" => JournalKind::ShardInstall,
            "balance_move" => JournalKind::BalanceMove,
            "flush_start" => JournalKind::FlushStart,
            "flush_finish" => JournalKind::FlushFinish,
            "compaction_start" => JournalKind::CompactionStart,
            "compaction_finish" => JournalKind::CompactionFinish,
            "fault_fired" => JournalKind::FaultFired,
            "scan_open" => JournalKind::ScanOpen,
            "scan_close" => JournalKind::ScanClose,
            "txn_commit" => JournalKind::TxnCommit,
            "cache_flush" => JournalKind::CacheFlush,
            "backup_begin" => JournalKind::BackupBegin,
            "shard_frozen" => JournalKind::ShardFrozen,
            "backup_complete" => JournalKind::BackupComplete,
            "worker_spawn" => JournalKind::WorkerSpawn,
            "worker_retire" => JournalKind::WorkerRetire,
            _ => return None,
        })
    }

    /// Whether a record of this kind is worth a durability barrier on
    /// the persistence sink. Rare control-plane transitions are synced
    /// so they survive a crash; high-rate kinds (scans) are appended
    /// only and ride on the next synced record.
    pub fn durable(self) -> bool {
        !matches!(
            self,
            JournalKind::ScanOpen
                | JournalKind::ScanClose
                | JournalKind::TxnCommit
                | JournalKind::CacheFlush
        )
    }
}

/// One flight-recorder record. Fixed-size; `a`/`b`/`c` are interpreted
/// per [`JournalKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// Gap-free, 1-based sequence number.
    pub seq: u64,
    /// Microseconds since the journal's epoch (store open).
    pub ts_us: u64,
    /// Event kind.
    pub kind: JournalKind,
    /// Kind-specific payload.
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
    /// Kind-specific payload.
    pub c: u64,
    /// Global Sequence Number when the event is transactional, else 0.
    pub gsn: u64,
}

impl JournalRecord {
    /// One-line wire form: `seq ts_us kind a b c gsn`.
    pub fn encode(&self) -> String {
        format!(
            "{} {} {} {} {} {} {}\n",
            self.seq,
            self.ts_us,
            self.kind.name(),
            self.a,
            self.b,
            self.c,
            self.gsn
        )
    }

    /// Parses one line of the wire form; `None` for malformed (e.g.
    /// torn) lines.
    pub fn decode(line: &str) -> Option<JournalRecord> {
        let mut it = line.split_ascii_whitespace();
        let seq = it.next()?.parse().ok()?;
        let ts_us = it.next()?.parse().ok()?;
        let kind = JournalKind::parse(it.next()?)?;
        let a = it.next()?.parse().ok()?;
        let b = it.next()?.parse().ok()?;
        let c = it.next()?.parse().ok()?;
        let gsn = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        Some(JournalRecord { seq, ts_us, kind, a, b, c, gsn })
    }
}

/// Receives every record as it is sequenced; `durable` asks the sink
/// for a barrier after this record (see [`JournalKind::durable`]).
pub type JournalSink = Box<dyn Fn(&JournalRecord, bool) + Send + Sync>;

/// The flight recorder proper: an atomic sequence, a bounded ring of
/// recent records, and the optional persistence sink.
pub struct Journal {
    cap: usize,
    seq: AtomicU64,
    epoch: Instant,
    recent: Mutex<VecDeque<JournalRecord>>,
    sink: Mutex<Option<JournalSink>>,
}

impl Journal {
    /// Records a store's journal keeps in memory (the persisted log is
    /// unbounded within the store's lifetime).
    pub const DEFAULT_CAPACITY: usize = 256;

    /// Creates a journal keeping the most recent `cap` records (min 16)
    /// in memory, with the sequence starting after `last_seq` (0 for a
    /// fresh store; the recovered maximum when reopening so numbering
    /// stays gap-free across restarts).
    pub fn new(cap: usize, last_seq: u64) -> Journal {
        Journal {
            cap: cap.max(16),
            seq: AtomicU64::new(last_seq),
            epoch: Instant::now(),
            recent: Mutex::new(VecDeque::new()),
            sink: Mutex::new(None),
        }
    }

    /// Installs the persistence sink (at most one; replaces any prior).
    pub fn set_sink(&self, sink: JournalSink) {
        *self.sink.lock().expect("journal sink lock") = Some(sink);
    }

    /// Drops the persistence sink (store close: the file is finalized).
    pub fn clear_sink(&self) {
        *self.sink.lock().expect("journal sink lock") = None;
    }

    /// Seeds the in-memory ring with records recovered from disk so
    /// `recent()` spans the crash boundary.
    pub fn seed(&self, recovered: &[JournalRecord]) {
        let mut recent = self.recent.lock().expect("journal ring lock");
        for r in recovered.iter().rev().take(self.cap).rev() {
            recent.push_back(*r);
        }
    }

    /// Records one event, assigning the next sequence number. Returns
    /// the stamped record.
    ///
    /// The sequence number is assigned while the sink lock is held:
    /// concurrent recorders (workers, flush/compaction threads, fault
    /// hooks) would otherwise be able to reach the sink out of sequence
    /// order, and a crash landing between the two appends would leave a
    /// *hole* in the persisted journal — which recovery asserts never
    /// happens. A torn tail may cost suffix records, never interior
    /// ones.
    pub fn record(&self, kind: JournalKind, a: u64, b: u64, c: u64, gsn: u64) -> JournalRecord {
        let sink = self.sink.lock().expect("journal sink lock");
        let rec = JournalRecord {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            ts_us: self.epoch.elapsed().as_micros() as u64,
            kind,
            a,
            b,
            c,
            gsn,
        };
        {
            let mut recent = self.recent.lock().expect("journal ring lock");
            if recent.len() == self.cap {
                recent.pop_front();
            }
            recent.push_back(rec);
        }
        if let Some(sink) = sink.as_ref() {
            sink(&rec, kind.durable());
        }
        rec
    }

    /// The highest sequence number assigned so far.
    pub fn last_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// The most recent records (up to the ring capacity), oldest first.
    pub fn recent(&self, n: usize) -> Vec<JournalRecord> {
        let recent = self.recent.lock().expect("journal ring lock");
        let skip = recent.len().saturating_sub(n);
        recent.iter().skip(skip).copied().collect()
    }
}

/// Parses a persisted journal image into its longest valid prefix of
/// records. Parsing stops at the first malformed line (a torn tail from
/// a crash) — everything before it is returned.
pub fn parse_journal(data: &[u8]) -> Vec<JournalRecord> {
    let text = String::from_utf8_lossy(data);
    let mut out = Vec::new();
    for line in text.split('\n') {
        if line.is_empty() {
            continue;
        }
        match JournalRecord::decode(line) {
            Some(rec) => out.push(rec),
            None => break,
        }
    }
    out
}

/// Checks that `records` form a gap-free ascending sequence (each seq =
/// predecessor + 1). Returns the first violation as a message, `None`
/// when contiguous. An empty journal is contiguous.
pub fn sequence_gap(records: &[JournalRecord]) -> Option<String> {
    for pair in records.windows(2) {
        if pair[1].seq != pair[0].seq + 1 {
            return Some(format!(
                "journal gap: seq {} followed by {}",
                pair[0].seq, pair[1].seq
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_sequenced_gap_free() {
        let j = Journal::new(64, 0);
        for i in 0..10 {
            let r = j.record(JournalKind::ScanOpen, i, 0, 0, 0);
            assert_eq!(r.seq, i + 1);
        }
        assert_eq!(j.last_seq(), 10);
        let recent = j.recent(100);
        assert_eq!(recent.len(), 10);
        assert!(sequence_gap(&recent).is_none());
    }

    #[test]
    fn ring_is_bounded_but_sequence_keeps_counting() {
        let j = Journal::new(16, 0);
        for _ in 0..50 {
            j.record(JournalKind::FlushStart, 0, 0, 0, 0);
        }
        assert_eq!(j.last_seq(), 50);
        let recent = j.recent(100);
        assert_eq!(recent.len(), 16);
        assert_eq!(recent.first().unwrap().seq, 35);
        assert!(sequence_gap(&recent).is_none());
    }

    #[test]
    fn encode_decode_round_trip() {
        let j = Journal::new(16, 7);
        let rec = j.record(JournalKind::BalanceMove, 3, 1, 987654321, 0);
        assert_eq!(rec.seq, 8, "sequence continues after the recovered max");
        let line = rec.encode();
        let back = JournalRecord::decode(line.trim_end()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn decode_rejects_torn_lines() {
        assert!(JournalRecord::decode("3 12 balance_move 1 2").is_none());
        assert!(JournalRecord::decode("3 12 balance_move 1 2 3 0 extra").is_none());
        assert!(JournalRecord::decode("x 12 balance_move 1 2 3 0").is_none());
        assert!(JournalRecord::decode("3 12 not_a_kind 1 2 3 0").is_none());
    }

    #[test]
    fn parse_journal_stops_at_torn_tail() {
        let mut img = String::new();
        for i in 1..=5u64 {
            img.push_str(
                &JournalRecord {
                    seq: i,
                    ts_us: i * 10,
                    kind: JournalKind::HandoffOut,
                    a: i,
                    b: 0,
                    c: 0,
                    gsn: 0,
                }
                .encode(),
            );
        }
        img.push_str("6 60 shard_ins"); // torn mid-record by the crash
        let recs = parse_journal(img.as_bytes());
        assert_eq!(recs.len(), 5);
        assert!(sequence_gap(&recs).is_none());
        assert_eq!(recs.last().unwrap().seq, 5);
    }

    #[test]
    fn sequence_gap_detects_holes() {
        let mk = |seq| JournalRecord {
            seq,
            ts_us: 0,
            kind: JournalKind::StoreOpen,
            a: 0,
            b: 0,
            c: 0,
            gsn: 0,
        };
        assert!(sequence_gap(&[mk(1), mk(2), mk(3)]).is_none());
        assert!(sequence_gap(&[mk(1), mk(3)]).is_some());
        assert!(sequence_gap(&[]).is_none());
    }

    #[test]
    fn sink_sees_every_record_with_durability_hint() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let j = Journal::new(16, 0);
        let synced = Arc::new(AtomicUsize::new(0));
        let total = Arc::new(AtomicUsize::new(0));
        let (s, t) = (synced.clone(), total.clone());
        j.set_sink(Box::new(move |_rec, durable| {
            t.fetch_add(1, Ordering::Relaxed);
            if durable {
                s.fetch_add(1, Ordering::Relaxed);
            }
        }));
        j.record(JournalKind::ScanOpen, 0, 0, 0, 0); // append-only
        j.record(JournalKind::HandoffOut, 1, 0, 0, 0); // synced
        j.record(JournalKind::TxnCommit, 1, 0, 0, 42); // append-only
        assert_eq!(total.load(Ordering::Relaxed), 3);
        assert_eq!(synced.load(Ordering::Relaxed), 1);
        j.clear_sink();
        j.record(JournalKind::StoreClose, 0, 0, 0, 0);
        assert_eq!(total.load(Ordering::Relaxed), 3, "sink detached");
    }

    #[test]
    fn sink_sees_records_in_sequence_order_under_concurrency() {
        use std::sync::Arc;
        let j = Arc::new(Journal::new(16, 0));
        let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
        let s = seen.clone();
        j.set_sink(Box::new(move |rec, _| {
            s.lock().unwrap().push(rec.seq);
        }));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let j = j.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        j.record(JournalKind::ScanOpen, t, i, 0, 0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2000);
        // The persisted order IS the sequence order — a reordering here
        // would let a crash punch an interior hole in FLIGHT.log.
        for (i, w) in seen.windows(2).enumerate() {
            assert!(w[0] < w[1], "sink saw seq {} before {} (index {i})", w[0], w[1]);
        }
    }

    #[test]
    fn seed_respects_ring_capacity() {
        let j = Journal::new(16, 100);
        let recovered: Vec<JournalRecord> = (1..=100)
            .map(|seq| JournalRecord {
                seq,
                ts_us: 0,
                kind: JournalKind::ScanClose,
                a: 0,
                b: 0,
                c: 0,
                gsn: 0,
            })
            .collect();
        j.seed(&recovered);
        let recent = j.recent(1000);
        assert_eq!(recent.len(), 16);
        assert_eq!(recent.first().unwrap().seq, 85);
        assert!(sequence_gap(&recent).is_none());
        // New records continue the recovered numbering.
        let r = j.record(JournalKind::StoreOpen, 0, 0, 0, 0);
        assert_eq!(r.seq, 101);
    }
}
