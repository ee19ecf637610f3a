//! GSN-consistent online backup: the freeze hub, the on-disk backup
//! format, and the restore-side readers (DESIGN.md §12).
//!
//! A backup is a *cut* of the store at a GSN horizon: the coordinator
//! freezes the transaction gate (no new GSNs, in-flight ones drained),
//! pushes one `Op::BackupFreeze` marker per shard through the ordinary
//! worker queues, and each owner forks an engine-level snapshot when the
//! marker is dequeued — provably behind every write acked before the
//! horizon and ahead of everything after it. The snapshots land here, in
//! the [`BackupHub`], and a background streamer drains them into the
//! backup directory while foreground traffic continues past the horizon.
//!
//! On-disk layout of a backup directory:
//!
//! ```text
//! shard-{i}.snap   length-prefixed (klen u32 LE | vlen u32 LE | key |
//!                  value) records in key order, one file per shard
//! FLIGHT.log       the source store's flight journal up to and
//!                  including the BackupComplete record — the backup is
//!                  self-describing evidence of how it was taken
//! MANIFEST         written (and synced) last: horizon, shard count, map
//!                  epoch, per-file entry/byte/CRC sums, and a
//!                  `complete` trailer. No trailer → the backup was
//!                  interrupted and restore rejects it.
//! ```

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use p2kvs_obs::{Journal, JournalKind};
use p2kvs_storage::EnvRef;
use p2kvs_util::crc32c;
use p2kvs_util::sync::Mutex;

use crate::engine::{BackupSource, SnapshotFidelity};
use crate::error::{Error, Result};

/// Manifest file name inside a backup directory.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST";
/// Flight-journal copy inside a backup directory (same name as the
/// store's own, so a restored directory recovers it unchanged).
pub(crate) const FLIGHT_FILE: &str = "FLIGHT.log";
/// Entry bound per cursor pull while streaming.
const STREAM_CHUNK_ENTRIES: usize = 512;
/// Payload-byte bound per cursor pull while streaming (1 MiB).
const STREAM_CHUNK_BYTES: usize = 1 << 20;

/// Per-shard snapshot file name.
pub(crate) fn snap_file(shard: u32) -> String {
    format!("shard-{shard}.snap")
}

/// The frozen snapshots of one in-flight backup, deposited by the
/// workers as each `BackupFreeze` marker executes.
pub(crate) struct FreezeSession {
    /// The backup's GSN horizon.
    pub horizon: u64,
    /// Forked engine snapshots, keyed by shard.
    pub frozen: HashMap<u32, BackupSource>,
}

/// Rendezvous between the backup coordinator and the workers: the
/// coordinator opens a session (at most one — backups serialize), each
/// worker deposits its shard's forked snapshot, and the coordinator
/// takes the full session for the streamer once every marker has acked.
#[derive(Default)]
pub(crate) struct BackupHub {
    session: Mutex<Option<FreezeSession>>,
}

impl BackupHub {
    /// Opens a freeze session at `horizon`. Fails if another backup is
    /// still collecting or streaming has not yet taken the session.
    pub fn open_session(&self, horizon: u64) -> Result<()> {
        let mut s = self.session.lock();
        if s.is_some() {
            return Err(Error::Backup("another backup is in flight".into()));
        }
        *s = Some(FreezeSession {
            horizon,
            frozen: HashMap::new(),
        });
        Ok(())
    }

    /// Deposits `shard`'s forked snapshot, returning the session horizon
    /// — or `None` for a stray marker with no open session (a crashed or
    /// failed coordinator): the caller drops the snapshot and still acks.
    pub fn deposit(&self, shard: u32, source: BackupSource) -> Option<u64> {
        let mut s = self.session.lock();
        let session = s.as_mut()?;
        session.frozen.insert(shard, source);
        Some(session.horizon)
    }

    /// Takes the session for streaming (or for teardown on error).
    pub fn take_session(&self) -> Option<FreezeSession> {
        self.session.lock().take()
    }
}

/// Per-shard file entry of a [`Manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShardFileMeta {
    /// Shard index (also names the file).
    pub shard: u32,
    /// Entries in the file.
    pub entries: u64,
    /// File length in bytes.
    pub bytes: u64,
    /// CRC-32C of the whole file.
    pub crc: u32,
    /// How the snapshot was forked (evidence only; restore treats both
    /// fidelities identically).
    pub fidelity: SnapshotFidelity,
}

/// The backup manifest — written and synced last, so its presence (with
/// the `complete` trailer) certifies every other file in the directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// GSN horizon of the cut.
    pub horizon: u64,
    /// Shard count of the source store (restore forces the same).
    pub shards: u32,
    /// Shard-map epoch frozen into the cut (migrations in flight at
    /// freeze time have either fully landed or not happened yet).
    pub map_epoch: u64,
    /// Flight-journal sequence as of the copy in this directory.
    pub journal_seq: u64,
    /// One entry per shard file.
    pub files: Vec<ShardFileMeta>,
}

impl Manifest {
    /// Renders the manifest, `complete` trailer included.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str("p2kvs-backup 1\n");
        out.push_str(&format!("horizon {}\n", self.horizon));
        out.push_str(&format!("shards {}\n", self.shards));
        out.push_str(&format!("map_epoch {}\n", self.map_epoch));
        out.push_str(&format!("journal_seq {}\n", self.journal_seq));
        for f in &self.files {
            out.push_str(&format!(
                "shard {} {} {} {} {}\n",
                f.shard,
                f.entries,
                f.bytes,
                f.crc,
                f.fidelity.code()
            ));
        }
        out.push_str("complete\n");
        out
    }

    /// Parses a manifest, rejecting torn or incomplete ones.
    pub fn parse(data: &[u8]) -> Result<Manifest> {
        let bad = |msg: &str| Error::Backup(format!("MANIFEST: {msg}"));
        let text = std::str::from_utf8(data).map_err(|_| bad("not utf-8"))?;
        let mut lines = text.lines();
        if lines.next() != Some("p2kvs-backup 1") {
            return Err(bad("bad magic — not a p2kvs backup"));
        }
        let mut horizon = None;
        let mut shards = None;
        let mut map_epoch = None;
        let mut journal_seq = None;
        let mut files = Vec::new();
        let mut complete = false;
        for line in lines {
            let mut tok = line.split_ascii_whitespace();
            match tok.next() {
                Some("horizon") => horizon = tok.next().and_then(|v| v.parse().ok()),
                Some("shards") => shards = tok.next().and_then(|v| v.parse().ok()),
                Some("map_epoch") => map_epoch = tok.next().and_then(|v| v.parse().ok()),
                Some("journal_seq") => journal_seq = tok.next().and_then(|v| v.parse().ok()),
                Some("shard") => {
                    let mut field = || -> Result<u64> {
                        tok.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| bad("malformed shard line"))
                    };
                    let (shard, entries, bytes, crc, fid) =
                        (field()?, field()?, field()?, field()?, field()?);
                    files.push(ShardFileMeta {
                        shard: shard as u32,
                        entries,
                        bytes,
                        crc: crc as u32,
                        fidelity: SnapshotFidelity::from_code(fid)
                            .ok_or_else(|| bad("unknown snapshot fidelity"))?,
                    });
                }
                Some("complete") => complete = true,
                _ => return Err(bad("unrecognized line")),
            }
        }
        if !complete {
            return Err(bad(
                "missing `complete` trailer — the backup was interrupted mid-write",
            ));
        }
        let manifest = Manifest {
            horizon: horizon.ok_or_else(|| bad("missing horizon"))?,
            shards: shards.ok_or_else(|| bad("missing shard count"))?,
            map_epoch: map_epoch.ok_or_else(|| bad("missing map_epoch"))?,
            journal_seq: journal_seq.ok_or_else(|| bad("missing journal_seq"))?,
            files,
        };
        if manifest.files.len() != manifest.shards as usize {
            return Err(bad("shard-file list does not cover every shard"));
        }
        Ok(manifest)
    }
}

/// Streams one shard's snapshot cursor into `dir/shard-{i}.snap`,
/// returning its manifest entry.
fn stream_shard(
    env: &EnvRef,
    dir: &Path,
    shard: u32,
    mut source: BackupSource,
) -> Result<ShardFileMeta> {
    let mut file = env.new_writable(&dir.join(snap_file(shard)))?;
    let mut crc = 0u32;
    let (mut entries, mut bytes) = (0u64, 0u64);
    let mut buf = Vec::new();
    loop {
        let chunk = source
            .cursor
            .next_chunk(STREAM_CHUNK_ENTRIES, STREAM_CHUNK_BYTES)?;
        buf.clear();
        for (k, v) in &chunk.entries {
            buf.extend_from_slice(&(k.len() as u32).to_le_bytes());
            buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
            buf.extend_from_slice(k);
            buf.extend_from_slice(v);
        }
        entries += chunk.entries.len() as u64;
        bytes += buf.len() as u64;
        crc = crc32c::extend(crc, &buf);
        file.append(&buf)?;
        if chunk.done {
            break;
        }
    }
    file.sync()?;
    Ok(ShardFileMeta {
        shard,
        entries,
        bytes,
        crc,
        fidelity: source.fidelity,
    })
}

/// Decodes a snap file after validating it against its manifest entry.
fn decode_snap(meta: &ShardFileMeta, data: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let bad = |msg: String| Error::Backup(format!("{}: {msg}", snap_file(meta.shard)));
    if data.len() as u64 != meta.bytes {
        return Err(bad(format!(
            "truncated: {} bytes on disk, manifest says {}",
            data.len(),
            meta.bytes
        )));
    }
    if crc32c::crc32c(data) != meta.crc {
        return Err(bad("checksum mismatch — the file is corrupt".into()));
    }
    let mut entries = Vec::with_capacity(meta.entries as usize);
    let mut off = 0usize;
    while off < data.len() {
        if off + 8 > data.len() {
            return Err(bad("torn record header".into()));
        }
        let klen = u32::from_le_bytes(data[off..off + 4].try_into().expect("4 bytes")) as usize;
        let vlen = u32::from_le_bytes(data[off + 4..off + 8].try_into().expect("4 bytes")) as usize;
        off += 8;
        if off + klen + vlen > data.len() {
            return Err(bad("torn record payload".into()));
        }
        entries.push((
            data[off..off + klen].to_vec(),
            data[off + klen..off + klen + vlen].to_vec(),
        ));
        off += klen + vlen;
    }
    if entries.len() as u64 != meta.entries {
        return Err(bad(format!(
            "{} records decoded, manifest says {}",
            entries.len(),
            meta.entries
        )));
    }
    Ok(entries)
}

/// Streams a taken freeze session into `dir`. Shard files first, then
/// the `BackupComplete` journal record (durable — the source journal is
/// synced before it is copied here), then the journal copy, and the
/// manifest last: a crash at any point leaves a directory
/// [`read_backup`] rejects, never a silently short restore.
pub(crate) fn stream_session(
    env: &EnvRef,
    store_dir: &Path,
    dir: &Path,
    mut session: FreezeSession,
    map_epoch: u64,
    journal: Option<&Journal>,
) -> Result<BackupReport> {
    env.create_dir_all(dir)?;
    let shards = session.frozen.len() as u32;
    let mut files = Vec::with_capacity(shards as usize);
    for shard in 0..shards {
        let source = session.frozen.remove(&shard).ok_or_else(|| {
            Error::Backup(format!("shard {shard} deposited no snapshot"))
        })?;
        files.push(stream_shard(env, dir, shard, source)?);
    }
    let entries: u64 = files.iter().map(|f| f.entries).sum();
    let bytes: u64 = files.iter().map(|f| f.bytes).sum();
    if let Some(j) = journal {
        j.record(
            JournalKind::BackupComplete,
            shards as u64,
            entries,
            bytes,
            session.horizon,
        );
    }
    // Copy the flight journal *after* BackupComplete so the copy carries
    // the backup's own evidence, and *before* the manifest so the
    // manifest's journal_seq certifies the copy.
    let src_flight = store_dir.join(FLIGHT_FILE);
    if journal.is_some() && env.exists(&src_flight) {
        let data = p2kvs_storage::env::read_all(&**env, &src_flight)?;
        p2kvs_storage::env::write_all(&**env, &dir.join(FLIGHT_FILE), &data)?;
    }
    let manifest = Manifest {
        horizon: session.horizon,
        shards,
        map_epoch,
        journal_seq: journal.map(|j| j.last_seq()).unwrap_or(0),
        files,
    };
    p2kvs_storage::env::write_all(
        &**env,
        &dir.join(MANIFEST_FILE),
        manifest.encode().as_bytes(),
    )?;
    Ok(BackupReport {
        horizon: manifest.horizon,
        shards,
        entries,
        bytes,
        dir: dir.to_path_buf(),
    })
}

/// Reads and fully validates a backup directory: manifest trailer,
/// per-file length, CRC, and record counts — all before the caller
/// touches any destination state. Returns the manifest and each shard's
/// entries (indexed by shard).
pub(crate) fn read_backup(
    env: &EnvRef,
    dir: &Path,
) -> Result<(Manifest, Vec<Vec<(Vec<u8>, Vec<u8>)>>)> {
    let manifest_path = dir.join(MANIFEST_FILE);
    if !env.exists(&manifest_path) {
        return Err(Error::Backup(format!(
            "{}: no MANIFEST — not a backup directory, or the backup never completed",
            dir.display()
        )));
    }
    let manifest = Manifest::parse(&p2kvs_storage::env::read_all(&**env, &manifest_path)?)?;
    let mut shards = vec![Vec::new(); manifest.shards as usize];
    for meta in &manifest.files {
        let path = dir.join(snap_file(meta.shard));
        if !env.exists(&path) {
            return Err(Error::Backup(format!(
                "{}: missing from the backup directory",
                snap_file(meta.shard)
            )));
        }
        let data = p2kvs_storage::env::read_all(&**env, &path)?;
        shards[meta.shard as usize] = decode_snap(meta, &data)?;
    }
    Ok((manifest, shards))
}

/// What a completed backup streamed.
#[derive(Debug, Clone)]
pub struct BackupReport {
    /// The GSN horizon of the cut.
    pub horizon: u64,
    /// Shards streamed.
    pub shards: u32,
    /// Total entries across all shard files.
    pub entries: u64,
    /// Total payload bytes across all shard files.
    pub bytes: u64,
    /// The backup directory.
    pub dir: PathBuf,
}

/// Handle to an in-flight background backup returned by
/// [`crate::P2Kvs::backup`]. The freeze is already over when the handle
/// exists — foreground traffic proceeds while the streamer drains the
/// snapshots — so [`BackupHandle::wait`] only blocks on the streaming
/// I/O itself.
pub struct BackupHandle {
    pub(crate) thread: JoinHandle<Result<BackupReport>>,
}

impl BackupHandle {
    /// Blocks until the streamer finishes; returns its report.
    pub fn wait(self) -> Result<BackupReport> {
        self.thread
            .join()
            .map_err(|_| Error::Backup("backup streamer panicked".into()))?
    }

    /// Whether the streamer has already finished (non-blocking).
    pub fn is_done(&self) -> bool {
        self.thread.is_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::VecCursor;
    use p2kvs_storage::MemEnv;
    use std::sync::Arc;

    fn env() -> EnvRef {
        Arc::new(MemEnv::new())
    }

    fn manifest() -> Manifest {
        Manifest {
            horizon: 17,
            shards: 2,
            map_epoch: 3,
            journal_seq: 120,
            files: vec![
                ShardFileMeta {
                    shard: 0,
                    entries: 10,
                    bytes: 256,
                    crc: 0xdead_beef,
                    fidelity: SnapshotFidelity::PointInTime,
                },
                ShardFileMeta {
                    shard: 1,
                    entries: 0,
                    bytes: 0,
                    crc: 0,
                    fidelity: SnapshotFidelity::Materialized,
                },
            ],
        }
    }

    #[test]
    fn manifest_roundtrips() {
        let m = manifest();
        assert_eq!(Manifest::parse(m.encode().as_bytes()).unwrap(), m);
    }

    #[test]
    fn manifest_without_trailer_is_rejected() {
        let text = manifest().encode();
        let torn = text.strip_suffix("complete\n").unwrap();
        let err = Manifest::parse(torn.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("complete"), "{err}");
        // Cut mid-line too: still rejected, never mis-parsed.
        let err = Manifest::parse(&text.as_bytes()[..text.len() - 3]).unwrap_err();
        assert!(matches!(err, Error::Backup(_)), "{err}");
    }

    #[test]
    fn manifest_with_missing_shard_file_entry_is_rejected() {
        let mut m = manifest();
        m.files.pop();
        let err = Manifest::parse(m.encode().as_bytes()).unwrap_err();
        assert!(err.to_string().contains("every shard"), "{err}");
    }

    #[test]
    fn manifest_with_bad_magic_is_rejected() {
        let err = Manifest::parse(b"rocksdb-backup 1\ncomplete\n").unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    fn entries(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("key-{i:04}").into_bytes(),
                    format!("value-{i}").into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn snap_file_roundtrips_through_stream_and_decode() {
        let env = env();
        let dir = Path::new("bk");
        env.create_dir_all(dir).unwrap();
        let want = entries(700); // several cursor chunks
        let source = BackupSource {
            fidelity: SnapshotFidelity::Materialized,
            cursor: Box::new(VecCursor::new(want.clone())),
        };
        let meta = stream_shard(&env, dir, 0, source).unwrap();
        assert_eq!(meta.entries, 700);
        let data = p2kvs_storage::env::read_all(&*env, &dir.join(snap_file(0))).unwrap();
        assert_eq!(decode_snap(&meta, &data).unwrap(), want);
    }

    #[test]
    fn corrupt_snap_file_is_rejected() {
        let env = env();
        let dir = Path::new("bk");
        env.create_dir_all(dir).unwrap();
        let source = BackupSource {
            fidelity: SnapshotFidelity::PointInTime,
            cursor: Box::new(VecCursor::new(entries(50))),
        };
        let meta = stream_shard(&env, dir, 3, source).unwrap();
        let path = dir.join(snap_file(3));
        let mut data = p2kvs_storage::env::read_all(&*env, &path).unwrap();
        data[20] ^= 0x01;
        let err = decode_snap(&meta, &data).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Truncation is caught by the length check before the CRC.
        data[20] ^= 0x01;
        data.truncate(data.len() - 5);
        let err = decode_snap(&meta, &data).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn hub_serializes_sessions_and_ignores_strays() {
        let hub = BackupHub::default();
        let stray = BackupSource {
            fidelity: SnapshotFidelity::PointInTime,
            cursor: Box::new(VecCursor::new(Vec::new())),
        };
        assert_eq!(hub.deposit(0, stray), None, "no session: stray is dropped");
        hub.open_session(9).unwrap();
        assert!(hub.open_session(10).is_err(), "backups serialize");
        let src = BackupSource {
            fidelity: SnapshotFidelity::PointInTime,
            cursor: Box::new(VecCursor::new(Vec::new())),
        };
        assert_eq!(hub.deposit(1, src), Some(9));
        let session = hub.take_session().unwrap();
        assert_eq!(session.horizon, 9);
        assert_eq!(session.frozen.len(), 1);
        assert!(hub.take_session().is_none());
        hub.open_session(11).unwrap();
    }

    #[test]
    fn read_backup_rejects_a_directory_without_a_manifest() {
        let env = env();
        env.create_dir_all(Path::new("empty")).unwrap();
        let err = read_backup(&env, Path::new("empty")).unwrap_err();
        assert!(err.to_string().contains("MANIFEST"), "{err}");
    }

    #[test]
    fn a_backup_with_an_empty_shard_survives_power_failure() {
        // A shard that held nothing at the cut streams a zero-byte file;
        // once the manifest is durable, a crash must not lose it.
        let mem = Arc::new(MemEnv::new());
        let env: EnvRef = mem.clone();
        let mut frozen = HashMap::new();
        for (s, n) in [(0u32, 5usize), (1, 0)] {
            let cursor = Box::new(VecCursor::new(entries(n)));
            let fidelity = SnapshotFidelity::PointInTime;
            frozen.insert(s, BackupSource { fidelity, cursor });
        }
        let session = FreezeSession { horizon: 9, frozen };
        stream_session(&env, Path::new("store"), Path::new("bk"), session, 1, None).unwrap();
        mem.fs().power_failure();
        let (_, shards) = read_backup(&env, Path::new("bk")).unwrap();
        assert_eq!(shards, vec![entries(5), Vec::new()]);
    }

    #[test]
    fn stream_session_then_read_backup_roundtrips() {
        let env = env();
        let mut frozen = HashMap::new();
        let per_shard: Vec<_> = (0..3u32).map(|s| entries(10 + s as usize)).collect();
        for (s, e) in per_shard.iter().enumerate() {
            frozen.insert(
                s as u32,
                BackupSource {
                    fidelity: SnapshotFidelity::PointInTime,
                    cursor: Box::new(VecCursor::new(e.clone())),
                },
            );
        }
        let session = FreezeSession { horizon: 5, frozen };
        let report =
            stream_session(&env, Path::new("store"), Path::new("bk"), session, 2, None).unwrap();
        assert_eq!(report.horizon, 5);
        assert_eq!(report.shards, 3);
        assert_eq!(report.entries, 10 + 11 + 12);
        let (manifest, shards) = read_backup(&env, Path::new("bk")).unwrap();
        assert_eq!(manifest.horizon, 5);
        assert_eq!(manifest.map_epoch, 2);
        assert_eq!(shards, per_shard);
        // Deleting one shard file turns the directory into a partial
        // backup that restore must reject.
        let env2 = env;
        // MemEnv has no remove_file; emulate the partial state by
        // truncating the manifest's view instead: corrupt the file.
        p2kvs_storage::env::write_all(&*env2, &Path::new("bk").join(snap_file(1)), b"junk")
            .unwrap();
        let err = read_backup(&env2, Path::new("bk")).unwrap_err();
        assert!(matches!(err, Error::Backup(_)), "{err}");
    }
}
