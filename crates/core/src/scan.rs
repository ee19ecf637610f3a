//! Lazy K-way merge cursor over per-shard scan streams.
//!
//! [`StoreIter`] is the store-level half of the streaming scan subsystem
//! (§4.4): it opens one engine cursor per **shard** (`Op::ScanOpen`),
//! then merges the per-shard streams on demand. Partitions are disjoint,
//! so picking the smallest buffered head key yields the globally sorted
//! order exactly — no heap is needed for the default `S ≤ 32` shards; a
//! linear min scan over at most `S` heads is cheaper than maintaining
//! one.
//!
//! Every request is routed through the live [`MapCell`], so an iterator
//! keeps working across shard migrations: a chunk request that races a
//! handoff is stashed by the incoming owner and served once the shard's
//! cursor table (this stream's parked cursor included) is installed.
//!
//! The merge is *lazy* in both directions:
//!
//! * Only streams whose buffer has drained are refilled
//!   (`Op::ScanNext`), so a stream holding distant keys is pulled at
//!   most once per `chunk_entries` consumed from it.
//! * Nothing is fetched beyond what [`StoreIter::next_entry`] /
//!   [`StoreIter::next_chunk`] demand, so `scan(start, 5)` over a
//!   million-entry store reads a handful of chunks, not the world.
//!
//! Because every chunk is a bounded request through the worker queue,
//! point operations interleave (and OBM-merge) between chunks — the
//! head-of-line blocking the old monolithic `Op::Scan` caused is gone
//! (see `crate::worker`).
//!
//! Dropping the iterator closes every still-parked cursor with a
//! fire-and-forget `Op::ScanClose`, releasing engine snapshots without
//! blocking the dropping thread.

use std::collections::VecDeque;

use crate::error::{Error, Result};
use crate::shard::MapCell;
use crate::types::{Op, Request, Response};

/// One per-shard scan stream: the shard it reads, the parked cursor id
/// (if the stream is not exhausted), and locally buffered entries not
/// yet consumed by the merge. The worker serving the stream is resolved
/// per request from the shard map — it changes under migration.
struct Stream {
    shard: usize,
    cursor: Option<u64>,
    buf: VecDeque<(Vec<u8>, Vec<u8>)>,
}

/// A pull-based, globally sorted iterator over the whole store (or a
/// `[begin, end)` slice of it). Obtained from [`P2Kvs::iter`],
/// [`P2Kvs::iter_from`], or [`P2Kvs::iter_range`].
///
/// Consume it either through the [`Iterator`] impl (per entry) or with
/// [`StoreIter::next_chunk`] for paginated pulls. Errors poison the
/// iterator: the failed call reports the error, later calls yield
/// nothing.
///
/// [`P2Kvs::iter`]: crate::store::P2Kvs::iter
/// [`P2Kvs::iter_from`]: crate::store::P2Kvs::iter_from
/// [`P2Kvs::iter_range`]: crate::store::P2Kvs::iter_range
pub struct StoreIter<'a> {
    map: &'a MapCell,
    streams: Vec<Stream>,
    chunk_entries: usize,
    chunk_bytes: usize,
    poisoned: bool,
}

impl<'a> StoreIter<'a> {
    /// Fans `ScanOpen` out to every shard's owning worker and assembles
    /// the merge state. `first_limit` is the per-shard quota for the
    /// opening chunk (the scan-strategy knob); refills use
    /// `chunk_entries`.
    pub(crate) fn open(
        map: &'a MapCell,
        shards: usize,
        start: &[u8],
        end: Option<&[u8]>,
        first_limit: usize,
        chunk_entries: usize,
        chunk_bytes: usize,
    ) -> Result<StoreIter<'a>> {
        let mut completions = Vec::with_capacity(shards);
        let mut push_err = None;
        for shard in 0..shards {
            let (req, done) = Request::sync(Op::ScanOpen {
                start: start.to_vec(),
                end: end.map(|e| e.to_vec()),
                limit: first_limit.max(1),
                max_bytes: chunk_bytes,
            });
            match map.send(shard, req.on_shard(shard as u64)) {
                Ok(()) => completions.push((shard, done)),
                Err(_) => {
                    push_err = Some(Error::Closed);
                    break;
                }
            }
        }
        // A mid-loop push failure must not abandon the completions that
        // were already enqueued: their pooled slots are still in flight
        // and a fulfilled-but-never-awaited slot would be recycled in a
        // dirty state. Drain every pushed completion — closing any
        // cursor that still came back — before reporting the error.
        if let Some(e) = push_err {
            let mut streams = Vec::new();
            for (shard, done) in completions {
                if let Ok(Response::Chunk {
                    cursor: Some(id), ..
                }) = done.wait()
                {
                    streams.push(Stream {
                        shard,
                        cursor: Some(id),
                        buf: VecDeque::new(),
                    });
                }
            }
            close_streams(map, &mut streams);
            return Err(e);
        }
        let mut streams = Vec::with_capacity(completions.len());
        let mut first_err: Option<Error> = None;
        for (shard, done) in completions {
            match done.wait() {
                Ok(Response::Chunk { entries, cursor }) => streams.push(Stream {
                    shard,
                    cursor,
                    buf: entries.into(),
                }),
                Ok(other) => {
                    first_err
                        .get_or_insert(Error::Engine(format!("unexpected response {other:?}")));
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            close_streams(map, &mut streams);
            return Err(e);
        }
        Ok(StoreIter {
            map,
            streams,
            chunk_entries: chunk_entries.max(1),
            chunk_bytes: chunk_bytes.max(1),
            poisoned: false,
        })
    }

    /// Pulls the next chunk for stream `i` from its worker. The engine
    /// contract guarantees progress (a non-final chunk holds at least
    /// one entry), so the loop terminates.
    fn refill(&mut self, i: usize) -> Result<()> {
        while self.streams[i].buf.is_empty() {
            let Some(id) = self.streams[i].cursor else {
                return Ok(());
            };
            let (req, done) = Request::sync(Op::ScanNext {
                cursor: id,
                limit: self.chunk_entries,
                max_bytes: self.chunk_bytes,
            });
            let stream = &mut self.streams[i];
            // Routed per request: the cursor follows its shard across
            // migrations and pool resizes.
            let req = req.on_shard(stream.shard as u64);
            if self.map.send(stream.shard, req).is_err() {
                // Queue closed: the worker is gone and its cursor table
                // with it — nothing left to close.
                stream.cursor = None;
                return Err(Error::Closed);
            }
            match done.wait() {
                Ok(Response::Chunk { entries, cursor }) => {
                    stream.buf = entries.into();
                    stream.cursor = cursor;
                }
                Ok(other) => {
                    return Err(Error::Engine(format!("unexpected response {other:?}")));
                }
                Err(e) => {
                    // The worker drops a cursor that failed, so do not
                    // try to close it again.
                    stream.cursor = None;
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// The next entry in global key order, or `None` when the range is
    /// exhausted.
    pub fn next_entry(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        if self.poisoned {
            return Err(Error::Engine(
                "scan iterator poisoned by a previous error".into(),
            ));
        }
        // Refill only drained streams: one with an empty buffer and a
        // live cursor may hold the globally smallest key, so it must be
        // pulled before the heads can be compared.
        for i in 0..self.streams.len() {
            if self.streams[i].buf.is_empty() && self.streams[i].cursor.is_some() {
                if let Err(e) = self.refill(i) {
                    self.poison();
                    return Err(e);
                }
            }
        }
        let mut best: Option<usize> = None;
        for i in 0..self.streams.len() {
            if self.streams[i].buf.front().is_none() {
                continue;
            }
            best = Some(match best {
                None => i,
                Some(b) => {
                    let head = |j: usize| &self.streams[j].buf.front().unwrap().0;
                    if head(i) < head(b) {
                        i
                    } else {
                        b
                    }
                }
            });
        }
        Ok(best.and_then(|i| self.streams[i].buf.pop_front()))
    }

    /// Pulls up to `n` entries in global key order (fewer only at the
    /// end of the range) — the paginated interface.
    pub fn next_chunk(&mut self, n: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::with_capacity(n.min(1024));
        while out.len() < n {
            match self.next_entry()? {
                Some(e) => out.push(e),
                None => break,
            }
        }
        Ok(out)
    }

    /// Marks the iterator failed and releases every parked cursor.
    fn poison(&mut self) {
        self.poisoned = true;
        close_streams(self.map, &mut self.streams);
    }
}

/// Fire-and-forget `ScanClose` for every stream that still holds a
/// cursor. Uses an asynchronous request so neither `Drop` nor an error
/// path blocks on the worker; a closed queue means the worker (and its
/// cursor table) is already gone.
fn close_streams(map: &MapCell, streams: &mut [Stream]) {
    for s in streams {
        if let Some(id) = s.cursor.take() {
            let req = Request::asynchronous(Op::ScanClose { cursor: id }, Box::new(|_| {}))
                .on_shard(s.shard as u64);
            let _ = map.send(s.shard, req);
        }
    }
}

impl Iterator for StoreIter<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    /// Yields `Err` once on failure, then ends the iteration.
    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned {
            return None;
        }
        match self.next_entry() {
            Ok(Some(e)) => Some(Ok(e)),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

impl Drop for StoreIter<'_> {
    fn drop(&mut self) {
        close_streams(self.map, &mut self.streams);
    }
}
