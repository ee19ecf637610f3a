//! Lazy K-way merge cursor over per-shard scan streams.
//!
//! [`StoreIter`] is the store-level half of the streaming scan subsystem
//! (§4.4): it opens one engine cursor per **shard** (`Op::ScanOpen`,
//! one scatter), then merges the per-shard streams on demand.
//! Partitions are disjoint, so picking the smallest buffered head key
//! yields the globally sorted order exactly — no heap is needed for the
//! default `S ≤ 32` shards; a linear min scan over at most `S` heads is
//! cheaper than maintaining one.
//!
//! Every request is routed through the live [`MapCell`], so an iterator
//! keeps working across shard migrations: a chunk request that races a
//! handoff is stashed by the incoming owner and served once the shard's
//! cursor table (this stream's parked cursor included) is installed.
//!
//! The merge is *lazy* in both directions:
//!
//! * Only streams whose buffer has drained are refilled
//!   (`Op::ScanNext`, all of them in one scatter), so a stream holding
//!   distant keys is pulled at most once per `chunk_entries` consumed
//!   from it.
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

use p2kvs_obs::TraceCtx;

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
    /// Scatters `ScanOpen` to every shard's owning worker and assembles
    /// the merge state. `first_limit` is the per-shard quota for the
    /// opening chunk (a bounded scan asks for its share, an iterator for
    /// a whole chunk); refills use `chunk_entries`.
    pub(crate) fn open(
        map: &'a MapCell,
        shards: usize,
        start: &[u8],
        end: Option<&[u8]>,
        first_limit: usize,
        chunk_entries: usize,
        chunk_bytes: usize,
    ) -> Result<StoreIter<'a>> {
        let mut iter = StoreIter {
            map,
            streams: (0..shards)
                .map(|shard| Stream {
                    shard,
                    cursor: None,
                    buf: VecDeque::new(),
                })
                .collect(),
            chunk_entries: chunk_entries.max(1),
            chunk_bytes: chunk_bytes.max(1),
            poisoned: false,
        };
        let all: Vec<usize> = (0..shards).collect();
        // On failure the iterator drops here, closing every cursor that
        // did open.
        iter.pull(&all, |_| Op::ScanOpen {
            start: start.to_vec(),
            end: end.map(|e| e.to_vec()),
            limit: first_limit.max(1),
            max_bytes: chunk_bytes,
        })?;
        Ok(iter)
    }

    /// One scatter: asks the owner of each stream in `which` for a chunk
    /// and stores what comes back. A failed `ScanNext` leaves its cursor
    /// id in place: either the request never reached the worker and the
    /// cursor still needs closing, or the worker dropped the cursor when
    /// it failed and closing an unknown id is a no-op — the
    /// close-everything paths need not tell the two apart.
    fn pull(&mut self, which: &[usize], op: impl Fn(&Stream) -> Op) -> Result<()> {
        let entries = which
            .iter()
            .map(|&i| (self.streams[i].shard, op(&self.streams[i])))
            .collect();
        let mut first_err = None;
        for (&i, reply) in which.iter().zip(self.map.scatter(TraceCtx::NONE, entries)) {
            match reply {
                Ok(Response::Chunk { entries, cursor }) => {
                    self.streams[i].buf = entries.into();
                    self.streams[i].cursor = cursor;
                }
                Ok(other) => {
                    first_err
                        .get_or_insert(Error::Engine(format!("unexpected response {other:?}")));
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Refills every drained stream — an empty buffer over a live cursor
    /// may hold the globally smallest key, so it must be pulled before
    /// the heads can be compared — all of them in one scatter per round.
    /// The engine contract guarantees progress (a non-final chunk holds
    /// at least one entry), so one round is the rule and the loop
    /// terminates.
    fn refill(&mut self) -> Result<()> {
        loop {
            let drained: Vec<usize> = (0..self.streams.len())
                .filter(|&i| self.streams[i].buf.is_empty() && self.streams[i].cursor.is_some())
                .collect();
            if drained.is_empty() {
                return Ok(());
            }
            let (limit, max_bytes) = (self.chunk_entries, self.chunk_bytes);
            self.pull(&drained, |s| Op::ScanNext {
                cursor: s.cursor.expect("drained streams hold a cursor"),
                limit,
                max_bytes,
            })?;
        }
    }

    /// The next entry in global key order, or `None` when the range is
    /// exhausted.
    pub fn next_entry(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        if self.poisoned {
            return Err(Error::Engine(
                "scan iterator poisoned by a previous error".into(),
            ));
        }
        if let Err(e) = self.refill() {
            self.poison();
            return Err(e);
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
