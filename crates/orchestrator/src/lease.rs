//! The chunk lease pool: the one scheduler every executor leases from.
//!
//! Injection indices live in one shared pool, and workers — the engine's
//! own threads and remote processes alike — *lease* contiguous chunks
//! instead of owning slices. Two properties carry the whole idempotency
//! argument:
//!
//! * **Leases may expire.** A pool opened to remote workers grants every
//!   lease a TTL, renewed by heartbeat. A SIGKILLed or partitioned worker
//!   simply stops renewing, its chunks return to the pool, and someone
//!   else runs them. No work is ever lost to a dead worker. A local-only
//!   pool (`ttl: None`) never expires anything: its holders are threads of
//!   the same process, which release their chunk when they stop.
//! * **Reissued chunks keep their exact range.** An expired or released
//!   chunk re-enters the pool as a whole range and is re-granted as a
//!   whole range — never split, never merged. Combined with all-or-nothing
//!   completion, any two completions that overlap at all cover the
//!   *identical* range, so "duplicate" is decidable by range equality and
//!   a duplicate's tally is byte-equal to the accepted one (every
//!   injection is deterministic in `(seed, index)`). Dropping it changes
//!   nothing.
//!
//! Fresh work is carved from the never-leased ("virgin") ranges. A worker
//! that names a *home* region (the engine's threads use their static
//! [`crate::shard_ranges`] slice) is served from it while it lasts and
//! counted as stealing once it takes work from elsewhere; remote workers
//! have no home and take the lowest indices. Homes are scheduling
//! accounting only: injection parameters come from per-index RNG streams,
//! so index order carries no locality — the arm-cycle sort inside each
//! chunk does.
//!
//! All methods take `now: Instant` explicitly — expiry is a pure
//! function of the clock the caller passes, which is what lets the
//! property tests drive crash/expiry interleavings deterministically.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

/// One granted chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseGrant {
    /// Pool-unique id; completion and heartbeat quote it.
    pub chunk: u64,
    pub range: Range<usize>,
    /// True when a worker with a home region was served from outside it.
    pub stolen: bool,
}

#[derive(Debug)]
struct Outstanding {
    range: Range<usize>,
    worker: String,
    /// `None` in a local-only pool: the lease never expires.
    expires: Option<Instant>,
}

/// The shared chunk pool: virgin (never-leased) ranges, a reissue queue
/// of expired/released chunks, and the outstanding lease table.
#[derive(Debug)]
pub struct LeasePool {
    /// Never-leased work, ascending and disjoint.
    virgin: Vec<Range<usize>>,
    virgin_len: usize,
    /// Expired or voluntarily released chunks, re-granted verbatim
    /// (front first) before any virgin work is carved.
    reissue: VecDeque<Range<usize>>,
    reissue_len: usize,
    outstanding: HashMap<u64, Outstanding>,
    next_chunk: u64,
    chunk_max: usize,
    /// The engine's own worker threads (0 for a remote-only run).
    local_workers: usize,
    ttl: Option<Duration>,
    /// Grants handed out (including re-grants of expired chunks).
    pub(crate) leases: u64,
    /// Grants served outside the leasing worker's home region.
    pub(crate) steals: u64,
}

impl LeasePool {
    /// `pool` is the unfinished-index set (ascending, disjoint) — the
    /// complement of a resumed checkpoint's done set. `local_workers`
    /// sizes early leases; `ttl: None` makes leases permanent.
    pub fn new(
        pool: Vec<Range<usize>>,
        chunk_max: usize,
        local_workers: usize,
        ttl: Option<Duration>,
    ) -> Self {
        assert!(chunk_max >= 1, "chunk_max must be >= 1");
        let virgin_len = pool.iter().map(Range::len).sum();
        Self {
            virgin: pool,
            virgin_len,
            reissue: VecDeque::new(),
            reissue_len: 0,
            outstanding: HashMap::new(),
            next_chunk: 0,
            chunk_max,
            local_workers,
            ttl,
            leases: 0,
            steals: 0,
        }
    }

    /// Injections leasable right now (virgin + reissue queue).
    pub fn unleased(&self) -> usize {
        self.virgin_len + self.reissue_len
    }

    /// Leases currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// True when nothing is leasable *and* nothing is outstanding: every
    /// index has been completed (the pool's caller scrubs completed
    /// ranges out, so drained means done).
    pub fn drained(&self) -> bool {
        self.unleased() == 0 && self.outstanding.is_empty()
    }

    /// Grants a chunk, reissue queue first (whole ranges, verbatim),
    /// then a carve off the virgin pool — from `home` while it overlaps
    /// any, else the lowest virgin indices. The carve is
    /// `clamp(unleased / (2 × max(local_workers, outstanding + 1)), 1,
    /// chunk_max)` wide: large while the pool is deep, decaying to single
    /// injections at the tail so no worker idles behind one long lease,
    /// and never empty or padded past what remains.
    pub fn lease(
        &mut self,
        worker: &str,
        home: Option<&Range<usize>>,
        now: Instant,
    ) -> Option<LeaseGrant> {
        let (range, stolen) = if let Some(r) = self.reissue.pop_front() {
            self.reissue_len -= r.len();
            (r, false)
        } else {
            if self.virgin_len == 0 {
                return None;
            }
            let holders = self.local_workers.max(self.outstanding.len() + 1);
            let chunk = (self.unleased() / (2 * holders)).clamp(1, self.chunk_max);
            let pick = home
                .and_then(|h| self.virgin.iter().position(|r| r.start < h.end && h.start < r.end));
            let i = pick.unwrap_or(0);
            let r = self.virgin[i].clone();
            let s = match (pick, home) {
                (Some(_), Some(h)) => r.start.max(h.start),
                _ => r.start,
            };
            let e = (s + chunk).min(r.end);
            // Carve s..e out of the range, leaving up to two remnants.
            let mut remnants = Vec::with_capacity(2);
            if r.start < s {
                remnants.push(r.start..s);
            }
            if e < r.end {
                remnants.push(e..r.end);
            }
            self.virgin.splice(i..i + 1, remnants);
            self.virgin_len -= e - s;
            (s..e, home.is_some() && pick.is_none())
        };
        debug_assert!(!range.is_empty());
        let chunk = self.next_chunk;
        self.next_chunk += 1;
        self.leases += 1;
        self.steals += u64::from(stolen);
        self.outstanding.insert(
            chunk,
            Outstanding {
                range: range.clone(),
                worker: worker.to_owned(),
                expires: self.ttl.map(|ttl| now + ttl),
            },
        );
        Some(LeaseGrant { chunk, range, stolen })
    }

    /// Marks a chunk completed: drops its outstanding entry (if the id is
    /// still live) and scrubs its exact range from the reissue queue (the
    /// chunk may have expired, been queued for reissue, and *then* had
    /// its original worker limp in with the completion — the queued copy
    /// must not run again).
    pub fn complete(&mut self, chunk: u64, range: &Range<usize>) {
        self.outstanding.remove(&chunk);
        if let Some(i) = self.reissue.iter().position(|r| r == range) {
            self.reissue.remove(i);
            self.reissue_len -= range.len();
        }
    }

    /// Returns an abandoned chunk to the *front* of the reissue queue
    /// (a stopping worker releases its chunk; the work should re-lease
    /// first, keeping resume latency low).
    pub fn release(&mut self, chunk: u64) {
        if let Some(o) = self.outstanding.remove(&chunk) {
            self.reissue_len += o.range.len();
            self.reissue.push_front(o.range);
        }
    }

    /// Renews the named chunks for `worker`; returns how many were
    /// actually renewed (an expired-and-reissued chunk no longer belongs
    /// to this worker and does not renew).
    pub fn heartbeat(&mut self, worker: &str, chunks: &[u64], now: Instant) -> usize {
        let mut renewed = 0;
        for id in chunks {
            if let Some(o) = self.outstanding.get_mut(id) {
                if o.worker == worker {
                    o.expires = self.ttl.map(|ttl| now + ttl);
                    renewed += 1;
                }
            }
        }
        renewed
    }

    /// Moves every expired lease to the back of the reissue queue;
    /// returns the expired grants (for event logging).
    pub fn expire(&mut self, now: Instant) -> Vec<(u64, Range<usize>, String)> {
        let dead: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, o)| o.expires.is_some_and(|e| e <= now))
            .map(|(&id, _)| id)
            .collect();
        let mut out = Vec::with_capacity(dead.len());
        for id in dead {
            let o = self.outstanding.remove(&id).expect("collected above");
            self.reissue_len += o.range.len();
            self.reissue.push_back(o.range.clone());
            out.push((id, o.range, o.worker));
        }
        out.sort_by_key(|&(id, _, _)| id);
        out
    }
}

#[cfg(test)]
// Single-range pool literals are the fixtures here, not mistyped collects.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;

    const TTL: Option<Duration> = Some(Duration::from_secs(10));

    fn t0() -> Instant {
        Instant::now()
    }

    #[test]
    fn lease_complete_drains() {
        let now = t0();
        let mut p = LeasePool::new(vec![0..10], 4, 0, TTL);
        let mut seen = Vec::new();
        while let Some(g) = p.lease("w", None, now) {
            assert!(!g.range.is_empty());
            seen.extend(g.range.clone());
            p.complete(g.chunk, &g.range);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(p.drained());
    }

    #[test]
    fn oversized_chunk_clamps_never_empty() {
        let now = t0();
        let mut p = LeasePool::new(vec![0..3], 1_000_000, 0, TTL);
        let g = p.lease("w", None, now).unwrap();
        assert!(!g.range.is_empty());
        assert!(g.range.end <= 3);
    }

    #[test]
    fn expiry_reissues_exact_range() {
        let now = t0();
        let ttl = Duration::from_millis(100);
        let mut p = LeasePool::new(vec![0..8], 4, 0, Some(ttl));
        let g = p.lease("dead", None, now).unwrap();
        assert!(p.expire(now).is_empty(), "not expired yet");
        let expired = p.expire(now + ttl);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].1, g.range);
        // The reissued grant covers the identical range under a new id.
        let g2 = p.lease("alive", None, now + ttl).unwrap();
        assert_eq!(g2.range, g.range);
        assert_ne!(g2.chunk, g.chunk);
    }

    #[test]
    fn heartbeat_renews_only_own_live_chunks() {
        let now = t0();
        let ttl = Duration::from_millis(100);
        let mut p = LeasePool::new(vec![0..8], 2, 0, Some(ttl));
        let g1 = p.lease("a", None, now).unwrap();
        let g2 = p.lease("b", None, now).unwrap();
        // `a` renews its chunk; naming b's chunk does nothing.
        assert_eq!(p.heartbeat("a", &[g1.chunk, g2.chunk], now + ttl / 2), 1);
        let expired = p.expire(now + ttl);
        assert_eq!(expired.len(), 1, "only the unrenewed chunk expires");
        assert_eq!(expired[0].0, g2.chunk);
    }

    #[test]
    fn late_complete_scrubs_reissue_queue() {
        let now = t0();
        let ttl = Duration::from_millis(100);
        let mut p = LeasePool::new(vec![0..4], 10, 0, Some(ttl));
        let g = p.lease("slow", None, now).unwrap();
        p.expire(now + ttl);
        // The slow worker's completion arrives after expiry but before
        // anyone re-leased: the queued copy must be scrubbed.
        p.complete(g.chunk, &g.range);
        assert_eq!(p.unleased(), 4 - g.range.len());
        let g2 = p.lease("other", None, now + ttl).unwrap();
        assert!(g2.range.start >= g.range.end, "completed range never re-granted");
    }

    #[test]
    fn release_requeues_at_front() {
        let now = t0();
        let mut p = LeasePool::new(vec![0..8], 2, 0, TTL);
        let g1 = p.lease("w", None, now).unwrap();
        p.release(g1.chunk);
        let g2 = p.lease("w", None, now).unwrap();
        assert_eq!(g2.range, g1.range, "released chunk re-leases first, verbatim");
    }

    #[test]
    fn local_only_leases_never_expire() {
        let now = t0();
        let mut p = LeasePool::new(vec![0..8], 4, 1, None);
        let g = p.lease("local:0", Some(&(0..8)), now).unwrap();
        assert!(p.expire(now + Duration::from_secs(3600)).is_empty());
        assert_eq!(p.heartbeat("local:0", &[g.chunk], now), 1);
        assert_eq!(p.outstanding(), 1);
    }
}
