//! The coordinator-side shared campaign: one lock around the lease
//! pool, the completed-range set, and the merged tally.
//!
//! This is what a daemon job *is* while it runs distributed: HTTP
//! handler threads call [`CampaignShare::lease`] / [`CampaignShare::complete`] /
//! [`CampaignShare::heartbeat`] on behalf of remote workers, the
//! coordinator's local worker threads call the same methods (worker ids
//! prefixed `local:`), and the coordinator loop calls
//! [`CampaignShare::expire`] and snapshots checkpoints. Because every
//! completion goes through the same dedup gate, the merged tally is
//! bit-identical to a serial run regardless of who ran what, how often
//! leases expired, or how many duplicate completions arrived.

use crate::lease::{LeaseGrant, LeasePool};
use crate::protocol::{CompleteReply, LeaseReply, Manifest};
use argus_invariants::InvariantStats;
use argus_orchestrator::{mark_range_done, range_overlap, CampaignTally, RemoteRunStats};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Verdict of a completion post, before it is shaped into a
/// [`CompleteReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompleteVerdict {
    /// Fresh work: tally merged, range marked done.
    Accepted { done: bool },
    /// Exact duplicate of completed work: dropped, harmless.
    Duplicate { done: bool },
    /// Partial overlap with completed work — impossible under the
    /// protocol (whole-range reissue + all-or-nothing completion), so it
    /// means the poster is broken or speaking a different campaign.
    Conflict(String),
}

#[derive(Debug)]
struct ShareInner {
    pool: LeasePool,
    done: Vec<Range<usize>>,
    tally: CampaignTally,
    stats: RemoteRunStats,
    /// Distinct remote worker names ever granted a lease.
    remote_workers: HashSet<String>,
    /// Invariant deltas posted by remote workers, awaiting absorption
    /// into the coordinator's engine (drained by the coordinator loop).
    pending_invariants: Vec<InvariantStats>,
}

/// One distributed campaign's shared state. The daemon keeps an
/// `Arc<CampaignShare>` in its routing registry while the job runs.
#[derive(Debug)]
pub struct CampaignShare {
    /// The manifest served to cold-starting workers.
    pub manifest: Manifest,
    /// Content-addressed artifact bodies: `(crc32, ARGSTORE bytes)`.
    artifacts: Vec<(u32, Vec<u8>)>,
    inner: Mutex<ShareInner>,
    artifact_fetches: AtomicU64,
    artifact_cache_hits: AtomicU64,
    total: usize,
}

/// Worker-name prefix the coordinator's own threads use; everything
/// else counts as a remote worker in the run accounting.
pub const LOCAL_PREFIX: &str = "local:";

impl CampaignShare {
    /// `pool` is the unfinished-range complement of `done` (the caller
    /// computed both from the resumed checkpoint, or fresh).
    pub fn new(
        manifest: Manifest,
        artifacts: Vec<(u32, Vec<u8>)>,
        pool: LeasePool,
        done: Vec<Range<usize>>,
        tally: CampaignTally,
        total: usize,
    ) -> Self {
        Self {
            manifest,
            artifacts,
            inner: Mutex::new(ShareInner {
                pool,
                done,
                tally,
                stats: RemoteRunStats::default(),
                remote_workers: HashSet::new(),
                pending_invariants: Vec::new(),
            }),
            artifact_fetches: AtomicU64::new(0),
            artifact_cache_hits: AtomicU64::new(0),
            total,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShareInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Serves an artifact body by its CRC-32 hex address.
    pub fn artifact(&self, crc_hex: &str) -> Option<Vec<u8>> {
        let crc = u32::from_str_radix(crc_hex, 16).ok()?;
        let body = self.artifacts.iter().find(|(c, _)| *c == crc).map(|(_, b)| b.clone())?;
        self.artifact_fetches.fetch_add(1, Ordering::Relaxed);
        Some(body)
    }

    /// Records artifact bodies a worker resolved from its on-disk cache
    /// instead of fetching. Reported once per job join on the worker's
    /// first accepted completion, so duplicates never double-count.
    pub fn note_artifact_cache_hits(&self, n: u64) {
        self.artifact_cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Grants a lease to `worker` (see [`LeasePool::lease`]).
    pub fn lease(&self, worker: &str, now: Instant) -> LeaseReply {
        let mut g = self.lock();
        if !worker.starts_with(LOCAL_PREFIX) && g.remote_workers.insert(worker.to_owned()) {
            g.stats.workers_seen += 1;
        }
        match g.pool.lease(worker, now) {
            Some(LeaseGrant { chunk, range }) => LeaseReply::Grant {
                chunk,
                range,
                ttl_ms: g.pool.ttl().as_millis() as u64,
                remaining: g.pool.unleased(),
                outstanding: g.pool.outstanding(),
            },
            None => LeaseReply::Empty { done: g.pool.drained() },
        }
    }

    /// The dedup gate. Every completion — local, remote, duplicate,
    /// stale-after-expiry — funnels through here under one lock.
    pub fn complete(
        &self,
        worker: &str,
        chunk: u64,
        range: &Range<usize>,
        tally: &CampaignTally,
    ) -> CompleteVerdict {
        let mut g = self.lock();
        let (overlaps, covered) = range_overlap(&g.done, range);
        if overlaps && covered {
            // Exact duplicate (reissue grants ranges verbatim, so any
            // overlap with completed work is total). The duplicate's
            // tally is byte-equal to the merged one; dropping it is the
            // idempotent choice.
            g.stats.duplicate_completes += 1;
            g.pool.complete(chunk, range);
            return CompleteVerdict::Duplicate { done: self.finished_locked(&g) };
        }
        if overlaps {
            return CompleteVerdict::Conflict(format!(
                "range {}..{} partially overlaps completed work — protocol violation",
                range.start, range.end
            ));
        }
        mark_range_done(&mut g.done, range.clone());
        g.tally.merge(tally);
        if argus_sim::canary::enabled("canary-lease-double-complete") {
            // Seeded bug: merge the accepted tally a second time, as if
            // the dedup gate let a duplicate post through. The merged
            // tally then accounts more injections than the done ranges
            // cover, which `tally-accounts-done` flags at the next
            // ledger hook.
            g.tally.merge(tally);
        }
        g.pool.complete(chunk, range);
        if worker.starts_with(LOCAL_PREFIX) {
            g.stats.local_chunks += 1;
        } else {
            g.stats.remote_chunks += 1;
        }
        CompleteVerdict::Accepted { done: self.finished_locked(&g) }
    }

    /// Queues a remote worker's invariant delta for the coordinator to
    /// absorb. Called only for *accepted* completions — a duplicate
    /// post's checks already counted the first time.
    pub fn absorb_invariants(&self, stats: InvariantStats) {
        if !stats.is_empty() {
            self.lock().pending_invariants.push(stats);
        }
    }

    /// Drains the queued remote invariant deltas.
    pub fn take_invariants(&self) -> Vec<InvariantStats> {
        std::mem::take(&mut self.lock().pending_invariants)
    }

    /// Renews `worker`'s leases; returns the renewed count.
    pub fn heartbeat(&self, worker: &str, chunks: &[u64], now: Instant) -> usize {
        self.lock().pool.heartbeat(worker, chunks, now)
    }

    /// Releases an abandoned local chunk back to the front of the pool.
    pub fn release(&self, chunk: u64) {
        self.lock().pool.release(chunk);
    }

    /// Expires overdue leases; returns the expired `(chunk, range,
    /// worker)` grants for event logging.
    pub fn expire(&self, now: Instant) -> Vec<(u64, Range<usize>, String)> {
        let mut g = self.lock();
        let expired = g.pool.expire(now);
        g.stats.expired_leases += expired.len() as u64;
        expired
    }

    fn finished_locked(&self, g: &ShareInner) -> bool {
        g.done.iter().map(Range::len).sum::<usize>() == self.total
    }

    /// True once every injection index is completed.
    pub fn finished(&self) -> bool {
        let g = self.lock();
        self.finished_locked(&g)
    }

    /// Lease TTL in milliseconds (for heartbeat replies).
    pub fn ttl_ms(&self) -> u64 {
        self.lock().pool.ttl().as_millis() as u64
    }

    /// Copies out `(done, tally)` for a checkpoint flush.
    pub fn checkpoint_state(&self) -> (Vec<Range<usize>>, CampaignTally) {
        let g = self.lock();
        (g.done.clone(), g.tally.clone())
    }

    /// Current run accounting (artifact fetches folded in).
    pub fn stats(&self) -> RemoteRunStats {
        let mut s = self.lock().stats.clone();
        s.artifact_fetches = self.artifact_fetches.load(Ordering::Relaxed);
        s.artifact_cache_hits = self.artifact_cache_hits.load(Ordering::Relaxed);
        s
    }

    /// Grants handed out so far (the report's `leases` figure).
    pub fn leases(&self) -> u64 {
        self.lock().pool.leases
    }

    /// Leases currently outstanding (granted, neither completed nor
    /// expired) — the daemon's "leases outstanding" gauge.
    pub fn outstanding(&self) -> usize {
        self.lock().pool.outstanding()
    }

    /// Shapes a [`CompleteVerdict`] into the wire reply; `Conflict`
    /// stays an error for the HTTP layer to turn into a 409.
    pub fn reply_for(v: &CompleteVerdict) -> Result<CompleteReply, String> {
        match v {
            CompleteVerdict::Accepted { done } => {
                Ok(CompleteReply { accepted: true, duplicate: false, done: *done })
            }
            CompleteVerdict::Duplicate { done } => {
                Ok(CompleteReply { accepted: false, duplicate: true, done: *done })
            }
            CompleteVerdict::Conflict(msg) => Err(msg.clone()),
        }
    }
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use crate::protocol::PROTOCOL_VERSION;
    use argus_sim::fault::FaultKind;
    use std::time::Duration;

    fn manifest(n: usize) -> Manifest {
        Manifest {
            version: PROTOCOL_VERSION,
            job: 1,
            workload: "stress".into(),
            injections: n,
            seed: 7,
            kind: FaultKind::Transient,
            snapshot_every: None,
            golden_cycles: 100,
            lease_ttl_ms: 10_000,
            invariants: Default::default(),
            artifacts: vec![],
        }
    }

    fn share(n: usize) -> CampaignShare {
        let pool = LeasePool::new(vec![0..n], 4, Duration::from_secs(10));
        CampaignShare::new(manifest(n), vec![], pool, Vec::new(), CampaignTally::empty(), n)
    }

    fn chunk_tally(len: usize) -> CampaignTally {
        let mut t = CampaignTally::empty();
        for _ in 0..len {
            t.apply_hung();
        }
        t
    }

    #[test]
    fn duplicate_complete_is_idempotent() {
        let s = share(4);
        let now = Instant::now();
        let LeaseReply::Grant { chunk, range, .. } = s.lease("w1", now) else {
            panic!("grant expected")
        };
        let t = chunk_tally(range.len());
        assert!(matches!(s.complete("w1", chunk, &range, &t), CompleteVerdict::Accepted { .. }));
        // Same post again — e.g. the worker's reply got lost and it
        // retried — must be recognized and dropped.
        assert!(matches!(s.complete("w1", chunk, &range, &t), CompleteVerdict::Duplicate { .. }));
        let (_, tally) = s.checkpoint_state();
        assert_eq!(tally.accounted(), range.len() as u64, "merged exactly once");
        assert_eq!(s.stats().duplicate_completes, 1);
    }

    #[test]
    fn partial_overlap_is_a_conflict() {
        let s = share(8);
        let now = Instant::now();
        let LeaseReply::Grant { chunk, range, .. } = s.lease("w1", now) else {
            panic!("grant expected")
        };
        s.complete("w1", chunk, &range, &chunk_tally(range.len()));
        let bogus = range.start..range.end + 1;
        assert!(matches!(
            s.complete("w2", 999, &bogus, &chunk_tally(bogus.len())),
            CompleteVerdict::Conflict(_)
        ));
    }

    #[test]
    fn drain_to_finished_counts_worker_split() {
        let s = share(6);
        let now = Instant::now();
        let mut turn = 0usize;
        loop {
            let who = if turn.is_multiple_of(2) { "local:0" } else { "remote-a" };
            turn += 1;
            match s.lease(who, now) {
                LeaseReply::Grant { chunk, range, .. } => {
                    let v = s.complete(who, chunk, &range, &chunk_tally(range.len()));
                    if matches!(v, CompleteVerdict::Accepted { done: true }) {
                        break;
                    }
                }
                LeaseReply::Empty { done } => {
                    assert!(done, "pool empty with nothing outstanding must be final");
                    break;
                }
            }
        }
        assert!(s.finished());
        let stats = s.stats();
        assert!(stats.local_chunks > 0 && stats.remote_chunks > 0);
        assert_eq!(stats.workers_seen, 1, "only the remote worker counts");
    }
}
