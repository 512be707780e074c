//! The campaign ledger: one lock around the lease pool, the
//! completed-range set, and the merged tally.
//!
//! Every executor goes through it. The engine's threads lease and
//! complete as `local:k`; when the pool is opened to the network, HTTP
//! handler threads call the same [`Ledger::lease`] / [`Ledger::complete`]
//! / [`Ledger::heartbeat`] on behalf of remote workers, and the engine
//! sweeps expiries. Completion is all-or-nothing per chunk, and every
//! completion crosses the same dedup gate, so the merged tally is
//! bit-identical to a serial run regardless of who ran what, how often
//! leases expired, or how many duplicate completions arrived.
//!
//! The ledger also audits itself: each accepted chunk runs the
//! [`Hook::ChunkComplete`] invariants and each checkpoint snapshot the
//! [`Hook::Checkpoint`] ones, under the same lock that orders the
//! commits, so the monotonicity invariants see ledger states in the
//! order they happened.

use crate::checkpoint::CampaignTally;
use crate::engine::{ledger_view, mark_range_done, range_overlap, RemoteRunStats};
use crate::lease::{LeaseGrant, LeasePool};
use argus_invariants::{Hook, InvariantCtx, InvariantEngine, InvariantStats};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Worker-name prefix the engine's own threads use; everything else
/// counts as a remote worker in the run accounting.
pub const LOCAL_PREFIX: &str = "local:";

/// Verdict of a chunk completion.
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
struct LedgerInner {
    pool: LeasePool,
    done: Vec<Range<usize>>,
    tally: CampaignTally,
    stats: RemoteRunStats,
    /// Distinct remote worker names ever granted a lease.
    remote_workers: HashSet<String>,
    /// Outcome counts and `[quarantined, hung]` of accepted remote
    /// chunks, which the engine replays into its live progress.
    remote_outcomes: [u64; 4],
    remote_anomalies: [u64; 2],
}

/// One campaign's shared bookkeeping.
pub struct Ledger {
    inner: Mutex<LedgerInner>,
    inv: Arc<InvariantEngine>,
    total: usize,
}

impl Ledger {
    /// `pool` is the unfinished-range complement of `done` (the caller
    /// computed both from the resumed checkpoint, or fresh); `inv` is the
    /// campaign's invariant engine.
    pub fn new(
        pool: LeasePool,
        done: Vec<Range<usize>>,
        tally: CampaignTally,
        total: usize,
        inv: Arc<InvariantEngine>,
    ) -> Self {
        Self {
            inner: Mutex::new(LedgerInner {
                pool,
                done,
                tally,
                stats: RemoteRunStats::default(),
                remote_workers: HashSet::new(),
                remote_outcomes: [0; 4],
                remote_anomalies: [0; 2],
            }),
            inv,
            total,
        }
    }

    /// Poison-tolerant lock: a worker that panicked (strict mode) must not
    /// wedge the checkpoint flush out of saving everyone else's work.
    fn lock(&self) -> MutexGuard<'_, LedgerInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Grants `worker` a chunk (see [`LeasePool::lease`]); `None` when
    /// nothing is leasable right now.
    pub fn lease(
        &self,
        worker: &str,
        home: Option<&Range<usize>>,
        now: Instant,
    ) -> Option<LeaseGrant> {
        let mut g = self.lock();
        if !worker.starts_with(LOCAL_PREFIX) && g.remote_workers.insert(worker.to_owned()) {
            g.stats.workers_seen += 1;
        }
        g.pool.lease(worker, home, now)
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
            // cover, which `tally-accounts-done` flags below.
            g.tally.merge(tally);
        }
        g.pool.complete(chunk, range);
        if worker.starts_with(LOCAL_PREFIX) {
            g.stats.local_chunks += 1;
        } else {
            g.stats.remote_chunks += 1;
            for (acc, &c) in g.remote_outcomes.iter_mut().zip(&tally.outcomes) {
                *acc += c;
            }
            g.remote_anomalies[0] += tally.quarantine.len() as u64;
            g.remote_anomalies[1] += tally.hung;
        }
        self.audit(&g, Hook::ChunkComplete);
        CompleteVerdict::Accepted { done: self.finished_locked(&g) }
    }

    /// Runs the ledger invariants subscribed to `hook` on the locked state.
    fn audit(&self, g: &LedgerInner, hook: Hook) {
        if self.inv.enabled() {
            let view = ledger_view(self.total, &g.done, &g.tally);
            self.inv.run_hook(hook, &InvariantCtx::Ledger(view));
        }
    }

    /// Folds a remote worker's invariant delta into the campaign's
    /// engine. Called only for *accepted* completions — a duplicate
    /// post's checks already counted the first time.
    pub fn absorb_invariants(&self, stats: &InvariantStats) {
        self.inv.absorb_remote(stats);
    }

    /// Renews `worker`'s leases; returns the renewed count.
    pub fn heartbeat(&self, worker: &str, chunks: &[u64], now: Instant) -> usize {
        self.lock().pool.heartbeat(worker, chunks, now)
    }

    /// Releases an abandoned chunk back to the front of the pool.
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

    fn finished_locked(&self, g: &LedgerInner) -> bool {
        g.done.iter().map(Range::len).sum::<usize>() == self.total
    }

    /// True once every injection index is completed.
    pub fn finished(&self) -> bool {
        self.finished_locked(&self.lock())
    }

    /// `(injections completed, quarantine records)` so far, resumed
    /// work included.
    pub(crate) fn counts(&self) -> (usize, usize) {
        let g = self.lock();
        (g.done.iter().map(Range::len).sum(), g.tally.quarantine.len())
    }

    /// Copies out `(done, tally)` for a checkpoint flush, auditing the
    /// snapshot with the [`Hook::Checkpoint`] invariants first — a
    /// persisted ledger that violates the conservation laws would poison
    /// any later resume.
    pub fn checkpoint_state(&self) -> (Vec<Range<usize>>, CampaignTally) {
        let g = self.lock();
        self.audit(&g, Hook::Checkpoint);
        (g.done.clone(), g.tally.clone())
    }

    /// Accepted remote outcome counts and `[quarantined, hung]` so far.
    pub(crate) fn remote_progress(&self) -> ([u64; 4], [u64; 2]) {
        let g = self.lock();
        (g.remote_outcomes, g.remote_anomalies)
    }

    /// Records a manifest served to a cold-starting worker.
    pub fn note_manifest_fetch(&self) {
        self.lock().stats.manifest_fetches += 1;
    }

    /// Records artifact bodies served to cold-starting workers.
    pub fn note_artifact_fetch(&self) {
        self.lock().stats.artifact_fetches += 1;
    }

    /// Records artifact bodies a worker resolved from its on-disk cache
    /// instead of fetching. Reported on the worker's first accepted
    /// completion of a job, so duplicates never double-count.
    pub fn note_artifact_cache_hits(&self, n: u64) {
        self.lock().stats.artifact_cache_hits += n;
    }

    /// Current run accounting.
    pub fn stats(&self) -> RemoteRunStats {
        self.lock().stats.clone()
    }

    /// `(leases, steals)` granted so far (the report's figures).
    pub(crate) fn lease_counts(&self) -> (u64, u64) {
        let g = self.lock();
        (g.pool.leases, g.pool.steals)
    }

    /// Leases currently outstanding (granted, neither completed nor
    /// expired) — the daemon's "leases outstanding" gauge.
    pub fn outstanding(&self) -> usize {
        self.lock().pool.outstanding()
    }

    /// Injections leasable right now.
    pub fn unleased(&self) -> usize {
        self.lock().pool.unleased()
    }
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use argus_invariants::InvariantMode;

    fn ledger(n: usize) -> Ledger {
        let pool = LeasePool::new(vec![0..n], 4, 0, None);
        let inv = Arc::new(InvariantEngine::new(InvariantMode::Full));
        Ledger::new(pool, Vec::new(), CampaignTally::empty(), n, inv)
    }

    fn chunk_tally(len: usize) -> CampaignTally {
        let mut t = CampaignTally::empty();
        for _ in 0..len {
            t.apply_hung();
        }
        t
    }

    #[test]
    fn commits_are_audited_and_stay_clean() {
        let l = ledger(10);
        let now = Instant::now();
        while let Some(g) = l.lease("local:0", Some(&(0..10)), now) {
            let v = l.complete("local:0", g.chunk, &g.range, &chunk_tally(g.range.len()));
            assert!(matches!(v, CompleteVerdict::Accepted { .. }));
        }
        assert!(l.finished());
        assert_eq!(l.counts(), (10, 0));
        assert!(l.inv.checks_run() > 0, "every accepted chunk is audited");
        assert_eq!(l.inv.violations(), 0);
        assert_eq!(l.remote_progress(), ([0; 4], [0; 2]), "local work is not replayed");
    }

    #[test]
    fn a_dropped_tally_is_caught_at_commit() {
        let l = ledger(6);
        let g = l.lease("local:0", None, Instant::now()).unwrap();
        l.complete("local:0", g.chunk, &g.range, &CampaignTally::empty());
        assert!(l.inv.violations() > 0, "tally must account for the done ranges");
    }
}
