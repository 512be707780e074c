//! Property: **any** interleaving of worker crashes, lease expiries,
//! stop-time releases and duplicate `complete` posts yields a merged
//! tally identical to a serial run over the same indices.
//!
//! The simulation drives a real [`CampaignShare`] and its [`Ledger`] —
//! the exact lease pool and dedup gate the engine's threads and the
//! daemon's HTTP handlers call — with a synthetic clock and synthetic
//! per-index tallies. Remote workers lease first-fit through the share;
//! `local:k` workers lease from their home regions through the ledger,
//! as the engine's threads do, and release their chunks on stop. Each
//! case runs either against an open pool (leases carry a TTL) or a
//! local-only one (leases never expire, and only local workers act).
//!
//! Each index `i` contributes a quarantine record whose fields are
//! functions of `i` alone — the distributed-determinism contract in
//! miniature — so the merged tally exposes *which* indices were counted
//! and *how many times*: a single double-merge or dropped chunk changes
//! the index-sorted quarantine ledger and the accounting totals.

use argus_faults::campaign::QuarantineRecord;
use argus_invariants::{InvariantEngine, InvariantMode};
use argus_orchestrator::{
    shard_ranges, tally_to_json, CampaignTally, CompleteVerdict, LeasePool, Ledger,
};
use argus_remote::{CampaignShare, LeaseReply, Manifest};
use argus_sim::fault::FaultKind;
use proptest::prelude::*;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 30;
const TTL: Duration = Duration::from_secs(1);
/// Remote workers first, then the engine's threads.
const WORKERS: [&str; 5] = ["alpha", "beta", "gamma", "local:0", "local:1"];
const REMOTE: usize = 3;

/// The deterministic per-index contribution: what a real injection's
/// result is to a real campaign — a pure function of the index.
fn index_tally(range: &Range<usize>) -> CampaignTally {
    let mut t = CampaignTally::empty();
    for i in range.clone() {
        t.apply_quarantined(QuarantineRecord {
            index: i as u64,
            seed: 0xA5A5 ^ i as u64,
            panic_msg: format!("synthetic-{i}"),
        });
    }
    t
}

fn serial_reference() -> CampaignTally {
    index_tally(&(0..N))
}

/// A share over a fresh ledger, open (TTL leases) or local-only, and the
/// ledger's invariant engine, at full density: every commit and snapshot
/// is audited against the conservation laws.
fn fresh_share(open: bool) -> (CampaignShare, Arc<InvariantEngine>) {
    let manifest = Manifest {
        version: argus_remote::PROTOCOL_VERSION,
        job: 1,
        workload: "stress".into(),
        injections: N,
        seed: 0,
        kind: FaultKind::Transient,
        snapshot_every: None,
        golden_cycles: 1,
        lease_ttl_ms: TTL.as_millis() as u64,
        invariants: Default::default(),
        entry_fingerprint: 0,
    };
    let whole = 0..N;
    let pool = LeasePool::new(vec![whole], 3, WORKERS.len() - REMOTE, open.then_some(TTL));
    let inv = Arc::new(InvariantEngine::new(InvariantMode::Full));
    let ledger = Ledger::new(pool, Vec::new(), CampaignTally::empty(), N, Arc::clone(&inv));
    (CampaignShare::new(manifest, Arc::new(ledger)), inv)
}

/// Leases one chunk for worker `w`: remote workers over the share's wire
/// path, local ones from their home region through the ledger.
fn lease(share: &CampaignShare, w: usize, now: Instant) -> Option<(u64, Range<usize>)> {
    if w < REMOTE {
        match share.lease(WORKERS[w], now) {
            LeaseReply::Grant { chunk, range, .. } => Some((chunk, range)),
            LeaseReply::Empty { .. } => None,
        }
    } else {
        let home = &shard_ranges(N, WORKERS.len() - REMOTE)[w - REMOTE];
        share.ledger.lease(WORKERS[w], Some(home), now).map(|g| (g.chunk, g.range))
    }
}

/// One scripted action against the share.
#[derive(Debug, Clone)]
enum Op {
    /// Worker leases a chunk and holds it.
    Lease(usize),
    /// Worker completes its oldest held chunk.
    Complete(usize),
    /// Worker re-posts an already-acknowledged completion verbatim
    /// (lost-reply retry).
    DuplicatePost(usize),
    /// Worker crashes: held chunks are forgotten, never completed.
    Crash(usize),
    /// Worker stops gracefully: held chunks are released to the pool.
    Release(usize),
    /// The clock jumps past the TTL and the coordinator sweeps.
    ExpireSweep,
    /// Worker renews its held chunks.
    Heartbeat(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..7, 0usize..WORKERS.len()).prop_map(|(kind, w)| match kind {
        0 => Op::Lease(w),
        1 => Op::Complete(w),
        2 => Op::DuplicatePost(w),
        3 => Op::Crash(w),
        4 => Op::Release(w),
        5 => Op::ExpireSweep,
        _ => Op::Heartbeat(w),
    })
}

proptest! {
    #[test]
    fn any_crash_and_duplicate_interleaving_matches_serial(
        ops in prop::collection::vec(op_strategy(), 0..120),
        open in any::<bool>(),
    ) {
        let (share, inv) = fresh_share(open);
        let mut now = Instant::now();
        // Held grants per worker, and every acknowledged completion
        // (for duplicate re-posts).
        let mut held: HashMap<usize, Vec<(u64, Range<usize>)>> = HashMap::new();
        let mut acked: Vec<(usize, u64, Range<usize>)> = Vec::new();

        for op in &ops {
            match op {
                // A local-only pool is invisible to remote workers.
                Op::Lease(w) if open || *w >= REMOTE => {
                    if let Some(grant) = lease(&share, *w, now) {
                        held.entry(*w).or_default().push(grant);
                    }
                }
                Op::Lease(_) => {}
                Op::Complete(w) => {
                    if let Some((chunk, range)) =
                        held.get_mut(w).and_then(|v| (!v.is_empty()).then(|| v.remove(0)))
                    {
                        let v = share.ledger.complete(
                            WORKERS[*w], chunk, &range, &index_tally(&range),
                        );
                        prop_assert!(
                            !matches!(v, CompleteVerdict::Conflict(_)),
                            "live completion must never conflict"
                        );
                        acked.push((*w, chunk, range));
                    }
                }
                Op::DuplicatePost(w) => {
                    if let Some((_, chunk, range)) =
                        acked.iter().find(|(ow, _, _)| ow == w).cloned()
                    {
                        let v = share.ledger.complete(
                            WORKERS[*w], chunk, &range, &index_tally(&range),
                        );
                        prop_assert!(
                            matches!(v, CompleteVerdict::Duplicate { .. }),
                            "verbatim re-post must be classified duplicate, got {v:?}"
                        );
                    }
                }
                Op::Crash(w) if open => {
                    // SIGKILL: grants vanish from the worker's memory;
                    // the pool still holds them until expiry.
                    held.remove(w);
                }
                // A local-only pool never expires anything, so its
                // threads cannot vanish with a chunk: they release it.
                Op::Crash(w) | Op::Release(w) => {
                    for (chunk, _) in held.remove(w).unwrap_or_default() {
                        share.ledger.release(chunk);
                    }
                }
                Op::ExpireSweep => {
                    now += TTL + Duration::from_millis(1);
                    let expired = share.ledger.expire(now);
                    prop_assert!(open || expired.is_empty(), "local-only leases never expire");
                    // Chunks the sweep reclaimed can re-lease; grants
                    // still in `held` may now be stale — completing
                    // them later exercises the late-complete path.
                }
                Op::Heartbeat(w) => {
                    let ids: Vec<u64> =
                        held.get(w).map(|v| v.iter().map(|(c, _)| *c).collect()).unwrap_or_default();
                    share.ledger.heartbeat(WORKERS[*w], &ids, now);
                }
            }
        }

        // Drain: one surviving worker finishes whatever is left, with
        // expiry sweeps recovering anything still stuck in dead hands.
        let drainer = if open { 0 } else { REMOTE };
        let mut spins = 0;
        while !share.ledger.finished() {
            spins += 1;
            prop_assert!(spins < 10_000, "drain loop wedged");
            match lease(&share, drainer, now) {
                Some((chunk, range)) => {
                    share.ledger.complete(WORKERS[drainer], chunk, &range, &index_tally(&range));
                }
                None if open => {
                    now += TTL + Duration::from_millis(1);
                    share.ledger.expire(now);
                }
                None => {
                    // Only chunks held by live local threads remain: let
                    // them finish.
                    for (w, grants) in held.drain() {
                        for (chunk, range) in grants {
                            share.ledger.complete(WORKERS[w], chunk, &range, &index_tally(&range));
                            acked.push((w, chunk, range));
                        }
                    }
                }
            }
        }

        // Stragglers limp in after the campaign finished: every held
        // grant completes late, then every acked completion re-posts.
        // None of it may perturb the tally.
        for (w, grants) in &held {
            for (chunk, range) in grants {
                let v = share.ledger.complete(WORKERS[*w], *chunk, range, &index_tally(range));
                prop_assert!(matches!(v, CompleteVerdict::Duplicate { .. }));
            }
        }
        for (w, chunk, range) in &acked {
            let v = share.ledger.complete(WORKERS[*w], *chunk, range, &index_tally(range));
            prop_assert!(matches!(v, CompleteVerdict::Duplicate { .. }));
        }

        let (_, merged) = share.ledger.checkpoint_state();
        let serial = serial_reference();
        prop_assert_eq!(
            tally_to_json(&merged).to_string_compact(),
            tally_to_json(&serial).to_string_compact(),
            "merged tally must be byte-identical to the serial run"
        );
        prop_assert!(
            open || share.ledger.stats().remote_chunks == 0,
            "a local-only pool serves no remote worker"
        );
        // The ledger audited every commit and snapshot; no interleaving
        // may break a conservation law.
        prop_assert!(inv.checks_run() > 0);
        prop_assert_eq!(inv.violations(), 0, "{:?}", inv.first_violation());
    }
}
