//! The coordinator-side face of a distributed campaign: the engine's
//! [`Ledger`] plus what a cold-starting worker needs — the manifest and,
//! for snapshot campaigns, the content-addressed store body.
//!
//! This is what a daemon job *is* while its pool is open: HTTP handler
//! threads call [`CampaignShare::lease`] and the ledger's `complete` /
//! `heartbeat` on behalf of remote workers, while the engine's own
//! threads (worker ids prefixed `local:`) lease and complete through the
//! same ledger and the engine sweeps expiries. Because every completion
//! goes through the same dedup gate, the merged tally is bit-identical to
//! a serial run regardless of who ran what, how often leases expired, or
//! how many duplicate completions arrived.

use crate::protocol::{CompleteReply, LeaseReply, Manifest};
use argus_orchestrator::{CompleteVerdict, Json, LeaseGrant, Ledger};
use std::sync::Arc;
use std::time::Instant;

/// One distributed campaign's shared state. The daemon keeps an
/// `Arc<CampaignShare>` in its routing registry while the job runs.
pub struct CampaignShare {
    /// The manifest served to cold-starting workers.
    pub manifest: Manifest,
    /// Content-addressed artifact bodies: `(crc32, ARGSTORE bytes)`.
    artifacts: Vec<(u32, Vec<u8>)>,
    /// The campaign's ledger, shared with the engine.
    pub ledger: Arc<Ledger>,
}

impl CampaignShare {
    pub fn new(manifest: Manifest, artifacts: Vec<(u32, Vec<u8>)>, ledger: Arc<Ledger>) -> Self {
        Self { manifest, artifacts, ledger }
    }

    /// Serves the manifest to a cold-starting worker.
    pub fn serve_manifest(&self) -> Json {
        self.ledger.note_manifest_fetch();
        self.manifest.to_json()
    }

    /// Serves an artifact body by its CRC-32 hex address.
    pub fn artifact(&self, crc_hex: &str) -> Option<Vec<u8>> {
        let crc = u32::from_str_radix(crc_hex, 16).ok()?;
        let body = self.artifacts.iter().find(|(c, _)| *c == crc).map(|(_, b)| b.clone())?;
        self.ledger.note_artifact_fetch();
        Some(body)
    }

    /// Grants a lease to remote `worker` (no home region: first fit).
    pub fn lease(&self, worker: &str, now: Instant) -> LeaseReply {
        match self.ledger.lease(worker, None, now) {
            Some(LeaseGrant { chunk, range, .. }) => LeaseReply::Grant {
                chunk,
                range,
                ttl_ms: self.manifest.lease_ttl_ms,
                remaining: self.ledger.unleased(),
                outstanding: self.ledger.outstanding(),
            },
            None => LeaseReply::Empty { done: self.ledger.finished() },
        }
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
    use argus_invariants::{InvariantEngine, InvariantMode};
    use argus_orchestrator::{CampaignTally, LeasePool};
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
            entry_fingerprint: 0,
            artifacts: vec![],
        }
    }

    fn share(n: usize) -> CampaignShare {
        let pool = LeasePool::new(vec![0..n], 4, 0, Some(Duration::from_secs(10)));
        let inv = Arc::new(InvariantEngine::new(InvariantMode::Off));
        let ledger = Ledger::new(pool, Vec::new(), CampaignTally::empty(), n, inv);
        CampaignShare::new(manifest(n), vec![], Arc::new(ledger))
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
        assert!(matches!(
            s.ledger.complete("w1", chunk, &range, &t),
            CompleteVerdict::Accepted { .. }
        ));
        // Same post again — e.g. the worker's reply got lost and it
        // retried — must be recognized and dropped.
        assert!(matches!(
            s.ledger.complete("w1", chunk, &range, &t),
            CompleteVerdict::Duplicate { .. }
        ));
        let (_, tally) = s.ledger.checkpoint_state();
        assert_eq!(tally.accounted(), range.len() as u64, "merged exactly once");
        assert_eq!(s.ledger.stats().duplicate_completes, 1);
    }

    #[test]
    fn partial_overlap_is_a_conflict() {
        let s = share(8);
        let now = Instant::now();
        let LeaseReply::Grant { chunk, range, .. } = s.lease("w1", now) else {
            panic!("grant expected")
        };
        s.ledger.complete("w1", chunk, &range, &chunk_tally(range.len()));
        let bogus = range.start..range.end + 1;
        assert!(matches!(
            s.ledger.complete("w2", 999, &bogus, &chunk_tally(bogus.len())),
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
                    let v = s.ledger.complete(who, chunk, &range, &chunk_tally(range.len()));
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
        assert!(s.ledger.finished());
        let stats = s.ledger.stats();
        assert!(stats.local_chunks > 0 && stats.remote_chunks > 0);
        assert_eq!(stats.workers_seen, 1, "only the remote worker counts");
    }
}
