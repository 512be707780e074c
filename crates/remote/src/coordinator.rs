//! The coordinator: opens a campaign's lease pool to the network.
//!
//! A daemon runs every job through the orchestrator's one engine
//! (`argus_orchestrator::run_campaign`), with the pool opened (a lease
//! TTL) for distributed jobs. When the engine reports the campaign ready,
//! [`open_share`] builds the manifest — the campaign spec plus the
//! golden-run length and the entry state's fingerprint — and wraps the
//! engine's ledger in a [`CampaignShare`] for the daemon's router. The
//! engine does everything else — checkpoint/resume, supervision, local
//! workers, expiry sweeps and the report. Because every completion
//! funnels through the ledger's dedup gate and every injection is
//! deterministic in `(seed, index)`, the final report is byte-identical
//! to a one-shot `argus campaign` run modulo the volatile `"run"` section
//! — for any worker mix, crash schedule, or duplicate-completion pattern.

use crate::protocol::{Manifest, PROTOCOL_VERSION};
use crate::share::CampaignShare;
use argus_faults::campaign::{CampaignConfig, PreparedCampaign};
use argus_orchestrator::Ledger;
use argus_workloads::Workload;
use std::sync::Arc;
use std::time::Duration;

/// Distributed-specific knobs on top of the orchestrator config.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Daemon job id, quoted in the manifest so a worker polling
    /// `/work` can tell jobs apart.
    pub job: u64,
    /// Lease time-to-live. Workers heartbeat at a third of this; a
    /// worker silent for a full TTL forfeits its chunks.
    pub lease_ttl: Duration,
}

/// The share remote workers lease from: the manifest of the prepared
/// campaign `prep` (of workload `w`, config `cfg`) and the engine's
/// `ledger`. Call it from the engine's `Observer::ready`, before any work
/// runs.
pub fn open_share(
    w: &Workload,
    prep: &PreparedCampaign,
    cfg: &CampaignConfig,
    ledger: &Arc<Ledger>,
    d: &DistributedConfig,
) -> Arc<CampaignShare> {
    let manifest = Manifest {
        version: PROTOCOL_VERSION,
        job: d.job,
        workload: w.name.to_owned(),
        injections: cfg.injections,
        seed: cfg.seed,
        kind: cfg.kind,
        snapshot_every: cfg.snapshot_every,
        golden_cycles: prep.golden_cycles(),
        lease_ttl_ms: d.lease_ttl.as_millis() as u64,
        invariants: cfg.invariants,
        entry_fingerprint: prep.entry_fingerprint(cfg),
    };
    Arc::new(CampaignShare::new(manifest, Arc::clone(ledger)))
}
