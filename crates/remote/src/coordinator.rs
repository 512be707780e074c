//! The coordinator: opens a campaign's lease pool to the network.
//!
//! [`run_distributed`] is a thin caller of the orchestrator's one engine
//! (`argus_orchestrator::run_campaign`). It builds the manifest and the
//! content-addressed `entry`/`store` artifacts from the prepared
//! campaign, wraps the engine's ledger in a [`CampaignShare`], and hands
//! that to the caller's registry; the engine does everything else —
//! checkpoint/resume, supervision, local workers, expiry sweeps and the
//! report. Because every completion funnels through the ledger's dedup
//! gate and every injection is deterministic in `(seed, index)`, the
//! final report is byte-identical to a one-shot `argus campaign` run
//! modulo the volatile `"run"` section — for any worker mix, crash
//! schedule, or duplicate-completion pattern.

use crate::protocol::{ArtifactRef, Manifest, PROTOCOL_VERSION};
use crate::share::CampaignShare;
use argus_faults::campaign::{CampaignConfig, PreparedCampaign};
use argus_orchestrator::{
    run_campaign, Ledger, OpenPool, OrchestratorConfig, OrchestratorError, Progress, ShardedReport,
};
use argus_sim::crc::crc32;
use argus_snapshot::MappedStoreWriter;
use argus_workloads::Workload;
use std::sync::atomic::AtomicBool;
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

impl Default for DistributedConfig {
    fn default() -> Self {
        Self { job: 0, lease_ttl: Duration::from_secs(10) }
    }
}

/// Runs a campaign, with its pool opened for remote leasing when `dcfg`
/// is given (without it, this is `run_sharded`).
///
/// `ocfg.shards` is the *local* worker count and may be 0 for a
/// remote-only run. `progress` must have `max(shards, 1)` shards: the
/// engine replays remote completions into shard 0, so live progress
/// tracks the whole campaign, not just local work.
///
/// `on_ready` fires once the share is leasable, before any work runs —
/// the daemon uses it to publish the share in its routing registry. The
/// caller deregisters after this returns.
pub fn run_distributed(
    w: &Workload,
    cfg: &CampaignConfig,
    ocfg: &OrchestratorConfig,
    dcfg: Option<&DistributedConfig>,
    stop: &AtomicBool,
    progress: &Progress,
    on_ready: &dyn Fn(&Arc<CampaignShare>),
) -> Result<ShardedReport, OrchestratorError> {
    let d = dcfg.cloned().unwrap_or_default();
    let publish = |prep: &PreparedCampaign, cfg: &CampaignConfig, ledger: &Arc<Ledger>| {
        // The golden-entry artifact, a one-snapshot in-memory ARGSTORE:
        // cycle 0, image loaded, entry DCS armed. A cold-starting worker
        // rebuilds the same state from the manifest and fingerprint-checks
        // it against this — catching binary or config skew before a
        // single injection runs on the wrong campaign.
        let (m, argus) = prep.entry_state(cfg);
        let mut writer = MappedStoreWriter::in_memory(1);
        let entry = writer
            .capture_now(&m, &argus)
            .and_then(|()| writer.finish())
            .map_err(|e| OrchestratorError::Config(format!("cannot build entry artifact: {e}")))?
            .file_bytes()
            .to_vec();
        let mut bodies = vec![("entry", entry)];
        // The snapshot store is served straight from the sealed ARGSTORE
        // bytes behind the coordinator's own map. Workers that adopt it
        // skip the whole checkpoint capture on their side (see
        // `prepare_campaign_with_store`).
        if let Some(store) = prep.snapshot_store() {
            bodies.push(("store", store.file_bytes().to_vec()));
        }
        let refs = bodies
            .iter()
            .map(|(name, body)| ArtifactRef {
                name: (*name).into(),
                crc32: crc32(body),
                len: body.len(),
            })
            .collect();
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
            artifacts: refs,
        };
        let bodies = bodies.into_iter().map(|(_, body)| (crc32(&body), body)).collect();
        on_ready(&Arc::new(CampaignShare::new(manifest, bodies, Arc::clone(ledger))));
        Ok(())
    };
    let open = dcfg.map(|_| OpenPool { ttl: d.lease_ttl, publish: &publish });
    run_campaign(w, cfg, ocfg, stop, progress, open)
}
