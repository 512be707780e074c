//! The coordinator: runs one campaign with its chunk pool opened to the
//! network.
//!
//! [`run_distributed`] is the distributed sibling of
//! `argus_orchestrator::run_sharded`: same checkpoint/resume semantics,
//! same supervision, same report shape — but the chunk pool is a
//! [`CampaignShare`] that remote `argus worker` processes lease from
//! over HTTP while the daemon's own worker threads (0..shards, possibly
//! zero for a remote-only run) drain it locally. Because every
//! completion funnels through the share's dedup gate and every
//! injection is deterministic in `(seed, index)`, the final report is
//! byte-identical to a one-shot `argus campaign` run modulo the
//! volatile `"run"` section — for any worker mix, crash schedule, or
//! duplicate-completion pattern.

use crate::lease::LeasePool;
use crate::protocol::{ArtifactRef, Manifest, PROTOCOL_VERSION};
use crate::share::{CampaignShare, CompleteVerdict, LOCAL_PREFIX};
use argus_faults::campaign::{
    prepare_campaign, run_injection_supervised_in, CampaignConfig, CampaignWorkspace, ExecStats,
    SupervisedOutcome,
};
use argus_faults::Outcome;
use argus_invariants::{Hook, InvariantCtx};
use argus_orchestrator::{
    complement, ledger_view, CampaignTally, Checkpoint, CheckpointError, Fingerprint,
    OrchestratorConfig, OrchestratorError, Progress, ShardedReport,
};
use argus_sim::crc::crc32;
use argus_sim::supervise::Anomaly;
use argus_snapshot::MappedStoreWriter;
use argus_workloads::Workload;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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

/// Runs a campaign with its pool opened for remote leasing.
///
/// `ocfg.shards` is the *local* worker count and — unlike
/// `run_sharded` — may be 0 for a remote-only run (the bench uses this
/// to measure pure wire throughput). `progress` must have
/// `max(shards, 1)` shards: remote completions are replayed into shard
/// 0 by the coordinator loop, so live progress tracks the whole
/// campaign, not just local work.
///
/// `on_ready` fires once the share is constructed and leasable, before
/// any work runs — the daemon uses it to publish the share in its
/// routing registry. The caller deregisters after this returns.
pub fn run_distributed(
    w: &Workload,
    cfg: &CampaignConfig,
    ocfg: &OrchestratorConfig,
    dcfg: &DistributedConfig,
    stop: &AtomicBool,
    progress: &Progress,
    on_ready: &(dyn Fn(&Arc<CampaignShare>) + Sync),
) -> Result<ShardedReport, OrchestratorError> {
    if ocfg.chunk == 0 {
        return Err(OrchestratorError::Config("chunk must be >= 1".into()));
    }
    if ocfg.strict {
        return Err(OrchestratorError::Config(
            "strict mode is a local-debugging tool; distributed runs always supervise".into(),
        ));
    }
    assert_eq!(
        progress.shards(),
        ocfg.shards.max(1),
        "progress must have max(shards, 1) shards (shard 0 carries remote completions)"
    );
    let cfg = &cfg.sized_for(w);
    let started = Instant::now();

    let fingerprint = Fingerprint {
        workload: w.name.to_owned(),
        injections: cfg.injections,
        seed: cfg.seed,
        kind: cfg.kind,
        structural_mask: cfg.structural_mask,
    };

    // Identical resume semantics to run_sharded: the checkpoint is
    // worker-count independent, so a file written by a local run
    // resumes distributed and vice versa.
    let mut initial = Checkpoint::empty(fingerprint.clone());
    let mut recovery_warnings: Vec<String> = Vec::new();
    let mut used_backup_checkpoint = false;
    if ocfg.resume {
        let path = ocfg
            .checkpoint_path
            .as_deref()
            .ok_or_else(|| OrchestratorError::Config("resume needs a checkpoint path".into()))?;
        if path.exists() {
            let rec = Checkpoint::load_resilient(path);
            recovery_warnings = rec.warnings;
            used_backup_checkpoint = rec.used_backup;
            if let Some(saved) = rec.checkpoint {
                saved.check_matches(&fingerprint)?;
                initial = saved;
            }
        }
    }

    let resumed = initial.completed();
    let resumed_anomalies = [initial.tally.quarantine.len() as u64, initial.tally.hung];
    progress.begin(
        cfg.injections as u64,
        resumed as u64,
        initial.tally.outcomes,
        resumed_anomalies,
        &vec![0; progress.shards()],
    );

    let prep = prepare_campaign(w, cfg);
    let inv = prep.invariants().clone();
    // Post-load audit: the resumed ledger must already satisfy the
    // conservation invariants before the pool opens — a checkpoint that
    // lost quarantine records or double-counted a range is caught here,
    // not after hours of distributed work.
    if inv.enabled() {
        inv.run_hook(
            Hook::Checkpoint,
            &InvariantCtx::Ledger(ledger_view(cfg.injections, &initial.done, &initial.tally)),
        );
    }

    // The golden-entry artifact, a one-snapshot in-memory ARGSTORE: cycle
    // 0, image loaded, entry DCS armed. A cold-starting worker rebuilds
    // the same state from the manifest and fingerprint-checks it against
    // this — catching binary or config skew before a single injection
    // runs on the wrong campaign.
    let entry_bytes = {
        let (m, argus) = prep.entry_state(cfg);
        let mut writer = MappedStoreWriter::in_memory(1);
        writer
            .capture_now(&m, &argus)
            .and_then(|()| writer.finish())
            .map_err(|e| OrchestratorError::Config(format!("cannot build entry artifact: {e}")))?
            .file_bytes()
            .to_vec()
    };
    let entry_crc = crc32(&entry_bytes);
    let mut artifact_refs =
        vec![ArtifactRef { name: "entry".into(), crc32: entry_crc, len: entry_bytes.len() }];
    let mut artifact_bodies = vec![(entry_crc, entry_bytes)];
    // The snapshot store is served straight from the sealed ARGSTORE bytes
    // behind the coordinator's own map — no re-serialization, one copy per
    // fetch. Workers that adopt it skip the whole checkpoint capture on
    // their side (see `prepare_campaign_with_store`).
    if let Some(store) = prep.snapshot_store() {
        let body = store.file_bytes().to_vec();
        let store_crc = crc32(&body);
        artifact_refs.push(ArtifactRef { name: "store".into(), crc32: store_crc, len: body.len() });
        artifact_bodies.push((store_crc, body));
    }
    let manifest = Manifest {
        version: PROTOCOL_VERSION,
        job: dcfg.job,
        workload: w.name.to_owned(),
        injections: cfg.injections,
        seed: cfg.seed,
        kind: cfg.kind,
        snapshot_every: cfg.snapshot_every,
        golden_cycles: prep.golden_cycles(),
        lease_ttl_ms: dcfg.lease_ttl.as_millis() as u64,
        invariants: cfg.invariants,
        artifacts: artifact_refs,
    };

    let pool =
        LeasePool::new(complement(&initial.done, cfg.injections), ocfg.chunk, dcfg.lease_ttl);
    let share = Arc::new(CampaignShare::new(
        manifest,
        artifact_bodies,
        pool,
        initial.done,
        initial.tally.clone(),
        cfg.injections,
    ));
    on_ready(&share);

    let flush_failures = AtomicU64::new(0);
    let flush_degraded = AtomicBool::new(false);
    let worker_stats: Mutex<Vec<Option<(Duration, Duration, ExecStats)>>> =
        Mutex::new(vec![None; ocfg.shards]);
    let quarantine_abort = AtomicBool::new(false);

    let snapshot_all = |share: &CampaignShare| -> Checkpoint {
        let (done, tally) = share.checkpoint_state();
        Checkpoint { fingerprint: fingerprint.clone(), done, tally }
    };

    std::thread::scope(|scope| {
        for k in 0..ocfg.shards {
            let share = &share;
            let prep = &prep;
            let worker_stats = &worker_stats;
            scope.spawn(move || {
                let worker = format!("{LOCAL_PREFIX}{k}");
                let mut ws = CampaignWorkspace::new();
                let mut busy = Duration::ZERO;
                let mut exec_total = ExecStats::default();
                'work: loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match share.lease(&worker, Instant::now()) {
                        crate::protocol::LeaseReply::Grant { chunk, range, .. } => {
                            progress.record_lease(false);
                            let mut tally = CampaignTally::empty();
                            // Arm-cycle order: result-identical for any
                            // order, but armed neighbors share a snapshot
                            // so warm-workspace restores stay cheap.
                            let mut order: Vec<usize> = range.clone().collect();
                            order.sort_by_key(|&i| prep.arm_cycle_of(cfg, i));
                            for index in order {
                                if stop.load(Ordering::Relaxed) {
                                    // Abandon mid-chunk: the partial
                                    // tally is discarded and the whole
                                    // range re-leases — determinism
                                    // makes the re-run identical.
                                    share.release(chunk);
                                    break 'work;
                                }
                                let t0 = Instant::now();
                                let sup = run_injection_supervised_in(prep, cfg, index, &mut ws);
                                let spent = t0.elapsed();
                                busy += spent;
                                progress.add_busy(spent);
                                let ex = ws.take_exec_stats();
                                exec_total.merge(&ex);
                                progress.add_exec(&ex);
                                match sup {
                                    SupervisedOutcome::Classified(r) => tally.apply(&r),
                                    SupervisedOutcome::Hung { .. } => tally.apply_hung(),
                                    SupervisedOutcome::Quarantined(q) => tally.apply_quarantined(q),
                                }
                            }
                            if let CompleteVerdict::Accepted { done: true }
                            | CompleteVerdict::Duplicate { done: true } =
                                share.complete(&worker, chunk, &range, &tally)
                            {
                                break;
                            }
                        }
                        crate::protocol::LeaseReply::Empty { done } => {
                            if done {
                                break;
                            }
                            // Everything is leased out (possibly to
                            // remote workers); wait for a completion or
                            // an expiry to refill the pool.
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    }
                }
                worker_stats.lock().unwrap_or_else(|e| e.into_inner())[k] =
                    Some((busy, started.elapsed(), exec_total));
                progress.shard_finished(k);
            });
        }

        // Coordinator loop (caller's thread, inside the scope): expiry
        // sweeps, progress replay, quarantine-limit enforcement, and
        // periodic checkpoints — for local *and* remote completions.
        let mut last_flush = Instant::now();
        let mut published_outcomes = initial.tally.outcomes;
        let mut published_anomalies = resumed_anomalies; // [quarantined, hung]
        let mut last_covered = 0usize;
        loop {
            let finished = share.finished();
            let stopping = stop.load(Ordering::Relaxed);
            share.expire(Instant::now());

            // Replay completion deltas (whoever ran them) into shard 0
            // so live progress tracks the whole campaign.
            let (done, tally) = share.checkpoint_state();
            for o in Outcome::ALL {
                let i = o.index();
                for _ in published_outcomes[i]..tally.outcomes[i] {
                    progress.record(0, o);
                }
                published_outcomes[i] = tally.outcomes[i];
            }
            for _ in published_anomalies[0]..tally.quarantine.len() as u64 {
                progress.record_anomaly(0, Anomaly::Quarantined);
            }
            published_anomalies[0] = tally.quarantine.len() as u64;
            for _ in published_anomalies[1]..tally.hung {
                progress.record_anomaly(0, Anomaly::Hung);
            }
            published_anomalies[1] = tally.hung;

            // Fold remote workers' invariant deltas into the engine,
            // then audit the merged ledger whenever coverage moved —
            // the same conservation checks a local run gets per chunk.
            if inv.enabled() {
                for remote_stats in share.take_invariants() {
                    inv.absorb_remote(&remote_stats);
                }
                let covered = done.iter().map(|r| r.len()).sum::<usize>();
                if covered != last_covered {
                    last_covered = covered;
                    inv.run_hook(
                        Hook::ChunkComplete,
                        &InvariantCtx::Ledger(ledger_view(cfg.injections, &done, &tally)),
                    );
                }
                progress.set_invariant_violations(inv.violations());
            }

            if tally.quarantine.len() > ocfg.quarantine_limit {
                quarantine_abort.store(true, Ordering::Release);
                stop.store(true, Ordering::Release);
            }

            if let Some(path) = ocfg.checkpoint_path.as_deref() {
                if last_flush.elapsed() >= ocfg.checkpoint_interval {
                    match snapshot_all(&share).save_with_retry(
                        path,
                        ocfg.flush_retries,
                        ocfg.flush_backoff,
                    ) {
                        Ok(0) => {}
                        Ok(failed) => {
                            flush_failures.fetch_add(u64::from(failed), Ordering::Relaxed);
                            flush_degraded.store(true, Ordering::Relaxed);
                            progress.set_degraded(true);
                        }
                        Err(_) => {
                            flush_failures
                                .fetch_add(u64::from(ocfg.flush_retries) + 1, Ordering::Relaxed);
                            flush_degraded.store(true, Ordering::Relaxed);
                            progress.set_degraded(true);
                        }
                    }
                    last_flush = Instant::now();
                }
            }

            if finished || stopping {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    });

    let interrupted = stop.load(Ordering::Relaxed) && !share.finished();
    // A completion can land between the coordinator loop's last drain
    // and the pool closing; fold any straggler deltas before reporting.
    for remote_stats in share.take_invariants() {
        inv.absorb_remote(&remote_stats);
    }
    progress.set_invariant_violations(inv.violations());
    let final_cp = snapshot_all(&share);
    if let Some(path) = ocfg.checkpoint_path.as_deref() {
        match final_cp.save_with_retry(path, ocfg.flush_retries, ocfg.flush_backoff) {
            Ok(0) => {}
            Ok(failed) => {
                flush_failures.fetch_add(u64::from(failed), Ordering::Relaxed);
                flush_degraded.store(true, Ordering::Relaxed);
                progress.set_degraded(true);
            }
            Err(e) => return Err(CheckpointError::from(e).into()),
        }
    }
    progress.finish();

    if quarantine_abort.load(Ordering::Acquire) {
        return Err(OrchestratorError::Supervision(format!(
            "{} injections quarantined (limit {}); progress checkpointed, tallies would be \
             misleading",
            final_cp.tally.quarantine.len(),
            ocfg.quarantine_limit
        )));
    }

    let completed = final_cp.completed();
    let tally = final_cp.tally;
    let stats = worker_stats.into_inner().unwrap_or_else(|e| e.into_inner());
    let busy = stats.iter().flatten().map(|&(b, _, _)| b).sum();
    let finishes: Vec<Duration> = stats.iter().flatten().map(|&(_, f, _)| f).collect();
    let mut exec = ExecStats::default();
    for &(_, _, e) in stats.iter().flatten() {
        exec.merge(&e);
    }
    let tail_imbalance = match (finishes.iter().min(), finishes.iter().max()) {
        (Some(&lo), Some(&hi)) => hi - lo,
        _ => Duration::ZERO,
    };
    recovery_warnings.extend(prep.take_snapshot_warnings());

    Ok(ShardedReport {
        outcomes: tally.outcomes,
        attribution: tally.attribution,
        latency: tally.latency,
        exercised: tally.exercised,
        completed,
        completed_this_run: completed - resumed,
        total: cfg.injections,
        kind: cfg.kind,
        golden_cycles: prep.golden_cycles(),
        elapsed: started.elapsed(),
        shards: ocfg.shards,
        chunk: ocfg.chunk,
        leases: share.leases(),
        // No home regions in the distributed pool — every grant is
        // first-fit, so the steal count is not meaningful here.
        steals: 0,
        busy,
        tail_imbalance,
        interrupted,
        snapshot_every: cfg.snapshot_every,
        snapshots: prep.snapshot_store().map_or(0, |s| s.len()),
        hung: tally.hung,
        quarantine: tally.quarantine,
        degraded: flush_degraded.load(Ordering::Relaxed),
        flush_failures: flush_failures.load(Ordering::Relaxed),
        snapshot_fallbacks: prep.snapshot_fallbacks(),
        exec,
        golden_exec: prep.golden_exec(),
        recovery_warnings,
        used_backup_checkpoint,
        remote: Some(share.stats()),
        invariants: inv.stats(),
    })
}
