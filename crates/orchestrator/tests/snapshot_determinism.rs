//! Snapshot-enabled campaigns must be bit-identical to cold-boot ones:
//! same seed, same injections, same JSON report, for every worker count,
//! chunk size, and crash-resume schedule — forking and scheduling buy
//! throughput, never different results.

use argus_faults::campaign::CampaignConfig;
use argus_orchestrator::{run_sharded, Json, OrchestratorConfig, Progress, ShardedReport};
use std::sync::atomic::AtomicBool;

fn run(cfg: &CampaignConfig, ocfg: OrchestratorConfig) -> ShardedReport {
    let stop = AtomicBool::new(false);
    let progress = Progress::new(ocfg.shards);
    run_sharded(&argus_workloads::stress(), cfg, &ocfg, &stop, &progress).expect("campaign runs")
}

/// The comparable form: the volatile `"run"` sub-object stripped. Every
/// remaining byte is specified to be schedule- and strategy-independent.
fn canonical_json(rep: &ShardedReport) -> String {
    let Json::Obj(fields) = rep.to_json() else { panic!("report JSON is an object") };
    Json::Obj(fields.into_iter().filter(|(k, _)| k != "run").collect()).to_string_compact()
}

#[test]
fn snapshot_campaigns_match_cold_boot_across_shard_counts() {
    let cold_cfg = CampaignConfig { injections: 48, seed: 0xD15C, ..Default::default() };
    let snap_cfg = CampaignConfig { snapshot_every: Some(500), ..cold_cfg.clone() };

    let reference = run(&cold_cfg, OrchestratorConfig { shards: 1, ..Default::default() });
    for shards in [1usize, 2, 8] {
        let ocfg = OrchestratorConfig { shards, ..Default::default() };
        let cold = run(&cold_cfg, ocfg.clone());
        let snap = run(&snap_cfg, ocfg);
        assert!(snap.snapshots > 1, "expected golden-run checkpoints, got {}", snap.snapshots);
        assert_eq!(snap.snapshot_every, Some(500));
        assert_eq!(
            cold.outcomes, reference.outcomes,
            "cold-boot tallies diverged at {shards} shards"
        );
        assert_eq!(
            canonical_json(&snap),
            canonical_json(&cold),
            "snapshot-enabled JSON diverged from cold-boot at {shards} shards"
        );
    }
}

/// Forking is a pure perf knob all the way through a crash: campaigns
/// forking from the snapshot store render the cold-boot JSON at every
/// shard count, and a crash-resume cycle of a forked campaign stitches
/// back to the same report (the checkpoint fingerprint deliberately
/// excludes `snapshot_every`, so the cold-boot half could even resume it).
#[test]
fn forked_campaigns_match_cold_boot_across_shard_counts_and_crash_resume() {
    let cold_cfg = CampaignConfig { injections: 48, seed: 0xABBA, ..Default::default() };
    let snap_cfg = CampaignConfig { snapshot_every: Some(500), ..cold_cfg.clone() };

    let reference =
        canonical_json(&run(&cold_cfg, OrchestratorConfig { shards: 1, ..Default::default() }));
    for shards in [1usize, 2, 8] {
        let rep = run(&snap_cfg, OrchestratorConfig { shards, ..Default::default() });
        assert!(rep.snapshots > 1, "expected checkpoints, got {}", rep.snapshots);
        assert_eq!(
            canonical_json(&rep),
            reference,
            "forked JSON diverged from cold boot at {shards} shards"
        );
    }

    let path =
        std::env::temp_dir().join(format!("argus-snapdet-resume-{}.ckpt.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let ocfg =
        OrchestratorConfig { shards: 2, checkpoint_path: Some(path.clone()), ..Default::default() };
    let stop = AtomicBool::new(false);
    let progress = Progress::new(2);
    let cut = OrchestratorConfig { stop_after: Some(16), ..ocfg.clone() };
    let rep = run_sharded(&argus_workloads::stress(), &snap_cfg, &cut, &stop, &progress)
        .expect("interruptible forked campaign runs");
    assert!(rep.interrupted, "the completion hook must cut the campaign short");
    let resumed = run(&snap_cfg, OrchestratorConfig { resume: true, ..ocfg });
    assert_eq!(canonical_json(&resumed), reference, "resumed forked JSON diverged from cold boot");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("bak"));
}

#[test]
fn fork_strategy_chunk_and_worker_count_never_change_the_report() {
    // Disable the inert shortcut so the forked and cold-boot paths both do
    // real work for every injection, then sweep the perf knobs: every
    // cell of the (snapshots on/off × workers × chunk) grid must render
    // the same deterministic JSON payload.
    let base = CampaignConfig {
        injections: 48,
        seed: 0xF0CA,
        snapshot_every: Some(500),
        shortcut_inert: false,
        ..Default::default()
    };

    let reference =
        canonical_json(&run(&base, OrchestratorConfig { shards: 1, ..Default::default() }));
    for snapshot_every in [Some(500), None] {
        for (shards, chunk) in [(1usize, 1usize), (2, 4), (8, 32)] {
            let rep = run(
                &CampaignConfig { snapshot_every, ..base.clone() },
                OrchestratorConfig { shards, chunk, ..Default::default() },
            );
            assert_eq!(rep.completed, base.injections);
            assert_eq!(
                canonical_json(&rep),
                reference,
                "JSON diverged: snapshot_every={snapshot_every:?} shards={shards} chunk={chunk}"
            );
        }
    }
}
