//! Integration tests for the sharded engine's headline guarantees:
//!
//! 1. shard-count invariance — `shards=1`, `shards=4`, and the legacy
//!    serial engine produce identical tallies for the same seed;
//! 2. checkpoint/resume — a campaign stopped after K injections and then
//!    resumed finishes with tallies identical to an uninterrupted run.

use argus_faults::campaign::{run_campaign, CampaignConfig, CampaignReport};
use argus_faults::sites::{full_inventory, sample_points};
use argus_faults::Outcome;
use argus_orchestrator::{
    run_sharded, Checkpoint, Json, OrchestratorConfig, Progress, ShardedReport,
};
use argus_sim::fault::FaultKind;
use argus_sim::stats::{CounterSet, Histogram};
use std::sync::atomic::AtomicBool;

const INJECTIONS: usize = 120;

fn config() -> CampaignConfig {
    CampaignConfig {
        injections: INJECTIONS,
        kind: FaultKind::Transient,
        seed: 0xD15C0,
        ..Default::default()
    }
}

/// Collapses the serial per-injection report into the sharded report's
/// aggregate form.
fn aggregate(rep: &CampaignReport) -> ([u64; 4], CounterSet, Histogram, u64) {
    let mut outcomes = [0u64; 4];
    let mut latency = Histogram::new();
    let mut exercised = 0u64;
    for r in &rep.results {
        outcomes[r.outcome.index()] += 1;
        if let Some(l) = r.detect_latency {
            latency.record(l);
        }
        exercised += u64::from(r.exercised);
    }
    (outcomes, rep.attribution.clone(), latency, exercised)
}

fn run_with_shards(shards: usize, ocfg: OrchestratorConfig) -> ShardedReport {
    let progress = Progress::new(shards);
    let stop = AtomicBool::new(false);
    run_sharded(&argus_workloads::stress(), &config(), &ocfg, &stop, &progress).unwrap()
}

#[test]
fn sharded_tallies_match_legacy_serial_for_any_shard_count() {
    let serial = run_campaign(&argus_workloads::stress(), &config());
    let (outcomes, attribution, latency, exercised) = aggregate(&serial);

    for shards in [1usize, 4] {
        let rep = run_with_shards(shards, OrchestratorConfig { shards, ..Default::default() });
        assert_eq!(rep.completed, INJECTIONS, "shards={shards}");
        assert!(!rep.interrupted);
        assert_eq!(rep.outcomes, outcomes, "outcome tallies diverged at shards={shards}");
        assert_eq!(rep.attribution, attribution, "attribution diverged at shards={shards}");
        assert_eq!(rep.latency, latency, "latency histogram diverged at shards={shards}");
        assert_eq!(rep.exercised, exercised, "exercised count diverged at shards={shards}");
        assert_eq!(rep.golden_cycles, serial.golden_cycles);
        for o in Outcome::ALL {
            assert_eq!(rep.count(o) as usize, serial.count(o), "count({o:?}), shards={shards}");
        }
    }
}

/// The campaign JSON with the volatile `"run"` sub-object removed —
/// everything left is specified to be a deterministic tally.
fn canonical_json(rep: &ShardedReport) -> String {
    let Json::Obj(fields) = rep.to_json() else { panic!("report JSON is an object") };
    Json::Obj(fields.into_iter().filter(|(k, _)| k != "run").collect()).to_string_compact()
}

#[test]
fn predecode_memo_and_shard_count_leave_json_tallies_identical() {
    // The predecode memo only matters if the campaign actually arms decode
    // faults: confirm the sampled plan hits at least one ID_OPC_* site, so
    // the memo's armed slow path (full tapped decode) is exercised.
    let plan = sample_points(&full_inventory(), INJECTIONS, config().seed);
    assert!(
        plan.iter().any(|p| p.site.name.starts_with("id_opc_")),
        "sample plan never targets a decode site; pick a different seed"
    );

    let mut tallies: Vec<(bool, usize, String)> = Vec::new();
    for predecode in [true, false] {
        for shards in [1usize, 2, 8] {
            let mut ccfg = config();
            ccfg.mcfg.predecode = predecode;
            let progress = Progress::new(shards);
            let stop = AtomicBool::new(false);
            let ocfg = OrchestratorConfig { shards, ..Default::default() };
            let rep =
                run_sharded(&argus_workloads::stress(), &ccfg, &ocfg, &stop, &progress).unwrap();
            assert_eq!(rep.completed, INJECTIONS, "predecode={predecode} shards={shards}");
            tallies.push((predecode, shards, canonical_json(&rep)));
        }
    }
    for (predecode, shards, t) in &tallies[1..] {
        assert_eq!(
            *t, tallies[0].2,
            "campaign JSON diverged: predecode={predecode} shards={shards} vs baseline"
        );
    }
}

#[test]
fn checkpoint_resume_after_stop_matches_uninterrupted_run() {
    let dir = std::env::temp_dir().join("argus-orch-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume_test.ckpt.json");
    let _ = std::fs::remove_file(&path);

    let shards = 3usize;
    let ocfg = OrchestratorConfig {
        shards,
        checkpoint_path: Some(path.clone()),
        checkpoint_interval: std::time::Duration::from_millis(10),
        resume: false,
        ..Default::default()
    };

    // Phase 1: stop the campaign once a third of it has completed — the
    // same stop flag the CLI's Ctrl-C handler flips, raised by the engine's
    // completion hook so the cut never races the campaign's speed.
    let progress = Progress::new(shards);
    let stop = AtomicBool::new(false);
    let cut = OrchestratorConfig { stop_after: Some(INJECTIONS / 3), ..ocfg.clone() };
    let interrupted =
        run_sharded(&argus_workloads::stress(), &config(), &cut, &stop, &progress).unwrap();
    assert!(interrupted.interrupted, "stop flag must cut the campaign short");
    assert!(interrupted.completed < INJECTIONS, "some work must remain");
    assert!(interrupted.completed > 0, "some work must have finished");

    // The final flush must reflect exactly the completed work.
    let saved = Checkpoint::load(&path).unwrap();
    assert_eq!(saved.completed(), interrupted.completed);

    // Phase 2: resume to completion — under a *different* worker count,
    // because the checkpoint deliberately does not record one: a campaign
    // interrupted on a 3-worker box must resume cleanly on a 5-worker box.
    let ocfg2 = OrchestratorConfig { resume: true, shards: 5, ..ocfg };
    let resumed = run_with_shards(5, ocfg2);
    assert!(!resumed.interrupted);
    assert_eq!(resumed.completed, INJECTIONS);
    assert_eq!(
        resumed.completed_this_run,
        INJECTIONS - interrupted.completed,
        "resume must not repeat finished injections"
    );

    // The stitched-together campaign equals one uninterrupted run, down to
    // the deterministic JSON payload.
    let whole = run_with_shards(shards, OrchestratorConfig { shards, ..Default::default() });
    assert_eq!(resumed.outcomes, whole.outcomes);
    assert_eq!(resumed.attribution, whole.attribution);
    assert_eq!(resumed.latency, whole.latency);
    assert_eq!(resumed.exercised, whole.exercised);
    assert_eq!(canonical_json(&resumed), canonical_json(&whole));

    // Resuming an already-complete campaign is a no-op.
    let ocfg3 = OrchestratorConfig {
        shards,
        checkpoint_path: Some(path.clone()),
        resume: true,
        ..Default::default()
    };
    let noop = run_with_shards(shards, ocfg3);
    assert_eq!(noop.completed, INJECTIONS);
    assert_eq!(noop.completed_this_run, 0);
    assert_eq!(noop.outcomes, whole.outcomes);

    // A mismatched campaign must refuse the file rather than mix tallies.
    let bad = CampaignConfig { seed: 0xBAD, ..config() };
    let progress = Progress::new(shards);
    let stop = AtomicBool::new(false);
    let ocfg4 = OrchestratorConfig {
        shards,
        checkpoint_path: Some(path.clone()),
        resume: true,
        ..Default::default()
    };
    let err = run_sharded(&argus_workloads::stress(), &bad, &ocfg4, &stop, &progress).unwrap_err();
    assert!(err.to_string().contains("different campaign"), "{err}");

    let _ = std::fs::remove_file(&path);
}
