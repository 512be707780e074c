//! Integration tests for the supervision layer's headline guarantees:
//!
//! 1. **crash equivalence** — a campaign disturbed by chaos hooks
//!    (injected panics, livelocks) still completes, and every injection
//!    that was *not* disturbed classifies bit-identically to an
//!    undisturbed run, for any shard count;
//! 2. **strict mode** — the panic net comes off: the first chaos panic
//!    crashes the campaign;
//! 3. **quarantine limit** — mass panics abort the campaign with a
//!    supervision error instead of producing misleading tallies;
//! 4. **corrupt-artifact recovery** — a mangled checkpoint falls back to
//!    its `.bak` generation; with both generations gone the affected work
//!    restarts from scratch. Either way the final tallies equal an
//!    uninterrupted run's.

use argus_faults::{
    prepare_campaign, run_injection, CampaignConfig, ChaosConfig, QuarantineRecord,
};
use argus_orchestrator::{
    backup_path, run_sharded, Checkpoint, OrchestratorConfig, OrchestratorError, Progress,
    ShardedReport,
};
use argus_sim::fault::FaultKind;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

const INJECTIONS: usize = 48;
const PANIC_AT: [usize; 2] = [3, 17];
const LIVELOCK_AT: [usize; 1] = [8];

fn base_config() -> CampaignConfig {
    CampaignConfig {
        injections: INJECTIONS,
        kind: FaultKind::Transient,
        seed: 0xC0FFEE,
        // Exercise the snapshot-forking path under supervision too.
        snapshot_every: Some(800),
        ..Default::default()
    }
}

fn chaos_config() -> CampaignConfig {
    CampaignConfig {
        chaos: Some(ChaosConfig { panic_at: PANIC_AT.to_vec(), livelock_at: LIVELOCK_AT.to_vec() }),
        ..base_config()
    }
}

fn run(cfg: &CampaignConfig, ocfg: OrchestratorConfig) -> ShardedReport {
    let progress = Progress::new(ocfg.shards);
    let stop = AtomicBool::new(false);
    run_sharded(&argus_workloads::stress(), cfg, &ocfg, &stop, &progress).unwrap()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("argus-resilience-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(backup_path(&p));
    p
}

#[test]
fn chaos_campaign_completes_and_undisturbed_tallies_are_bit_identical() {
    // Expected tallies: classify exactly the injections chaos leaves
    // alone, via the serial per-injection engine.
    let base = base_config();
    let prep = prepare_campaign(&argus_workloads::stress(), &base);
    let mut expected = [0u64; 4];
    for i in 0..INJECTIONS {
        if PANIC_AT.contains(&i) || LIVELOCK_AT.contains(&i) {
            continue;
        }
        let r = run_injection(&prep, &base, i);
        expected[r.outcome.index()] += 1;
    }

    let chaos = chaos_config();
    let mut reports = Vec::new();
    for shards in [1usize, 2, 8] {
        let rep = run(&chaos, OrchestratorConfig { shards, ..Default::default() });
        assert_eq!(rep.completed, INJECTIONS, "shards={shards}");
        assert!(!rep.interrupted, "shards={shards}");
        assert_eq!(rep.outcomes, expected, "disturbed tallies diverged at shards={shards}");
        assert_eq!(rep.hung, LIVELOCK_AT.len() as u64, "shards={shards}");
        let quarantined: Vec<u64> = rep.quarantine.iter().map(|q| q.index).collect();
        assert_eq!(quarantined, vec![3, 17], "shards={shards}");
        for q in &rep.quarantine {
            assert_eq!(q.seed, chaos.seed);
            assert!(
                q.panic_msg.contains(&format!("chaos: injected panic at injection {}", q.index)),
                "{}",
                q.panic_msg
            );
        }
        assert!(!rep.degraded, "shards={shards}");
        assert_eq!(rep.flush_failures, 0, "shards={shards}");
        reports.push(rep);
    }
    // Attribution and latency of the surviving injections must also be
    // shard-count invariant.
    for rep in &reports[1..] {
        assert_eq!(rep.attribution, reports[0].attribution);
        assert_eq!(rep.latency, reports[0].latency);
        assert_eq!(rep.exercised, reports[0].exercised);
    }
}

#[test]
#[should_panic(expected = "chaos: injected panic")]
fn strict_mode_lets_the_first_panic_crash_the_campaign() {
    let _ =
        run(&chaos_config(), OrchestratorConfig { shards: 2, strict: true, ..Default::default() });
}

#[test]
fn quarantine_limit_aborts_with_a_supervision_error() {
    let cfg = CampaignConfig {
        chaos: Some(ChaosConfig { panic_at: (0..INJECTIONS).collect(), livelock_at: vec![] }),
        ..base_config()
    };
    let ocfg = OrchestratorConfig { shards: 2, quarantine_limit: 3, ..Default::default() };
    let progress = Progress::new(ocfg.shards);
    let stop = AtomicBool::new(false);
    let err = run_sharded(&argus_workloads::stress(), &cfg, &ocfg, &stop, &progress).unwrap_err();
    assert!(matches!(err, OrchestratorError::Supervision(_)), "{err}");
    assert!(err.to_string().contains("quarantined"), "{err}");
    assert!(err.to_string().contains("limit 3"), "{err}");
}

#[test]
fn a_stop_raised_by_the_last_completion_reports_a_finished_run() {
    // The completion hook raises the stop flag as the final chunk commits:
    // nothing was cut short, so the report must not claim an interruption
    // (a daemon would requeue or cancel a job that is actually done).
    let ocfg = OrchestratorConfig { shards: 2, stop_after: Some(INJECTIONS), ..Default::default() };
    let progress = Progress::new(ocfg.shards);
    let stop = AtomicBool::new(false);
    let rep =
        run_sharded(&argus_workloads::stress(), &base_config(), &ocfg, &stop, &progress).unwrap();
    assert_eq!(rep.completed, INJECTIONS);
    assert!(!rep.interrupted, "a finished campaign is not interrupted");
}

/// Stops a checkpointed campaign partway and returns the interrupted
/// report, leaving the checkpoint file behind.
fn interrupted_run(path: &std::path::Path, shards: usize) -> ShardedReport {
    let ocfg = OrchestratorConfig {
        shards,
        checkpoint_path: Some(path.to_path_buf()),
        stop_after: Some(INJECTIONS / 3),
        ..Default::default()
    };
    let progress = Progress::new(shards);
    let stop = AtomicBool::new(false);
    let rep =
        run_sharded(&argus_workloads::stress(), &base_config(), &ocfg, &stop, &progress).unwrap();
    assert!(rep.interrupted);
    assert!(rep.completed > 0 && rep.completed < INJECTIONS);
    rep
}

#[test]
fn corrupt_checkpoint_recovers_from_backup_generation() {
    let path = temp_path("bak_recovery.ckpt.json");
    let shards = 2usize;
    interrupted_run(&path, shards);

    // Re-save the loaded checkpoint so the atomic writer rotates the
    // current file into `.bak`, then mangle the primary.
    let saved = Checkpoint::load(&path).unwrap();
    saved.save(&path).unwrap();
    assert!(backup_path(&path).exists(), "save must rotate a .bak generation");
    std::fs::write(&path, "{\"truncated\": ").unwrap();

    let resumed = run(
        &base_config(),
        OrchestratorConfig {
            shards,
            checkpoint_path: Some(path.clone()),
            resume: true,
            ..Default::default()
        },
    );
    assert!(!resumed.interrupted);
    assert_eq!(resumed.completed, INJECTIONS);
    assert!(resumed.used_backup_checkpoint, "must report the .bak fallback");
    assert!(
        resumed.recovery_warnings.iter().any(|w| w.contains("backup")),
        "{:?}",
        resumed.recovery_warnings
    );

    // The stitched run equals one undisturbed run.
    let whole = run(&base_config(), OrchestratorConfig { shards, ..Default::default() });
    assert_eq!(resumed.outcomes, whole.outcomes);
    assert_eq!(resumed.attribution, whole.attribution);
    assert_eq!(resumed.latency, whole.latency);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(backup_path(&path));
}

#[test]
fn both_generations_corrupt_restarts_from_scratch() {
    let path = temp_path("scratch_restart.ckpt.json");
    let shards = 2usize;
    interrupted_run(&path, shards);

    let saved = Checkpoint::load(&path).unwrap();
    saved.save(&path).unwrap();
    std::fs::write(&path, "garbage").unwrap();
    std::fs::write(backup_path(&path), "more garbage").unwrap();

    let resumed = run(
        &base_config(),
        OrchestratorConfig {
            shards,
            checkpoint_path: Some(path.clone()),
            resume: true,
            ..Default::default()
        },
    );
    assert!(!resumed.interrupted);
    assert_eq!(resumed.completed, INJECTIONS);
    assert_eq!(resumed.completed_this_run, INJECTIONS, "everything restarts from scratch");
    assert!(!resumed.used_backup_checkpoint);
    assert!(
        resumed.recovery_warnings.iter().any(|w| w.contains("scratch")),
        "{:?}",
        resumed.recovery_warnings
    );

    let whole = run(&base_config(), OrchestratorConfig { shards, ..Default::default() });
    assert_eq!(resumed.outcomes, whole.outcomes);
    assert_eq!(resumed.attribution, whole.attribution);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(backup_path(&path));
}

#[test]
fn strict_mode_refuses_a_corrupt_checkpoint() {
    let path = temp_path("strict_corrupt.ckpt.json");
    let shards = 2usize;
    interrupted_run(&path, shards);
    std::fs::write(&path, "{\"truncated\": ").unwrap();

    let ocfg = OrchestratorConfig {
        shards,
        checkpoint_path: Some(path.clone()),
        resume: true,
        strict: true,
        ..Default::default()
    };
    let progress = Progress::new(shards);
    let stop = AtomicBool::new(false);
    let err = run_sharded(&argus_workloads::stress(), &base_config(), &ocfg, &stop, &progress)
        .unwrap_err();
    assert!(matches!(err, OrchestratorError::Checkpoint(_)), "{err}");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(backup_path(&path));
}

#[test]
fn quarantine_records_survive_checkpoint_resume() {
    // Interrupt a chaos campaign after its panics have landed, then
    // resume: the quarantine ledger must carry across the restart and the
    // final tallies must match a single-pass chaos run.
    let path = temp_path("quarantine_resume.ckpt.json");
    let shards = 2usize;
    let cfg = chaos_config();

    // Past index 17 in shard 0's slice and index 8's livelock.
    let ocfg = OrchestratorConfig {
        shards,
        checkpoint_path: Some(path.clone()),
        stop_after: Some(INJECTIONS * 2 / 3),
        ..Default::default()
    };
    let progress = Progress::new(shards);
    let stop = AtomicBool::new(false);
    let first = run_sharded(&argus_workloads::stress(), &cfg, &ocfg, &stop, &progress).unwrap();
    assert!(first.interrupted, "the completion hook must cut the campaign short");

    let resumed = run(
        &cfg,
        OrchestratorConfig {
            shards,
            checkpoint_path: Some(path.clone()),
            resume: true,
            ..Default::default()
        },
    );
    assert_eq!(resumed.completed, INJECTIONS);
    let single = run(&cfg, OrchestratorConfig { shards, ..Default::default() });
    assert_eq!(resumed.outcomes, single.outcomes);
    assert_eq!(resumed.hung, single.hung);
    let key = |q: &QuarantineRecord| (q.index, q.seed, q.panic_msg.clone());
    assert_eq!(
        resumed.quarantine.iter().map(key).collect::<Vec<_>>(),
        single.quarantine.iter().map(key).collect::<Vec<_>>(),
        "quarantine ledger diverged across resume (first pass stopped at {})",
        first.completed
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(backup_path(&path));
}

#[test]
fn resume_under_different_shards_and_chunk_conserves_ledger_and_tally() {
    // The checkpoint is worker-count independent: crash a chaos campaign
    // under one --shards/--chunk geometry and resume under a different
    // one, with the invariant registry in full mode auditing every chunk
    // completion and checkpoint flush. The conservation laws (tally
    // accounts for the done set, quarantine ledger canonical, done ranges
    // coalesced) must hold throughout, and the stitched result must equal
    // a single-pass run's deterministic payload.
    let path = temp_path("reshard_resume.ckpt.json");
    let cfg =
        CampaignConfig { invariants: argus_invariants::InvariantMode::Full, ..chaos_config() };

    // Crash partway under 3 shards / chunk 4.
    let ocfg = OrchestratorConfig {
        shards: 3,
        chunk: 4,
        checkpoint_path: Some(path.clone()),
        stop_after: Some(INJECTIONS / 2),
        ..Default::default()
    };
    let progress = Progress::new(3);
    let stop = AtomicBool::new(false);
    let first = run_sharded(&argus_workloads::stress(), &cfg, &ocfg, &stop, &progress).unwrap();
    assert!(first.interrupted);
    assert_eq!(first.invariants.violations, 0, "{:?}", first.invariants.examples);

    // Resume under 2 shards / chunk 7.
    let resumed = run(
        &cfg,
        OrchestratorConfig {
            shards: 2,
            chunk: 7,
            checkpoint_path: Some(path.clone()),
            resume: true,
            ..Default::default()
        },
    );
    assert_eq!(resumed.completed, INJECTIONS);
    assert_eq!(resumed.invariants.mode, "full");
    assert!(resumed.invariants.checks_run > 0, "full mode must actually check");
    assert_eq!(resumed.invariants.violations, 0, "{:?}", resumed.invariants.examples);

    // Tally conservation: every planned injection is accounted for in
    // exactly one bucket after the stitch.
    let accounted =
        resumed.outcomes.iter().sum::<u64>() + resumed.hung + resumed.quarantine.len() as u64;
    assert_eq!(accounted, INJECTIONS as u64, "first pass stopped at {}", first.completed);

    // And the stitched payload is bit-identical to a single-pass run.
    let single = run(&cfg, OrchestratorConfig { shards: 2, ..Default::default() });
    assert_eq!(resumed.outcomes, single.outcomes);
    assert_eq!(resumed.attribution, single.attribution);
    assert_eq!(resumed.hung, single.hung);
    let key = |q: &QuarantineRecord| (q.index, q.seed, q.panic_msg.clone());
    assert_eq!(
        resumed.quarantine.iter().map(key).collect::<Vec<_>>(),
        single.quarantine.iter().map(key).collect::<Vec<_>>(),
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(backup_path(&path));
}
