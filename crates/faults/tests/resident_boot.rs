//! Resident cold boot ≡ fresh cold boot, campaign level.
//!
//! A cold-boot injection run through a reused [`CampaignWorkspace`] resets
//! the worker's resident machine + checker pair to the load image instead
//! of building a new one. The reference is [`run_injection`], whose fresh
//! workspace makes its one boot a true `Machine::new` + `Program::load`
//! cold boot. Every injection must classify identically whatever ran on
//! the workspace before it: forward order, reversed order, the golden
//! short-cuts' template run, and a quarantined panic mid-sequence.

use argus_faults::{
    prepare_campaign, run_injection, run_injection_in, run_injection_supervised_in, CampaignConfig,
    CampaignWorkspace, ChaosConfig, InjectionResult, SupervisedOutcome,
};
use argus_sim::fault::FaultKind;
use argus_workloads::Workload;

fn check(w: &Workload, kind: FaultKind, golden_shortcuts: bool, n: usize) {
    let panic_at = n / 2;
    let cfg = CampaignConfig {
        injections: n,
        kind,
        seed: 0x5EED_B007,
        golden_shortcuts,
        chaos: Some(ChaosConfig { panic_at: vec![panic_at], livelock_at: vec![] }),
        ..Default::default()
    }
    .sized_for(w);
    assert_eq!(cfg.snapshot_every, None, "every injection must cold-boot");
    let prep = prepare_campaign(w, &cfg);
    let what = format!("{} {kind:?} golden_shortcuts={golden_shortcuts}", w.name);
    let fresh: Vec<InjectionResult> = (0..n).map(|i| run_injection(&prep, &cfg, i)).collect();

    let mut ws = CampaignWorkspace::new();
    for (i, want) in fresh.iter().enumerate() {
        let reused = run_injection_in(&prep, &cfg, i, &mut ws);
        assert_eq!(format!("{reused:?}"), format!("{want:?}"), "{what}: injection {i}");
    }
    // Reversed, on the same workspace, through the supervised path with a
    // chaos panic quarantined mid-sequence.
    for i in (0..n).rev() {
        match run_injection_supervised_in(&prep, &cfg, i, &mut ws) {
            SupervisedOutcome::Quarantined(q) => assert_eq!(q.index, panic_at as u64, "{what}"),
            SupervisedOutcome::Classified(r) => {
                assert_ne!(i, panic_at, "{what}: the chaos panic did not fire");
                assert_eq!(format!("{r:?}"), format!("{:?}", fresh[i]), "{what}: injection {i}");
            }
            other => panic!("{what}: injection {i} became {other:?}"),
        }
    }
    let stats = ws.stats();
    assert_eq!(
        (stats.restores, stats.full_restores, stats.pages_rewritten),
        (0, 0, 0),
        "{what}: entry resets must not count as snapshot restores"
    );
}

#[test]
fn resident_reset_matches_fresh_boot_on_stress() {
    let w = argus_workloads::stress();
    for kind in [FaultKind::Transient, FaultKind::Permanent] {
        for golden_shortcuts in [true, false] {
            check(&w, kind, golden_shortcuts, 40);
        }
    }
}

#[test]
fn resident_reset_matches_fresh_boot_on_pegwit() {
    let w = argus_workloads::pegwit::pegwit();
    for kind in [FaultKind::Transient, FaultKind::Permanent] {
        for golden_shortcuts in [true, false] {
            check(&w, kind, golden_shortcuts, 20);
        }
    }
}
