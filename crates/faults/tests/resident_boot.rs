//! Resident cold boot ≡ fresh cold boot, campaign level.
//!
//! A cold-boot injection run through a reused [`CampaignWorkspace`] resets
//! the worker's resident machine + checker pair to the load image instead
//! of building a new one, and with the golden short-cuts on it resumes the
//! worker's rolling golden cursor: a checkpoint on the no-fault run that
//! it walks forward to the last block end before the arm cycle. The
//! reference is [`run_injection`], whose fresh workspace makes its one
//! boot a true `Machine::new` + `Program::load` cold boot. Every injection
//! must classify identically whatever ran on the workspace before it:
//! forward order, reversed order, the engine's order (32-index ranges,
//! each by arm cycle), the golden short-cuts' template run, and a
//! quarantined panic mid-sequence or mid-walk.

use argus_faults::campaign::ExecStats;
use argus_faults::{
    prepare_campaign, run_injection, run_injection_in, run_injection_supervised_in, CampaignConfig,
    CampaignWorkspace, ChaosConfig, InjectionResult, PreparedCampaign, SupervisedOutcome,
};
use argus_sim::fault::FaultKind;
use argus_workloads::Workload;

fn config(w: &Workload, kind: FaultKind, golden_shortcuts: bool, n: usize) -> CampaignConfig {
    let cfg = CampaignConfig {
        injections: n,
        kind,
        seed: 0x5EED_B007,
        golden_shortcuts,
        ..Default::default()
    }
    .sized_for(w);
    assert_eq!(cfg.snapshot_every, None, "every injection must cold-boot");
    cfg
}

/// The order the campaign engine runs a fresh campaign in on one worker:
/// 32-index ranges, each by arm cycle.
fn engine_order(prep: &PreparedCampaign, cfg: &CampaignConfig) -> Vec<usize> {
    let n = prep.injections();
    (0..n).step_by(32).flat_map(|s| prep.arm_order(cfg, s..n.min(s + 32))).collect()
}

/// Entry resets and cursor resumes are not snapshot restores.
fn assert_no_restores(ws: &CampaignWorkspace, what: &str) {
    assert_eq!(ws.stats(), Default::default(), "{what}: a reset counted as a restore");
}

fn check(w: &Workload, kind: FaultKind, golden_shortcuts: bool, n: usize) {
    let panic_at = n / 2;
    let cfg = config(w, kind, golden_shortcuts, n);
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
    let chaos = CampaignConfig {
        chaos: Some(ChaosConfig { panic_at: vec![panic_at], livelock_at: vec![] }),
        ..cfg.clone()
    };
    for i in (0..n).rev() {
        match run_injection_supervised_in(&prep, &chaos, i, &mut ws) {
            SupervisedOutcome::Quarantined(q) => assert_eq!(q.index, panic_at as u64, "{what}"),
            SupervisedOutcome::Classified(r) => {
                assert_ne!(i, panic_at, "{what}: the chaos panic did not fire");
                assert_eq!(format!("{r:?}"), format!("{:?}", fresh[i]), "{what}: injection {i}");
            }
            other => panic!("{what}: injection {i} became {other:?}"),
        }
    }
    assert_no_restores(&ws, &what);
    assert_eq!(ws.exec_stats().cursor_overshoots, 0, "{what}: a walk passed its arm cycle");

    // The engine's order, on a fresh workspace: the cursor walks each
    // range's no-fault prefix once.
    let mut ws = CampaignWorkspace::new();
    for i in engine_order(&prep, &cfg) {
        let reused = run_injection_in(&prep, &cfg, i, &mut ws);
        assert_eq!(format!("{reused:?}"), format!("{:?}", fresh[i]), "{what}: injection {i}");
    }
    assert_no_restores(&ws, &what);
    let stats = ws.exec_stats();
    assert_eq!(stats.cursor_overshoots, 0, "{what}: a walk passed its arm cycle");
    if golden_shortcuts {
        assert!(stats.cursor_walk_cycles > 0, "{what}: the cursor never walked");
        assert!(
            stats.cursor_resets <= n.div_ceil(32) as u64 + 1,
            "{what}: {} resets for {} ranges",
            stats.cursor_resets,
            n.div_ceil(32)
        );
    } else {
        assert_eq!(
            (stats.cursor_walk_cycles, stats.cursor_resets),
            (0, 0),
            "{what}: the cursor ran with the short-cuts off"
        );
    }
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

/// The cursor counters one injection moved.
fn cursor_delta(before: ExecStats, after: ExecStats) -> (u64, u64) {
    (
        after.cursor_walk_cycles - before.cursor_walk_cycles,
        after.cursor_resets - before.cursor_resets,
    )
}

/// A panic halfway through a cursor walk drops the cursor: the next
/// injection that resumes it resets to entry first, where the same
/// sequence without the panic resumed the checkpoint, and every injection
/// still classifies as a fresh cold boot.
fn check_panic_mid_walk(w: &Workload, kind: FaultKind, n: usize) {
    let cfg = config(w, kind, true, n);
    let prep = prepare_campaign(w, &cfg);
    let what = format!("{} {kind:?}", w.name);
    let order = engine_order(&prep, &cfg);
    let fresh: Vec<InjectionResult> = (0..n).map(|i| run_injection(&prep, &cfg, i)).collect();

    // Without the panic: what each injection did to the cursor.
    let mut ws = CampaignWorkspace::new();
    let deltas: Vec<(u64, u64)> = order
        .iter()
        .map(|&i| {
            let before = ws.exec_stats();
            run_injection_in(&prep, &cfg, i, &mut ws);
            cursor_delta(before, ws.exec_stats())
        })
        .collect();
    // The panicking injection walks on from a kept checkpoint, and a
    // later one in its range walks again.
    let chunk = |pos: usize| order[pos..].len().min(32 - pos % 32);
    let pos = (0..order.len())
        .find(|&p| {
            deltas[p].0 > 0
                && deltas[p].1 == 0
                && (p + 1..p + chunk(p)).any(|q| deltas[q].0 > 0 && deltas[q].1 == 0)
        })
        .unwrap_or_else(|| panic!("{what}: no walk resumed from a kept checkpoint"));
    let panic_at = order[pos];

    let chaos = CampaignConfig {
        chaos: Some(ChaosConfig { panic_at: vec![panic_at], livelock_at: vec![] }),
        ..cfg.clone()
    };
    let mut ws = CampaignWorkspace::new();
    let mut reset_after_panic = None;
    for (p, &i) in order.iter().enumerate() {
        let before = ws.exec_stats();
        match run_injection_supervised_in(&prep, &chaos, i, &mut ws) {
            SupervisedOutcome::Quarantined(q) => assert_eq!(q.index, panic_at as u64, "{what}"),
            SupervisedOutcome::Classified(r) => {
                assert_ne!(i, panic_at, "{what}: the chaos panic did not fire");
                assert_eq!(format!("{r:?}"), format!("{:?}", fresh[i]), "{what}: injection {i}");
            }
            other => panic!("{what}: injection {i} became {other:?}"),
        }
        let (walked, resets) = cursor_delta(before, ws.exec_stats());
        if p > pos && reset_after_panic.is_none() && (walked, resets) != (0, 0) {
            reset_after_panic = Some(resets);
        }
    }
    assert_eq!(reset_after_panic, Some(1), "{what}: the cursor outlived the panic mid-walk");
    assert_no_restores(&ws, &what);
    assert_eq!(ws.exec_stats().cursor_overshoots, 0, "{what}");
}

#[test]
fn chaos_panic_mid_walk_drops_the_cursor() {
    for w in [argus_workloads::stress(), argus_workloads::pegwit::pegwit()] {
        for kind in [FaultKind::Transient, FaultKind::Permanent] {
            check_panic_mid_walk(&w, kind, 40);
        }
    }
}

/// A watchdog budget tight enough to hang some injections hangs exactly
/// the same ones with the cursor as a true cold boot (short-cuts off)
/// does: the cursor's runs start with the ticks the no-fault prefix
/// spent already charged.
#[test]
fn tight_watchdog_hangs_the_same_injections() {
    let w = argus_workloads::stress();
    for kind in [FaultKind::Transient, FaultKind::Permanent] {
        let cfg =
            CampaignConfig { inj_cycle_factor: 0.5, hang_slack: 0, ..config(&w, kind, true, 200) };
        let cold = CampaignConfig { golden_shortcuts: false, ..cfg.clone() };
        let prep = prepare_campaign(&w, &cfg);
        let what = format!("{} {kind:?}", w.name);
        let (mut ws, mut cold_ws) = (CampaignWorkspace::new(), CampaignWorkspace::new());
        let mut hung = 0;
        for i in engine_order(&prep, &cfg) {
            let got = run_injection_supervised_in(&prep, &cfg, i, &mut ws);
            let want = run_injection_supervised_in(&prep, &cold, i, &mut cold_ws);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}: injection {i}");
            hung += u32::from(matches!(got, SupervisedOutcome::Hung { .. }));
        }
        assert!(hung > 0, "{what}: the budget hung nothing");
        let stats = ws.exec_stats();
        assert!(stats.cursor_walk_cycles > 0, "{what}: the cursor never walked");
        assert_eq!(stats.cursor_overshoots, 0, "{what}");
    }
}
