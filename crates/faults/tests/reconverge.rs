//! Reconvergence ≡ running to the end, campaign level.
//!
//! With `golden_shortcuts` on, a spent transient stops at the first golden
//! block end where its full state matches the campaign's no-fault run and
//! takes that run's end. Every injection must classify exactly as with the
//! short-cuts off, on every workload class (small `stress`, call-heavy
//! `pegwit`, the 16 MiB `stress_xl` image), for both fault kinds, whether
//! injections cold-boot or fork from golden-run snapshots. The transient
//! rows must actually stop some runs early, or the identity proves
//! nothing.
//!
//! The same identity covers the dead-site short-cut: an injection whose
//! machine site the no-fault run never taps at or after its arm cycle
//! takes that run's verdict without simulating. On `pegwit` and
//! `stress_xl` both fault kinds must take it at least once; the sampled
//! `stress` rows happen to hold no such injection. It also covers the
//! permanent-fault early finish (checker-only sites stop at detection,
//! bits no consumer reads stop at the first flip), which transients and
//! runs with the short-cuts off never take. And it covers the rolling
//! golden cursor, which cold-boot injections resume with the short-cuts
//! on: the cold rows must walk it, and no walk may pass its arm cycle.

use argus_faults::campaign::ExecStats;
use argus_faults::{
    prepare_campaign, run_injection_in, CampaignConfig, CampaignWorkspace, InjectionResult,
    PreparedCampaign,
};
use argus_sim::fault::FaultKind;
use argus_workloads::Workload;

/// Runs every injection of `prep` on one reused workspace.
fn run_all(prep: &PreparedCampaign, cfg: &CampaignConfig) -> (Vec<InjectionResult>, ExecStats) {
    let mut ws = CampaignWorkspace::new();
    let results = (0..prep.injections()).map(|i| run_injection_in(prep, cfg, i, &mut ws)).collect();
    (results, ws.exec_stats())
}

/// `dead_sites`: whether every row must take the dead-site short-cut.
fn check(w: &Workload, n: usize, seed: u64, dead_sites: bool) {
    let cold = CampaignConfig { injections: n, seed, ..Default::default() }.sized_for(w);
    let cold_prep = prepare_campaign(w, &cold);
    // Fork interval: one snapshot at cycle 0 and one at 3/5 of the golden
    // run, inside the arm window (3/4); each capture of the 16 MiB
    // `stress_xl` image is costly in a debug build.
    let forked =
        CampaignConfig { snapshot_every: Some(cold_prep.golden_cycles() * 3 / 5), ..cold.clone() };
    let forked_prep = prepare_campaign(w, &forked);
    // Neither the fault kind nor the short-cut toggle enters preparation,
    // so one prepared campaign serves all four runs of its row.
    for (base, prep) in [(&cold, &cold_prep), (&forked, &forked_prep)] {
        for kind in [FaultKind::Transient, FaultKind::Permanent] {
            let cfg = CampaignConfig { kind, ..base.clone() };
            let what = format!("{} {kind:?} snapshot_every={:?}", w.name, cfg.snapshot_every);
            let (on, stats) =
                run_all(prep, &CampaignConfig { golden_shortcuts: true, ..cfg.clone() });
            let (off, off_stats) =
                run_all(prep, &CampaignConfig { golden_shortcuts: false, ..cfg.clone() });
            for (i, (a, b)) in on.iter().zip(&off).enumerate() {
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: injection {i}");
            }
            assert_eq!(off_stats.converged, 0, "{what}: short-cuts off still converged");
            assert_eq!(off_stats.dead_site, 0, "{what}: short-cuts off still skipped a run");
            assert_eq!(
                (off_stats.checker_only, off_stats.masked_bits),
                (0, 0),
                "{what}: short-cuts off still ended a run early"
            );
            assert_eq!(
                (off_stats.cursor_walk_cycles, off_stats.cursor_resets),
                (0, 0),
                "{what}: short-cuts off still resumed the cursor"
            );
            if cfg.snapshot_every.is_none() {
                assert!(stats.cursor_walk_cycles > 0, "{what}: the cursor never walked");
            } else {
                assert_eq!(stats.cursor_walk_cycles, 0, "{what}: a forked campaign walked");
            }
            assert_eq!(stats.cursor_overshoots, 0, "{what}: a walk passed its arm cycle");
            if dead_sites {
                assert!(stats.dead_site > 0, "{what}: no injection was on a dead site");
            }
            match kind {
                FaultKind::Transient => {
                    assert!(stats.converged > 0, "{what}: no run reconverged");
                    assert_eq!(
                        (stats.checker_only, stats.masked_bits),
                        (0, 0),
                        "{what}: a transient took the permanent-fault early finish"
                    );
                    assert!(stats.converged_cycles_saved > 0, "{what}");
                }
                FaultKind::Permanent => {
                    assert_eq!(stats.converged, 0, "{what}: a permanent fault is never spent");
                }
            }
        }
    }
}

#[test]
fn reconvergence_is_identical_on_stress() {
    check(&argus_workloads::stress(), 60, 0x2EC0, false);
}

#[test]
fn reconvergence_is_identical_on_pegwit() {
    check(&argus_workloads::pegwit::pegwit(), 16, 0x2EC0, true);
}

#[test]
fn reconvergence_is_identical_on_stress_xl() {
    check(&argus_workloads::stress_xl(), 12, 0x2EC0, true);
}
