//! Table 1 as pinned numbers: the `stress` transient and permanent
//! campaigns of `cargo bench -p argus-bench --bench table1` are
//! deterministic, so their quadrant and first-detector counts are asserted
//! exactly. A change that moves any count changes the paper's headline
//! result and must update these pins and EXPERIMENTS.md together.
//!
//! The full 3000-injection campaigns are too slow for a debug build, so
//! the default run pins a 600-injection campaign. The full one is
//! `#[ignore]`d here and runs as its own release CI step:
//!
//! ```text
//! cargo test --release -p argus-suite --test table1 -- --ignored
//! ```
//!
//! It also checks the shape the paper reports: few silent corruptions,
//! high coverage of unmasked errors, and the detection attribution order.
//! Both runs check §4.2's latency ordering: the computation checker
//! detects faster than the DCS comparison (median, genuine detections).

use argus_core::CheckerKind;
use argus_faults::campaign::{run_campaign, CampaignConfig, CampaignReport, Outcome};
use argus_faults::latency::LatencyReport;
use argus_sim::fault::FaultKind;

/// Exact counts of one campaign.
struct Pin {
    /// Per quadrant, in [`Outcome::ALL`] order: SDC, unmasked detected,
    /// masked undetected, masked detected (DME).
    quadrants: [usize; 4],
    /// First detectors: computation, parity, DCS, watchdog.
    attribution: [u64; 4],
}

const CHECKERS: [&str; 4] = ["computation", "parity", "dcs", "watchdog"];

fn table1(kind: FaultKind, injections: usize) -> CampaignReport {
    run_campaign(
        &argus_workloads::stress(),
        &CampaignConfig { injections, kind, ..Default::default() },
    )
}

fn assert_pinned(rep: &CampaignReport, pin: &Pin) {
    let quadrants = Outcome::ALL.map(|o| rep.count(o));
    let attribution = CHECKERS.map(|c| rep.attribution.get(c));
    assert_eq!(
        (quadrants, attribution),
        (pin.quadrants, pin.attribution),
        "{:?} Table 1 moved:\n{rep}",
        rep.kind
    );
}

/// §4.2: a computation error is caught the cycle after the bad
/// computation, a dataflow error only when its block ends, so the median
/// computation-checker latency lies below the DCS one.
fn assert_latency_ordered(rep: &CampaignReport) {
    let lat = LatencyReport::from_campaign(rep);
    let p50 = |k: CheckerKind| {
        lat.checker(k)
            .and_then(|h| h.percentile(0.5))
            .unwrap_or_else(|| panic!("{:?}: no genuine {k} detection", rep.kind))
    };
    let (cc, dcs) = (p50(CheckerKind::Computation), p50(CheckerKind::Dcs));
    assert!(
        cc < dcs,
        "{:?}: computation p50 <= {cc} cycles is not below DCS p50 <= {dcs}\n{}",
        rep.kind,
        lat.summary()
    );
}

#[test]
fn table1_small_campaign_counts_are_pinned() {
    let transient = table1(FaultKind::Transient, 600);
    assert_pinned(
        &transient,
        &Pin { quadrants: [6, 233, 234, 127], attribution: [160, 127, 73, 0] },
    );
    assert_latency_ordered(&transient);
    let permanent = table1(FaultKind::Permanent, 600);
    assert_pinned(
        &permanent,
        &Pin { quadrants: [2, 288, 205, 105], attribution: [169, 134, 90, 0] },
    );
    assert_latency_ordered(&permanent);
}

#[test]
#[ignore = "full 3000 x 2 campaign; run in release (see the module docs)"]
fn table1_full_campaign_is_pinned_and_paper_shaped() {
    for (kind, pin, min_coverage) in [
        (
            FaultKind::Transient,
            Pin { quadrants: [50, 1146, 1195, 609], attribution: [799, 553, 403, 0] },
            0.95,
        ),
        (
            FaultKind::Permanent,
            Pin { quadrants: [8, 1388, 1071, 533], attribution: [848, 584, 487, 2] },
            0.98,
        ),
    ] {
        let rep = table1(kind, 3000);
        assert_pinned(&rep, &pin);
        assert_latency_ordered(&rep);
        let sdc = rep.fraction(Outcome::UnmaskedUndetected);
        assert!(sdc <= 0.02, "{kind:?}: SDC {:.2}% above 2%", 100.0 * sdc);
        let coverage = rep.unmasked_coverage();
        assert!(
            coverage >= min_coverage,
            "{kind:?}: unmasked coverage {:.1}% below {:.0}%",
            100.0 * coverage,
            100.0 * min_coverage
        );
        let [comp, parity, dcs, watchdog] = CHECKERS.map(|c| rep.attribution.get(c));
        assert!(
            comp > parity && parity > dcs && dcs > watchdog,
            "{kind:?}: attribution is not computation > parity > DCS > watchdog:\n{}",
            rep.attribution
        );
    }
}
