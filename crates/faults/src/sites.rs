//! The full fault-site inventory, weighted sampling, and which bits of
//! each site's signal its consumers read.

use argus_core::sites as checker;
use argus_machine::sites as machine;
use argus_machine::TapSet;
use argus_sim::fault::{Fault, FaultKind, SiteDesc};
use argus_sim::rng::SplitMix64;

/// The complete design inventory: core sites plus Argus checker sites.
pub fn full_inventory() -> Vec<SiteDesc> {
    let mut v = argus_machine::sites::core_sites();
    v.extend(argus_core::sites::argus_sites());
    v
}

/// What every consumer of a site's signal reads of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reads {
    /// Only the checker: the value lands in a `CommitRecord` field that
    /// the checker alone reads, never in architectural or
    /// microarchitectural state.
    Checker,
    /// Only the signature bits, `(1 << sig_width) - 1`.
    Signature,
    /// Only these bits.
    Bits(u32),
}

/// The sites whose consumers ignore some or all of their signal. Checker
/// sites that are not listed are still checker-only: they sit on the
/// machine's foreign tap bit, so no machine value is derived from them.
const CONSUMERS: [(&str, Reads); 9] = [
    // `aux_result`, read by the mod-M sub-checker only.
    (machine::MUL_HI, Reads::Checker),
    (machine::DIV_R, Reads::Checker),
    // `op_subchk` and `op_shs`, the checker's private opcode branches.
    (machine::ID_OPC_SUBCHK, Reads::Checker),
    (machine::ID_OPC_SHS, Reads::Checker),
    // The signature datapath masks every tap to the signature width.
    (checker::SHS_CRC_OUT, Reads::Signature),
    (checker::SHS_FILE_CELL, Reads::Signature),
    (checker::DCS_XOR_OUT, Reads::Signature),
    (checker::DCS_EXPECTED, Reads::Signature),
    // The PC register has no bits [1:0].
    (machine::IF_PC_NEXT, Reads::Bits(!3)),
];

/// The point at which a permanent fault's run is already decided by the
/// no-fault run, so a campaign can stop it there and take that run's end
/// ([`early_finish`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EarlyFinish {
    /// The run must be simulated to its end.
    Never,
    /// The fault's site is checker-only: the machine follows the no-fault
    /// run whatever the fault does, so once the checker has detected,
    /// nothing left to report can differ from that run.
    AtDetection,
    /// Every consumer masks the flipped bits off: no value anywhere
    /// differs from the no-fault run, only the injector's flip count, so
    /// the first flip (the exercise cycle) is all the run adds.
    AtFirstFlip,
}

/// Where `fault`'s run is decided by the no-fault run, for a checker with
/// signature width `sig_width`. Only permanent faults are resolved:
/// a transient is spent by one flip and reconverges at the next golden
/// key instead.
pub fn early_finish(fault: &Fault, sig_width: u32) -> EarlyFinish {
    if fault.kind != FaultKind::Permanent {
        return EarlyFinish::Never;
    }
    let reads = CONSUMERS.iter().find(|(site, _)| *site == fault.site).map(|&(_, r)| r);
    // Seeded bug: treat the signature's top bit as masked too.
    let sig_width =
        sig_width - u32::from(argus_sim::canary::enabled("canary-early-finish-live-bit"));
    let read = match reads {
        Some(Reads::Signature) => (1 << sig_width) - 1,
        Some(Reads::Bits(bits)) => bits,
        Some(Reads::Checker) | None => u32::MAX,
    };
    if fault.mask() & read == 0 {
        EarlyFinish::AtFirstFlip
    } else if reads == Some(Reads::Checker) || TapSet::site(fault.site).has_foreign() {
        EarlyFinish::AtDetection
    } else {
        EarlyFinish::Never
    }
}

/// One sampled injection point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// The site description.
    pub site: SiteDesc,
    /// Bit position within the signal.
    pub bit: u8,
}

impl SamplePoint {
    /// Materializes a fault at this point.
    pub fn fault(&self, kind: FaultKind, arm_cycle: u64) -> Fault {
        Fault {
            site: self.site.name,
            bit: self.bit,
            kind,
            arm_cycle,
            flavor: self.site.flavor,
            width: self.site.width,
            sensitization: self.site.sensitization,
        }
    }
}

/// Samples `n` injection points, site-weighted (≈ gate-count share) with a
/// uniformly random bit per site — the analogue of the paper's random
/// sample of 5,000 gate outputs from ~40,000.
pub fn sample_points(inventory: &[SiteDesc], n: usize, seed: u64) -> Vec<SamplePoint> {
    let weights: Vec<f64> = inventory.iter().map(|s| s.weight).collect();
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let idx = rng.weighted_index(&weights).expect("inventory has positive weights");
            let site = inventory[idx];
            let bit = rng.below(site.width as u64) as u8;
            SamplePoint { site, bit }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_covers_core_and_checkers() {
        let inv = full_inventory();
        assert!(inv.len() > 50);
        assert!(inv.iter().any(|s| s.unit.is_argus_hardware()));
        assert!(inv.iter().any(|s| !s.unit.is_argus_hardware()));
    }

    #[test]
    fn sampling_is_deterministic_and_in_range() {
        let inv = full_inventory();
        let a = sample_points(&inv, 200, 42);
        let b = sample_points(&inv, 200, 42);
        assert_eq!(a.len(), 200);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.site.name, y.site.name);
            assert_eq!(x.bit, y.bit);
            assert!(x.bit < x.site.width);
        }
    }

    #[test]
    fn sampling_respects_weights_roughly() {
        // Register-file cells carry ~8/total of the weight; they should be
        // sampled far more often than the watchdog counter (~0.3).
        let inv = full_inventory();
        let pts = sample_points(&inv, 5000, 7);
        let rf = pts.iter().filter(|p| p.site.name.starts_with("rf_cell")).count();
        let wd = pts.iter().filter(|p| p.site.name == "wd_count").count();
        assert!(rf > wd * 3, "rf {rf} vs wd {wd}");
    }

    #[test]
    fn fault_materialization() {
        let inv = full_inventory();
        let p = sample_points(&inv, 1, 1)[0];
        let f = p.fault(FaultKind::Permanent, 99);
        assert_eq!(f.site, p.site.name);
        assert_eq!(f.arm_cycle, 99);
        assert_eq!(f.width, p.site.width);
    }
}
