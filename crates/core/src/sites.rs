//! Fault sites inside the Argus-1 checker hardware itself.
//!
//! The paper injects errors into the checker logic too; such errors can
//! never corrupt the core's architectural execution, so they are always
//! masked — but many of them trip a checker, producing the paper's
//! "detected masked errors" (DMEs).

use argus_sim::fault::{SiteDesc, Unit};

/// CRC unit output in an SHS computation unit.
pub const SHS_CRC_OUT: &str = "shs_crc_out";
/// Stored SHS bits read from the signature file.
pub const SHS_FILE_CELL: &str = "shs_file_cell";
/// DCS XOR-tree output.
pub const DCS_XOR_OUT: &str = "dcs_xor_out";
/// The statically-embedded DCS selected for comparison.
pub const DCS_EXPECTED: &str = "dcs_expected";
/// Embedded-slot parser output in the control-flow checker.
pub const CFC_SLOT_PARSE: &str = "cfc_slot_parse";
/// The CFC's private copy of the compare flag.
pub const CFC_FLAG_SHADOW: &str = "cfc_flag_shadow";
/// Adder sub-checker recomputation output.
pub const CC_ADDER_OUT: &str = "cc_adder_out";
/// RSSE sub-checker output.
pub const CC_RSSE_OUT: &str = "cc_rsse_out";
/// Mod-M residue sub-checker output.
pub const CC_MOD_OUT: &str = "cc_mod_out";
/// Compare sub-checker output.
pub const CC_CMP_OUT: &str = "cc_cmp_out";
/// Parity tag read from the register parity file.
pub const PARITY_RF_TAG: &str = "parity_rf_tag";
/// Parity-check comparator output.
pub const PARITY_CHECK: &str = "parity_check";
/// Memory parity-check comparator output.
pub const MFC_PARITY_CHECK: &str = "mfc_parity_check";
/// Watchdog counter bits.
pub const WD_COUNT: &str = "wd_count";

/// Fault-site inventory of the checker hardware.
pub fn argus_sites() -> Vec<SiteDesc> {
    vec![
        SiteDesc::new(SHS_CRC_OUT, 8, Unit::ArgusShs, 3.2).sensitized(0.5),
        SiteDesc::new(SHS_FILE_CELL, 8, Unit::ArgusShs, 2.6).sensitized(0.9),
        SiteDesc::new(DCS_XOR_OUT, 8, Unit::ArgusDcs, 0.8).sensitized(0.6),
        SiteDesc::new(DCS_EXPECTED, 8, Unit::ArgusDcs, 0.6).sensitized(0.6),
        SiteDesc::new(CFC_SLOT_PARSE, 5, Unit::ArgusDcs, 0.4).sensitized(0.6),
        SiteDesc::new(CFC_FLAG_SHADOW, 1, Unit::ArgusDcs, 0.1).sensitized(0.8),
        SiteDesc::new(CC_ADDER_OUT, 32, Unit::ArgusCc, 1.9).sensitized(0.4),
        SiteDesc::new(CC_RSSE_OUT, 32, Unit::ArgusCc, 1.0).sensitized(0.4),
        SiteDesc::new(CC_MOD_OUT, 8, Unit::ArgusCc, 0.8).sensitized(0.4),
        SiteDesc::new(CC_CMP_OUT, 1, Unit::ArgusCc, 0.2).sensitized(0.5),
        SiteDesc::new(PARITY_RF_TAG, 1, Unit::ArgusParity, 0.5).sensitized(0.8),
        SiteDesc::new(PARITY_CHECK, 1, Unit::ArgusParity, 0.5).sensitized(0.5),
        SiteDesc::new(MFC_PARITY_CHECK, 1, Unit::ArgusParity, 0.3).sensitized(0.5),
        SiteDesc::new(WD_COUNT, 8, Unit::ArgusWatchdog, 0.3).sensitized(0.7),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sites_are_argus_hardware() {
        for s in argus_sites() {
            assert!(s.unit.is_argus_hardware(), "{} misclassified", s.name);
            assert!(s.weight > 0.0);
        }
    }

    /// Every checker site resolves to the machine's foreign tap bit, so no
    /// checker site can share a bit with (and hide a tap of) a machine
    /// site.
    #[test]
    fn checker_sites_resolve_to_the_foreign_tap_bit() {
        use argus_machine::TapSet;
        for s in argus_sites() {
            let bits: Vec<usize> = TapSet::site(s.name).bits().collect();
            assert_eq!(bits, [TapSet::BITS - 1], "{} is not foreign to the machine", s.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let sites = argus_sites();
        let mut names: Vec<_> = sites.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), sites.len());
    }
}
