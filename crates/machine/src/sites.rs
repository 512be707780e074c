//! Fault-site inventory of the core datapath and control.
//!
//! Site weights approximate each unit's share of the synthesized gate count
//! (the paper samples 5,000 of ~40,000 gate outputs). `Double`-flavor
//! entries model gates that drive two adjacent datapath bits — the
//! even-bit-flip population that single-bit parity cannot see, which the
//! paper identifies as the dominant source of its residual silent
//! corruptions.
//!
//! The Argus-1 checker hardware adds its own sites in `argus-core`; the
//! few listed here with `Argus*` units are assist logic that physically
//! lives in the fetch/LSU paths (signature extraction, link-DCS muxing,
//! the store-address XOR) but exists only because of Argus-1.

use argus_sim::fault::{SiteDesc, Unit};

// --- Fetch ---------------------------------------------------------------
/// Instruction fetch bus (I-cache to decode).
pub const IF_IBUS: &str = "if_ibus";
/// Next-PC mux output.
pub const IF_PC_NEXT: &str = "if_pc_next";

// --- Decode / opcode distribution (§3.3, Figure 3) -----------------------
/// Shared opcode trunk feeding FU, sub-checker and SHS unit alike.
pub const ID_OPC_TRUNK: &str = "id_opc_trunk";
/// Private opcode branch to the functional unit only.
pub const ID_OPC_FU: &str = "id_opc_fu";
/// Private opcode branch to the computation sub-checker only (Argus HW).
pub const ID_OPC_SUBCHK: &str = "id_opc_subchk";
/// Private opcode branch to the SHS computation unit only (Argus HW).
pub const ID_OPC_SHS: &str = "id_opc_shs";

// --- Register file --------------------------------------------------------
/// Read-port A address decoder.
pub const RF_RADDR_A: &str = "rf_raddr_a";
/// Read-port B address decoder.
pub const RF_RADDR_B: &str = "rf_raddr_b";
/// Write-port address decoder.
pub const RF_WADDR: &str = "rf_waddr";

// --- Execute --------------------------------------------------------------
/// Operand A bus into EX (feeds FU and sub-checker identically).
pub const EX_OPA_BUS: &str = "ex_opa_bus";
/// Operand B bus into EX.
pub const EX_OPB_BUS: &str = "ex_opb_bus";
/// Adder output inside the ALU.
pub const ALU_ADDER_OUT: &str = "alu_adder_out";
/// Bitwise-logic unit output inside the ALU.
pub const ALU_LOGIC_OUT: &str = "alu_logic_out";
/// Shifter / extension unit output inside the ALU.
pub const ALU_SHIFT_OUT: &str = "alu_shift_out";
/// Result bus from EX to writeback (after result-parity generation).
pub const EX_RESULT_BUS: &str = "ex_result_bus";

// --- Multiplier / divider --------------------------------------------------
/// Low word of the multiplier array output.
pub const MUL_LO: &str = "mul_lo";
/// High word of the multiplier array (reachable only via multiply-
/// accumulate, which this core lacks — errors here are always masked).
pub const MUL_HI: &str = "mul_hi";
/// Divider quotient output.
pub const DIV_Q: &str = "div_q";
/// Divider remainder output (consumed only by the mod-M sub-checker).
pub const DIV_R: &str = "div_r";

// --- Load/store unit --------------------------------------------------------
/// Effective-address adder output.
pub const LSU_ADDR: &str = "lsu_addr";
/// Store-data bus (after the LSU-input parity check point).
pub const LSU_ST_BUS: &str = "lsu_st_bus";
/// Sub-word read-modify-write merge network.
pub const LSU_ST_MERGE: &str = "lsu_st_merge";
/// Load aligner / sign-extension output.
pub const LSU_ALIGN_OUT: &str = "lsu_align_out";
/// Load-data bus to writeback (after load-parity generation).
pub const LSU_LD_BUS: &str = "lsu_ld_bus";

// --- Control ----------------------------------------------------------------
/// Pipeline stall-release signal; a stuck value hangs the core (watchdog
/// territory).
pub const CTL_STALL_RELEASE: &str = "ctl_stall_release";
/// Branch-taken mux select.
pub const BR_TAKEN: &str = "br_taken";
/// Branch/jump target adder output.
pub const BR_TARGET: &str = "br_target";
/// Compare (set-flag) unit output.
pub const CMP_FLAG_OUT: &str = "cmp_flag_out";
/// Flag read port feeding the branch unit.
pub const FLAG_READ: &str = "flag_read";

// --- Memory interface ---------------------------------------------------------
/// Row/word-select address as seen by the D-side memory arrays.
pub const DMEM_ROW_ADDR: &str = "dmem_row_addr";

// --- Argus assist logic in the core (accounted as Argus hardware) -------------
/// Address input of the store/load D⊕A XOR unit (§3.4).
pub const LSU_ADDR_XOR: &str = "lsu_addr_xor";
/// Link-DCS mux writing the target-block DCS into the link register.
pub const LNK_DCS_MUX: &str = "lnk_dcs_mux";
/// Signature-extraction shift register collecting embedded DCS bits.
pub const SIG_EXTRACT: &str = "sig_extract";

/// Every machine site except the register-file cells, in [`TapSet`] bit
/// order. The cells follow at bit [`CELL_BASE`] + register index.
const SCALAR_SITES: [&str; 33] = [
    IF_IBUS,
    IF_PC_NEXT,
    ID_OPC_TRUNK,
    ID_OPC_FU,
    ID_OPC_SUBCHK,
    ID_OPC_SHS,
    RF_RADDR_A,
    RF_RADDR_B,
    RF_WADDR,
    EX_OPA_BUS,
    EX_OPB_BUS,
    ALU_ADDER_OUT,
    ALU_LOGIC_OUT,
    ALU_SHIFT_OUT,
    EX_RESULT_BUS,
    MUL_LO,
    MUL_HI,
    DIV_Q,
    DIV_R,
    LSU_ADDR,
    LSU_ST_BUS,
    LSU_ST_MERGE,
    LSU_ALIGN_OUT,
    LSU_LD_BUS,
    CTL_STALL_RELEASE,
    BR_TAKEN,
    BR_TARGET,
    CMP_FLAG_OUT,
    FLAG_READ,
    DMEM_ROW_ADDR,
    LSU_ADDR_XOR,
    LNK_DCS_MUX,
    SIG_EXTRACT,
];

/// Bit of `rf_cell_r0`; register `r` owns bit `CELL_BASE + r`.
const CELL_BASE: u32 = SCALAR_SITES.len() as u32;

/// The bit every site outside the machine's inventory resolves to: the
/// checker's own hardware, or any name the machine never taps.
const FOREIGN_BIT: u32 = 127;

/// A static set of fault sites, one bit per machine site, so a block's
/// "which sites can my ops tap" question is answered with a mask test
/// instead of string compares. Names resolve once ([`TapSet::site`]);
/// sites the machine never taps all share one *foreign* bit, which no
/// instruction's set ever contains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TapSet(u128);

impl TapSet {
    /// The empty set.
    pub const EMPTY: TapSet = TapSet(0);

    /// Bits in a set; every bit index is below this.
    pub const BITS: usize = u128::BITS as usize;

    /// The set holding the site called `name` (the foreign bit when the
    /// machine has no such site). `const`, so per-op sets fold at compile
    /// time; at run time it is a linear scan — resolve once, not per use.
    pub const fn site(name: &str) -> TapSet {
        let mut i = 0;
        while i < SCALAR_SITES.len() {
            if str_eq(SCALAR_SITES[i], name) {
                return TapSet(1 << i);
            }
            i += 1;
        }
        let mut r = 0;
        while r < crate::machine::RF_CELL_SITES.len() {
            if str_eq(crate::machine::RF_CELL_SITES[r], name) {
                return TapSet::cell(r as u8);
            }
            r += 1;
        }
        TapSet(1 << FOREIGN_BIT)
    }

    /// The set holding each named site (`const`, like [`TapSet::site`]).
    pub const fn of(names: &[&str]) -> TapSet {
        let mut t = TapSet::EMPTY;
        let mut i = 0;
        while i < names.len() {
            t = t.union(TapSet::site(names[i]));
            i += 1;
        }
        t
    }

    /// The sites every instruction taps: stall release, fetch, the decode
    /// trunk and its three branches, and next-PC. A live fault on one of
    /// them reaches every op of every block.
    pub const EVERY_OP: TapSet = TapSet::of(&[
        CTL_STALL_RELEASE,
        IF_IBUS,
        ID_OPC_TRUNK,
        ID_OPC_FU,
        ID_OPC_SUBCHK,
        ID_OPC_SHS,
        IF_PC_NEXT,
    ]);

    /// The decode sites between the fetched word and the three decoders:
    /// the taps the predecode memo stands in for.
    pub const DECODE: TapSet = TapSet::of(&[ID_OPC_TRUNK, ID_OPC_FU, ID_OPC_SUBCHK, ID_OPC_SHS]);

    /// The storage-cell site of register index `r` (0..32).
    pub const fn cell(r: u8) -> TapSet {
        TapSet(1 << (CELL_BASE + r as u32))
    }

    /// Set union.
    pub const fn union(self, other: TapSet) -> TapSet {
        TapSet(self.0 | other.0)
    }

    /// Set intersection.
    pub const fn intersection(self, other: TapSet) -> TapSet {
        TapSet(self.0 & other.0)
    }

    /// Whether the two sets share a site.
    pub const fn intersects(self, other: TapSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether the set holds no site.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether the set holds a site outside the machine's inventory.
    pub const fn has_foreign(self) -> bool {
        self.0 >> FOREIGN_BIT != 0
    }

    /// The indices of the set's bits, ascending (the foreign bit is
    /// `BITS - 1`).
    pub fn bits(self) -> impl Iterator<Item = usize> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            let i = rest.trailing_zeros();
            rest &= rest.wrapping_sub(1);
            (i < u128::BITS).then_some(i as usize)
        })
    }

    /// Whether the set holds the machine site called `name` (never true
    /// for a foreign name).
    pub fn contains(self, name: &str) -> bool {
        let s = TapSet::site(name);
        !s.has_foreign() && self.intersects(s)
    }
}

/// `&str` equality usable in `const fn`.
const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// The complete fault-site inventory of the core (excluding checker-internal
/// sites owned by `argus-core`).
pub fn core_sites() -> Vec<SiteDesc> {
    use argus_sim::fault::SiteFlavor::Double;
    let mut sites = per_register_cell_sites();
    sites.extend(vec![
        // Fetch/decode cones: moderate logic depth between a faulted gate
        // and these signals.
        SiteDesc::new(IF_IBUS, 32, Unit::Fetch, 3.0).sensitized(0.7),
        SiteDesc::new(IF_PC_NEXT, 32, Unit::Fetch, 2.0).sensitized(0.6),
        SiteDesc::new(ID_OPC_TRUNK, 32, Unit::Decode, 2.0).sensitized(0.5),
        SiteDesc::new(ID_OPC_FU, 32, Unit::Decode, 1.5).sensitized(0.5),
        SiteDesc::new(ID_OPC_SUBCHK, 32, Unit::ArgusCc, 0.8).sensitized(0.5),
        SiteDesc::new(ID_OPC_SHS, 32, Unit::ArgusShs, 0.8).sensitized(0.5),
        // Port address decoders are a few dozen gates each — a sliver of
        // the ~40k-gate design.
        SiteDesc::new(RF_RADDR_A, 5, Unit::RegFile, 0.08),
        SiteDesc::new(RF_RADDR_B, 5, Unit::RegFile, 0.08),
        SiteDesc::new(RF_WADDR, 5, Unit::RegFile, 0.08),
        SiteDesc::new(EX_OPA_BUS, 32, Unit::Alu, 1.5).sensitized(0.9),
        SiteDesc { flavor: Double, ..SiteDesc::new(EX_OPA_BUS, 32, Unit::Alu, 0.12) },
        SiteDesc::new(EX_OPB_BUS, 32, Unit::Alu, 1.5).sensitized(0.9),
        SiteDesc { flavor: Double, ..SiteDesc::new(EX_OPB_BUS, 32, Unit::Alu, 0.12) },
        // Deep combinational cones: a random internal gate fault rarely
        // sensitizes a path to the unit output on a given operand pair.
        SiteDesc::new(ALU_ADDER_OUT, 32, Unit::Alu, 3.0).sensitized(0.4),
        SiteDesc::new(ALU_LOGIC_OUT, 32, Unit::Alu, 1.0).sensitized(0.5),
        SiteDesc::new(ALU_SHIFT_OUT, 32, Unit::Alu, 2.0).sensitized(0.4),
        SiteDesc::new(EX_RESULT_BUS, 32, Unit::Alu, 1.5).sensitized(0.9),
        SiteDesc { flavor: Double, ..SiteDesc::new(EX_RESULT_BUS, 32, Unit::Alu, 0.15) },
        SiteDesc::new(MUL_LO, 32, Unit::MulDiv, 4.0).sensitized(0.35),
        SiteDesc::new(MUL_HI, 32, Unit::MulDiv, 4.0).sensitized(0.35),
        SiteDesc::new(DIV_Q, 32, Unit::MulDiv, 2.0).sensitized(0.35),
        SiteDesc::new(DIV_R, 32, Unit::MulDiv, 1.0).sensitized(0.35),
        SiteDesc::new(LSU_ADDR, 32, Unit::Lsu, 1.5).sensitized(0.5),
        SiteDesc::new(LSU_ST_BUS, 32, Unit::Lsu, 0.6).sensitized(0.9),
        SiteDesc { flavor: Double, ..SiteDesc::new(LSU_ST_BUS, 32, Unit::Lsu, 0.06) },
        SiteDesc::new(LSU_ST_MERGE, 32, Unit::Lsu, 0.15).sensitized(0.6),
        SiteDesc::new(LSU_ALIGN_OUT, 32, Unit::Lsu, 1.0).sensitized(0.6),
        SiteDesc::new(LSU_LD_BUS, 32, Unit::Lsu, 1.0).sensitized(0.9),
        SiteDesc { flavor: Double, ..SiteDesc::new(LSU_LD_BUS, 32, Unit::Lsu, 0.1) },
        SiteDesc::new(CTL_STALL_RELEASE, 1, Unit::Control, 0.8).sensitized(0.5),
        SiteDesc::new(BR_TAKEN, 1, Unit::Control, 0.4).sensitized(0.5),
        SiteDesc::new(BR_TARGET, 32, Unit::Control, 1.0).sensitized(0.5),
        SiteDesc::new(CMP_FLAG_OUT, 1, Unit::Control, 0.4).sensitized(0.5),
        SiteDesc::new(FLAG_READ, 1, Unit::Control, 0.2).sensitized(0.8),
        // Row selection spans the word-offset + index bits of the 8KB
        // arrays; faults in higher address bits surface as tag mismatches
        // (clean misses), which redundant tag compare covers.
        SiteDesc::new(DMEM_ROW_ADDR, 14, Unit::MemIface, 1.2).sensitized(0.7),
        SiteDesc::new(LSU_ADDR_XOR, 32, Unit::ArgusParity, 0.5).sensitized(0.7),
        SiteDesc::new(LNK_DCS_MUX, 5, Unit::ArgusDcs, 0.2),
        SiteDesc::new(SIG_EXTRACT, 5, Unit::ArgusDcs, 0.4),
    ]);
    sites
}

/// One storage site per architectural register, so a permanent cell fault
/// is pinned to a single register (total register-file weight 8.0 for the
/// single-bit population plus a small double-bit population).
fn per_register_cell_sites() -> Vec<SiteDesc> {
    use argus_sim::fault::SiteFlavor::Double;
    let mut v = Vec::with_capacity(64);
    for name in crate::machine::RF_CELL_SITES {
        v.push(SiteDesc::new(name, 32, Unit::RegFile, 10.5 / 32.0));
        v.push(SiteDesc { flavor: Double, ..SiteDesc::new(name, 32, Unit::RegFile, 0.25 / 32.0) });
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_is_nonempty_and_weighted() {
        let sites = core_sites();
        assert!(sites.len() > 30);
        assert!(sites.iter().all(|s| s.weight > 0.0 && s.width >= 1));
    }

    #[test]
    fn duplicate_names_only_differ_in_flavor() {
        use std::collections::HashMap;
        let mut seen: HashMap<&str, Vec<argus_sim::fault::SiteFlavor>> = HashMap::new();
        for s in core_sites() {
            seen.entry(s.name).or_default().push(s.flavor);
        }
        for (name, flavors) in seen {
            let singles = flavors
                .iter()
                .filter(|f| matches!(f, argus_sim::fault::SiteFlavor::Single))
                .count();
            assert!(singles <= 1, "site {name} listed twice with Single flavor");
        }
    }

    /// Every inventory site owns its own tap bit, and nothing else does.
    #[test]
    fn tap_bits_cover_the_inventory_one_to_one() {
        use std::collections::HashMap;
        let mut owner: HashMap<TapSet, &str> = HashMap::new();
        for s in core_sites() {
            let bit = TapSet::site(s.name);
            assert!(!bit.has_foreign(), "{} has no tap bit", s.name);
            assert!(bit.contains(s.name));
            let prev = owner.insert(bit, s.name);
            assert!(prev.is_none_or(|p| p == s.name), "{} shares a bit with {prev:?}", s.name);
        }
        assert_eq!(owner.len(), SCALAR_SITES.len() + 32, "a tap bit without an inventory site");
        let foreign = TapSet::site("wd_count");
        assert!(foreign.has_foreign() && !foreign.contains("wd_count"));
        assert_eq!(TapSet::site(crate::machine::RF_CELL_SITES[7]), TapSet::cell(7));
    }

    #[test]
    fn tap_set_bits_iterate_ascending() {
        let set = TapSet::cell(3).union(TapSet::site(IF_IBUS)).union(TapSet::site("wd_count"));
        let bits: Vec<usize> = set.bits().collect();
        assert_eq!(bits, [0, CELL_BASE as usize + 3, TapSet::BITS - 1]);
        assert_eq!(TapSet::EMPTY.bits().count(), 0);
    }

    #[test]
    fn argus_assist_sites_classified_as_argus() {
        let sites = core_sites();
        for name in [LSU_ADDR_XOR, LNK_DCS_MUX, SIG_EXTRACT, ID_OPC_SHS, ID_OPC_SUBCHK] {
            let s = sites.iter().find(|s| s.name == name).unwrap();
            assert!(s.unit.is_argus_hardware(), "{name} must be Argus hardware");
        }
    }
}
