//! The cycle-level core model.

use crate::alu;
use crate::commit::{BranchInfo, CommitRecord, MemAccess, Operand};
use crate::exec;
use crate::muldiv;
use crate::sites::{self, TapSet};
use argus_isa::decode::decode;
use argus_isa::instr::Instr;
use argus_isa::reg::Reg;
use argus_isa::{pack_indirect_target, split_indirect_target, INDIRECT_ADDR_MASK};
use argus_mem::{MemConfig, MemorySystem, DIRTY_PAGE_WORDS};
use argus_sim::bits::parity32;
use argus_sim::bitstream::BitStream;
use argus_sim::fault::FaultInjector;

use crate::commit::Operands;
use crate::predecode::Predecode;

/// Per-register fault-site names for the register file cells (one site per
/// architectural register, so a permanent fault is pinned to one cell).
pub const RF_CELL_SITES: [&str; 32] = [
    "rf_cell_r0",
    "rf_cell_r1",
    "rf_cell_r2",
    "rf_cell_r3",
    "rf_cell_r4",
    "rf_cell_r5",
    "rf_cell_r6",
    "rf_cell_r7",
    "rf_cell_r8",
    "rf_cell_r9",
    "rf_cell_r10",
    "rf_cell_r11",
    "rf_cell_r12",
    "rf_cell_r13",
    "rf_cell_r14",
    "rf_cell_r15",
    "rf_cell_r16",
    "rf_cell_r17",
    "rf_cell_r18",
    "rf_cell_r19",
    "rf_cell_r20",
    "rf_cell_r21",
    "rf_cell_r22",
    "rf_cell_r23",
    "rf_cell_r24",
    "rf_cell_r25",
    "rf_cell_r26",
    "rf_cell_r27",
    "rf_cell_r28",
    "rf_cell_r29",
    "rf_cell_r30",
    "rf_cell_r31",
];

/// Core configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Memory hierarchy configuration.
    pub mem: MemConfig,
    /// Argus mode: run a signature-embedded binary with protected memory,
    /// link-DCS packing and masked indirect targets. Baseline binaries run
    /// with this off.
    pub argus_mode: bool,
    /// Total cycles of a multiply (paper's OR1200: non-pipelined, 3).
    pub mul_cycles: u32,
    /// Total cycles of a divide (serial divider, 32).
    pub div_cycles: u32,
    /// Use the predecode memo wherever no fault sits on a decode site.
    /// Semantically inert (the memo always equals direct decode); exposed
    /// so identity tests can compare campaigns with it on and off.
    pub predecode: bool,
    /// Execute whole pre-compiled blocks (see [`crate::block`]).
    /// Semantically inert like `predecode`: block plans replay the
    /// interpreter bit for bit, the ops of a block that could tap a live
    /// fault's site are interpreted, and a live fault on a site every op
    /// taps keeps the whole block on the interpreter.
    pub block_exec: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            mem: MemConfig::default(),
            argus_mode: true,
            mul_cycles: 3,
            div_cycles: 32,
            predecode: true,
            block_exec: true,
        }
    }
}

/// Result of one [`Machine::step`].
// The commit record rides inline: it is all-POD since the operand/signature
// lists moved into fixed-size fields, and boxing it would put a heap
// allocation back on every step of the hot loop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// An instruction retired.
    Committed(CommitRecord),
    /// The pipeline spent a cycle stalled without retiring (only happens
    /// under an injected stall-control fault).
    Stalled,
    /// The machine has halted; no further progress.
    Halted,
}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Total cycles consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Whether the program reached `halt` (vs. hitting the cycle bound).
    pub halted: bool,
}

/// The OR1200-like core.
#[derive(Debug, Clone)]
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) regs: [u32; 32],
    pub(crate) parity: [bool; 32],
    pub(crate) flag: bool,
    pub(crate) pc: u32,
    pub(crate) mem: MemorySystem,
    pub(crate) cycle: u64,
    pub(crate) retired: u64,
    pub(crate) pending_branch: Option<u32>,
    pub(crate) delay_slot: bool,
    pub(crate) block_bits: BitStream,
    pub(crate) halted: bool,
    /// Pure decode memo — deliberately excluded from snapshots and
    /// fingerprints (a stale entry is re-derived, never wrong).
    pub(crate) predecode: Predecode,
    /// Pure block-plan cache (see [`crate::block`]) — excluded from
    /// snapshots and fingerprints for the same reason as `predecode`:
    /// every entry is validated against program bytes before use, so a
    /// stale entry is rebuilt, never wrong.
    pub(crate) plans: crate::block::PlanCache,
}

impl Machine {
    /// Creates a machine with zeroed architectural state and PC 0.
    ///
    /// In Argus mode, main memory is initialized with the protected
    /// encoding of zero (`payload = 0 ⊕ A = A`, even parity), the way real
    /// EDC memory ships with valid check bits — so reading a never-written
    /// word returns 0 with clean parity in both modes.
    pub fn new(cfg: MachineConfig) -> Self {
        let mut mem = MemorySystem::new(cfg.mem);
        if cfg.argus_mode {
            mem.memory_mut().fill_protected_zero();
        }
        Self {
            cfg,
            regs: [0; 32],
            parity: [false; 32],
            flag: false,
            pc: 0,
            mem,
            cycle: 0,
            retired: 0,
            pending_branch: None,
            delay_slot: false,
            block_bits: BitStream::new(),
            halted: false,
            predecode: Predecode::new(),
            plans: crate::block::PlanCache::new(),
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> MachineConfig {
        self.cfg
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter (entry point).
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Reads an architectural register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[usize::from(r)]
    }

    /// The whole architectural register file, `r0` first.
    pub fn regs(&self) -> &[u32; 32] {
        &self.regs
    }

    /// Writes an architectural register directly (setup code). Parity is
    /// kept consistent. Writes to `r0` are ignored.
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::ZERO {
            self.regs[usize::from(r)] = v;
            self.parity[usize::from(r)] = parity32(v);
        }
    }

    /// The compare flag.
    pub fn flag(&self) -> bool {
        self.flag
    }

    /// Total cycles elapsed.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Instructions retired.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether the machine has executed `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The memory system (stats, golden snapshots).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable memory system access.
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Loads instruction words at `base` (plain, never address-embedded).
    pub fn load_code(&mut self, base: u32, words: &[u32]) {
        self.mem.memory_mut().load_image(base, words);
    }

    /// Loads initial data words at `base`, using the protected encoding
    /// when the machine runs in Argus mode.
    pub fn load_data(&mut self, base: u32, words: &[u32]) {
        for (k, &w) in words.iter().enumerate() {
            let addr = base + 4 * k as u32;
            self.write_data_word(addr, w);
        }
    }

    /// Host-side data read that undoes the protection encoding.
    pub fn read_data_word(&self, addr: u32) -> u32 {
        let a = addr & !3;
        let (p, _t) = self.mem.memory().read(a).unwrap_or((0, false));
        if self.cfg.argus_mode {
            p ^ a
        } else {
            p
        }
    }

    /// Host-side data write using the protection encoding of this machine.
    pub fn write_data_word(&mut self, addr: u32, value: u32) {
        let a = addr & !3;
        let (payload, tag) = if self.cfg.argus_mode {
            (value ^ a, parity32(value))
        } else {
            argus_mem::protect::encode_plain(value)
        };
        self.mem
            .memory_mut()
            .write(a, payload, tag)
            .unwrap_or_else(|e| panic!("data write out of range: {e}"));
    }

    /// A digest of the architectural state (registers, flag, memory, PC).
    ///
    /// This is the workspace's one definition of "architecturally
    /// identical": the campaign engine compares it against the golden run
    /// for masked/unmasked classification, and the snapshot engine folds it
    /// into [`SnapshotState::state_fingerprint`]. It deliberately excludes
    /// microarchitectural state (cycle counts, cache arrays, parity tags) —
    /// two runs that differ only there are architecturally the same.
    ///
    /// Memory enters as `MainMemory::words_digest` — a page-combinable sum
    /// of per-page hashes — so [`Machine::state_digest_cached`] can serve
    /// the same value from the dirty-page stamps instead of walking the
    /// whole image. Both entry points agree bit for bit.
    pub fn state_digest(&self) -> u64 {
        self.state_digest_of(self.mem.memory().words_digest())
    }

    /// [`Machine::state_digest`] with the memory term served from the
    /// per-page hash cache: only pages written since their hash was last
    /// taken are rehashed. This is the campaign engine's per-injection
    /// path — on large machines the end-of-run digest would otherwise walk
    /// the full image for every fork.
    pub fn state_digest_cached(&mut self) -> u64 {
        let mem = self.mem.memory_mut().words_digest_cached();
        self.state_digest_of(mem)
    }

    fn state_digest_of(&self, mem_digest: u64) -> u64 {
        let mut h = crate::snapshot::Fnv64::new();
        for &r in &self.regs {
            h.mix(r as u64);
        }
        h.mix(self.flag as u64);
        h.mix(self.pc as u64);
        h.mix(mem_digest);
        h.finish()
    }

    /// A digest of the core state outside [`Machine::state_digest`] and the
    /// cycle and retired counters: register parity, the pending branch,
    /// the delay-slot bit, the signature buffer, the halted bit, and the
    /// cache arrays. With those counters, the architectural digest and the
    /// memory tags, it covers every field [`SnapshotState::state_fingerprint`]
    /// reads — the core's share of a reconvergence check.
    ///
    /// [`SnapshotState::state_fingerprint`]: crate::snapshot::SnapshotState::state_fingerprint
    pub fn microarch_digest(&self) -> u64 {
        let mut h = crate::snapshot::Fnv64::new();
        for &p in &self.parity {
            h.mix(p as u64);
        }
        h.mix(match self.pending_branch {
            Some(t) => 0x100_0000_0000 | t as u64,
            None => 0,
        });
        h.mix(self.delay_slot as u64);
        h.mix(self.block_bits.len() as u64);
        for &w in self.block_bits.words() {
            h.mix(w);
        }
        h.mix(self.halted as u64);
        let mut mix = |v: u64| h.mix(v);
        self.mem.fold_cache_state(&mut mix);
        h.finish()
    }

    /// Captures everything except main memory (the snapshot engine pages
    /// memory separately; see [`crate::snapshot::CoreState`]).
    pub fn capture_core(&self) -> crate::snapshot::CoreState {
        crate::snapshot::CoreState {
            cfg: self.cfg,
            regs: self.regs,
            parity: self.parity,
            flag: self.flag,
            pc: self.pc,
            cycle: self.cycle,
            retired: self.retired,
            pending_branch: self.pending_branch,
            delay_slot: self.delay_slot,
            block_bits: self.block_bits.clone(),
            halted: self.halted,
            caches: self.mem.capture_caches(),
        }
    }

    /// Restores state captured by [`Machine::capture_core`]. Main memory is
    /// untouched; the caller restores it through
    /// [`Machine::mem_mut`] (page-wise) or [`SnapshotState::restore_state`]
    /// (materialized).
    ///
    /// # Panics
    ///
    /// Panics if the state was captured from a machine with a different
    /// configuration.
    pub fn restore_core(&mut self, st: &crate::snapshot::CoreState) {
        assert_eq!(st.cfg, self.cfg, "snapshot captured under a different machine config");
        self.regs = st.regs;
        self.parity = st.parity;
        self.flag = st.flag;
        self.pc = st.pc;
        self.cycle = st.cycle;
        self.retired = st.retired;
        self.pending_branch = st.pending_branch;
        self.delay_slot = st.delay_slot;
        self.block_bits.clone_from(&st.block_bits);
        self.halted = st.halted;
        self.mem.restore_caches(&st.caches);
    }

    fn parse_block_slot(&self, k: usize) -> u32 {
        self.block_bits.extract(5 * k, 5)
    }

    fn wb_store(
        &mut self,
        bus_site: &'static str,
        rd: Reg,
        val: u32,
        inj: &mut FaultInjector,
    ) -> (Reg, u32, bool) {
        let par = parity32(val);
        let v = inj.tap32(bus_site, val);
        let rd_eff = Reg::from_field(inj.tap32(sites::RF_WADDR, rd.index() as u32));
        if rd_eff != Reg::ZERO {
            self.regs[usize::from(rd_eff)] = v;
            self.parity[usize::from(rd_eff)] = par;
        }
        (rd_eff, v, par)
    }

    fn read_operand(&mut self, port: usize, r: Reg, inj: &mut FaultInjector) -> Operand {
        let raddr_site = if port == 0 { sites::RF_RADDR_A } else { sites::RF_RADDR_B };
        let idx = Reg::from_field(inj.tap32(raddr_site, r.index() as u32));
        let stored = self.regs[usize::from(idx)];
        let cell_site = RF_CELL_SITES[usize::from(idx)];
        let was_transient = inj.has_transient_on(cell_site);
        let v0 = inj.tap32(cell_site, stored);
        if v0 != stored && was_transient && idx != Reg::ZERO {
            // A transient upset of a storage cell persists until overwritten.
            self.regs[usize::from(idx)] = v0;
        }
        let par = self.parity[usize::from(idx)];
        let bus_site = if port == 0 { sites::EX_OPA_BUS } else { sites::EX_OPB_BUS };
        let v1 = inj.tap32(bus_site, v0);
        Operand { reg: Some(idx), value: v1, parity: par }
    }

    /// Executes one instruction (or one stalled cycle) and returns what
    /// happened. Repeated calls after `halt` return [`StepOutcome::Halted`].
    pub fn step(&mut self, inj: &mut FaultInjector) -> StepOutcome {
        if self.halted {
            return StepOutcome::Halted;
        }
        inj.set_cycle(self.cycle);
        if !inj.is_quiescent() {
            self.plans.armed_steps += 1;
        }
        if !inj.tap1(sites::CTL_STALL_RELEASE, true) {
            self.cycle += 1;
            return StepOutcome::Stalled;
        }

        let pc = self.pc;
        let (raw0, fetch_cycles) = self.mem.fetch(pc);
        let raw = inj.tap32(sites::IF_IBUS, raw0);
        // Memo fast path: unless a fault sits on an ID_OPC_* site, every
        // decode tap is an identity function, so the three decode taps (FU,
        // sub-checker, SHS) and the embedded-bit extraction collapse to one
        // lookup keyed by the (already tapped) fetch word. A decode-site
        // fault takes the exact original tap sequence.
        let (instr, op_subchk, op_shs, embedded_bits);
        if self.cfg.predecode
            && (inj.is_quiescent() || !self.plans.fault_sites(inj).intersects(TapSet::DECODE))
        {
            let (i, e) = self.predecode.lookup(raw);
            (instr, op_subchk, op_shs, embedded_bits) = (i, i, i, e);
        } else {
            let trunk = inj.tap32(sites::ID_OPC_TRUNK, raw);
            instr = decode(inj.tap32(sites::ID_OPC_FU, trunk));
            op_subchk = decode(inj.tap32(sites::ID_OPC_SUBCHK, trunk));
            op_shs = decode(inj.tap32(sites::ID_OPC_SHS, trunk));
            // Signature extraction (Argus assist logic on the fetch path)
            // works from the raw fetched word, not the faulted decode trunk.
            embedded_bits = argus_isa::encode::embedded_bits_packed(raw);
        }
        self.block_bits.push_packed(embedded_bits);

        let in_delay_slot = self.delay_slot;
        self.delay_slot = false;
        let mut block_end = in_delay_slot;

        let srcs = instr.sources();
        let mut operands = Operands::none();
        for (k, &r) in srcs.iter().enumerate() {
            let op = self.read_operand(k.min(1), r, inj);
            operands.push(op);
        }
        let opv = |k: usize| operands.get(k).map(|o| o.value).unwrap_or(0);

        let mut result = None;
        let mut aux_result = None;
        let mut wb = None;
        let mut memacc = None;
        let mut branch = None;
        let mut flag_write = None;
        let mut extra_cycles = 0u32;
        let mut mem_cycles = 0u32;
        let mut new_pending: Option<u32> = None;
        let argus = self.cfg.argus_mode;

        match instr {
            Instr::Alu { op, rd, .. } => {
                let r = alu::execute(op, opv(0), opv(1), inj);
                result = Some(r);
                wb = Some(self.wb_store(sites::EX_RESULT_BUS, rd, r, inj));
            }
            Instr::AluImm { op, rd, imm, .. } => {
                let b_eff = exec::alu_imm_operand(op, imm);
                let r = alu::execute(exec::alu_imm_base(op), opv(0), b_eff, inj);
                result = Some(r);
                wb = Some(self.wb_store(sites::EX_RESULT_BUS, rd, r, inj));
            }
            Instr::ShiftImm { op, rd, sh, .. } => {
                let r = alu::execute_shift_imm(op, opv(0), sh, inj);
                result = Some(r);
                wb = Some(self.wb_store(sites::EX_RESULT_BUS, rd, r, inj));
            }
            Instr::Ext { kind, rd, .. } => {
                let r = alu::execute_ext(kind, opv(0), inj);
                result = Some(r);
                wb = Some(self.wb_store(sites::EX_RESULT_BUS, rd, r, inj));
            }
            Instr::Movhi { rd, imm } => {
                let r = (imm as u32) << 16;
                result = Some(r);
                wb = Some(self.wb_store(sites::EX_RESULT_BUS, rd, r, inj));
            }
            Instr::MulDiv { op, rd, .. } => {
                let r = muldiv::execute(op, opv(0), opv(1), inj);
                result = Some(r.value);
                aux_result = Some(r.aux);
                extra_cycles = if op.is_div() {
                    self.cfg.div_cycles.saturating_sub(1)
                } else {
                    self.cfg.mul_cycles.saturating_sub(1)
                };
                wb = Some(self.wb_store(sites::EX_RESULT_BUS, rd, r.value, inj));
            }
            Instr::SetFlag { cond, .. } => {
                let c = inj.tap1(sites::CMP_FLAG_OUT, cond.eval(opv(0), opv(1)));
                self.flag = c;
                flag_write = Some(c);
            }
            Instr::SetFlagImm { cond, imm, .. } => {
                let b = argus_sim::bits::sign_extend(imm as u32, 16);
                let c = inj.tap1(sites::CMP_FLAG_OUT, cond.eval(opv(0), b));
                self.flag = c;
                flag_write = Some(c);
            }
            Instr::Branch { taken_if, off } => {
                let f = inj.tap1(sites::FLAG_READ, self.flag);
                let taken = inj.tap1(sites::BR_TAKEN, f == taken_if);
                let target =
                    taken.then(|| inj.tap32(sites::BR_TARGET, pc.wrapping_add((off as u32) << 2)));
                new_pending = target;
                branch = Some(BranchInfo {
                    conditional: true,
                    taken,
                    flag_used: Some(f),
                    target,
                    indirect_dcs: None,
                });
            }
            Instr::Jump { link, off } => {
                let target = inj.tap32(sites::BR_TARGET, pc.wrapping_add((off as u32) << 2));
                new_pending = Some(target);
                if link {
                    let v = self.link_value(pc, 1, inj);
                    result = Some(v);
                    wb = Some(self.wb_store(sites::EX_RESULT_BUS, Reg::LR, v, inj));
                }
                branch = Some(BranchInfo {
                    conditional: false,
                    taken: true,
                    flag_used: None,
                    target: Some(target),
                    indirect_dcs: None,
                });
            }
            Instr::JumpReg { link, .. } => {
                let v = opv(0);
                let (addr, dcs) = if argus { split_indirect_target(v) } else { (v, 0) };
                let target = inj.tap32(sites::BR_TARGET, addr);
                new_pending = Some(target);
                if link {
                    let lv = self.link_value(pc, 0, inj);
                    result = Some(lv);
                    wb = Some(self.wb_store(sites::EX_RESULT_BUS, Reg::LR, lv, inj));
                }
                branch = Some(BranchInfo {
                    conditional: false,
                    taken: true,
                    flag_used: None,
                    target: Some(target),
                    indirect_dcs: argus.then_some(dcs),
                });
            }
            Instr::Load { size, signed, off, rd, .. } => {
                let base = opv(0);
                let addr = alu::execute_addr(base, off, inj);
                let ali = exec::align_addr(addr, size);
                let word_addr = ali & !3;
                let a_xor =
                    if argus { inj.tap32(sites::LSU_ADDR_XOR, word_addr) } else { word_addr };
                let a_row = inj.tap32(sites::DMEM_ROW_ADDR, word_addr);
                let fallback = self.cfg.mem.hit_cycles + self.cfg.mem.miss_penalty;
                let (payload, tag, lat) =
                    self.mem.load_word(a_row).unwrap_or((u32::MAX, false, fallback));
                let d = if argus { payload ^ a_xor } else { payload };
                let parity_ok = !argus || parity32(d) == tag;
                let v0 = exec::align_load(d, ali & 3, size, signed);
                let v1 = inj.tap32(sites::LSU_ALIGN_OUT, v0);
                mem_cycles = lat.saturating_sub(1);
                wb = Some(self.wb_store(sites::LSU_LD_BUS, rd, v1, inj));
                memacc = Some(MemAccess {
                    is_store: false,
                    size,
                    signed,
                    base,
                    offset: off,
                    addr,
                    word_addr_xor: a_xor,
                    word_addr_row: a_row,
                    raw_word: d,
                    parity_ok,
                    value: v1,
                    store_merged: None,
                });
            }
            Instr::Store { size, off, .. } => {
                let base = opv(0);
                let data0 = opv(1);
                let carried_par = operands.get(1).map(|o| o.parity).unwrap_or(false);
                let addr = alu::execute_addr(base, off, inj);
                let ali = exec::align_addr(addr, size);
                let word_addr = ali & !3;
                let a_xor =
                    if argus { inj.tap32(sites::LSU_ADDR_XOR, word_addr) } else { word_addr };
                let a_row = inj.tap32(sites::DMEM_ROW_ADDR, word_addr);
                let data1 = inj.tap32(sites::LSU_ST_BUS, data0);
                let (payload, tag, merged_opt, raw_word) =
                    if matches!(size, argus_isa::instr::MemSize::Word) {
                        let payload = if argus { data1 ^ a_xor } else { data1 };
                        let tag = if argus { carried_par } else { parity32(data1) };
                        (payload, tag, None, 0)
                    } else {
                        // Read-modify-write: recover the old word, merge the
                        // sub-word, regenerate parity locally (the paper's
                        // residual sub-word store vulnerability).
                        let (oldp, _oldt) = self.mem.memory().read(a_row).unwrap_or((0, false));
                        let old_d = if argus { oldp ^ a_xor } else { oldp };
                        let merged = exec::merge_store(old_d, ali & 3, size, data1);
                        let m = inj.tap32(sites::LSU_ST_MERGE, merged);
                        let payload = if argus { m ^ a_xor } else { m };
                        (payload, parity32(m), Some(m), old_d)
                    };
                let fallback = self.cfg.mem.hit_cycles + self.cfg.mem.miss_penalty;
                let lat = self.mem.store_word_tagged(a_row, payload, tag).unwrap_or(fallback);
                mem_cycles = lat.saturating_sub(1);
                memacc = Some(MemAccess {
                    is_store: true,
                    size,
                    signed: false,
                    base,
                    offset: off,
                    addr,
                    word_addr_xor: a_xor,
                    word_addr_row: a_row,
                    raw_word,
                    parity_ok: true,
                    value: data1,
                    store_merged: merged_opt,
                });
            }
            Instr::Nop => {}
            Instr::Sig { eob, .. } => {
                if eob {
                    block_end = true;
                }
            }
            Instr::Halt => {
                self.halted = true;
                block_end = true;
            }
        }

        // Resolve the next PC: a pending branch applies after its delay slot.
        let seq = pc.wrapping_add(4);
        let next = if in_delay_slot { self.pending_branch.take().unwrap_or(seq) } else { seq };
        if instr.is_cti() {
            self.pending_branch = new_pending;
            self.delay_slot = true;
        }
        // The PC register has no bits [1:0]; mask after the tap so faults
        // on nonexistent low wires are naturally masked.
        let next_pc = inj.tap32(sites::IF_PC_NEXT, next) & !3;
        self.pc = next_pc;

        let cycles = fetch_cycles + mem_cycles + extra_cycles;
        self.cycle += cycles as u64;
        self.retired += 1;

        let rec = CommitRecord {
            pc,
            raw,
            instr,
            op_subchk,
            op_shs,
            operands,
            result,
            aux_result,
            wb,
            mem: memacc,
            branch,
            flag_write,
            next_pc,
            in_delay_slot,
            block_end,
            embedded_bits,
            cycles,
            cycle: self.cycle,
        };
        if block_end {
            self.block_bits.clear();
        }
        StepOutcome::Committed(rec)
    }

    fn link_value(&mut self, pc: u32, slot: usize, inj: &mut FaultInjector) -> u32 {
        let ret = pc.wrapping_add(8);
        if self.cfg.argus_mode {
            let dcs = inj.tap32(sites::LNK_DCS_MUX, self.parse_block_slot(slot)) & 31;
            let dcs = inj.tap32(sites::SIG_EXTRACT, dcs) & 31;
            pack_indirect_target(ret & INDIRECT_ADDR_MASK, dcs)
        } else {
            ret
        }
    }

    /// The static set of fault sites one [`Machine::step`] of `instr` can
    /// tap — a superset of the taps it actually makes (a branch's target
    /// adder counts even when the branch falls through). Mirrors `step`
    /// site by site; the equivalence suite holds the two together.
    ///
    /// - Every op taps stall release, fetch, the decode trunk and its three
    ///   branches, and next-PC.
    /// - Each source register taps its read-port address, its storage cell
    ///   and its operand bus.
    /// - The op class adds its unit: ALU sub-unit, multiplier/divider,
    ///   compare, branch/flag, link-DCS assist, LSU, and the result and
    ///   write-port sites of a writeback.
    pub fn op_taps(instr: &Instr, argus_mode: bool) -> TapSet {
        use argus_isa::instr::{AluOp, MemSize};
        // Every set is a `const`: site names resolve at compile time, so
        // building a plan's tap set costs a few ORs per op.
        const PORTS: [TapSet; 2] = [
            TapSet::of(&[sites::RF_RADDR_A, sites::EX_OPA_BUS]),
            TapSet::of(&[sites::RF_RADDR_B, sites::EX_OPB_BUS]),
        ];
        const WRITEBACK: TapSet = TapSet::of(&[sites::EX_RESULT_BUS, sites::RF_WADDR]);
        const ADDER: TapSet = TapSet::of(&[sites::ALU_ADDER_OUT]);
        const LOGIC: TapSet = TapSet::of(&[sites::ALU_LOGIC_OUT]);
        const SHIFT: TapSet = TapSet::of(&[sites::ALU_SHIFT_OUT]);
        const MUL: TapSet = TapSet::of(&[sites::MUL_LO, sites::MUL_HI]);
        const DIV: TapSet = TapSet::of(&[sites::DIV_Q, sites::DIV_R]);
        const COMPARE: TapSet = TapSet::of(&[sites::CMP_FLAG_OUT]);
        const BRANCH: TapSet = TapSet::of(&[sites::FLAG_READ, sites::BR_TAKEN, sites::BR_TARGET]);
        const JUMP: TapSet = TapSet::of(&[sites::BR_TARGET]);
        const LINK_DCS: TapSet = TapSet::of(&[sites::LNK_DCS_MUX, sites::SIG_EXTRACT]);
        const MEM_ADDR: TapSet =
            TapSet::of(&[sites::ALU_ADDER_OUT, sites::LSU_ADDR, sites::DMEM_ROW_ADDR]);
        const ADDR_XOR: TapSet = TapSet::of(&[sites::LSU_ADDR_XOR]);
        const LOAD: TapSet =
            TapSet::of(&[sites::LSU_ALIGN_OUT, sites::LSU_LD_BUS, sites::RF_WADDR]);
        const STORE: TapSet = TapSet::of(&[sites::LSU_ST_BUS]);
        const SUBWORD_STORE: TapSet = TapSet::of(&[sites::LSU_ST_BUS, sites::LSU_ST_MERGE]);

        let alu_unit = |op: AluOp| match op {
            AluOp::Add | AluOp::Sub => ADDER,
            AluOp::And | AluOp::Or | AluOp::Xor => LOGIC,
            AluOp::Sll | AluOp::Srl | AluOp::Sra => SHIFT,
        };
        let link = |link: bool| match (link, argus_mode) {
            (false, _) => TapSet::EMPTY,
            (true, false) => WRITEBACK,
            (true, true) => WRITEBACK.union(LINK_DCS),
        };
        let mem_addr = if argus_mode { MEM_ADDR.union(ADDR_XOR) } else { MEM_ADDR };

        let mut taps = TapSet::EVERY_OP;
        for (k, r) in instr.sources().iter().enumerate() {
            taps = taps.union(PORTS[k.min(1)]).union(TapSet::cell(r.index()));
        }
        taps.union(match *instr {
            Instr::Alu { op, .. } => alu_unit(op).union(WRITEBACK),
            Instr::AluImm { op, .. } => alu_unit(exec::alu_imm_base(op)).union(WRITEBACK),
            Instr::ShiftImm { .. } | Instr::Ext { .. } => SHIFT.union(WRITEBACK),
            Instr::Movhi { .. } => WRITEBACK,
            Instr::MulDiv { op, .. } => if op.is_div() { DIV } else { MUL }.union(WRITEBACK),
            Instr::SetFlag { .. } | Instr::SetFlagImm { .. } => COMPARE,
            Instr::Branch { .. } => BRANCH,
            Instr::Jump { link: l, .. } | Instr::JumpReg { link: l, .. } => JUMP.union(link(l)),
            Instr::Load { .. } => mem_addr.union(LOAD),
            Instr::Store { size: MemSize::Word, .. } => mem_addr.union(STORE),
            Instr::Store { .. } => mem_addr.union(SUBWORD_STORE),
            Instr::Nop | Instr::Sig { .. } | Instr::Halt => TapSet::EMPTY,
        })
    }

    /// Runs until `halt` or until `max_cycles` elapse, discarding commit
    /// records (baseline timing runs).
    ///
    /// When [`MachineConfig::block_exec`] is on, quiescent stretches run
    /// whole pre-compiled blocks at a time (see [`crate::block`]); the
    /// one-step interpreter handles everything else. The two paths are
    /// bit-identical, including the exact cycle the run stops at.
    pub fn run_to_halt(&mut self, inj: &mut FaultInjector, max_cycles: u64) -> RunResult {
        while !self.halted && self.cycle < max_cycles {
            if self.try_block_exec(inj, max_cycles).is_some() {
                continue;
            }
            match self.step(inj) {
                StepOutcome::Halted => break,
                StepOutcome::Committed(_) | StepOutcome::Stalled => {}
            }
        }
        RunResult { cycles: self.cycle, retired: self.retired, halted: self.halted }
    }

    /// Summarizes the machine's current run state without stepping it.
    ///
    /// Callers that drive [`Machine::step`] themselves use this to classify
    /// how the run ended (`halted` distinguishes a clean `halt` from a
    /// cycle-budget timeout) with the same semantics as
    /// [`Machine::run_to_halt`].
    pub fn run_result(&self) -> RunResult {
        RunResult { cycles: self.cycle, retired: self.retired, halted: self.halted }
    }
}

impl crate::snapshot::SnapshotState for Machine {
    type State = crate::snapshot::MachineState;

    fn capture_state(&self) -> Self::State {
        crate::snapshot::MachineState {
            core: self.capture_core(),
            mem_words: self.mem.memory().words().to_vec(),
            mem_tags: self.mem.memory().tags().to_vec(),
        }
    }

    fn restore_state(&mut self, state: &Self::State) {
        self.restore_core(&state.core);
        self.mem.memory_mut().restore_words(0, &state.mem_words, &state.mem_tags);
    }

    fn state_fingerprint(&self) -> u64 {
        self.fingerprint_of(self.state_digest())
    }
}

impl Machine {
    /// [`SnapshotState::state_fingerprint`] with its architectural term
    /// served by [`Machine::state_digest_cached`]: only pages written since
    /// their hash was last taken are rehashed, and the value is the same
    /// bit for bit.
    ///
    /// [`SnapshotState::state_fingerprint`]: crate::snapshot::SnapshotState::state_fingerprint
    pub fn state_fingerprint_cached(&mut self) -> u64 {
        let digest = self.state_digest_cached();
        self.fingerprint_of(digest)
    }

    /// The one fingerprint body: `state_digest` (the campaign's masking
    /// definition) first, then every microarchitectural bit a fork must
    /// reproduce.
    fn fingerprint_of(&self, state_digest: u64) -> u64 {
        let mut h = crate::snapshot::Fnv64::new();
        h.mix(state_digest);
        for &p in &self.parity {
            h.mix(p as u64);
        }
        h.mix(self.cycle);
        h.mix(self.retired);
        h.mix(match self.pending_branch {
            Some(t) => 0x100_0000_0000 | t as u64,
            None => 0,
        });
        h.mix(self.delay_slot as u64);
        // Signature buffer: length plus packed 64-bit words (tail bits are
        // zero by construction, so equal streams mix equal values).
        h.mix(self.block_bits.len() as u64);
        for &w in self.block_bits.words() {
            h.mix(w);
        }
        h.mix(self.halted as u64);
        // One mix per parity tag, in word order. Set tags are rare, so a
        // page with none (found by an OR fold, which vectorizes) mixes
        // its zeros in one step.
        for page in self.mem.memory().tags().chunks(DIRTY_PAGE_WORDS) {
            if page.iter().fold(false, |any, &t| any | t) {
                for &t in page {
                    h.mix(t as u64);
                }
            } else {
                h.mix_zeros(page.len() as u64);
            }
        }
        let mut mix = |v: u64| h.mix(v);
        self.mem.fold_cache_state(&mut mix);
        h.finish()
    }
}

/// Extension trait used internally to classify mul/div ops.
trait MulDivExt {
    fn is_div(&self) -> bool;
}

impl MulDivExt for argus_isa::instr::MulDivOp {
    fn is_div(&self) -> bool {
        matches!(self, argus_isa::instr::MulDivOp::Div | argus_isa::instr::MulDivOp::Divu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_isa::encode::encode;
    use argus_isa::instr::{AluImmOp, AluOp, Cond, MemSize, MulDivOp};
    use argus_isa::reg::r;

    fn run_program(prog: &[Instr], argus_mode: bool) -> Machine {
        let words: Vec<u32> = prog.iter().map(encode).collect();
        let mut m = Machine::new(MachineConfig { argus_mode, ..MachineConfig::default() });
        m.load_code(0, &words);
        let mut inj = FaultInjector::none();
        let res = m.run_to_halt(&mut inj, 1_000_000);
        assert!(res.halted, "program must halt");
        m
    }

    #[test]
    fn arithmetic_program() {
        let m = run_program(
            &[
                Instr::AluImm { op: AluImmOp::Addi, rd: r(3), ra: Reg::ZERO, imm: 7 },
                Instr::AluImm { op: AluImmOp::Addi, rd: r(4), ra: Reg::ZERO, imm: 5 },
                Instr::Alu { op: AluOp::Add, rd: r(5), ra: r(3), rb: r(4) },
                Instr::MulDiv { op: MulDivOp::Mul, rd: r(6), ra: r(5), rb: r(4) },
                Instr::Halt,
            ],
            false,
        );
        assert_eq!(m.reg(r(5)), 12);
        assert_eq!(m.reg(r(6)), 60);
        assert_eq!(m.retired(), 5);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let m = run_program(
            &[
                Instr::AluImm { op: AluImmOp::Addi, rd: Reg::ZERO, ra: Reg::ZERO, imm: 9 },
                Instr::Halt,
            ],
            false,
        );
        assert_eq!(m.reg(Reg::ZERO), 0);
    }

    #[test]
    fn branch_with_delay_slot() {
        // r3 = 1; if flag (1==1) branch over the poison; delay slot still runs.
        let m = run_program(
            &[
                Instr::AluImm { op: AluImmOp::Addi, rd: r(3), ra: Reg::ZERO, imm: 1 },
                Instr::SetFlagImm { cond: Cond::Eq, ra: r(3), imm: 1 },
                Instr::Branch { taken_if: true, off: 3 }, // to pc+12 = halt
                Instr::AluImm { op: AluImmOp::Addi, rd: r(4), ra: Reg::ZERO, imm: 42 }, // delay slot
                Instr::AluImm { op: AluImmOp::Addi, rd: r(5), ra: Reg::ZERO, imm: 99 }, // skipped
                Instr::Halt,
            ],
            false,
        );
        assert_eq!(m.reg(r(4)), 42, "delay slot must execute");
        assert_eq!(m.reg(r(5)), 0, "branch target skips this");
    }

    #[test]
    fn untaken_branch_falls_through() {
        let m = run_program(
            &[
                Instr::SetFlagImm { cond: Cond::Eq, ra: Reg::ZERO, imm: 5 }, // false
                Instr::Branch { taken_if: true, off: 3 },
                Instr::Nop,
                Instr::AluImm { op: AluImmOp::Addi, rd: r(5), ra: Reg::ZERO, imm: 7 },
                Instr::Halt,
            ],
            false,
        );
        assert_eq!(m.reg(r(5)), 7);
    }

    #[test]
    fn jal_and_return_baseline() {
        // jal to a function at word 4 that adds and returns via jr r9.
        let m = run_program(
            &[
                Instr::Jump { link: true, off: 4 }, // to word 4
                Instr::Nop,                         // delay slot
                Instr::AluImm { op: AluImmOp::Addi, rd: r(6), ra: r(5), imm: 1 },
                Instr::Halt,
                // fn:
                Instr::AluImm { op: AluImmOp::Addi, rd: r(5), ra: Reg::ZERO, imm: 10 },
                Instr::JumpReg { link: false, rb: Reg::LR },
                Instr::Nop, // delay slot
            ],
            false,
        );
        assert_eq!(m.reg(r(5)), 10);
        assert_eq!(m.reg(r(6)), 11, "returned to pc+8 and continued");
        assert_eq!(m.reg(Reg::LR), 8);
    }

    #[test]
    fn memory_roundtrip_word_and_subword() {
        let m = run_program(
            &[
                Instr::Movhi { rd: r(2), imm: 0x0001 }, // base 0x10000
                Instr::AluImm { op: AluImmOp::Addi, rd: r(3), ra: Reg::ZERO, imm: 0x1234 },
                Instr::Store { size: MemSize::Word, ra: r(2), rb: r(3), off: 0 },
                Instr::Store { size: MemSize::Byte, ra: r(2), rb: r(3), off: 1 },
                Instr::Load { size: MemSize::Word, signed: false, rd: r(4), ra: r(2), off: 0 },
                Instr::Load { size: MemSize::Byte, signed: false, rd: r(5), ra: r(2), off: 1 },
                Instr::Load { size: MemSize::Half, signed: true, rd: r(6), ra: r(2), off: 0 },
                Instr::Halt,
            ],
            true,
        );
        assert_eq!(m.reg(r(4)), 0x0000_3434, "byte store merged into word");
        assert_eq!(m.reg(r(5)), 0x34);
        assert_eq!(m.reg(r(6)), 0x3434);
    }

    #[test]
    fn protected_and_plain_memory_agree_architecturally() {
        for mode in [false, true] {
            let m = run_program(
                &[
                    Instr::AluImm { op: AluImmOp::Addi, rd: r(3), ra: Reg::ZERO, imm: 0x77 },
                    Instr::Store { size: MemSize::Word, ra: Reg::ZERO, rb: r(3), off: 0x100 },
                    Instr::Load {
                        size: MemSize::Word,
                        signed: false,
                        rd: r(4),
                        ra: Reg::ZERO,
                        off: 0x100,
                    },
                    Instr::Halt,
                ],
                mode,
            );
            assert_eq!(m.reg(r(4)), 0x77, "mode {mode}");
        }
    }

    #[test]
    fn timing_charges_cache_misses_and_muldiv() {
        let mut m = Machine::new(MachineConfig::default());
        m.load_code(
            0,
            &[
                encode(&Instr::Nop),
                encode(&Instr::Nop),
                encode(&Instr::MulDiv { op: MulDivOp::Div, rd: r(3), ra: r(1), rb: r(2) }),
                encode(&Instr::Halt),
            ],
        );
        let mut inj = FaultInjector::none();
        let res = m.run_to_halt(&mut inj, 10_000);
        // First fetch misses (21), nop 1, div fetch hit 1 + 31 extra, halt 1.
        assert_eq!(res.cycles, 21 + 1 + 32 + 1);
        assert_eq!(res.retired, 4);
    }

    #[test]
    fn div_by_zero_defined() {
        let m = run_program(
            &[
                Instr::AluImm { op: AluImmOp::Addi, rd: r(3), ra: Reg::ZERO, imm: 9 },
                Instr::MulDiv { op: MulDivOp::Divu, rd: r(4), ra: r(3), rb: Reg::ZERO },
                Instr::Halt,
            ],
            false,
        );
        assert_eq!(m.reg(r(4)), u32::MAX);
    }

    #[test]
    fn state_digest_distinguishes_states() {
        let a = run_program(
            &[Instr::AluImm { op: AluImmOp::Addi, rd: r(3), ra: Reg::ZERO, imm: 1 }, Instr::Halt],
            false,
        );
        let b = run_program(
            &[Instr::AluImm { op: AluImmOp::Addi, rd: r(3), ra: Reg::ZERO, imm: 2 }, Instr::Halt],
            false,
        );
        assert_ne!(a.state_digest(), b.state_digest());
    }

    mod cached_fingerprint {
        use super::*;
        use crate::snapshot::SnapshotState;
        use proptest::prelude::*;

        proptest! {
            /// The cached fingerprint equals the pure one after arbitrary
            /// word and tag writes, queried at arbitrary points in between
            /// (a query refreshes the page hashes later writes invalidate).
            /// A 64 KiB memory keeps each pure fingerprint cheap.
            #[test]
            fn matches_pure_after_writes(
                writes in prop::collection::vec(
                    (0u32..(1 << 14), any::<u32>(), any::<bool>(), any::<bool>()),
                    0..64,
                ),
            ) {
                let mut cfg = MachineConfig::default();
                cfg.mem.mem_bytes = 1 << 16;
                let mut m = Machine::new(cfg);
                m.load_code(0, &[encode(&Instr::Halt)]);
                prop_assert!(m.run_to_halt(&mut FaultInjector::none(), 1_000).halted);
                prop_assert_eq!(m.state_fingerprint_cached(), m.state_fingerprint());
                for (word, payload, tag, query) in writes {
                    m.mem_mut().memory_mut().write(4 * word, payload, tag).unwrap();
                    if query {
                        prop_assert_eq!(m.state_fingerprint_cached(), m.state_fingerprint());
                    }
                }
                prop_assert_eq!(m.state_fingerprint_cached(), m.state_fingerprint());
            }
        }
    }

    mod fingerprint_oracle {
        use super::*;
        use crate::snapshot::{Fnv64, SnapshotState};
        use argus_sim::rng::SplitMix64;

        /// `state_fingerprint` by its definition, with one `mix` per tag.
        fn per_tag_reference(m: &Machine) -> u64 {
            let mut h = Fnv64::new();
            h.mix(m.state_digest());
            for &p in &m.parity {
                h.mix(p as u64);
            }
            h.mix(m.cycle);
            h.mix(m.retired);
            h.mix(match m.pending_branch {
                Some(t) => 0x100_0000_0000 | t as u64,
                None => 0,
            });
            h.mix(m.delay_slot as u64);
            h.mix(m.block_bits.len() as u64);
            for &w in m.block_bits.words() {
                h.mix(w);
            }
            h.mix(m.halted as u64);
            for &t in m.mem.memory().tags() {
                h.mix(t as u64);
            }
            let mut mix = |v: u64| h.mix(v);
            m.mem.fold_cache_state(&mut mix);
            h.finish()
        }

        /// A fresh machine over `words` words of memory.
        fn machine(words: usize) -> Machine {
            let mut cfg = MachineConfig::default();
            cfg.mem.mem_bytes = 4 * words as u32;
            Machine::new(cfg)
        }

        fn set_tag(m: &mut Machine, word: usize) {
            m.mem_mut().memory_mut().write(4 * word as u32, word as u32, true).unwrap();
        }

        fn check(m: &Machine, what: &str) {
            assert_eq!(m.state_fingerprint(), per_tag_reference(m), "{what}");
        }

        #[test]
        fn mix_zeros_equals_repeated_zero_mixes() {
            let mut stepped = Fnv64::new();
            stepped.mix(0x1234_5678_9abc_def0);
            let start = stepped.clone();
            for n in 0..=2049 {
                let mut jumped = start.clone();
                jumped.mix_zeros(n);
                assert_eq!(jumped.finish(), stepped.finish(), "n = {n}");
                stepped.mix(0);
            }
        }

        #[test]
        fn all_clear_tags_match_the_reference() {
            let m = machine(4 * DIRTY_PAGE_WORDS);
            assert!(!m.mem().memory().tags().contains(&true));
            check(&m, "all clear");
        }

        #[test]
        fn a_set_tag_at_either_end_of_a_page_matches_the_reference() {
            let base = DIRTY_PAGE_WORDS;
            for words in
                [&[base][..], &[base + DIRTY_PAGE_WORDS - 1], &[base, base + DIRTY_PAGE_WORDS - 1]]
            {
                let mut m = machine(3 * DIRTY_PAGE_WORDS);
                for &w in words {
                    set_tag(&mut m, w);
                }
                check(&m, &format!("tags at {words:?}"));
            }
        }

        #[test]
        fn random_dirty_pages_match_the_reference() {
            let mut rng = SplitMix64::new(0xF1F0);
            let pages = 16;
            for round in 0..8 {
                let mut m = machine(pages * DIRTY_PAGE_WORDS);
                for _ in 0..rng.below(40) {
                    let word = rng.below((pages * DIRTY_PAGE_WORDS) as u64) as u32;
                    let tag = rng.below(2) == 1;
                    m.mem_mut().memory_mut().write(4 * word, rng.next_u32(), tag).unwrap();
                }
                check(&m, &format!("round {round}"));
            }
        }

        #[test]
        fn a_partial_last_page_matches_the_reference() {
            let words = 2 * DIRTY_PAGE_WORDS + 5;
            let m = machine(words);
            check(&m, "partial, all clear");
            for word in [words - 5, words - 1, 2 * DIRTY_PAGE_WORDS - 1] {
                let mut m = machine(words);
                set_tag(&mut m, word);
                check(&m, &format!("partial, tag at {word}"));
            }
        }
    }

    #[test]
    fn microarch_digest_sees_what_state_digest_ignores() {
        let a = run_program(&[Instr::Halt], false);
        let mut b = a.clone();
        b.parity[3] = !b.parity[3];
        assert_eq!(a.state_digest(), b.state_digest());
        assert_ne!(a.microarch_digest(), b.microarch_digest());
        let mut c = a.clone();
        c.mem.fetch(0x4000);
        assert_eq!(a.state_digest(), c.state_digest());
        assert_ne!(a.microarch_digest(), c.microarch_digest(), "cache arrays");
    }

    #[test]
    fn capture_restore_resumes_bit_identically() {
        use crate::snapshot::SnapshotState;
        let words: Vec<u32> = [
            Instr::AluImm { op: AluImmOp::Addi, rd: r(3), ra: Reg::ZERO, imm: 40 },
            Instr::AluImm { op: AluImmOp::Addi, rd: r(4), ra: Reg::ZERO, imm: 7 },
            Instr::MulDiv { op: MulDivOp::Div, rd: r(5), ra: r(3), rb: r(4) },
            Instr::Store { size: MemSize::Word, ra: Reg::ZERO, rb: r(5), off: 0x200 },
            Instr::Load { size: MemSize::Word, signed: false, rd: r(6), ra: Reg::ZERO, off: 0x200 },
            Instr::Halt,
        ]
        .iter()
        .map(encode)
        .collect();

        let mut a = Machine::new(MachineConfig::default());
        a.load_code(0, &words);
        let mut inj = FaultInjector::none();
        for _ in 0..2 {
            a.step(&mut inj);
        }
        let st = a.capture_state();

        let mut b = Machine::new(MachineConfig::default());
        b.restore_state(&st);
        assert_eq!(a.state_fingerprint(), b.state_fingerprint(), "restore reproduces the state");
        assert_eq!(a.state_digest(), b.state_digest(), "digest stable across save/restore");

        // Step both to completion; they must stay in lockstep.
        loop {
            let ra = a.step(&mut FaultInjector::none());
            let rb = b.step(&mut FaultInjector::none());
            assert_eq!(ra, rb, "forked run diverged");
            assert_eq!(a.state_fingerprint(), b.state_fingerprint());
            if ra == StepOutcome::Halted {
                break;
            }
        }
        assert_eq!(a.cycle(), b.cycle());
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    #[should_panic(expected = "different machine config")]
    fn restore_rejects_config_mismatch() {
        let a = Machine::new(MachineConfig::default());
        let st = a.capture_core();
        let mut b = Machine::new(MachineConfig { argus_mode: false, ..MachineConfig::default() });
        b.restore_core(&st);
    }

    #[test]
    fn run_bound_stops_infinite_loop() {
        let mut m = Machine::new(MachineConfig::default());
        // j 0 (self-loop) with nop in delay slot.
        m.load_code(0, &[encode(&Instr::Jump { link: false, off: 0 }), encode(&Instr::Nop)]);
        let mut inj = FaultInjector::none();
        let res = m.run_to_halt(&mut inj, 5_000);
        assert!(!res.halted);
        assert!(res.cycles >= 5_000);
    }

    #[test]
    fn stall_fault_produces_stalled_outcomes() {
        use argus_sim::fault::{Fault, FaultKind, SiteFlavor};
        let mut m = Machine::new(MachineConfig::default());
        m.load_code(0, &[encode(&Instr::Halt)]);
        let mut inj = FaultInjector::with_fault(Fault {
            site: sites::CTL_STALL_RELEASE,
            bit: 0,
            kind: FaultKind::Permanent,
            arm_cycle: 0,
            flavor: SiteFlavor::Single,
            width: 1,
            sensitization: 1.0,
        });
        for _ in 0..100 {
            assert_eq!(m.step(&mut inj), StepOutcome::Stalled);
        }
        assert!(!m.halted());
    }

    #[test]
    fn link_register_carries_dcs_in_argus_mode() {
        // Block: sig with two slots (callee DCS=0b00111, link DCS=0b10101),
        // then jal. The link register must carry 0b10101 in its top bits.
        let sig = Instr::Sig { nslots: 2, eob: false, payload: (0b10101 << 5) | 0b00111 };
        let m = run_program(
            &[
                sig,
                Instr::Jump { link: true, off: 3 }, // to word 4
                Instr::Nop,                         // delay slot
                Instr::Halt,                        // (skipped: jal target is halt below)
                Instr::Halt,
            ],
            true,
        );
        let (addr, dcs) = split_indirect_target(m.reg(Reg::LR));
        assert_eq!(addr, 12, "return address = jal pc + 8");
        assert_eq!(dcs, 0b10101);
    }

    #[test]
    fn commit_record_carries_embedded_bits() {
        let mut m = Machine::new(MachineConfig::default());
        let add = Instr::Alu { op: AluOp::Add, rd: r(1), ra: r(2), rb: r(3) };
        let mut w = encode(&add);
        // Hand-embed 0b1010101 into the 7 unused bits.
        for (i, pos) in argus_isa::encode::unused_bit_positions(w).into_iter().enumerate() {
            if i % 2 == 0 {
                w |= 1 << pos;
            }
        }
        m.load_code(0, &[w, encode(&Instr::Halt)]);
        let mut inj = FaultInjector::none();
        match m.step(&mut inj) {
            StepOutcome::Committed(rec) => {
                assert_eq!(rec.embedded_bits.len(), 7);
                assert_eq!(
                    rec.embedded_bits.to_vec(),
                    vec![true, false, true, false, true, false, true]
                );
            }
            other => panic!("expected commit, got {other:?}"),
        }
    }

    /// The predecode memo must be invisible under decode-unit injection:
    /// with a fault armed on any `ID_OPC_*` site, every commit record and
    /// the final architectural digest must match between a machine running
    /// with the memo enabled and one with it disabled, because both must
    /// take the exact tapped triple-decode path once the fault arms (and
    /// the identical fast path before it arms).
    #[test]
    fn predecode_is_identical_under_id_opc_injection() {
        use argus_sim::fault::{Fault, FaultKind, SiteFlavor};
        let words: Vec<u32> = [
            Instr::AluImm { op: AluImmOp::Addi, rd: r(3), ra: Reg::ZERO, imm: 7 },
            Instr::AluImm { op: AluImmOp::Addi, rd: r(4), ra: Reg::ZERO, imm: 5 },
            Instr::Alu { op: AluOp::Add, rd: r(5), ra: r(3), rb: r(4) },
            Instr::SetFlag { cond: Cond::Eq, ra: r(5), rb: r(5) },
            Instr::Branch { taken_if: true, off: 2 },
            Instr::Store { size: MemSize::Word, ra: Reg::ZERO, rb: r(5), off: 0x100 },
            Instr::Halt,
        ]
        .iter()
        .map(encode)
        .collect();

        for site in [sites::ID_OPC_TRUNK, sites::ID_OPC_FU, sites::ID_OPC_SUBCHK, sites::ID_OPC_SHS]
        {
            for kind in [FaultKind::Transient, FaultKind::Permanent] {
                for arm_cycle in [0, 2, 4] {
                    let fault = Fault {
                        site,
                        bit: 3,
                        kind,
                        arm_cycle,
                        flavor: SiteFlavor::Single,
                        width: 32,
                        sensitization: 1.0,
                    };
                    let mut on = Machine::new(MachineConfig::default());
                    let mut off = Machine::new(MachineConfig {
                        predecode: false,
                        ..MachineConfig::default()
                    });
                    on.load_code(0, &words);
                    off.load_code(0, &words);
                    let mut inj_on = FaultInjector::with_fault(fault.clone());
                    let mut inj_off = FaultInjector::with_fault(fault);
                    for _ in 0..64 {
                        let a = on.step(&mut inj_on);
                        let b = off.step(&mut inj_off);
                        assert_eq!(a, b, "{site} {kind:?} arm={arm_cycle}: records diverged");
                        if a == StepOutcome::Halted {
                            break;
                        }
                    }
                    assert_eq!(
                        on.state_digest(),
                        off.state_digest(),
                        "{site} {kind:?} arm={arm_cycle}: digests diverged"
                    );
                    assert_eq!(inj_on.flip_count(), inj_off.flip_count());
                }
            }
        }
    }

    /// A live fault off the decode sites leaves every decode tap the
    /// identity, so steps keep the predecode memo, and their commit records
    /// match a machine without it.
    #[test]
    fn predecode_serves_steps_under_a_fault_off_the_decode_sites() {
        use argus_sim::fault::{Fault, FaultKind, SiteFlavor};
        let words: Vec<u32> = [
            Instr::AluImm { op: AluImmOp::Addi, rd: r(3), ra: Reg::ZERO, imm: 7 },
            Instr::Alu { op: AluOp::Add, rd: r(5), ra: r(3), rb: r(3) },
            Instr::Store { size: MemSize::Word, ra: Reg::ZERO, rb: r(5), off: 0x100 },
            Instr::Halt,
        ]
        .iter()
        .map(encode)
        .collect();
        for site in [sites::ALU_ADDER_OUT, sites::IF_IBUS, sites::ID_OPC_FU] {
            let fault = Fault {
                site,
                bit: 1,
                kind: FaultKind::Permanent,
                arm_cycle: 0,
                flavor: SiteFlavor::Single,
                width: 32,
                sensitization: 1.0,
            };
            let cfg = MachineConfig { block_exec: false, ..MachineConfig::default() };
            let mut on = Machine::new(cfg);
            let mut off = Machine::new(MachineConfig { predecode: false, ..cfg });
            on.load_code(0, &words);
            off.load_code(0, &words);
            let mut inj_on = FaultInjector::with_fault(fault.clone());
            let mut inj_off = FaultInjector::with_fault(fault);
            for _ in 0..16 {
                let a = on.step(&mut inj_on);
                assert_eq!(a, off.step(&mut inj_off), "{site}: records diverged");
                if a == StepOutcome::Halted {
                    break;
                }
            }
            assert_eq!(on.state_digest(), off.state_digest(), "{site}");
            assert_eq!(inj_on.flip_count(), inj_off.flip_count(), "{site}");
            let stats = on.take_exec_stats();
            let memo = stats.predecode_hits + stats.predecode_misses;
            let decode_site = TapSet::DECODE.intersects(TapSet::site(site));
            assert_eq!(memo == 0, decode_site, "{site}: {stats:?}");
            assert!(stats.armed_steps > 0, "{site}: {stats:?}");
        }
    }

    #[test]
    fn block_end_flags() {
        let mut m = Machine::new(MachineConfig::default());
        m.load_code(
            0,
            &[
                encode(&Instr::Sig { nslots: 0, eob: true, payload: 0 }),
                encode(&Instr::Jump { link: false, off: 2 }),
                encode(&Instr::Nop), // delay slot → block end
                encode(&Instr::Halt),
            ],
        );
        let mut inj = FaultInjector::none();
        let recs: Vec<_> = std::iter::from_fn(|| match m.step(&mut inj) {
            StepOutcome::Committed(r) => Some(r),
            _ => None,
        })
        .collect();
        assert!(recs[0].block_end, "eob Sig ends a block");
        assert!(!recs[1].block_end, "CTI itself does not end the block");
        assert!(recs[2].block_end, "delay slot ends the block");
        assert!(recs[2].in_delay_slot);
    }
}
