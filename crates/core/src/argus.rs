//! The assembled Argus-1 checker.
//!
//! [`Argus`] consumes the commit stream of an `argus_machine::Machine` and
//! runs all four invariant checkers over it, raising [`DetectionEvent`]s.
//! The intended wiring is:
//!
//! ```text
//! loop {
//!     match machine.step(&mut inj) {
//!         Committed(rec) => for ev in argus.on_commit(&rec, &mut inj) { ... },
//!         Stalled        => if let Some(ev) = argus.on_stall(1, &mut inj) { ... },
//!         Halted         => break,
//!     }
//! }
//! ```

use crate::cc;
use crate::cfc::Cfc;
use crate::config::{ArgusConfig, CheckerKind, DetectionEvent};
use crate::dcs::DcsUnit;
use crate::shs::{ShsEngine, ShsFile};
use crate::sites;
use crate::watchdog::Watchdog;
use argus_isa::instr::Instr;
use argus_isa::split_indirect_target;
use argus_isa::INDIRECT_ADDR_MASK;
use argus_machine::commit::CommitRecord;
use argus_machine::exec;
use argus_machine::{BlockCommit, BlockGate, BlockPlan};
use argus_sim::bits::{parity32, sign_extend};
use argus_sim::bitstream::BitStream;
use argus_sim::fault::FaultInjector;

/// The Argus-1 runtime checker.
#[derive(Debug, Clone)]
pub struct Argus {
    cfg: ArgusConfig,
    engine: ShsEngine,
    file: ShsFile,
    dcs: DcsUnit,
    cfc: Cfc,
    watchdog: Watchdog,
    events: Vec<DetectionEvent>,
    /// Direct-mapped memo for [`ShsEngine::op_sym`], keyed by pc and
    /// validated against the exact committed instruction. `op_sym` folds
    /// the instruction's re-encoded semantic token through the CRC —
    /// too expensive to redo on every trip around a hot loop, and a pure
    /// function of the instruction, so a hit validated by `Instr` equality
    /// is bit-exact even when a fault corrupts decode. Not part of
    /// [`ArgusState`]: a stale entry can only miss, never lie.
    op_memo: Vec<OpMemoEntry>,
    /// Direct-mapped memo of per-block static facts for the batched
    /// checking path ([`Argus::on_block`]), keyed by (block address, plan
    /// words hash): the block's static DCS and its parsed successor slots.
    /// Pure functions of the block's program words, so — like `op_memo` —
    /// not part of [`ArgusState`], and a stale entry can only miss.
    block_memo: Vec<BlockMemoEntry>,
}

#[derive(Debug, Clone, Copy)]
struct OpMemoEntry {
    pc: u32,
    instr: Instr,
    sym: u32,
}

#[derive(Debug, Clone, Copy)]
struct BlockMemoEntry {
    addr: u32,
    words_hash: u64,
    /// `DcsUnit::compute` over the block's statically-replayed SHS file
    /// (unmasked; the caller taps and masks at use).
    static_dcs: u32,
    /// Embedded slot 0 / slot 1 as parsed at the block's CTI (the bit
    /// stream accumulated through the CTI, zero-padded).
    slot_taken: u32,
    slot_fall: u32,
    /// Embedded slot 0 as parsed at block end (fall-through successor).
    slot0_full: u32,
}

/// Size of the direct-mapped `op_sym` memo (slots; must be a power of two).
/// 512 four-byte-aligned pcs cover the hot loops of every bundled workload.
const OP_MEMO_SLOTS: usize = 512;

/// Size of the direct-mapped block memo (slots; must be a power of two).
const BLOCK_MEMO_SLOTS: usize = 256;

/// The checker's mutable state, captured for snapshot/restore.
///
/// The SHS engine (CRC + sbox tables) and the DCS unit (permutation map)
/// are pure functions of [`ArgusConfig`] and never change after
/// construction, so they are not captured: restore targets an `Argus`
/// built with the same configuration and only overwrites what evolves
/// during a run — the signature file, the control-flow checker, the
/// watchdog counter, and the detection log.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgusState {
    /// The live per-location signature file.
    pub file: ShsFile,
    /// Control-flow checker state (expected DCS, block bits, flag shadow).
    pub cfc: Cfc,
    /// Watchdog counter state.
    pub watchdog: Watchdog,
    /// Detections raised so far, in order.
    pub events: Vec<DetectionEvent>,
}

impl argus_machine::SnapshotState for Argus {
    type State = ArgusState;

    fn capture_state(&self) -> ArgusState {
        ArgusState {
            file: self.file.clone(),
            cfc: self.cfc.clone(),
            watchdog: self.watchdog.clone(),
            events: self.events.clone(),
        }
    }

    /// # Panics
    ///
    /// Panics if the state was captured under a different signature width
    /// (the immutable engine/DCS tables would disagree with the restored
    /// file).
    fn restore_state(&mut self, state: &ArgusState) {
        assert_eq!(
            state.file.width(),
            self.cfg.sig_width,
            "checker state captured under a different signature width"
        );
        self.file = state.file.clone();
        self.cfc = state.cfc.clone();
        self.watchdog = state.watchdog.clone();
        self.events = state.events.clone();
    }

    fn state_fingerprint(&self) -> u64 {
        let mut h = argus_machine::snapshot::Fnv64::new();
        let mut mix = |v: u64| h.mix(v);
        self.file.fold_state(&mut mix);
        self.cfc.fold_state(&mut mix);
        self.watchdog.fold_state(&mut mix);
        mix(self.events.len() as u64);
        for ev in &self.events {
            mix(match ev.checker {
                CheckerKind::Computation => 0,
                CheckerKind::Parity => 1,
                CheckerKind::Dcs => 2,
                CheckerKind::Watchdog => 3,
            });
            for b in ev.reason.bytes() {
                mix(b as u64);
            }
            mix(ev.cycle);
            mix(ev.pc as u64);
        }
        h.finish()
    }
}

impl Argus {
    /// Builds the checker.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ArgusConfig::validate`]).
    pub fn new(cfg: ArgusConfig) -> Self {
        cfg.validate();
        let engine = ShsEngine::new(cfg.sig_width);
        // Seed slots satisfy the memo invariant (`sym == op_sym(instr)`)
        // from the start, so a lookup never needs a validity flag: the pc
        // sentinel is unmatchable (instruction fetch is word-aligned) and
        // even a pathological match would return the correct symbol.
        let seed = Instr::Movhi { rd: argus_isa::reg::Reg::ZERO, imm: 0 };
        let seed = OpMemoEntry { pc: u32::MAX, instr: seed, sym: engine.op_sym(&seed) };
        Self {
            cfg,
            engine,
            file: ShsFile::new(cfg.sig_width),
            dcs: DcsUnit::new(cfg.sig_width),
            cfc: Cfc::new(cfg.max_block_len),
            watchdog: Watchdog::new(cfg.watchdog_bits),
            events: Vec::new(),
            op_memo: vec![seed; OP_MEMO_SLOTS],
            // The address sentinel is unmatchable (block entries are
            // word-aligned), so no validity flag is needed.
            block_memo: vec![
                BlockMemoEntry {
                    addr: u32::MAX,
                    words_hash: 0,
                    static_dcs: 0,
                    slot_taken: 0,
                    slot_fall: 0,
                    slot0_full: 0,
                };
                BLOCK_MEMO_SLOTS
            ],
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> ArgusConfig {
        self.cfg
    }

    /// All detections so far, in order.
    pub fn events(&self) -> &[DetectionEvent] {
        &self.events
    }

    /// The live SHS file (introspection for tests and tools).
    pub fn shs_file(&self) -> &crate::shs::ShsFile {
        &self.file
    }

    /// The control-flow checker state (invariant auditing).
    pub fn cfc(&self) -> &Cfc {
        &self.cfc
    }

    /// The liveness watchdog state (invariant auditing).
    pub fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }

    /// The DCS fold over the live SHS file (pure; invariant auditing).
    pub fn current_dcs(&self) -> u32 {
        self.dcs.compute(&self.file)
    }

    /// Verifies the fused SHS lookup tables against a from-scratch
    /// recomputation (see [`ShsEngine::verify_tables`]).
    pub fn verify_shs_tables(&self) -> Result<(), String> {
        self.engine.verify_tables()
    }

    /// Audits the operation-symbol memo: every cached entry must satisfy
    /// `sym == op_sym(instr)`, the property the memo fast path assumes.
    pub fn audit_op_memo(&self) -> Result<(), String> {
        for (slot, e) in self.op_memo.iter().enumerate() {
            let want = self.engine.op_sym(&e.instr);
            if e.sym != want {
                return Err(format!(
                    "op memo slot {slot} (pc {:#x}) caches symbol {} but op_sym gives {want}",
                    e.pc, e.sym
                ));
            }
        }
        Ok(())
    }

    /// Audits one compiled block: if its static facts are memoized, they
    /// must equal a fresh per-instruction SHS fold over the plan — the
    /// batched checking path must stay ≡ the per-step fold it replaced.
    pub fn audit_block_plan(&self, plan: &BlockPlan) -> Result<(), String> {
        let slot = ((plan.addr() >> 2) as usize) & (BLOCK_MEMO_SLOTS - 1);
        let hit = self.block_memo[slot];
        if hit.addr != plan.addr() || hit.words_hash != plan.words_hash() {
            return Ok(()); // not memoized: nothing to cross-check
        }
        let fresh = self.compute_block_facts(plan);
        if (fresh.static_dcs, fresh.slot_taken, fresh.slot_fall, fresh.slot0_full)
            != (hit.static_dcs, hit.slot_taken, hit.slot_fall, hit.slot0_full)
        {
            return Err(format!(
                "block memo for {:#x} diverges from per-step fold: memoized dcs {:#x} \
                 slots ({}, {}, {}) vs recomputed dcs {:#x} slots ({}, {}, {})",
                plan.addr(),
                hit.static_dcs,
                hit.slot_taken,
                hit.slot_fall,
                hit.slot0_full,
                fresh.static_dcs,
                fresh.slot_taken,
                fresh.slot_fall,
                fresh.slot0_full
            ));
        }
        Ok(())
    }

    /// Arms the checker with the entry block's DCS (carried by the loader's
    /// indirect jump into the binary), so the first basic block is verified
    /// like every other.
    pub fn expect_entry(&mut self, dcs: u32) {
        self.cfc.expect_entry(dcs);
    }

    /// Memory scrub (§4.2): sweeps the data region's words, verifying each
    /// word's parity over its address-decoded value. Bounds the otherwise
    /// arbitrary detection latency of EDC-protected memory. (Never-written
    /// words carry factory-valid EDC contents — see `Machine::new` — so
    /// the whole region is checkable.)
    ///
    /// Returns a Parity detection on the first corrupt word.
    pub fn scrub_memory(
        &mut self,
        m: &argus_machine::Machine,
        from_addr: u32,
        inj: &mut FaultInjector,
    ) -> Option<DetectionEvent> {
        if !self.cfg.enable_parity {
            return None;
        }
        let mem = m.mem().memory();
        let mut addr = from_addr & !3;
        while let Ok((payload, tag)) = mem.read(addr) {
            {
                let d = payload ^ addr;
                let ok = inj.tap1(sites::MFC_PARITY_CHECK, parity32(d) == tag);
                if !ok {
                    let ev = DetectionEvent {
                        checker: CheckerKind::Parity,
                        reason: "scrub_parity",
                        cycle: inj.cycle(),
                        pc: addr,
                    };
                    self.events.push(ev.clone());
                    return Some(ev);
                }
            }
            match addr.checked_add(4) {
                Some(a) => addr = a,
                None => break,
            }
        }
        None
    }

    /// [`Argus::scrub_memory`] restricted to pages written at or after
    /// generation `since_gen` (the fork point of a delta-restored
    /// workspace). Observationally identical to the full scrub: pages
    /// untouched since the fork still hold golden-run content, which
    /// carries valid EDC by construction, so skipping their checks can
    /// neither miss a detection nor change which word detects first. The
    /// one exception is a fault on the scrub's own parity comparator —
    /// its masking draws are per-exposure, so the tap count is observable
    /// — and that case falls back to the full sweep.
    pub fn scrub_memory_dirty(
        &mut self,
        m: &argus_machine::Machine,
        from_addr: u32,
        inj: &mut FaultInjector,
        since_gen: u64,
    ) -> Option<DetectionEvent> {
        if !self.cfg.enable_parity {
            return None;
        }
        if inj.targets_live_site(sites::MFC_PARITY_CHECK) {
            return self.scrub_memory(m, from_addr, inj);
        }
        let mem = m.mem().memory();
        let page_bytes = 4 * argus_mem::DIRTY_PAGE_WORDS as u32;
        for page in 0..mem.page_count() {
            if !mem.page_dirty_since(page, since_gen) {
                continue;
            }
            let mut addr = (page as u32 * page_bytes).max(from_addr & !3);
            let page_end = (page as u32 + 1) * page_bytes;
            while addr < page_end {
                let Ok((payload, tag)) = mem.read(addr) else { break };
                let d = payload ^ addr;
                let ok = inj.tap1(sites::MFC_PARITY_CHECK, parity32(d) == tag);
                if !ok {
                    let ev = DetectionEvent {
                        checker: CheckerKind::Parity,
                        reason: "scrub_parity",
                        cycle: inj.cycle(),
                        pc: addr,
                    };
                    self.events.push(ev.clone());
                    return Some(ev);
                }
                match addr.checked_add(4) {
                    Some(a) => addr = a,
                    None => return None,
                }
            }
        }
        None
    }

    /// The first detection, if any.
    pub fn first_detection(&self) -> Option<&DetectionEvent> {
        self.events.first()
    }

    /// Feeds `n` stalled cycles (no instruction committed).
    pub fn on_stall(&mut self, n: u32, inj: &mut FaultInjector) -> Option<DetectionEvent> {
        if !self.cfg.enable_watchdog {
            return None;
        }
        if self.watchdog.stall(n, inj) {
            let ev = DetectionEvent {
                checker: CheckerKind::Watchdog,
                reason: "liveness_timeout",
                cycle: inj.cycle(),
                pc: 0,
            };
            self.events.push(ev.clone());
            return Some(ev);
        }
        None
    }

    /// Runs all checkers over one committed instruction. Returns the events
    /// raised by this commit (also accumulated in [`Self::events`]).
    pub fn on_commit(
        &mut self,
        rec: &CommitRecord,
        inj: &mut FaultInjector,
    ) -> Vec<DetectionEvent> {
        let mut evs: Vec<DetectionEvent> = Vec::new();
        let push = |checker, reason: &'static str, evs: &mut Vec<DetectionEvent>| {
            evs.push(DetectionEvent { checker, reason, cycle: rec.cycle, pc: rec.pc });
        };

        // Liveness: stall cycles accumulated by this instruction, then the
        // commit itself counts as progress.
        if self.cfg.enable_watchdog {
            if rec.stall_cycles() > 0 && self.watchdog.stall(rec.stall_cycles(), inj) {
                push(CheckerKind::Watchdog, "liveness_timeout", &mut evs);
            }
            self.watchdog.progress();
        }

        // Computation sub-checkers (they also verify the compare result the
        // CFC's flag shadow depends on).
        if self.cfg.enable_cc {
            for reason in self.check_computation(rec, inj) {
                push(CheckerKind::Computation, reason, &mut evs);
            }
        }

        // Parity on operands read from the register file.
        if self.cfg.enable_parity {
            for op in &rec.operands {
                if op.reg.is_some() {
                    let tag = inj.tap1(sites::PARITY_RF_TAG, op.parity);
                    let ok = inj.tap1(sites::PARITY_CHECK, parity32(op.value) == tag);
                    if !ok {
                        push(CheckerKind::Parity, "operand_parity", &mut evs);
                    }
                }
            }
            // Memory checker: per-word parity over address-embedded data.
            if let Some(m) = &rec.mem {
                if !m.is_store
                    && !inj.tap1(sites::MFC_PARITY_CHECK, m.parity_ok)
                    && !argus_sim::canary::enabled("canary-parity-skip-loads")
                {
                    push(CheckerKind::Parity, "load_parity", &mut evs);
                }
            }
        }

        // Dataflow + control flow. The SHS write shares the register file's
        // write port: if the datapath performed no writeback, no signature
        // is written either — a dropped architectural write then leaves the
        // destination's SHS at odds with the static DCS, which is exactly
        // how the checker sees it.
        if self.cfg.enable_dcs {
            let mut srcs = [None; 2];
            for (s, o) in srcs.iter_mut().zip(rec.operands.iter()) {
                *s = o.reg;
            }
            let dest = rec.wb.map(|(r, _, _)| r);
            let slot = ((rec.pc >> 2) as usize) & (OP_MEMO_SLOTS - 1);
            let hit = self.op_memo[slot];
            let sym = if hit.pc == rec.pc && hit.instr == rec.op_shs {
                hit.sym
            } else {
                let s = self.engine.op_sym(&rec.op_shs);
                self.op_memo[slot] = OpMemoEntry { pc: rec.pc, instr: rec.op_shs, sym: s };
                s
            };
            self.engine.apply_with_sym(
                &mut self.file,
                sym,
                &rec.op_shs,
                &srcs[..rec.operands.len()],
                dest,
                inj,
            );

            if let Some(reason) = self.cfc.note_instr(rec.embedded_bits) {
                push(CheckerKind::Dcs, reason, &mut evs);
            }
            if let Some(v) = rec.flag_write {
                self.cfc.on_flag_write(v);
            }
            if let Some(b) = &rec.branch {
                self.cfc.on_cti(&rec.op_shs, b, inj);
            }
            if rec.block_end {
                let computed =
                    inj.tap32(sites::DCS_XOR_OUT, self.dcs.compute(&self.file)) & self.sig_mask();
                trace_dcs(rec.cycle, rec.pc, computed, self.cfc.expected());
                if let Some(exp) = self.cfc.finish_block(rec.in_delay_slot, inj) {
                    let exp = inj.tap32(sites::DCS_EXPECTED, exp) & self.sig_mask();
                    // Seeded bug: the halt-terminated final block's DCS
                    // comparison is dropped, so faults whose only witness
                    // is the last block go unreported.
                    let skip = argus_sim::canary::enabled("canary-dcs-skip-last-block")
                        && matches!(rec.op_shs, Instr::Halt);
                    if exp != computed && !skip {
                        push(CheckerKind::Dcs, "dcs_mismatch", &mut evs);
                    }
                }
                self.file.reset();
            }
        }

        self.events.extend(evs.iter().cloned());
        evs
    }

    /// Whether a planned block may be checked in one batched step
    /// ([`Argus::on_block`]) instead of per-commit. All of these must hold,
    /// or the caller has to drive the block through the one-step
    /// interpreter + [`Argus::on_commit`]:
    ///
    /// * no fault has ever flipped state (`inj` pristine): the machine is
    ///   on its golden trajectory, so every per-op computation and operand
    ///   parity check is provably silent and only the block-level checks
    ///   (static DCS, successor hand-off, out-of-range load parity) carry
    ///   information;
    /// * no live fault on a checker site arms by the block's worst-case end
    ///   (`gate.armed` holds no foreign site): the per-commit checks tap the
    ///   checker's own sites on every op, which a batch cannot replay. A
    ///   fault armed on a machine site is fine as long as no op of the block
    ///   can tap it (`gate.tapped` empty): a block with tapped ops is left
    ///   to the per-commit checker;
    /// * the plan is canonical (`argus_simple`: one CTI right before the
    ///   delay slot, or none), so the slot-parse order is static. A plan
    ///   with a store may still bail mid-block after storing over one of
    ///   its own upcoming words; [`Argus::on_block`] then folds only the
    ///   ops it retired and the interpreter finishes the block;
    /// * the block respects the CFC length bound (a longer block must
    ///   raise `block_length_exceeded` per-op);
    /// * the watchdog is idle and no single op can stall it to saturation;
    /// * the CFC sits exactly at a block boundary.
    pub fn block_ready(&self, gate: &BlockGate, inj: &FaultInjector) -> bool {
        if inj.first_flip_cycle().is_some() || gate.armed.has_foreign() || !gate.tapped.is_empty() {
            return false;
        }
        if !gate.argus_simple || gate.len > self.cfg.max_block_len {
            return false;
        }
        if self.cfg.enable_watchdog
            && (self.watchdog.count() != 0
                || self.watchdog.tripped()
                || gate.max_op_stall >= self.watchdog.threshold())
        {
            return false;
        }
        if self.cfg.enable_dcs && !self.cfc.at_block_boundary() {
            return false;
        }
        true
    }

    /// Batched equivalent of [`Argus::on_commit`] over one whole compiled
    /// block, valid only under [`Argus::block_ready`]'s preconditions. On a
    /// pristine trajectory the per-op checks are silent by construction, so
    /// only the block-granular work remains: the static-DCS comparison
    /// against the inherited expectation, the successor-DCS selection, the
    /// flag-shadow and watchdog hand-off, and parity on any out-of-range
    /// load — bit-identical, events included, to feeding every commit
    /// record one at a time.
    ///
    /// A bailed execution (`commit.complete == false`: a store rewrote an
    /// upcoming word of the block) retired a prefix that holds no CTI: an
    /// `argus_simple` block's only CTI sits right before its last op, and
    /// a store in the last op leaves nothing to bail over. Its ops are
    /// folded as `on_commit` would fold them: their static SHS
    /// applications on the live file, their embedded bits into the CFC,
    /// the flag shadow, the watchdog reset and any out-of-range load. No
    /// block-end compare: the block ends in `on_commit`, which the caller
    /// runs for the rest of it.
    pub fn on_block(
        &mut self,
        plan: &BlockPlan,
        commit: &BlockCommit,
        inj: &mut FaultInjector,
    ) -> Vec<DetectionEvent> {
        let mut evs: Vec<DetectionEvent> = Vec::new();

        // Per-op: stall(n) then progress() on every commit; from an idle
        // counter with every op's stall below threshold, the net effect is
        // exactly one reset.
        if self.cfg.enable_watchdog {
            self.watchdog.progress();
        }

        // The only parity check that can carry information on a golden
        // trajectory: a load outside main memory observes the fallback
        // word, whose clear tag may mismatch.
        if self.cfg.enable_parity {
            for o in &commit.oob_loads {
                if !inj.tap1(sites::MFC_PARITY_CHECK, o.parity_ok) {
                    evs.push(DetectionEvent {
                        checker: CheckerKind::Parity,
                        reason: "load_parity",
                        cycle: o.end_cycle,
                        pc: o.pc,
                    });
                }
            }
        }

        if !commit.complete {
            if self.cfg.enable_dcs {
                for i in 0..commit.executed as usize {
                    debug_assert!(!plan.instr(i).is_cti(), "a bailed prefix holds no CTI");
                    self.engine.apply_static(&mut self.file, &plan.instr(i));
                    // Within the length bound `block_ready` checked.
                    self.cfc.note_instr(plan.embedded(i));
                }
                // On a pristine run the shadow tracks every flag write.
                self.cfc.on_flag_write(commit.flag_after);
            }
        } else if self.cfg.enable_dcs {
            let memo = self.block_memo(plan);
            // Successor selection, exactly as Cfc::on_cti/finish_block
            // would: the CFC parses only the slot it selects.
            let next = if commit.ended_by_cti {
                match plan.instr(plan.len().saturating_sub(2)) {
                    Instr::Branch { taken_if, .. } => {
                        // On a pristine run the CFC's flag shadow equals the
                        // machine flag the branch observed.
                        let shadow =
                            inj.tap1(sites::CFC_FLAG_SHADOW, commit.cti_flag.unwrap_or(false));
                        let slot =
                            if shadow == taken_if { memo.slot_taken } else { memo.slot_fall };
                        inj.tap32(sites::CFC_SLOT_PARSE, slot) & 31
                    }
                    Instr::Jump { .. } => inj.tap32(sites::CFC_SLOT_PARSE, memo.slot_taken) & 31,
                    Instr::JumpReg { .. } => commit.indirect_dcs.unwrap_or(0),
                    other => unreachable!("argus_simple block ends in a CTI, got {other:?}"),
                }
            } else {
                inj.tap32(sites::CFC_SLOT_PARSE, memo.slot0_full) & 31
            };
            let computed = inj.tap32(sites::DCS_XOR_OUT, memo.static_dcs) & self.sig_mask();
            trace_dcs(commit.end_cycle, commit.last_pc, computed, self.cfc.expected());
            if let Some(exp) = self.cfc.batch_block(next, commit.flag_after) {
                let exp = inj.tap32(sites::DCS_EXPECTED, exp) & self.sig_mask();
                if exp != computed {
                    evs.push(DetectionEvent {
                        checker: CheckerKind::Dcs,
                        reason: "dcs_mismatch",
                        cycle: commit.end_cycle,
                        pc: commit.last_pc,
                    });
                }
            }
            self.file.reset();
        }

        self.events.extend(evs.iter().cloned());
        evs
    }

    /// The memoized static facts of a compiled block: its static DCS (the
    /// per-op SHS applications replayed over a reset file — identical to
    /// the live application on a pristine run) and the successor slots as
    /// the CFC would parse them.
    fn block_memo(&mut self, plan: &BlockPlan) -> BlockMemoEntry {
        let slot = ((plan.addr() >> 2) as usize) & (BLOCK_MEMO_SLOTS - 1);
        let hit = self.block_memo[slot];
        if hit.addr == plan.addr() && hit.words_hash == plan.words_hash() {
            return hit;
        }
        let entry = self.compute_block_facts(plan);
        self.block_memo[slot] = entry;
        entry
    }

    /// The uncached per-step fold behind [`Argus::block_memo`]: replays the
    /// plan's instructions over a reset SHS file and parses the embedded
    /// slots. Pure, so the invariant registry can recompute and compare
    /// against the memoized entry ([`Argus::audit_block_plan`]).
    fn compute_block_facts(&self, plan: &BlockPlan) -> BlockMemoEntry {
        let mut file = ShsFile::new(self.cfg.sig_width);
        let mut bits = BitStream::new();
        let (mut slot_taken, mut slot_fall) = (0, 0);
        for i in 0..plan.len() {
            let instr = plan.instr(i);
            self.engine.apply_static(&mut file, &instr);
            bits.push_packed(plan.embedded(i));
            if instr.is_cti() {
                // Slots as visible when the CTI commits (bits collected so
                // far, zero-padded) — later ops may append more bits.
                slot_taken = bits.extract(0, 5) & 31;
                slot_fall = bits.extract(5, 5) & 31;
            }
        }
        BlockMemoEntry {
            addr: plan.addr(),
            words_hash: plan.words_hash(),
            static_dcs: self.dcs.compute(&file),
            slot_taken,
            slot_fall,
            slot0_full: bits.extract(0, 5) & 31,
        }
    }

    fn sig_mask(&self) -> u32 {
        (1 << self.cfg.sig_width.min(5)) - 1
    }

    fn check_computation(
        &mut self,
        rec: &CommitRecord,
        inj: &mut FaultInjector,
    ) -> Vec<&'static str> {
        let mut out = Vec::new();
        let opv = |k: usize| rec.operands.get(k).map(|o| o.value).unwrap_or(0);
        let result = rec.result.unwrap_or(0);
        let m = self.cfg.modulus;

        match rec.op_subchk {
            Instr::Alu { op, .. } => {
                use argus_isa::instr::{AluOp, ShiftOp};
                match op {
                    AluOp::Sll | AluOp::Srl | AluOp::Sra => {
                        let sop = match op {
                            AluOp::Sll => ShiftOp::Sll,
                            AluOp::Srl => ShiftOp::Srl,
                            _ => ShiftOp::Sra,
                        };
                        if !cc::rsse::check_shift(sop, opv(0), opv(1) & 31, result, inj) {
                            out.push("rsse_shift_mismatch");
                        }
                    }
                    _ => {
                        if !cc::adder::check_alu(op, opv(0), opv(1), result, inj) {
                            out.push("adder_mismatch");
                        }
                    }
                }
            }
            Instr::AluImm { op, imm, .. } => {
                let b_eff = exec::alu_imm_operand(op, imm);
                if !cc::adder::check_alu(exec::alu_imm_base(op), opv(0), b_eff, result, inj) {
                    out.push("adder_mismatch");
                }
            }
            Instr::ShiftImm { op, sh, .. } => {
                if !cc::rsse::check_shift(op, opv(0), sh as u32, result, inj) {
                    out.push("rsse_shift_mismatch");
                }
            }
            Instr::Ext { kind, .. } => {
                if !cc::rsse::check_ext(kind, opv(0), result, inj) {
                    out.push("rsse_ext_mismatch");
                }
            }
            Instr::Movhi { imm, .. } => {
                if inj.tap32(sites::CC_ADDER_OUT, (imm as u32) << 16) != result {
                    out.push("movhi_mismatch");
                }
            }
            Instr::MulDiv { op, .. } => {
                use argus_isa::instr::MulDivOp;
                let aux = rec.aux_result.unwrap_or(0);
                let ok = match op {
                    MulDivOp::Mul => cc::modm::check_mul(m, true, opv(0), opv(1), result, aux, inj),
                    MulDivOp::Mulu => {
                        cc::modm::check_mul(m, false, opv(0), opv(1), result, aux, inj)
                    }
                    MulDivOp::Div => cc::modm::check_div(m, true, opv(0), opv(1), result, aux, inj),
                    MulDivOp::Divu => {
                        cc::modm::check_div(m, false, opv(0), opv(1), result, aux, inj)
                    }
                };
                if !ok {
                    out.push("modm_mismatch");
                }
            }
            Instr::SetFlag { cond, .. } => {
                if !cc::adder::check_compare(
                    cond,
                    opv(0),
                    opv(1),
                    rec.flag_write.unwrap_or(false),
                    inj,
                ) {
                    out.push("compare_mismatch");
                }
            }
            Instr::SetFlagImm { cond, imm, .. } => {
                let b = sign_extend(imm as u32, 16);
                if !cc::adder::check_compare(cond, opv(0), b, rec.flag_write.unwrap_or(false), inj)
                {
                    out.push("compare_mismatch");
                }
            }
            Instr::Branch { off, .. } => {
                if let Some(b) = &rec.branch {
                    if b.taken {
                        if let Some(t) = b.target {
                            if !cc::adder::check_target(rec.pc, off, t, inj) {
                                out.push("target_mismatch");
                            }
                        }
                    }
                }
            }
            Instr::Jump { off, link } => {
                if let Some(t) = rec.branch.as_ref().and_then(|b| b.target) {
                    if !cc::adder::check_target(rec.pc, off, t, inj) {
                        out.push("target_mismatch");
                    }
                }
                if link {
                    let ret = rec.pc.wrapping_add(8) & INDIRECT_ADDR_MASK;
                    let observed = result & INDIRECT_ADDR_MASK;
                    if inj.tap32(sites::CC_ADDER_OUT, ret) != observed {
                        out.push("link_mismatch");
                    }
                }
            }
            Instr::JumpReg { link, .. } => {
                if let Some(t) = rec.branch.as_ref().and_then(|b| b.target) {
                    let (addr, _) = split_indirect_target(opv(0));
                    if inj.tap32(sites::CC_ADDER_OUT, addr) != t {
                        out.push("target_mismatch");
                    }
                }
                if link {
                    let ret = rec.pc.wrapping_add(8) & INDIRECT_ADDR_MASK;
                    if inj.tap32(sites::CC_ADDER_OUT, ret) != result & INDIRECT_ADDR_MASK {
                        out.push("link_mismatch");
                    }
                }
            }
            Instr::Load { .. } | Instr::Store { .. } => {}
            Instr::Nop | Instr::Sig { .. } | Instr::Halt => {}
        }

        // Memory-side computation checks: effective address (adder) and
        // sub-word alignment (RSSE).
        if let Some(mm) = &rec.mem {
            if !cc::adder::check_addr(mm.base, mm.offset, mm.addr, inj) {
                out.push("addr_mismatch");
            }
            if !mm.is_store {
                let byte_off = exec::align_addr(mm.addr, mm.size) & 3;
                if !cc::rsse::check_align(mm.raw_word, byte_off, mm.size, mm.signed, mm.value, inj)
                {
                    out.push("align_mismatch");
                }
            } else if let Some(merged) = mm.store_merged {
                // Sub-word store re-alignment is the RSSE's job too (§3.4);
                // the store data is taken from the checker's copy of the
                // operand bus, upstream of the store-data bus.
                let byte_off = exec::align_addr(mm.addr, mm.size) & 3;
                let data = rec.operands.get(1).map(|o| o.value).unwrap_or(0);
                if !cc::rsse::check_merge(mm.raw_word, byte_off, mm.size, data, merged, inj) {
                    out.push("merge_mismatch");
                }
            }
        }
        out
    }
}

/// `ARGUS_TRACE_DCS=1` debug tracing of every block-boundary DCS compare
/// (shared by the per-commit and batched paths).
fn trace_dcs(cycle: u64, pc: u32, computed: u32, expected: Option<u32>) {
    static TRACE_DCS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    if *TRACE_DCS.get_or_init(|| std::env::var_os("ARGUS_TRACE_DCS").is_some()) {
        eprintln!("[dcs] c{cycle} pc={pc:#x} computed={computed:#04x} expected={expected:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_isa::encode::encode;
    use argus_isa::instr::{AluImmOp, AluOp};
    use argus_isa::reg::{r, Reg};
    use argus_machine::{Machine, MachineConfig, StepOutcome};

    /// Computes the static DCS of a straight-line block (the compiler's
    /// side of the comparison), ending at a block boundary.
    fn static_dcs(block: &[Instr], cfg: &ArgusConfig) -> u32 {
        let engine = ShsEngine::new(cfg.sig_width);
        let dcs = DcsUnit::new(cfg.sig_width);
        let mut file = ShsFile::new(cfg.sig_width);
        for i in block {
            engine.apply_static(&mut file, i);
        }
        dcs.compute(&file)
    }

    /// Runs a program under Argus with no faults; returns events.
    fn run_clean(prog: &[Instr]) -> Vec<DetectionEvent> {
        let words: Vec<u32> = prog.iter().map(encode).collect();
        let mut m = Machine::new(MachineConfig::default());
        m.load_code(0, &words);
        let mut argus = Argus::new(ArgusConfig::default());
        let mut inj = FaultInjector::none();
        loop {
            match m.step(&mut inj) {
                StepOutcome::Committed(rec) => {
                    argus.on_commit(&rec, &mut inj);
                }
                StepOutcome::Stalled => {
                    argus.on_stall(1, &mut inj);
                }
                StepOutcome::Halted => break,
            }
            if m.cycle() > 100_000 {
                panic!("runaway test program");
            }
        }
        argus.events().to_vec()
    }

    fn two_block_program() -> Vec<Instr> {
        let cfg = ArgusConfig::default();
        // BB1: add + eob-Sig carrying DCS(BB1 body? no: slot0 = DCS of BB2).
        let bb2 = vec![Instr::Alu { op: AluOp::Add, rd: r(5), ra: r(3), rb: r(3) }, Instr::Halt];
        let d2 = static_dcs(&bb2, &cfg);
        let mut prog = vec![
            Instr::AluImm { op: AluImmOp::Addi, rd: r(3), ra: Reg::ZERO, imm: 21 },
            Instr::Sig { nslots: 1, eob: true, payload: d2 as u16 },
        ];
        prog.extend(bb2);
        prog
    }

    #[test]
    fn clean_two_block_run_has_no_false_positives() {
        let evs = run_clean(&two_block_program());
        assert!(evs.is_empty(), "false positives: {evs:?}");
    }

    #[test]
    fn wrong_embedded_dcs_is_detected() {
        let mut prog = two_block_program();
        // Corrupt the embedded successor DCS.
        if let Instr::Sig { payload, .. } = &mut prog[1] {
            *payload ^= 1;
        } else {
            panic!("expected Sig");
        }
        let evs = run_clean(&prog);
        assert!(
            evs.iter().any(|e| e.checker == CheckerKind::Dcs),
            "expected DCS mismatch, got {evs:?}"
        );
    }

    #[test]
    fn alu_internal_fault_detected_by_computation_checker() {
        use argus_machine::sites as msites;
        use argus_sim::fault::{Fault, FaultKind, SiteFlavor};
        let words: Vec<u32> = two_block_program().iter().map(encode).collect();
        let mut m = Machine::new(MachineConfig::default());
        m.load_code(0, &words);
        let mut argus = Argus::new(ArgusConfig::default());
        let mut inj = FaultInjector::with_fault(Fault {
            site: msites::ALU_ADDER_OUT,
            bit: 3,
            kind: FaultKind::Permanent,
            arm_cycle: 0,
            flavor: SiteFlavor::Single,
            width: 32,
            sensitization: 1.0,
        });
        loop {
            match m.step(&mut inj) {
                StepOutcome::Committed(rec) => {
                    argus.on_commit(&rec, &mut inj);
                }
                StepOutcome::Stalled => {
                    argus.on_stall(1, &mut inj);
                }
                StepOutcome::Halted => break,
            }
        }
        let first = argus.first_detection().expect("must detect");
        assert_eq!(first.checker, CheckerKind::Computation);
    }

    #[test]
    fn register_cell_fault_detected_by_parity() {
        use argus_machine::machine::RF_CELL_SITES;
        use argus_sim::fault::{Fault, FaultKind, SiteFlavor};
        let words: Vec<u32> = two_block_program().iter().map(encode).collect();
        let mut m = Machine::new(MachineConfig::default());
        m.load_code(0, &words);
        let mut argus = Argus::new(ArgusConfig::default());
        let mut inj = FaultInjector::with_fault(Fault {
            site: RF_CELL_SITES[3],
            bit: 7,
            kind: FaultKind::Permanent,
            arm_cycle: 0,
            flavor: SiteFlavor::Single,
            width: 32,
            sensitization: 1.0,
        });
        loop {
            match m.step(&mut inj) {
                StepOutcome::Committed(rec) => {
                    argus.on_commit(&rec, &mut inj);
                }
                StepOutcome::Stalled => {}
                StepOutcome::Halted => break,
            }
        }
        let first = argus.first_detection().expect("must detect");
        assert_eq!(first.checker, CheckerKind::Parity);
    }

    #[test]
    fn stall_fault_detected_by_watchdog() {
        use argus_machine::sites as msites;
        use argus_sim::fault::{Fault, FaultKind, SiteFlavor};
        let words: Vec<u32> = two_block_program().iter().map(encode).collect();
        let mut m = Machine::new(MachineConfig::default());
        m.load_code(0, &words);
        let mut argus = Argus::new(ArgusConfig::default());
        let mut inj = FaultInjector::with_fault(Fault {
            site: msites::CTL_STALL_RELEASE,
            bit: 0,
            kind: FaultKind::Permanent,
            arm_cycle: 2,
            flavor: SiteFlavor::Single,
            width: 1,
            sensitization: 1.0,
        });
        let mut detected = None;
        for _ in 0..1000 {
            match m.step(&mut inj) {
                StepOutcome::Committed(rec) => {
                    argus.on_commit(&rec, &mut inj);
                }
                StepOutcome::Stalled => {
                    if let Some(ev) = argus.on_stall(1, &mut inj) {
                        detected = Some(ev);
                        break;
                    }
                }
                StepOutcome::Halted => break,
            }
        }
        let ev = detected.expect("watchdog must fire");
        assert_eq!(ev.checker, CheckerKind::Watchdog);
    }

    /// Driving blocks through `exec_block` + `on_block` must leave machine
    /// AND checker bit-identical to pure per-op interpretation — events
    /// included — on a clean run.
    #[test]
    fn batched_block_checking_matches_per_op() {
        use argus_machine::SnapshotState;
        for entry_dcs in [None, Some(0u32)] {
            let words: Vec<u32> = two_block_program().iter().map(encode).collect();
            let mut m_blk = Machine::new(MachineConfig::default());
            let mut m_ref = Machine::new(MachineConfig { block_exec: false, ..Default::default() });
            m_blk.load_code(0, &words);
            m_ref.load_code(0, &words);
            let mut a_blk = Argus::new(ArgusConfig::default());
            let mut a_ref = Argus::new(ArgusConfig::default());
            if let Some(d) = entry_dcs {
                a_blk.expect_entry(d);
                a_ref.expect_entry(d);
            }
            let mut inj_blk = FaultInjector::none();
            let mut inj_ref = FaultInjector::none();
            let mut batched = 0;
            while !m_blk.halted() {
                let gate = m_blk.plan_block(&inj_blk, u64::MAX);
                if let Some(gate) = gate.filter(|g| a_blk.block_ready(g, &inj_blk)) {
                    let commit = m_blk.exec_block(&mut inj_blk, &gate).expect("gated");
                    assert!(commit.complete, "store-free plans always complete");
                    let plan = m_blk.plan_at(commit.addr).expect("hit plans survive");
                    a_blk.on_block(plan, &commit, &mut inj_blk);
                    batched += 1;
                    continue;
                }
                match m_blk.step(&mut inj_blk) {
                    StepOutcome::Committed(rec) => {
                        a_blk.on_commit(&rec, &mut inj_blk);
                    }
                    StepOutcome::Stalled => {
                        a_blk.on_stall(1, &mut inj_blk);
                    }
                    StepOutcome::Halted => break,
                }
            }
            while !m_ref.halted() {
                match m_ref.step(&mut inj_ref) {
                    StepOutcome::Committed(rec) => {
                        a_ref.on_commit(&rec, &mut inj_ref);
                    }
                    StepOutcome::Stalled => {
                        a_ref.on_stall(1, &mut inj_ref);
                    }
                    StepOutcome::Halted => break,
                }
            }
            assert!(batched >= 2, "both blocks must take the batched path");
            assert_eq!(m_blk.state_digest(), m_ref.state_digest());
            assert_eq!(m_blk.state_fingerprint(), m_ref.state_fingerprint());
            assert_eq!(a_blk.state_fingerprint(), a_ref.state_fingerprint());
            assert_eq!(a_blk.events(), a_ref.events());
        }
    }

    /// A wrong embedded successor DCS must be detected by the batched path
    /// with the exact same event the per-op path raises.
    #[test]
    fn batched_block_checking_detects_wrong_dcs() {
        let mut prog = two_block_program();
        if let Instr::Sig { payload, .. } = &mut prog[1] {
            *payload ^= 1;
        } else {
            panic!("expected Sig");
        }
        let words: Vec<u32> = prog.iter().map(encode).collect();
        let mut m = Machine::new(MachineConfig::default());
        m.load_code(0, &words);
        let mut a = Argus::new(ArgusConfig::default());
        let mut inj = FaultInjector::none();
        while !m.halted() {
            let gate = m.plan_block(&inj, u64::MAX);
            if let Some(gate) = gate.filter(|g| a.block_ready(g, &inj)) {
                let commit = m.exec_block(&mut inj, &gate).expect("gated");
                let plan = m.plan_at(commit.addr).expect("hit plans survive");
                a.on_block(plan, &commit, &mut inj);
                continue;
            }
            match m.step(&mut inj) {
                StepOutcome::Committed(rec) => {
                    a.on_commit(&rec, &mut inj);
                }
                StepOutcome::Stalled => {}
                StepOutcome::Halted => break,
            }
        }
        let ref_events = run_clean(&prog);
        assert!(!ref_events.is_empty(), "per-op path must flag the bad DCS");
        assert_eq!(a.events(), &ref_events[..], "batched events must match per-op exactly");
    }

    /// A pristine self-modifying block: its store rewrites an upcoming
    /// word of the same block, so the batched execution bails mid-block,
    /// `on_block` folds the retired prefix, and `on_commit` finishes the
    /// block. Checker state and events must equal per-op checking, both
    /// when the patched block ends (its DCS compare runs over the folded
    /// prefix) and at halt.
    #[test]
    fn batched_store_block_bail_matches_per_op() {
        use argus_isa::instr::{Cond, MemSize};
        use argus_machine::SnapshotState;
        let cfg = ArgusConfig::default();
        let patched = Instr::AluImm { op: AluImmOp::Addi, rd: r(5), ra: Reg::ZERO, imm: 7 };
        // Argus-mode stores write `data ^ address`; fetch reads the raw
        // word, so store the patch pre-scrambled with its address (20).
        let stored = encode(&patched) ^ 20;
        let bb1 = vec![Instr::Alu { op: AluOp::Add, rd: r(6), ra: r(5), rb: r(5) }, Instr::Halt];
        let next = static_dcs(&bb1, &cfg);
        let bb0 = |slot5: Instr| {
            vec![
                Instr::Movhi { rd: r(3), imm: (stored >> 16) as u16 },
                // Sets the flag inside the prefix the bail leaves behind.
                Instr::SetFlagImm { cond: Cond::Eq, ra: Reg::ZERO, imm: 0 },
                Instr::AluImm { op: AluImmOp::Ori, rd: r(3), ra: r(3), imm: stored as u16 },
                Instr::Store { size: MemSize::Word, ra: Reg::ZERO, rb: r(3), off: 20 },
                Instr::Nop,
                slot5, // word 5 (byte 20): rewritten by the store above
                Instr::Sig { nslots: 1, eob: true, payload: next as u16 },
            ]
        };
        let entry = static_dcs(&bb0(patched), &cfg);
        let mut prog = bb0(Instr::Nop);
        prog.extend(bb1);
        let mut words: Vec<u32> = prog.iter().map(encode).collect();
        // The block's first embedded slot is the movhi's five unused bits
        // [16, 21): carry the successor DCS there, in the bailed prefix.
        words[0] |= next << 16;
        let boot = |block_exec| {
            let mut m = Machine::new(MachineConfig { block_exec, ..Default::default() });
            m.load_code(0, &words);
            let mut a = Argus::new(cfg);
            a.expect_entry(entry);
            (m, a, FaultInjector::none())
        };
        let (mut m_blk, mut a_blk, mut inj_blk) = boot(true);
        let (mut m_ref, mut a_ref, mut inj_ref) = boot(false);
        let mut bailed = 0;
        for retired in [7, u64::MAX] {
            while m_blk.retired() < retired && !m_blk.halted() {
                let gate = m_blk.plan_block(&inj_blk, u64::MAX);
                if let Some(gate) = gate.filter(|g| a_blk.block_ready(g, &inj_blk)) {
                    let commit = m_blk.exec_block(&mut inj_blk, &gate).expect("gated");
                    bailed += u32::from(!commit.complete);
                    let plan =
                        m_blk.plan_at(commit.addr).expect("an executed block keeps its plan");
                    a_blk.on_block(plan, &commit, &mut inj_blk);
                    continue;
                }
                if let StepOutcome::Committed(rec) = m_blk.step(&mut inj_blk) {
                    a_blk.on_commit(&rec, &mut inj_blk);
                }
            }
            while m_ref.retired() < retired && !m_ref.halted() {
                if let StepOutcome::Committed(rec) = m_ref.step(&mut inj_ref) {
                    a_ref.on_commit(&rec, &mut inj_ref);
                }
            }
            assert_eq!(m_blk.retired(), m_ref.retired());
            assert_eq!(m_blk.state_fingerprint(), m_ref.state_fingerprint());
            assert_eq!(a_blk.state_fingerprint(), a_ref.state_fingerprint());
            assert_eq!(a_blk.events(), a_ref.events());
        }
        assert_eq!(bailed, 1, "the store block must be batched and bail");
        assert_eq!(m_blk.reg(r(6)), 14, "the patched instruction must have run");
        assert!(a_blk.events().is_empty(), "false positive: {:?}", a_blk.events());
    }

    #[test]
    fn checker_capture_restore_roundtrips() {
        use argus_machine::SnapshotState;
        let words: Vec<u32> = two_block_program().iter().map(encode).collect();
        let mut m = Machine::new(MachineConfig::default());
        m.load_code(0, &words);
        let mut a = Argus::new(ArgusConfig::default());
        let mut inj = FaultInjector::none();
        // Run two instructions so the SHS file and CFC hold mid-block state.
        for _ in 0..2 {
            if let StepOutcome::Committed(rec) = m.step(&mut inj) {
                a.on_commit(&rec, &mut inj);
            }
        }
        let st = a.capture_state();
        let mut b = Argus::new(ArgusConfig::default());
        assert_ne!(a.state_fingerprint(), b.state_fingerprint(), "mid-run state is not initial");
        b.restore_state(&st);
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        assert_eq!(b.capture_state(), st);
    }

    #[test]
    #[should_panic(expected = "different signature width")]
    fn checker_restore_rejects_width_mismatch() {
        use argus_machine::SnapshotState;
        let a = Argus::new(ArgusConfig { sig_width: 4, ..ArgusConfig::default() });
        let st = a.capture_state();
        let mut b = Argus::new(ArgusConfig::default());
        b.restore_state(&st);
    }

    #[test]
    fn disabled_checkers_stay_silent() {
        use argus_machine::sites as msites;
        use argus_sim::fault::{Fault, FaultKind, SiteFlavor};
        let words: Vec<u32> = two_block_program().iter().map(encode).collect();
        let mut m = Machine::new(MachineConfig::default());
        m.load_code(0, &words);
        let cfg = ArgusConfig {
            enable_cc: false,
            enable_parity: false,
            enable_dcs: false,
            enable_watchdog: false,
            ..ArgusConfig::default()
        };
        let mut argus = Argus::new(cfg);
        let mut inj = FaultInjector::with_fault(Fault {
            site: msites::ALU_ADDER_OUT,
            bit: 3,
            kind: FaultKind::Permanent,
            arm_cycle: 0,
            flavor: SiteFlavor::Single,
            width: 32,
            sensitization: 1.0,
        });
        loop {
            match m.step(&mut inj) {
                StepOutcome::Committed(rec) => {
                    argus.on_commit(&rec, &mut inj);
                }
                StepOutcome::Stalled => {}
                StepOutcome::Halted => break,
            }
        }
        assert!(argus.events().is_empty());
    }
}
