//! Block-compiled execution (JIT-lite).
//!
//! The interpreter dispatches one instruction per [`Machine::step`] and
//! evaluates every fault tap on the way, even where no live fault can
//! match one. This module lowers basic blocks — the unit the Argus checker
//! already works in — into pre-decoded straight-line *plans* and executes
//! a whole plan per dispatch whenever it is provably safe to do so: on
//! golden runs, before a fault arms, while a fault is armed on a site the
//! block never taps, and — running just the ops that can tap it with their
//! live taps inline — while a fault is armed on a site some of the block's
//! ops tap.
//!
//! # Plans are a pure function of program bytes
//!
//! A [`BlockPlan`] is built by scanning main memory forward from a block
//! entry address with the same delay-slot-aware termination rule the
//! machine and the compiler's `binver` segmentation use: a block ends after
//! a CTI's delay slot, an end-of-block `Sig` marker, or `halt`. Each plan
//! op records the raw word, its decode, its embedded signature bits, and —
//! for linking jumps — the link-register value, which the interpreter
//! derives from the live signature bit stream but a plan knows statically.
//! The plan also records its *tap set*: the union of
//! [`Machine::op_taps`] over its ops, i.e. every fault site the
//! interpreter could tap while executing the block.
//!
//! Plans live in a direct-mapped [`PlanCache`] keyed on the entry address.
//! Like the predecode memo, the cache is excluded from snapshots and
//! fingerprints, and it survives snapshot restores. A stale entry can
//! never produce wrong execution because it is *validated against program
//! bytes* before use:
//!
//! - each plan is stamped with a fresh memory write generation when it is
//!   built or validated; on lookup, if any page it spans was written since
//!   (`MainMemory::page_dirty_since`) — by a store, a host write or a
//!   snapshot restore — all of its words are re-checked against memory,
//!   and a mismatch rebuilds it;
//! - during execution, only the block's own stores can change memory; one
//!   that rewrites an upcoming op of the same block ends the plan right
//!   after the store and hands control back to the interpreter, which then
//!   fetches the new word (mid-block staleness, see
//!   [`BlockCommit::complete`]).
//!
//! # The gate
//!
//! [`Machine::plan_block`] declines (and the caller falls back to the
//! one-step interpreter) unless all of these hold:
//!
//! - [`MachineConfig`](crate::machine::MachineConfig)`::block_exec` is on,
//!   the machine is not halted, not in a delay slot, has no pending branch,
//!   and its signature-bit accumulator is empty (i.e. it sits at a block
//!   boundary);
//! - the current PC begins a plannable block (a terminator within the scan
//!   cap, all words in range);
//! - `cycle + plan.worst_cycles` stays within the caller's cycle bound, so
//!   the run stops at the exact same cycle under either engine;
//! - no live fault that arms at or before that worst-case end sits on a
//!   site every op taps ([`TapSet::EVERY_OP`]: stall release, fetch, the
//!   decode trunk and its branches, next-PC).
//!
//! Past the injector's [`FaultInjector::quiescent_horizon`] the gate
//! resolves each such fault's site to its [`TapSet`] bit, once per
//! injector. Their union is the block's *live* set ([`BlockGate::armed`]);
//! its meet with the plan's tap set is the `tapped` set, which says which
//! ops can reach a live fault. Every plan's tap set holds every every-op
//! site, so a block the gate accepts has none of them live: no stall, no
//! decode change and no next-PC change can happen inside it.
//!
//! # Tapped ops
//!
//! A fault draws (its masking decision, a flip, a transient's expiry) only
//! on a tap of its own site, and an op's static tap set
//! ([`Machine::op_taps`]) holds every site a step of it can tap. So an op
//! whose set misses `tapped` would tap nothing but identity functions that
//! leave the injector untouched. An op whose set meets `tapped` is a
//! *tapped op*. Both run from their [`PlanOp`] through one plan-op
//! executor, generic over how a tap resolves:
//!
//! - an untapped op takes every tap as the identity;
//! - a tapped op first sets the injector's cycle to its own start cycle,
//!   as [`Machine::step`] would, then sends each tap whose site is in the
//!   live set to the injector, in the interpreter's order, and takes every
//!   other tap as the identity.
//!
//! The gate is the live set, not `tapped`: a flipped read address can make
//! an op read a register cell outside the plan's tap set, and a live
//! fault on that cell must still draw. Taps whose value nothing reads
//! (`MUL_HI`, `DIV_R`) are still drawn, since each draw advances the
//! fault's exposure count. A linking op takes the plan's link value unless
//! a link-DCS site is live; then it taps the plan's DCS slot as the
//! interpreter taps the one it extracts from the signature bits, which
//! are the same bits. Every every-op tap is the identity, so the fetched
//! word is the plan's word, its decode the plan's op, and the next PC the
//! plan's next op; a tapped op cannot leave the plan. The signature-bit
//! accumulator is untouched until a bail, which pushes the bits of the ops
//! that ran.
//!
//! A complete plan execution is therefore bit-identical to the interpreter
//! — same registers, parity, flag, memory, cache timing state, cycle
//! count, PC and injector state — which the equivalence suite
//! (`argus-faults/tests/block_equiv.rs`) checks over every suite workload,
//! fault-free, under one permanent fault per tapped site, under transients
//! armed mid-block, under two-fault injectors, and under armed campaigns.

use crate::exec;
use crate::machine::{Machine, RF_CELL_SITES};
use crate::sites::{self, TapSet};
use argus_isa::decode::decode;
use argus_isa::encode::embedded_bits_packed;
use argus_isa::instr::{AluOp, Instr, MemSize, MulDivOp};
use argus_isa::reg::Reg;
use argus_isa::{pack_indirect_target, split_indirect_target, INDIRECT_ADDR_MASK};
use argus_mem::{MainMemory, MemorySystem, DIRTY_PAGE_WORDS};
use argus_sim::bits::parity32;
use argus_sim::bitstream::{BitStream, PackedBits};
use argus_sim::fault::FaultInjector;

/// Scan cap per plan, in instructions. The compiler's `max_block_len` is 64
/// plus a delay slot; anything longer is left to the interpreter.
const MAX_PLAN_OPS: usize = 96;

/// Direct-mapped plan cache slots (covers 2KB of block entry points per
/// conflict-free residency; collisions just rebuild).
const PLAN_SLOTS: usize = 512;

/// One pre-decoded instruction of a block plan.
#[derive(Debug, Clone, Copy)]
struct PlanOp {
    /// The raw program word the decode came from (re-checked against
    /// memory whenever its page is written; see the module docs).
    word: u32,
    instr: Instr,
    /// Embedded signature bits of `word` (batched checking + bit-stream
    /// reconstruction on a mid-block bail).
    embedded: PackedBits,
    /// Precomputed link-register value for linking jumps: the interpreter
    /// reads the DCS slot from the live signature bit stream, which a plan
    /// knows statically. Zero for non-linking ops.
    link_value: u32,
    /// [`Machine::op_taps`] of the op: it runs as a tapped op (see the
    /// module docs) when a live fault sits on one of these sites.
    taps: TapSet,
}

/// A compiled straight-line plan for one basic block.
///
/// Pure function of the machine configuration and the program words at
/// `[addr, addr + 4 * len)`; the only machine state it holds is the write
/// generation it was last validated at.
#[derive(Debug, Clone)]
pub struct BlockPlan {
    addr: u32,
    /// Words the build scanned from `addr` (the plan's length, or the
    /// whole unsuccessful scan of a negative plan): the bytes it depends on.
    span_words: u32,
    /// Memory write generation at which the scanned words were last known
    /// to match the plan: no page they live on may have been written at or
    /// after it for the plan to be used unchecked.
    stamp: u64,
    /// Empty for a *negative* plan: an address where no well-formed block
    /// terminator exists within the scan cap (cached so unplannable
    /// addresses don't rescan every visit).
    ops: Vec<PlanOp>,
    /// Every fault site the interpreter could tap executing this block.
    taps: TapSet,
    /// FNV-1a over the plan's words: checker-side memo key.
    words_hash: u64,
    /// Worst-case cycles a full execution can charge (every fetch and data
    /// access missing, dirty writebacks, div latency). Overestimates only:
    /// used to gate against cycle bounds and fault arm cycles.
    worst_cycles: u64,
    /// Worst-case stall (cycles − 1) of any single op, for the checker's
    /// watchdog gate.
    max_op_stall: u32,
    /// The block ends in a CTI's delay slot (vs an `eob` Sig / `halt`
    /// fallthrough) — the distinction `Cfc::finish_block` keys on.
    ends_with_cti: bool,
    /// Canonical shape the batched checker accepts: exactly one CTI sitting
    /// immediately before the final (delay-slot) op, or no CTI at all.
    argus_simple: bool,
}

impl BlockPlan {
    /// Scans program bytes forward from `addr` and compiles a plan (the
    /// caller stamps it). Returns a negative (empty) plan when no
    /// terminator is found within [`MAX_PLAN_OPS`] or the scan walks out
    /// of memory.
    fn build(cfg: &crate::machine::MachineConfig, mem: &MemorySystem, addr: u32) -> BlockPlan {
        let addr = addr & !3;
        let argus = cfg.argus_mode;
        // Worst-case latencies; `fetch` never writes back, data ops might.
        let fetch_worst = cfg.mem.hit_cycles + cfg.mem.miss_penalty;
        let data_worst = fetch_worst + cfg.mem.writeback_penalty;

        let mut ops: Vec<PlanOp> = Vec::new();
        let mut bits = BitStream::new();
        let mut delay = false;
        let mut worst_cycles = 0u64;
        let mut max_op_cycles = 0u32;
        let mut ends_with_cti = false;
        let mut cti_count = 0u32;
        let mut cti_at = None;
        let mut hash = crate::snapshot::Fnv64::new();
        let mut taps = TapSet::EMPTY;
        let mut span_words = 0u32;
        let mut complete = false;

        for k in 0..MAX_PLAN_OPS {
            let pc = addr.wrapping_add(4 * k as u32);
            let Ok((word, _tag)) = mem.memory().read(pc) else {
                break;
            };
            span_words += 1;
            let instr = decode(word);
            let op_taps = Machine::op_taps(&instr, argus);
            taps = taps.union(op_taps);
            let embedded = embedded_bits_packed(word);
            bits.push_packed(embedded);
            let in_delay = delay;
            delay = false;
            let mut block_end = in_delay;
            let mut op_cycles = fetch_worst;
            let mut link_value = 0u32;
            match instr {
                Instr::MulDiv { op, .. } => {
                    op_cycles += if matches!(op, MulDivOp::Div | MulDivOp::Divu) {
                        cfg.div_cycles.saturating_sub(1)
                    } else {
                        cfg.mul_cycles.saturating_sub(1)
                    };
                }
                Instr::Load { .. } | Instr::Store { .. } => {
                    op_cycles += data_worst.saturating_sub(1);
                }
                Instr::Jump { link: true, .. } => {
                    link_value = static_link_value(argus, pc, &bits, 1);
                }
                Instr::JumpReg { link: true, .. } => {
                    link_value = static_link_value(argus, pc, &bits, 0);
                }
                Instr::Sig { eob: true, .. } | Instr::Halt => block_end = true,
                _ => {}
            }
            if instr.is_cti() {
                delay = true;
                cti_count += 1;
                if cti_at.is_none() {
                    cti_at = Some(k);
                }
            }
            ops.push(PlanOp { word, instr, embedded, link_value, taps: op_taps });
            worst_cycles += op_cycles as u64;
            max_op_cycles = max_op_cycles.max(op_cycles);
            hash.mix(word as u64);
            if block_end {
                ends_with_cti = in_delay;
                complete = true;
                break;
            }
        }
        if !complete {
            ops.clear();
            taps = TapSet::EMPTY;
            worst_cycles = 0;
            max_op_cycles = 0;
        }
        let argus_simple = complete
            && match (ends_with_cti, cti_count) {
                (true, 1) => cti_at == Some(ops.len().saturating_sub(2)),
                (false, 0) => true,
                _ => false,
            };
        BlockPlan {
            addr,
            span_words,
            stamp: 0,
            ops,
            taps,
            words_hash: hash.finish(),
            worst_cycles,
            max_op_stall: max_op_cycles.saturating_sub(1),
            ends_with_cti,
            argus_simple,
        }
    }

    /// Block entry address.
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// Instructions in the plan (0 for a negative plan).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether this is a negative (unplannable-address) plan.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// FNV-1a over the plan's raw words (checker-side memo key).
    pub fn words_hash(&self) -> u64 {
        self.words_hash
    }

    /// The raw program word of op `i`.
    pub fn word(&self, i: usize) -> u32 {
        self.ops[i].word
    }

    /// The decoded instruction of op `i`.
    pub fn instr(&self, i: usize) -> Instr {
        self.ops[i].instr
    }

    /// The embedded signature bits of op `i`.
    pub fn embedded(&self, i: usize) -> PackedBits {
        self.ops[i].embedded
    }

    /// Whether the block ends in a CTI's delay slot.
    pub fn ends_with_cti(&self) -> bool {
        self.ends_with_cti
    }

    /// Whether the batched checker accepts this shape (see field docs).
    pub fn argus_simple(&self) -> bool {
        self.argus_simple
    }

    /// Worst-case stall (cycles − 1) of any single op.
    pub fn max_op_stall(&self) -> u32 {
        self.max_op_stall
    }

    /// Worst-case cycles a full execution can charge.
    pub fn worst_cycles(&self) -> u64 {
        self.worst_cycles
    }

    /// Whether no page the plan's words live on was written since its stamp.
    fn pages_clean(&self, mem: &MainMemory) -> bool {
        let first = (self.addr / 4) as usize;
        let last = first + self.span_words.max(1) as usize - 1;
        (first / DIRTY_PAGE_WORDS..=last / DIRTY_PAGE_WORDS)
            .all(|page| !mem.page_dirty_since(page, self.stamp))
    }

    /// Whether memory still holds every word the plan was built from
    /// (always false for a negative plan, which keeps none).
    fn words_match(&self, mem: &MainMemory) -> bool {
        !self.is_empty() && self.words_match_from(mem, 0)
    }

    /// Whether memory still holds the plan's words from op `from` on.
    fn words_match_from(&self, mem: &MainMemory, from: usize) -> bool {
        self.ops.iter().enumerate().skip(from).all(|(k, op)| {
            mem.read(self.addr.wrapping_add(4 * k as u32)).is_ok_and(|(w, _)| w == op.word)
        })
    }
}

/// What the interpreter's link-value computation would produce given the
/// signature bits accumulated through this op.
fn static_link_value(argus: bool, pc: u32, bits: &BitStream, slot: usize) -> u32 {
    let ret = pc.wrapping_add(8);
    if argus {
        let dcs = bits.extract(5 * slot, 5) & 31;
        pack_indirect_target(ret & INDIRECT_ADDR_MASK, dcs)
    } else {
        ret
    }
}

/// Pre-flight summary of the plan gating decision, returned by
/// [`Machine::plan_block`]. Carrying this (Copy) value instead of a plan
/// borrow lets callers consult the checker between planning and execution.
#[derive(Debug, Clone, Copy)]
pub struct BlockGate {
    /// Block entry address (the machine's current PC).
    pub addr: u32,
    /// Instructions in the plan.
    pub len: u32,
    /// The block ends in a CTI's delay slot.
    pub ends_with_cti: bool,
    /// Canonical single-CTI/no-CTI shape the batched checker accepts.
    pub argus_simple: bool,
    /// Worst-case stall (cycles − 1) of any single op.
    pub max_op_stall: u32,
    /// Checker-side memo key (with `addr`).
    pub words_hash: u64,
    /// The block's live set: the sites of every live fault that arms at or
    /// before the block's worst-case end (empty while the injector is
    /// quiescent throughout). A tapped op sends exactly the taps on these
    /// sites to the injector. May hold the foreign bit (a fault on a site
    /// only the checker taps); never holds an every-op site.
    pub armed: TapSet,
    /// The plan's tap set: every site the interpreter could tap running
    /// the whole block.
    pub taps: TapSet,
    /// `armed ∩ taps`: the live sites some op of the block can tap. Ops
    /// whose tap set meets it run as tapped ops (see the module docs).
    pub tapped: TapSet,
}

/// A load whose word address fell outside main memory during a block
/// execution. The interpreter substitutes an all-ones payload with a clear
/// tag, which the checker's memory parity check may flag — a batched
/// checker needs the exact (pc, cycle, observed word) triple to raise the
/// identical event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OobLoad {
    /// PC of the load.
    pub pc: u32,
    /// Machine cycle after the load committed.
    pub end_cycle: u64,
    /// Whether the fallback word's parity checks out against its (clear)
    /// tag — exactly the `parity_ok` the interpreter's commit record would
    /// carry for this load.
    pub parity_ok: bool,
}

/// What one block execution did, returned by [`Machine::exec_block`].
#[derive(Debug, Clone)]
pub struct BlockCommit {
    /// Block entry address.
    pub addr: u32,
    /// Instructions actually retired (== plan length when `complete`).
    pub executed: u32,
    /// Whether the whole plan ran. `false` means an in-block store rewrote
    /// an upcoming word: execution stopped right after the store and the
    /// machine is mid-block — the caller must resume the interpreter,
    /// which fetches the new word.
    pub complete: bool,
    /// PC of the last retired instruction.
    pub last_pc: u32,
    /// Machine cycle after the block.
    pub end_cycle: u64,
    /// The block ended in a CTI's delay slot (always false when not
    /// `complete`; the interpreter finishes the block).
    pub ended_by_cti: bool,
    /// Flag value a conditional branch in the block observed.
    pub cti_flag: Option<bool>,
    /// DCS bits split from an indirect jump's target (argus mode).
    pub indirect_dcs: Option<u32>,
    /// The block executed `halt`.
    pub halted: bool,
    /// The machine's compare flag after the block.
    pub flag_after: bool,
    /// Loads that fell outside main memory, in commit order (almost always
    /// empty — an empty `Vec` does not allocate).
    pub oob_loads: Vec<OobLoad>,
}

/// Plan/predecode cache counters drained by [`Machine::take_exec_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Predecode memo lookups that found their word.
    pub predecode_hits: u64,
    /// Predecode memo lookups that recomputed a slot.
    pub predecode_misses: u64,
    /// Block plans executed to completion.
    pub plan_hits: u64,
    /// Of `plan_hits`, those executed while a live fault was armed: how
    /// often the tap-set gate engages.
    pub armed_plan_hits: u64,
    /// Of `armed_plan_hits`, those that ran at least one tapped op.
    pub tapped_block_hits: u64,
    /// Tapped ops: ops run inside blocks with their live taps inline,
    /// because their tap set holds the site of a live fault arming by the
    /// block's end (see the module docs). Those that start once the fault
    /// has armed are also counted in `armed_steps`.
    pub tapped_ops: u64,
    /// Ops executed while a fault was live (armed and not expired):
    /// interpreter steps, and tapped ops inside blocks.
    pub armed_steps: u64,
    /// Block plans (re)built.
    pub plan_misses: u64,
    /// Plan cache slots whose previous occupant was replaced or dropped.
    pub plan_evictions: u64,
    /// Block executions that bailed mid-plan back to the interpreter.
    pub plan_fallbacks: u64,
    /// Faulty runs stopped early because their state rejoined the golden
    /// run (counted by the campaign engine, never by the machine).
    pub converged: u64,
    /// Golden-run cycles those runs did not simulate.
    pub converged_cycles_saved: u64,
    /// Injections classified from the no-fault run without simulating,
    /// because the no-fault run never taps the fault's site at or after
    /// its arm cycle (counted by the campaign engine).
    pub dead_site: u64,
    /// Permanent-fault runs on a checker-only site stopped at their first
    /// detection, taking the no-fault run's end (counted by the campaign
    /// engine).
    pub checker_only: u64,
    /// Permanent-fault runs whose flipped bits no consumer reads, stopped
    /// at their first flip with the no-fault run's verdict (counted by the
    /// campaign engine).
    pub masked_bits: u64,
    /// Interpreter steps taken before detection because the checker
    /// declined a block the machine offered (counted by the campaign
    /// engine).
    pub declined_steps: u64,
    /// Of `declined_steps`, those taken after the fault's first flip.
    pub declined_flipped: u64,
    /// Cycles the campaign engine's rolling golden cursor walked the
    /// no-fault run forward (counted by the campaign engine).
    pub cursor_walk_cycles: u64,
    /// Cursor resumes that reset the resident pair to the entry state
    /// first, because no checkpoint lay at or before the arm cycle.
    pub cursor_resets: u64,
    /// Cursor walks that passed their arm cycle and fell back to a cold
    /// reset (0 whenever the walk follows the no-fault run's block ends).
    pub cursor_overshoots: u64,
    /// Cycles faulty runs simulated from their start (entry, fork or
    /// cursor) to their arm cycle.
    pub prefix_cycles: u64,
}

impl ExecStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &ExecStats) {
        self.predecode_hits += other.predecode_hits;
        self.predecode_misses += other.predecode_misses;
        self.plan_hits += other.plan_hits;
        self.armed_plan_hits += other.armed_plan_hits;
        self.tapped_block_hits += other.tapped_block_hits;
        self.tapped_ops += other.tapped_ops;
        self.armed_steps += other.armed_steps;
        self.plan_misses += other.plan_misses;
        self.plan_evictions += other.plan_evictions;
        self.plan_fallbacks += other.plan_fallbacks;
        self.converged += other.converged;
        self.converged_cycles_saved += other.converged_cycles_saved;
        self.dead_site += other.dead_site;
        self.checker_only += other.checker_only;
        self.masked_bits += other.masked_bits;
        self.declined_steps += other.declined_steps;
        self.declined_flipped += other.declined_flipped;
        self.cursor_walk_cycles += other.cursor_walk_cycles;
        self.cursor_resets += other.cursor_resets;
        self.cursor_overshoots += other.cursor_overshoots;
        self.prefix_cycles += other.prefix_cycles;
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == ExecStats::default()
    }
}

/// Direct-mapped plan cache. Excluded from snapshots and fingerprints:
/// entries are validated against program bytes before use, so a stale
/// entry is rebuilt (or bailed out of), never wrong.
#[derive(Debug, Clone)]
pub(crate) struct PlanCache {
    slots: Box<[Option<Box<BlockPlan>>]>,
    /// [`TapSet`] of each fault of the injector with id `sites_of`, in slot
    /// order: the site-name lookup the tap-set gate needs, done once per
    /// injector.
    fault_sites: Vec<TapSet>,
    /// The union of `fault_sites`.
    all_fault_sites: TapSet,
    sites_of: u64,
    hits: u64,
    armed_hits: u64,
    tapped_hits: u64,
    tapped_ops: u64,
    /// Ops under a live fault, counted by [`Machine::step`] and by each
    /// tapped op.
    pub(crate) armed_steps: u64,
    misses: u64,
    evictions: u64,
    fallbacks: u64,
}

impl PlanCache {
    pub(crate) fn new() -> Self {
        Self {
            slots: vec![None; PLAN_SLOTS].into_boxed_slice(),
            fault_sites: Vec::new(),
            all_fault_sites: TapSet::EMPTY,
            sites_of: 0,
            hits: 0,
            armed_hits: 0,
            tapped_hits: 0,
            tapped_ops: 0,
            armed_steps: 0,
            misses: 0,
            evictions: 0,
            fallbacks: 0,
        }
    }

    #[inline]
    fn index(addr: u32) -> usize {
        ((addr >> 2) as usize) & (PLAN_SLOTS - 1)
    }

    /// Resolves the sites of `inj`'s faults to [`TapSet`] bits, once per
    /// injector (keyed by [`FaultInjector::id`]).
    fn refresh_sites(&mut self, inj: &FaultInjector) {
        if self.sites_of != inj.id() {
            self.fault_sites.clear();
            self.fault_sites.extend(inj.faults().map(|f| TapSet::site(f.site)));
            self.all_fault_sites = self.fault_sites.iter().fold(TapSet::EMPTY, |a, &t| a.union(t));
            self.sites_of = inj.id();
        }
    }

    /// The sites of every fault `inj` carries, live or not.
    #[inline]
    pub(crate) fn fault_sites(&mut self, inj: &FaultInjector) -> TapSet {
        self.refresh_sites(inj);
        self.all_fault_sites
    }
}

impl Machine {
    /// Ensures the cache slot for `addr` holds a plan that matches program
    /// memory: a plan whose pages were written since its stamp has all its
    /// words re-checked (and is restamped, or rebuilt on a mismatch).
    /// Returns the slot index if `addr` begins a plannable block.
    fn ensure_plan(&mut self, addr: u32) -> Option<usize> {
        let addr = addr & !3;
        self.mem.memory().read(addr).ok()?;
        let idx = PlanCache::index(addr);
        let mem = self.mem.memory();
        match self.plans.slots[idx].as_deref() {
            Some(p) if p.addr == addr && p.pages_clean(mem) => {
                return (!p.is_empty()).then_some(idx);
            }
            Some(p) if p.addr == addr && p.words_match(mem) => {}
            occupant => {
                if occupant.is_some() {
                    self.plans.evictions += 1;
                }
                self.plans.misses += 1;
                let plan = BlockPlan::build(&self.cfg, &self.mem, addr);
                self.plans.slots[idx] = Some(Box::new(plan));
            }
        }
        // Built or re-checked just now: stamp with a fresh generation, so
        // any later write to the plan's pages is seen.
        let stamp = self.mem.memory_mut().advance_generation();
        let plan = self.plans.slots[idx].as_deref_mut().expect("slot just filled");
        plan.stamp = stamp;
        (!plan.is_empty()).then_some(idx)
    }

    /// Warms the plan cache for the block at `addr` (compiler lowering
    /// pass). Returns whether `addr` begins a plannable block.
    pub fn prepare_plan(&mut self, addr: u32) -> bool {
        self.ensure_plan(addr).is_some()
    }

    /// The cached plan at `addr`, unvalidated: right after
    /// [`Machine::exec_block`] it is the plan that just ran, complete or
    /// bailed (checker-side introspection).
    pub fn plan_at(&self, addr: u32) -> Option<&BlockPlan> {
        let idx = PlanCache::index(addr & !3);
        self.plans.slots[idx].as_deref().filter(|p| p.addr == addr & !3 && !p.is_empty())
    }

    /// Decides whether the block at the current PC may run as one compiled
    /// plan, applying every rule in the module docs. `cycle_bound` is the
    /// caller's stopping bound (e.g. `max_cycles`): the block is declined
    /// unless it provably finishes within it, so both engines stop at the
    /// identical cycle.
    pub fn plan_block(&mut self, inj: &FaultInjector, cycle_bound: u64) -> Option<BlockGate> {
        if !self.cfg.block_exec
            || self.halted
            || self.delay_slot
            || self.pending_branch.is_some()
            || !self.block_bits.is_empty()
        {
            return None;
        }
        let idx = self.ensure_plan(self.pc)?;
        let plan = self.plans.slots[idx].as_deref().expect("ensured");
        let end = self.cycle.checked_add(plan.worst_cycles)?;
        if end > cycle_bound {
            return None;
        }
        let mut gate = BlockGate {
            addr: plan.addr,
            len: plan.ops.len() as u32,
            ends_with_cti: plan.ends_with_cti,
            argus_simple: plan.argus_simple,
            max_op_stall: plan.max_op_stall,
            words_hash: plan.words_hash,
            armed: TapSet::EMPTY,
            taps: plan.taps,
            tapped: TapSet::EMPTY,
        };
        if end >= inj.quiescent_horizon() {
            gate.armed = self.armed_sites(inj, end);
            gate.tapped = gate.armed.intersection(gate.taps);
            // A fault every op taps would have every op interpreted, and
            // could stall or change a decode mid-block.
            if gate.tapped.intersects(TapSet::EVERY_OP) {
                return None;
            }
        }
        Some(gate)
    }

    /// The sites of every live fault in `inj` that arms at or before `end`,
    /// resolving fault sites to [`TapSet`] bits once per injector.
    fn armed_sites(&mut self, inj: &FaultInjector, end: u64) -> TapSet {
        let cache = &mut self.plans;
        cache.refresh_sites(inj);
        inj.live_faults()
            .filter(|(_, f)| f.arm_cycle <= end)
            .fold(TapSet::EMPTY, |armed, (k, _)| armed.union(cache.fault_sites[k]))
    }

    /// Executes the plan approved by [`Machine::plan_block`]. Returns
    /// `None` (machine untouched) if the machine or the plan's program
    /// bytes moved since the gate was issued; otherwise retires the block's
    /// instructions with semantics bit-identical to the same number of
    /// interpreter steps.
    pub fn exec_block(&mut self, inj: &mut FaultInjector, gate: &BlockGate) -> Option<BlockCommit> {
        if self.halted || self.pc != gate.addr || self.delay_slot || self.pending_branch.is_some() {
            return None;
        }
        let idx = PlanCache::index(gate.addr);
        // Take the plan out of its slot so executing (which borrows the
        // machine mutably) cannot alias it.
        let plan = self.plans.slots[idx].take()?;
        if plan.addr != gate.addr || plan.is_empty() || !plan.pages_clean(self.mem.memory()) {
            self.plans.slots[idx] = Some(plan);
            return None;
        }
        let tapped_before = self.plans.tapped_ops;
        let commit = self.exec_plan_ops(&plan, inj, gate);
        if commit.complete {
            self.plans.hits += 1;
            if !gate.armed.is_empty() {
                self.plans.armed_hits += 1;
            }
            if self.plans.tapped_ops != tapped_before {
                self.plans.tapped_hits += 1;
            }
        } else {
            // The block stored over its own upcoming words. The stale plan
            // stays in its slot so the caller can still read the ops it
            // retired ([`Machine::plan_at`]); its page was written after
            // its stamp, so the next visit re-checks its words and
            // rebuilds it (counting the eviction then).
            self.plans.fallbacks += 1;
        }
        self.plans.slots[idx] = Some(plan);
        inj.set_cycle(self.cycle);
        Some(commit)
    }

    /// One-call fast path: plan the block at PC and execute it if every
    /// gate passes. `None` means "interpret at least one step".
    pub fn try_block_exec(
        &mut self,
        inj: &mut FaultInjector,
        cycle_bound: u64,
    ) -> Option<BlockCommit> {
        let gate = self.plan_block(inj, cycle_bound)?;
        self.exec_block(inj, &gate)
    }

    /// Drains the predecode and plan-cache counters accumulated since the
    /// last call (campaign `run` accounting).
    pub fn take_exec_stats(&mut self) -> ExecStats {
        let (predecode_hits, predecode_misses) = self.predecode.take_counters();
        ExecStats {
            predecode_hits,
            predecode_misses,
            plan_hits: std::mem::take(&mut self.plans.hits),
            armed_plan_hits: std::mem::take(&mut self.plans.armed_hits),
            tapped_block_hits: std::mem::take(&mut self.plans.tapped_hits),
            tapped_ops: std::mem::take(&mut self.plans.tapped_ops),
            armed_steps: std::mem::take(&mut self.plans.armed_steps),
            plan_misses: std::mem::take(&mut self.plans.misses),
            plan_evictions: std::mem::take(&mut self.plans.evictions),
            plan_fallbacks: std::mem::take(&mut self.plans.fallbacks),
            ..ExecStats::default()
        }
    }

    /// The straight-line executor: every op runs from its [`PlanOp`]
    /// through [`Machine::exec_plan_op`], a tapped op (its tap set meets
    /// `gate.tapped`) with the live set's taps inline, every other op with
    /// identity taps (see the module docs). The plan matched memory at
    /// entry, so only an in-block store can make an upcoming word stale;
    /// one that does ends the plan early.
    fn exec_plan_ops(
        &mut self,
        plan: &BlockPlan,
        inj: &mut FaultInjector,
        gate: &BlockGate,
    ) -> BlockCommit {
        debug_assert!(
            !gate.armed.intersects(TapSet::EVERY_OP),
            "the gate let an every-op site go live inside a block"
        );
        let mut pc = self.pc;
        let mut last_pc = pc;
        let mut out = OpOut { cti_flag: None, indirect_dcs: None, oob_loads: Vec::new() };
        let mut executed = plan.ops.len();
        let mut complete = true;
        let mut skip_canary = argus_sim::canary::enabled("canary-tapped-op-skips-draw");
        let stale_cycle_canary = argus_sim::canary::enabled("canary-tapped-op-stale-cycle");
        for (k, op) in plan.ops.iter().enumerate() {
            let mut tapped = op.taps.intersects(gate.tapped);
            if tapped && skip_canary {
                skip_canary = false;
                tapped = false;
            }
            let next = if tapped {
                self.plans.tapped_ops += 1;
                if !stale_cycle_canary {
                    inj.set_cycle(self.cycle);
                }
                if !inj.is_quiescent() {
                    self.plans.armed_steps += 1;
                }
                self.exec_plan_op(op, pc, &mut LiveTaps { inj, live: gate.armed }, &mut out)
            } else {
                self.exec_plan_op(op, pc, &mut IdentityTaps, &mut out)
            };
            last_pc = pc;
            pc = next;
            if matches!(op.instr, Instr::Store { .. })
                && !plan.pages_clean(self.mem.memory())
                && !plan.words_match_from(self.mem.memory(), k + 1)
            {
                // Mid-block staleness: stop exactly `k + 1` interpreter
                // steps in, so the interpreter resumes by fetching the
                // rewritten word.
                (executed, complete) = (k + 1, false);
                break;
            }
        }
        self.pc = pc;
        if !complete {
            // Stopped mid-block: hold the signature bits the interpreter
            // would. A complete block leaves the accumulator as it found
            // it, empty: the interpreter pushes each op's bits and clears
            // them at block end.
            for done in &plan.ops[..executed] {
                self.block_bits.push_packed(done.embedded);
            }
        }
        BlockCommit {
            addr: plan.addr,
            executed: executed as u32,
            complete,
            last_pc,
            end_cycle: self.cycle,
            ended_by_cti: complete && plan.ends_with_cti,
            cti_flag: out.cti_flag,
            indirect_dcs: out.indirect_dcs,
            halted: self.halted,
            flag_after: self.flag,
            oob_loads: out.oob_loads,
        }
    }

    /// Runs one plan op at `pc` with the exact state updates of
    /// [`Machine::step`]: the I-cache fetch, the op's semantics, the next
    /// PC and the cycles charged. Each fault tap resolves through `taps`;
    /// the every-op taps (stall release, fetch, decode, next PC) are the
    /// identity under the gate and are not made. The commit-record
    /// plumbing is skipped and the signature bits are left to the caller.
    /// Returns the next PC.
    #[inline(always)]
    fn exec_plan_op<T: Taps>(
        &mut self,
        op: &PlanOp,
        pc: u32,
        taps: &mut T,
        out: &mut OpOut,
    ) -> u32 {
        let (_, fetch_cycles) = self.mem.fetch(pc);
        let in_delay = self.delay_slot;
        self.delay_slot = false;
        let argus = self.cfg.argus_mode;
        let mut mem_cycles = 0u32;
        let mut extra_cycles = 0u32;
        let mut new_pending: Option<u32> = None;
        let mut oob_load = None;
        match op.instr {
            Instr::Alu { op, rd, ra, rb } => {
                let (a, _) = self.read_port(0, ra, taps);
                let (b, _) = self.read_port(1, rb, taps);
                let r = taps.tap32(alu_unit(op), exec::alu(op, a, b));
                self.write_back(RESULT_BUS, rd, r, taps);
            }
            Instr::AluImm { op, rd, ra, imm } => {
                let (a, _) = self.read_port(0, ra, taps);
                let base = exec::alu_imm_base(op);
                let r =
                    taps.tap32(alu_unit(base), exec::alu(base, a, exec::alu_imm_operand(op, imm)));
                self.write_back(RESULT_BUS, rd, r, taps);
            }
            Instr::ShiftImm { op, rd, ra, sh } => {
                let (a, _) = self.read_port(0, ra, taps);
                let r = taps.tap32(SHIFT, exec::shift_imm(op, a, sh));
                self.write_back(RESULT_BUS, rd, r, taps);
            }
            Instr::Ext { kind, rd, ra } => {
                let (a, _) = self.read_port(0, ra, taps);
                let r = taps.tap32(SHIFT, exec::extend(kind, a));
                self.write_back(RESULT_BUS, rd, r, taps);
            }
            Instr::Movhi { rd, imm } => {
                self.write_back(RESULT_BUS, rd, (imm as u32) << 16, taps);
            }
            Instr::MulDiv { op, rd, ra, rb } => {
                let (a, _) = self.read_port(0, ra, taps);
                let (b, _) = self.read_port(1, rb, taps);
                // The high word and the remainder feed only the checker,
                // but their taps still draw.
                let v = match op {
                    MulDivOp::Mul | MulDivOp::Mulu => {
                        extra_cycles = self.cfg.mul_cycles.saturating_sub(1);
                        let (lo, hi) = exec::multiply(op, a, b);
                        let lo = taps.tap32(MUL_LO, lo);
                        taps.tap32(MUL_HI, hi);
                        lo
                    }
                    MulDivOp::Div | MulDivOp::Divu => {
                        extra_cycles = self.cfg.div_cycles.saturating_sub(1);
                        let (q, r) = exec::divide(op, a, b);
                        let q = taps.tap32(DIV_Q, q);
                        taps.tap32(DIV_R, r);
                        q
                    }
                };
                self.write_back(RESULT_BUS, rd, v, taps);
            }
            Instr::SetFlag { cond, ra, rb } => {
                let (a, _) = self.read_port(0, ra, taps);
                let (b, _) = self.read_port(1, rb, taps);
                self.flag = taps.tap1(CMP_FLAG_OUT, cond.eval(a, b));
            }
            Instr::SetFlagImm { cond, ra, imm } => {
                let (a, _) = self.read_port(0, ra, taps);
                let b = argus_sim::bits::sign_extend(imm as u32, 16);
                self.flag = taps.tap1(CMP_FLAG_OUT, cond.eval(a, b));
            }
            Instr::Branch { taken_if, off } => {
                let f = taps.tap1(FLAG_READ, self.flag);
                out.cti_flag = Some(f);
                let taken = taps.tap1(BR_TAKEN, f == taken_if);
                new_pending =
                    taken.then(|| taps.tap32(BR_TARGET, pc.wrapping_add((off as u32) << 2)));
            }
            Instr::Jump { link, off } => {
                new_pending = Some(taps.tap32(BR_TARGET, pc.wrapping_add((off as u32) << 2)));
                if link {
                    let v = self.plan_link_value(op, pc, taps);
                    self.write_back(RESULT_BUS, Reg::LR, v, taps);
                }
            }
            Instr::JumpReg { link, rb } => {
                let (v, _) = self.read_port(0, rb, taps);
                let (addr, dcs) = if argus { split_indirect_target(v) } else { (v, 0) };
                new_pending = Some(taps.tap32(BR_TARGET, addr));
                if link {
                    let v = self.plan_link_value(op, pc, taps);
                    self.write_back(RESULT_BUS, Reg::LR, v, taps);
                }
                out.indirect_dcs = argus.then_some(dcs);
            }
            Instr::Load { size, signed, off, rd, ra } => {
                let (base, _) = self.read_port(0, ra, taps);
                let addr = self.effective_addr(base, off, taps);
                let ali = exec::align_addr(addr, size);
                let word_addr = ali & !3;
                let a_xor = if argus { taps.tap32(ADDR_XOR, word_addr) } else { word_addr };
                let a_row = taps.tap32(ROW_ADDR, word_addr);
                let fallback = self.cfg.mem.hit_cycles + self.cfg.mem.miss_penalty;
                let loaded = self.mem.load_word(a_row);
                let oob = loaded.is_err();
                let (payload, tag, lat) = loaded.unwrap_or((u32::MAX, false, fallback));
                let d = if argus { payload ^ a_xor } else { payload };
                if oob {
                    oob_load = Some(!argus || parity32(d) == tag);
                }
                let v = taps.tap32(ALIGN_OUT, exec::align_load(d, ali & 3, size, signed));
                mem_cycles = lat.saturating_sub(1);
                self.write_back(LOAD_BUS, rd, v, taps);
            }
            Instr::Store { size, off, ra, rb } => {
                let (base, _) = self.read_port(0, ra, taps);
                let (data, carried_parity) = self.read_port(1, rb, taps);
                let addr = self.effective_addr(base, off, taps);
                let ali = exec::align_addr(addr, size);
                let word_addr = ali & !3;
                let a_xor = if argus { taps.tap32(ADDR_XOR, word_addr) } else { word_addr };
                let a_row = taps.tap32(ROW_ADDR, word_addr);
                let data = taps.tap32(STORE_BUS, data);
                let (payload, tag) = if matches!(size, MemSize::Word) {
                    let payload = if argus { data ^ a_xor } else { data };
                    // Word stores carry the operand's parity tag through
                    // (the paper's end-to-end register→memory protection).
                    (payload, if argus { carried_parity } else { parity32(data) })
                } else {
                    let (oldp, _t) = self.mem.memory().read(a_row).unwrap_or((0, false));
                    let old_d = if argus { oldp ^ a_xor } else { oldp };
                    let merged =
                        taps.tap32(STORE_MERGE, exec::merge_store(old_d, ali & 3, size, data));
                    (if argus { merged ^ a_xor } else { merged }, parity32(merged))
                };
                let fallback = self.cfg.mem.hit_cycles + self.cfg.mem.miss_penalty;
                let lat = self.mem.store_word_tagged(a_row, payload, tag).unwrap_or(fallback);
                mem_cycles = lat.saturating_sub(1);
            }
            Instr::Nop | Instr::Sig { .. } => {}
            Instr::Halt => {
                self.halted = true;
            }
        }
        let seq = pc.wrapping_add(4);
        let next = if in_delay { self.pending_branch.take().unwrap_or(seq) } else { seq };
        if op.instr.is_cti() {
            self.pending_branch = new_pending;
            self.delay_slot = true;
        }
        self.cycle += (fetch_cycles + mem_cycles + extra_cycles) as u64;
        self.retired += 1;
        if let Some(parity_ok) = oob_load {
            out.oob_loads.push(OobLoad { pc, end_cycle: self.cycle, parity_ok });
        }
        next & !3
    }

    /// Reads register `r` on read port `port` (0 = A, 1 = B) as
    /// [`Machine::step`] does: address, storage cell, operand bus. A
    /// flipped address reads (and taps) another register's cell, and a
    /// transient upset of a cell persists until overwritten. Returns the
    /// operand value and the parity bit stored with it.
    #[inline(always)]
    fn read_port<T: Taps>(&mut self, port: usize, r: Reg, taps: &mut T) -> (u32, bool) {
        let idx = Reg::from_field(taps.tap32(READ_ADDR[port], r.index() as u32));
        let i = usize::from(idx);
        let stored = self.regs[i];
        let cell = Site { bit: TapSet::cell(idx.index()), name: RF_CELL_SITES[i] };
        let was_transient = taps.has_transient_on(cell);
        let v = taps.tap32(cell, stored);
        if v != stored && was_transient && idx != Reg::ZERO {
            self.regs[i] = v;
        }
        (taps.tap32(OPERAND_BUS[port], v), self.parity[i])
    }

    /// Writes `v` to `rd` over the writeback bus `bus` and the write-port
    /// address, with the parity of the value as it left its unit.
    #[inline(always)]
    fn write_back<T: Taps>(&mut self, bus: Site, rd: Reg, v: u32, taps: &mut T) {
        let parity = parity32(v);
        let v = taps.tap32(bus, v);
        let rd = Reg::from_field(taps.tap32(WRITE_ADDR, rd.index() as u32));
        if rd != Reg::ZERO {
            self.regs[usize::from(rd)] = v;
            self.parity[usize::from(rd)] = parity;
        }
    }

    /// A load or store address from the shared ALU adder.
    #[inline(always)]
    fn effective_addr<T: Taps>(&mut self, base: u32, off: i16, taps: &mut T) -> u32 {
        let sum = taps.tap32(ADDER, base.wrapping_add(off as i32 as u32));
        taps.tap32(LSU_ADDR, sum)
    }

    /// A linking op's link-register value: the plan's, unless a link-DCS
    /// site is live, when the plan's DCS slot goes through the two taps the
    /// interpreter puts on the slot it extracts from the same signature
    /// bits.
    #[inline(always)]
    fn plan_link_value<T: Taps>(&self, op: &PlanOp, pc: u32, taps: &mut T) -> u32 {
        if !(self.cfg.argus_mode && taps.live(LINK_DCS)) {
            return op.link_value;
        }
        let (_, slot) = split_indirect_target(op.link_value);
        let dcs = taps.tap32(LNK_DCS_MUX, slot) & 31;
        let dcs = taps.tap32(SIG_EXTRACT, dcs) & 31;
        pack_indirect_target(pc.wrapping_add(8) & INDIRECT_ADDR_MASK, dcs)
    }
}

/// What a block's ops report to its [`BlockCommit`].
struct OpOut {
    cti_flag: Option<bool>,
    indirect_dcs: Option<u32>,
    oob_loads: Vec<OobLoad>,
}

/// A fault site as a plan op taps it: its [`TapSet`] bit and its name.
#[derive(Clone, Copy)]
struct Site {
    bit: TapSet,
    name: &'static str,
}

impl Site {
    const fn of(name: &'static str) -> Site {
        Site { bit: TapSet::site(name), name }
    }
}

const READ_ADDR: [Site; 2] = [Site::of(sites::RF_RADDR_A), Site::of(sites::RF_RADDR_B)];
const OPERAND_BUS: [Site; 2] = [Site::of(sites::EX_OPA_BUS), Site::of(sites::EX_OPB_BUS)];
const WRITE_ADDR: Site = Site::of(sites::RF_WADDR);
const RESULT_BUS: Site = Site::of(sites::EX_RESULT_BUS);
const ADDER: Site = Site::of(sites::ALU_ADDER_OUT);
const LOGIC: Site = Site::of(sites::ALU_LOGIC_OUT);
const SHIFT: Site = Site::of(sites::ALU_SHIFT_OUT);
const MUL_LO: Site = Site::of(sites::MUL_LO);
const MUL_HI: Site = Site::of(sites::MUL_HI);
const DIV_Q: Site = Site::of(sites::DIV_Q);
const DIV_R: Site = Site::of(sites::DIV_R);
const CMP_FLAG_OUT: Site = Site::of(sites::CMP_FLAG_OUT);
const FLAG_READ: Site = Site::of(sites::FLAG_READ);
const BR_TAKEN: Site = Site::of(sites::BR_TAKEN);
const BR_TARGET: Site = Site::of(sites::BR_TARGET);
const LNK_DCS_MUX: Site = Site::of(sites::LNK_DCS_MUX);
const SIG_EXTRACT: Site = Site::of(sites::SIG_EXTRACT);
const LINK_DCS: TapSet = LNK_DCS_MUX.bit.union(SIG_EXTRACT.bit);
/// The ALU sub-unit whose output `op` taps.
const fn alu_unit(op: AluOp) -> Site {
    match op {
        AluOp::Add | AluOp::Sub => ADDER,
        AluOp::And | AluOp::Or | AluOp::Xor => LOGIC,
        AluOp::Sll | AluOp::Srl | AluOp::Sra => SHIFT,
    }
}
const LSU_ADDR: Site = Site::of(sites::LSU_ADDR);
const ADDR_XOR: Site = Site::of(sites::LSU_ADDR_XOR);
const ROW_ADDR: Site = Site::of(sites::DMEM_ROW_ADDR);
const ALIGN_OUT: Site = Site::of(sites::LSU_ALIGN_OUT);
const LOAD_BUS: Site = Site::of(sites::LSU_LD_BUS);
const STORE_BUS: Site = Site::of(sites::LSU_ST_BUS);
const STORE_MERGE: Site = Site::of(sites::LSU_ST_MERGE);

/// How a plan op's fault taps resolve: the tap policy
/// [`Machine::exec_plan_op`] is generic over.
trait Taps {
    /// Whether a fault on one of `sites` can fire during this op.
    fn live(&self, sites: TapSet) -> bool;
    /// Taps a multi-bit signal.
    fn tap32(&mut self, site: Site, v: u32) -> u32;
    /// Taps a single-bit signal.
    fn tap1(&mut self, site: Site, v: bool) -> bool;
    /// [`FaultInjector::has_transient_on`] for `site`.
    fn has_transient_on(&self, site: Site) -> bool;
}

/// Every tap is the identity: an op whose tap set misses every live site.
struct IdentityTaps;

impl Taps for IdentityTaps {
    #[inline(always)]
    fn live(&self, _: TapSet) -> bool {
        false
    }

    #[inline(always)]
    fn tap32(&mut self, _: Site, v: u32) -> u32 {
        v
    }

    #[inline(always)]
    fn tap1(&mut self, _: Site, v: bool) -> bool {
        v
    }

    #[inline(always)]
    fn has_transient_on(&self, _: Site) -> bool {
        false
    }
}

/// A tapped op's taps: those on a site in `live` (the block's live set)
/// go to the injector, the rest are the identity.
struct LiveTaps<'a> {
    inj: &'a mut FaultInjector,
    live: TapSet,
}

impl Taps for LiveTaps<'_> {
    #[inline(always)]
    fn live(&self, sites: TapSet) -> bool {
        self.live.intersects(sites)
    }

    #[inline(always)]
    fn tap32(&mut self, site: Site, v: u32) -> u32 {
        if self.live(site.bit) {
            self.inj.tap32(site.name, v)
        } else {
            v
        }
    }

    #[inline(always)]
    fn tap1(&mut self, site: Site, v: bool) -> bool {
        if self.live(site.bit) {
            self.inj.tap1(site.name, v)
        } else {
            v
        }
    }

    #[inline(always)]
    fn has_transient_on(&self, site: Site) -> bool {
        self.live(site.bit) && self.inj.has_transient_on(site.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineConfig, StepOutcome};
    use argus_isa::encode::encode;
    use argus_isa::instr::{AluImmOp, AluOp, Cond};
    use argus_isa::reg::r;

    fn machine(block_exec: bool, argus_mode: bool, words: &[u32]) -> Machine {
        let mut m = Machine::new(MachineConfig { block_exec, argus_mode, ..Default::default() });
        m.load_code(0, words);
        m
    }

    fn demo_program() -> Vec<u32> {
        // Two blocks: a loop body ending in a conditional branch + delay
        // slot, then a fallthrough block ending in halt.
        [
            Instr::AluImm { op: AluImmOp::Addi, rd: r(3), ra: Reg::ZERO, imm: 5 },
            // loop: r4 += r3; r3 -= 1; if r3 != 0 goto loop (delay: nop)
            Instr::Alu { op: AluOp::Add, rd: r(4), ra: r(4), rb: r(3) },
            Instr::AluImm { op: AluImmOp::Addi, rd: r(3), ra: r(3), imm: 0xFFFF },
            Instr::SetFlagImm { cond: Cond::Ne, ra: r(3), imm: 0 },
            Instr::Branch { taken_if: true, off: -3 },
            Instr::Nop,
            Instr::Store { size: MemSize::Word, ra: Reg::ZERO, rb: r(4), off: 0x400 },
            Instr::Load { size: MemSize::Word, signed: false, rd: r(5), ra: Reg::ZERO, off: 0x400 },
            Instr::MulDiv { op: MulDivOp::Mul, rd: r(6), ra: r(5), rb: r(5) },
            Instr::Halt,
        ]
        .iter()
        .map(encode)
        .collect()
    }

    /// The contract in one test: block exec on vs off is bit-identical —
    /// digest, full fingerprint, cycles, retired.
    #[test]
    fn block_exec_is_bit_identical_to_interpreter() {
        use crate::snapshot::SnapshotState;
        for argus_mode in [false, true] {
            let words = demo_program();
            let mut on = machine(true, argus_mode, &words);
            let mut off = machine(false, argus_mode, &words);
            let ra = on.run_to_halt(&mut FaultInjector::none(), 100_000);
            let rb = off.run_to_halt(&mut FaultInjector::none(), 100_000);
            assert_eq!(ra, rb, "argus={argus_mode}: run results diverged");
            assert_eq!(on.state_digest(), off.state_digest(), "argus={argus_mode}");
            assert_eq!(on.state_fingerprint(), off.state_fingerprint(), "argus={argus_mode}");
            let stats = on.take_exec_stats();
            assert!(stats.plan_hits > 0, "fast path must actually run: {stats:?}");
        }
    }

    /// Cycle bounds stop both engines at the identical cycle, even when the
    /// bound falls mid-block (the plan is declined, the interpreter steps).
    #[test]
    fn cycle_bound_stops_identically() {
        let words = demo_program();
        for bound in [1u64, 5, 23, 24, 25, 40, 60, 200] {
            let mut on = machine(true, true, &words);
            let mut off = machine(false, true, &words);
            let ra = on.run_to_halt(&mut FaultInjector::none(), bound);
            let rb = off.run_to_halt(&mut FaultInjector::none(), bound);
            assert_eq!(ra, rb, "bound={bound}");
            assert_eq!(on.state_digest(), off.state_digest(), "bound={bound}");
        }
    }

    /// An in-block store over an upcoming word of the same block must bail
    /// to the generic path and still match the interpreter bit for bit.
    #[test]
    fn self_modifying_block_bails_and_stays_identical() {
        use crate::snapshot::SnapshotState;
        // r3 := encoding of "addi r5, r0, 7"; store it over the word the
        // nop at index 4 occupies — then fall into it within the block.
        let patch = encode(&Instr::AluImm { op: AluImmOp::Addi, rd: r(5), ra: Reg::ZERO, imm: 7 });
        let words: Vec<u32> = [
            Instr::Movhi { rd: r(3), imm: (patch >> 16) as u16 },
            Instr::AluImm { op: AluImmOp::Ori, rd: r(3), ra: r(3), imm: (patch & 0xFFFF) as u16 },
            Instr::Store { size: MemSize::Word, ra: Reg::ZERO, rb: r(3), off: 16 },
            Instr::Nop,
            Instr::Nop, // word 4 (byte 16): patched to "addi r5, r0, 7"
            Instr::Halt,
        ]
        .iter()
        .map(encode)
        .collect();
        let mut on = machine(true, false, &words);
        let mut off = machine(false, false, &words);
        let ra = on.run_to_halt(&mut FaultInjector::none(), 100_000);
        let rb = off.run_to_halt(&mut FaultInjector::none(), 100_000);
        assert_eq!(ra, rb);
        assert_eq!(on.reg(r(5)), 7, "patched instruction must have executed");
        assert_eq!(on.state_digest(), off.state_digest());
        assert_eq!(on.state_fingerprint(), off.state_fingerprint());
        let stats = on.take_exec_stats();
        assert!(stats.plan_fallbacks > 0, "the stale word must trigger a bail: {stats:?}");
    }

    /// With a transient fault arming inside a block's cycle span on a site
    /// the block's ops tap, the armed path (tapped ops interpreted, the
    /// transient spent on its first flip) must match the always-interpreted
    /// machine exactly.
    #[test]
    fn armed_fault_mid_block_falls_back_identically() {
        use argus_sim::fault::{Fault, FaultKind, SiteFlavor};
        let words = demo_program();
        for arm_cycle in [0u64, 10, 25, 26, 27, 40, 80] {
            let fault = Fault {
                site: crate::sites::EX_RESULT_BUS,
                bit: 1,
                kind: FaultKind::Transient,
                arm_cycle,
                flavor: SiteFlavor::Single,
                width: 32,
                sensitization: 1.0,
            };
            let mut on = machine(true, true, &words);
            let mut off = machine(false, true, &words);
            let mut inj_on = FaultInjector::with_fault(fault.clone());
            let mut inj_off = FaultInjector::with_fault(fault);
            let ra = on.run_to_halt(&mut inj_on, 100_000);
            let rb = off.run_to_halt(&mut inj_off, 100_000);
            assert_eq!(ra, rb, "arm={arm_cycle}");
            assert_eq!(on.state_digest(), off.state_digest(), "arm={arm_cycle}");
            assert_eq!(inj_on.flip_count(), inj_off.flip_count(), "arm={arm_cycle}");
        }
    }

    /// A permanent fault stays armed to the end of the run. Blocks that
    /// cannot tap its site keep running as plans (the tap-set gate); blocks
    /// that can interpret the ops that tap it — and either way the run,
    /// including every flip, matches the always-interpreted machine.
    #[test]
    fn permanent_fault_runs_untapping_blocks_identically() {
        use argus_sim::fault::{Fault, FaultKind, SiteFlavor};
        let words = demo_program();
        let cells = crate::machine::RF_CELL_SITES;
        for (site, untapped) in [
            (crate::sites::DIV_Q, true),
            (cells[7], true),
            (crate::sites::MUL_LO, false),
            (cells[3], false),
            (crate::sites::EX_RESULT_BUS, false),
        ] {
            for arm_cycle in [0u64, 30] {
                let fault = Fault {
                    site,
                    bit: 4,
                    kind: FaultKind::Permanent,
                    arm_cycle,
                    flavor: SiteFlavor::Single,
                    width: 32,
                    sensitization: 1.0,
                };
                let mut on = machine(true, true, &words);
                let mut off = machine(false, true, &words);
                let mut inj_on = FaultInjector::with_fault(fault.clone());
                let mut inj_off = FaultInjector::with_fault(fault);
                let ra = on.run_to_halt(&mut inj_on, 100_000);
                let rb = off.run_to_halt(&mut inj_off, 100_000);
                assert_eq!(ra, rb, "{site} arm={arm_cycle}");
                assert_eq!(on.state_digest(), off.state_digest(), "{site} arm={arm_cycle}");
                assert_eq!(inj_on.flip_count(), inj_off.flip_count(), "{site} arm={arm_cycle}");
                let stats = on.take_exec_stats();
                if untapped {
                    assert!(stats.armed_plan_hits > 0, "{site}: no block ran while armed");
                    assert_eq!(stats.tapped_block_hits, 0, "{site}: no op can tap it");
                } else {
                    assert!(inj_on.flip_count() > 0, "{site}: the program must exercise it");
                    assert!(stats.tapped_block_hits > 0, "{site}: no tapped-op block ran");
                    if arm_cycle == 0 {
                        assert!(stats.armed_steps >= stats.tapped_ops, "{stats:?}");
                    }
                }
            }
        }
    }

    /// A tapped-op block runs as tapped ops only the ops whose tap set
    /// holds the live site: the loop block's one `add` for a fault on the
    /// adder's second operand cell, not its other four ops.
    #[test]
    fn tapped_blocks_interpret_only_the_ops_that_tap_the_site() {
        use argus_sim::fault::{Fault, FaultKind, SiteFlavor};
        let words = demo_program();
        let fault = Fault {
            site: crate::sites::ALU_LOGIC_OUT,
            bit: 0,
            kind: FaultKind::Permanent,
            arm_cycle: 0,
            flavor: SiteFlavor::Single,
            width: 32,
            sensitization: 1.0,
        };
        // No op of the demo program uses the logic unit: every block runs
        // whole, as before.
        let mut m = machine(true, true, &words);
        m.run_to_halt(&mut FaultInjector::with_fault(fault.clone()), 100_000);
        let stats = m.take_exec_stats();
        assert_eq!((stats.tapped_block_hits, stats.armed_steps), (0, 0), "{stats:?}");

        let fault = Fault { site: crate::machine::RF_CELL_SITES[4], ..fault };
        let mut on = machine(true, true, &words);
        let mut off = machine(false, true, &words);
        let mut inj_on = FaultInjector::with_fault(fault.clone());
        let mut inj_off = FaultInjector::with_fault(fault);
        assert_eq!(on.run_to_halt(&mut inj_on, 100_000), off.run_to_halt(&mut inj_off, 100_000));
        assert_eq!(on.state_digest(), off.state_digest());
        assert_eq!(inj_on.flip_count(), inj_off.flip_count());
        let stats = on.take_exec_stats();
        // r4 is read by the `add` of each of the five loop iterations (the
        // first inside the entry block) and by the store: six blocks, one
        // interpreted op each, and no step outside them.
        assert_eq!(stats.tapped_block_hits, 6, "{stats:?}");
        assert_eq!(stats.tapped_ops, 6, "{stats:?}");
        assert_eq!(stats.armed_steps, stats.tapped_ops, "{stats:?}");
    }

    /// A tapped op sends the taps of the whole live set to the injector,
    /// not just those of the sites its block names: a flipped read address
    /// makes the block's `add` read `r5`, whose cell carries a live fault
    /// though no op of the block names `r5`. The run equals the
    /// interpreter; gating the taps by `gate.tapped` instead would skip the
    /// cell's flip and diverge.
    #[test]
    fn tapped_ops_tap_live_cells_outside_the_plan() {
        use argus_sim::fault::{Fault, FaultKind, SiteFlavor};
        let words: Vec<u32> =
            [Instr::Alu { op: AluOp::Add, rd: r(3), ra: r(1), rb: r(2) }, Instr::Halt]
                .iter()
                .map(encode)
                .collect();
        let fault = |site, bit| Fault {
            site,
            bit,
            kind: FaultKind::Permanent,
            arm_cycle: 0,
            flavor: SiteFlavor::Single,
            width: 32,
            sensitization: 1.0,
        };
        // Port A's address bit 2 turns r1 into r5; r5's cell flips bit 4.
        let faults =
            vec![fault(crate::sites::RF_RADDR_A, 2), fault(crate::machine::RF_CELL_SITES[5], 4)];
        let setup = |block_exec| {
            let mut m = machine(block_exec, true, &words);
            for (reg, v) in [(1, 10), (2, 20), (5, 7)] {
                m.set_reg(r(reg), v);
            }
            m
        };
        let mut off = setup(false);
        let mut inj_off = FaultInjector::with_faults(faults.clone());
        off.run_to_halt(&mut inj_off, 1_000);
        assert_eq!(off.reg(r(3)), (7 ^ 16) + 20, "the interpreter reads r5's flipped cell");

        for live_set in ["armed", "tapped"] {
            let mut on = setup(true);
            let mut inj = FaultInjector::with_faults(faults.clone());
            let mut gate = on.plan_block(&inj, u64::MAX).expect("the block plans");
            assert!(!gate.taps.intersects(TapSet::cell(5)), "no op of the block names r5");
            assert!(gate.armed.intersects(TapSet::cell(5)));
            if live_set == "tapped" {
                gate.armed = gate.tapped;
            }
            let commit = on.exec_block(&mut inj, &gate).expect("gated");
            assert!(commit.complete && commit.halted, "{live_set}");
            assert_eq!(on.run_result(), off.run_result(), "{live_set}");
            assert_eq!(on.take_exec_stats().tapped_ops, 1, "{live_set}");
            let same =
                on.state_digest() == off.state_digest() && inj.flip_count() == inj_off.flip_count();
            assert_eq!(same, live_set == "armed", "{live_set}: r3 = {}", on.reg(r(3)));
        }
    }

    /// A live fault on a site every op taps keeps every block on the
    /// interpreter: it could stall or change a decode mid-block.
    #[test]
    fn every_op_sites_decline_the_block() {
        use argus_sim::fault::{Fault, FaultKind, SiteFlavor};
        let words = demo_program();
        let mut sites = 0;
        for bit in TapSet::EVERY_OP.bits() {
            let site = *crate::sites::core_sites()
                .iter()
                .map(|s| &s.name)
                .find(|&&n| TapSet::site(n).bits().eq([bit]))
                .expect("an inventory site per bit");
            let fault = Fault {
                site,
                bit: 9,
                kind: FaultKind::Permanent,
                arm_cycle: 0,
                flavor: SiteFlavor::Single,
                width: 32,
                sensitization: 0.0,
            };
            let mut m = machine(true, true, &words);
            let inj = FaultInjector::with_fault(fault);
            assert!(m.plan_block(&inj, u64::MAX).is_none(), "{site}");
            sites += 1;
        }
        assert_eq!(sites, 7);
    }

    /// The plan cache survives restores, so a rewrite of a *later* word of
    /// a cached block (the first word is untouched) must be noticed in
    /// both directions: a plan built from good bytes that were corrupted
    /// and then restored stays usable, and a plan built from corrupted
    /// bytes that a restore then repaired is rebuilt — either way the next
    /// gated execution completes and keeps its plan. A corruption left in
    /// place executes the new word, like the interpreter.
    #[test]
    fn plans_track_later_words_across_restores() {
        use crate::snapshot::SnapshotState;
        let words = demo_program();
        let bad = encode(&Instr::Alu { op: AluOp::Sub, rd: r(4), ra: r(4), rb: r(3) });
        for case in ["corrupt-then-restore", "built-corrupt-then-restore", "corrupt-kept"] {
            let mut on = machine(true, true, &words);
            let mut off = machine(false, true, &words);
            // Word 1 of the block at 0: not the plan's first word.
            let (good, tag) = on.mem().memory().read(4).unwrap();
            let corrupt = |m: &mut Machine| m.mem_mut().memory_mut().write(4, bad, tag).unwrap();
            let restore =
                |m: &mut Machine| m.mem_mut().memory_mut().restore_words(1, &[good], &[tag]);
            match case {
                "corrupt-then-restore" => {
                    assert!(on.prepare_plan(0));
                    corrupt(&mut on);
                    restore(&mut on);
                }
                "built-corrupt-then-restore" => {
                    corrupt(&mut on);
                    assert!(on.prepare_plan(0));
                    restore(&mut on);
                }
                _ => {
                    assert!(on.prepare_plan(0));
                    corrupt(&mut on);
                    corrupt(&mut off);
                }
            }
            let mut inj = FaultInjector::none();
            let gate = on.plan_block(&inj, u64::MAX).expect("the block at 0 plans");
            let commit = on.exec_block(&mut inj, &gate).expect("gated");
            assert!(commit.complete, "{case}: the block bailed on a stale word");
            assert!(on.plan_at(0).is_some(), "{case}: a completed block keeps its plan");
            on.run_to_halt(&mut inj, 100_000);
            off.run_to_halt(&mut FaultInjector::none(), 100_000);
            assert_eq!(on.state_digest(), off.state_digest(), "{case}");
            assert_eq!(on.state_fingerprint(), off.state_fingerprint(), "{case}");
            assert_eq!(on.take_exec_stats().plan_fallbacks, 0, "{case}");
        }
    }

    /// Interleaving block execution with single stepping (the campaign's
    /// mixed driving pattern) also stays bit-identical.
    #[test]
    fn mixed_stepping_and_blocks_match_pure_interpretation() {
        let words = demo_program();
        let mut mixed = machine(true, true, &words);
        let mut pure = machine(false, true, &words);
        let mut inj_a = FaultInjector::none();
        let mut inj_b = FaultInjector::none();
        let mut toggle = false;
        while !mixed.halted() {
            toggle = !toggle;
            let did_block = toggle && mixed.try_block_exec(&mut inj_a, u64::MAX).is_some();
            let steps = if did_block {
                // Catch the interpreter up to the block's end cycle.
                let mut n = 0u32;
                while pure.cycle() < mixed.cycle() {
                    pure.step(&mut inj_b);
                    n += 1;
                }
                n
            } else {
                if mixed.step(&mut inj_a) == StepOutcome::Halted {
                    break;
                }
                pure.step(&mut inj_b);
                1
            };
            assert!(steps > 0 || mixed.halted());
            assert_eq!(mixed.cycle(), pure.cycle());
            assert_eq!(mixed.pc(), pure.pc());
            assert_eq!(mixed.state_digest(), pure.state_digest());
        }
        while !pure.halted() {
            pure.step(&mut inj_b);
        }
        assert_eq!(mixed.state_digest(), pure.state_digest());
    }

    /// Plan gating refuses mid-block machine states (delay slot / pending
    /// branch / partial signature stream).
    #[test]
    fn gate_refuses_non_boundary_states() {
        let words = demo_program();
        let mut m = machine(true, true, &words);
        let mut inj = FaultInjector::none();
        // Step to land exactly on the CTI (index 4); the following state is
        // a delay slot with a pending branch.
        for _ in 0..5 {
            m.step(&mut inj);
        }
        assert!(m.plan_block(&inj, u64::MAX).is_none(), "delay-slot state must be refused");
    }

    /// Negative plans (no terminator within the cap) are cached and the
    /// address is simply interpreted.
    #[test]
    fn unplannable_address_is_refused_but_cached() {
        // A long run of nops with no terminator anywhere within the cap.
        let words = vec![encode(&Instr::Nop); MAX_PLAN_OPS + 8];
        let mut m = machine(true, false, &words);
        assert!(!m.prepare_plan(0));
        assert!(!m.prepare_plan(0), "second probe hits the cached negative plan");
        let stats = m.take_exec_stats();
        assert_eq!(stats.plan_misses, 1, "negative plan built once: {stats:?}");
        assert!(m.plan_at(0).is_none());
    }

    /// `prepare_plan` + `plan_at` expose a plan whose static metadata
    /// matches the program.
    #[test]
    fn plan_metadata_reflects_block_shape() {
        let words = demo_program();
        let mut m = machine(true, true, &words);
        // Block at 4: add, addi, setflag, branch, nop(delay) = 5 ops.
        assert!(m.prepare_plan(4));
        let plan = m.plan_at(4).expect("plannable");
        assert_eq!(plan.len(), 5);
        assert!(plan.ends_with_cti());
        assert!(plan.argus_simple());
        // Block at 24: store, load, mul, halt = 4 ops, fallthrough end.
        assert!(m.prepare_plan(24));
        let plan = m.plan_at(24).expect("plannable");
        assert_eq!(plan.len(), 4);
        assert!(!plan.ends_with_cti());
        assert!(plan.argus_simple());
    }

    /// The worst-case cycle estimate dominates the real cost (the gate's
    /// safety depends on it overestimating only).
    #[test]
    fn worst_cycles_bounds_actual_cost() {
        let words = demo_program();
        let mut m = machine(true, true, &words);
        let mut inj = FaultInjector::none();
        loop {
            let before = m.cycle();
            match m.try_block_exec(&mut inj, u64::MAX) {
                Some(commit) => {
                    let plan = m.plan_at(commit.addr).expect("plan survives a hit");
                    assert!(
                        commit.end_cycle - before <= plan.worst_cycles(),
                        "worst_cycles must dominate"
                    );
                    if commit.halted {
                        break;
                    }
                }
                None => {
                    if m.step(&mut inj) == StepOutcome::Halted {
                        break;
                    }
                }
            }
        }
        assert!(m.halted());
    }

    /// Link values are precomputed per plan and must equal the interpreter's
    /// bit-stream-derived values (jal inside a signed block). Under a fault
    /// on the link-DCS path the jal is interpreted inside its block, and
    /// reads the signature bits the plan ops before it would have pushed.
    #[test]
    fn link_values_match_interpreter_in_argus_mode() {
        use argus_sim::fault::{Fault, FaultKind, SiteFlavor};
        let sig = Instr::Sig { nslots: 2, eob: false, payload: (0b10101 << 5) | 0b00111 };
        let words: Vec<u32> = [
            sig,
            Instr::Jump { link: true, off: 3 }, // to word 4
            Instr::Nop,                         // delay slot
            Instr::Halt,
            Instr::Halt, // jal target
        ]
        .iter()
        .map(encode)
        .collect();
        let mut on = machine(true, true, &words);
        let mut off = machine(false, true, &words);
        on.run_to_halt(&mut FaultInjector::none(), 10_000);
        off.run_to_halt(&mut FaultInjector::none(), 10_000);
        assert_eq!(on.reg(Reg::LR), off.reg(Reg::LR));
        let (addr, dcs) = split_indirect_target(on.reg(Reg::LR));
        assert_eq!((addr, dcs), (12, 0b10101));

        for site in [crate::sites::LNK_DCS_MUX, crate::sites::SIG_EXTRACT] {
            let fault = Fault {
                site,
                bit: 1,
                kind: FaultKind::Permanent,
                arm_cycle: 0,
                flavor: SiteFlavor::Single,
                width: 5,
                sensitization: 1.0,
            };
            let mut on = machine(true, true, &words);
            let mut off = machine(false, true, &words);
            on.run_to_halt(&mut FaultInjector::with_fault(fault.clone()), 10_000);
            off.run_to_halt(&mut FaultInjector::with_fault(fault), 10_000);
            assert_eq!(on.reg(Reg::LR), off.reg(Reg::LR), "{site}");
            assert_eq!(on.state_digest(), off.state_digest(), "{site}");
            assert!(on.take_exec_stats().tapped_block_hits > 0, "{site}: the jal ran in its block");
        }
    }
}
