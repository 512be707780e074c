//! Block-compiled execution equivalence.
//!
//! The JIT-lite block engine is an optimisation, never a semantic change:
//! machine trajectories, checker verdicts, and campaign classifications
//! must be bit-identical with the plan cache on or off. These tests sweep
//! the whole workload suite (plus the stress kernel) and real injection
//! campaigns — faults arm at arbitrary cycles, including mid-block, and
//! permanent faults stay armed to the end, which exercises the tap-set
//! gate (blocks run while a fault is armed on a site they cannot tap),
//! tapped-op blocks (blocks run while a fault is armed on a site some of
//! their ops tap, interpreting those ops) and the interpreter fallback.

use argus_compiler::{compile, preplan, EmbedConfig, Mode, Program};
use argus_core::{Argus, ArgusConfig};
use argus_faults::campaign::{
    prepare_campaign, run_injection_in, CampaignConfig, CampaignWorkspace, ExecStats,
    InjectionResult,
};
use argus_isa::decode::decode;
use argus_machine::{Machine, MachineConfig, SnapshotState, StepOutcome, TapSet};
use argus_mem::MemConfig;
use argus_sim::fault::{Fault, FaultInjector, FaultKind, SiteFlavor};
use argus_workloads::Workload;
use std::collections::HashMap;

const BOUND: u64 = 500_000_000;

fn all_workloads() -> Vec<Workload> {
    let mut ws = argus_workloads::suite();
    ws.push(argus_workloads::stress());
    ws
}

fn build(w: &Workload) -> Program {
    compile(&w.unit, Mode::Argus, &EmbedConfig::default())
        .unwrap_or_else(|e| panic!("{}: compile failed: {e:?}", w.name))
}

fn mcfg(block_exec: bool) -> MachineConfig {
    MachineConfig { block_exec, ..MachineConfig::default() }
}

/// Every suite workload retires to the same architectural state, digest,
/// and fingerprint whether blocks are compiled or interpreted one op at a
/// time — and the block engine actually engages on each of them.
#[test]
fn block_exec_matches_interpreter_on_every_suite_workload() {
    for w in &all_workloads() {
        let prog = build(w);

        let mut on = Machine::new(mcfg(true));
        prog.load(&mut on);
        preplan(&prog, &mut on);
        let mut inj = FaultInjector::none();
        let res_on = on.run_to_halt(&mut inj, BOUND);

        let mut off = Machine::new(mcfg(false));
        prog.load(&mut off);
        let mut inj = FaultInjector::none();
        let res_off = off.run_to_halt(&mut inj, BOUND);

        assert!(res_on.halted, "{}: block-exec run did not halt", w.name);
        assert_eq!(res_on, res_off, "{}: RunResult diverged", w.name);
        assert_eq!(on.state_digest(), off.state_digest(), "{}: state digest diverged", w.name);
        assert_eq!(
            on.state_fingerprint(),
            off.state_fingerprint(),
            "{}: state fingerprint diverged",
            w.name
        );

        let stats = on.take_exec_stats();
        assert!(stats.plan_hits > 0, "{}: block engine never engaged ({stats:?})", w.name);
        let off_stats = off.take_exec_stats();
        assert_eq!(
            (off_stats.plan_hits, off_stats.plan_misses, off_stats.plan_fallbacks),
            (0, 0, 0),
            "{}: interpreter-only machine counted plan activity",
            w.name
        );
    }
}

/// Drives machine + checker to halt, taking the checker-batched block path
/// whenever the gates allow (exactly the campaign's golden-run shape).
/// Returns how many blocks were verified as batches.
fn run_checked(m: &mut Machine, argus: &mut Argus, prog: &Program) -> u64 {
    if let Some(d) = prog.entry_dcs {
        argus.expect_entry(d);
    }
    let mut inj = FaultInjector::none();
    let mut batched = 0u64;
    loop {
        if let Some(gate) = m.plan_block(&inj, BOUND) {
            if argus.block_ready(&gate, &inj) {
                if let Some(commit) = m.exec_block(&mut inj, &gate) {
                    let plan = m.plan_at(gate.addr).expect("completed block keeps its plan");
                    let events = argus.on_block(plan, &commit, &mut inj);
                    assert!(events.is_empty(), "fault-free run raised a detection");
                    batched += 1;
                    continue;
                }
            }
        }
        match m.step(&mut inj) {
            StepOutcome::Committed(rec) => {
                argus.on_commit(&rec, &mut inj);
            }
            StepOutcome::Stalled => {
                argus.on_stall(1, &mut inj);
            }
            StepOutcome::Halted => break,
        }
        assert!(m.cycle() < BOUND, "fault-free run must halt");
    }
    assert!(argus.events().is_empty(), "fault-free run raised a detection");
    batched
}

/// Batched SHS/DCS checking leaves the checker's own state (signature
/// file, CFC stack, watchdog) bit-identical to per-op checking, on every
/// suite workload.
#[test]
fn batched_checking_matches_per_op_checking_on_every_suite_workload() {
    for w in &all_workloads() {
        let prog = build(w);

        let mut m_blk = Machine::new(mcfg(true));
        prog.load(&mut m_blk);
        preplan(&prog, &mut m_blk);
        let mut a_blk = Argus::new(ArgusConfig::default());
        let batched = run_checked(&mut m_blk, &mut a_blk, &prog);

        let mut m_ref = Machine::new(mcfg(false));
        prog.load(&mut m_ref);
        let mut a_ref = Argus::new(ArgusConfig::default());
        let per_op = run_checked(&mut m_ref, &mut a_ref, &prog);

        assert!(batched > 0, "{}: checker never batched a block", w.name);
        assert_eq!(per_op, 0, "{}: plan cache leaked into the off machine", w.name);
        assert_eq!(
            m_blk.state_digest(),
            m_ref.state_digest(),
            "{}: machine digest diverged under batched checking",
            w.name
        );
        assert_eq!(
            a_blk.state_fingerprint(),
            a_ref.state_fingerprint(),
            "{}: checker state diverged under batched checking",
            w.name
        );
    }
}

/// The tap-set gate is only as sound as `Machine::op_taps` is complete:
/// for every machine site and every instruction of every suite workload, a
/// permanent, fully sensitized fault armed at the first cycle may only
/// flip during one `step` if the site is in that instruction's static tap
/// set.
#[test]
fn op_tap_sets_cover_every_tap_a_step_makes() {
    let mut sites: Vec<&'static str> =
        argus_machine::sites::core_sites().iter().map(|s| s.name).collect();
    sites.sort_unstable();
    sites.dedup();
    let mut instrs: HashMap<argus_isa::instr::Instr, u32> = HashMap::new();
    for w in &all_workloads() {
        for &word in &build(w).code {
            instrs.entry(decode(word)).or_insert(word);
        }
    }
    assert!(instrs.len() > 100, "the suite decodes to a real instruction mix");
    for argus_mode in [true, false] {
        // One small-memory machine per instruction, cloned per site: loads
        // and stores from the seeded registers stay simulable either way.
        let cfg = MachineConfig {
            argus_mode,
            mem: MemConfig { mem_bytes: 4096, ..MemConfig::default() },
            ..MachineConfig::default()
        };
        for (instr, &word) in &instrs {
            let mut base = Machine::new(cfg);
            base.load_code(0, &[word]);
            for r in 1..32u8 {
                base.set_reg(argus_isa::reg::Reg::new(r), 0x0101_0101u32.wrapping_mul(r as u32));
            }
            let taps = Machine::op_taps(instr, argus_mode);
            for &site in &sites {
                let mut m = base.clone();
                let mut inj = FaultInjector::with_fault(Fault {
                    site,
                    bit: 2,
                    kind: FaultKind::Permanent,
                    arm_cycle: 0,
                    flavor: SiteFlavor::Single,
                    width: 32,
                    sensitization: 1.0,
                });
                m.step(&mut inj);
                assert!(
                    inj.flip_count() == 0 || taps.contains(site),
                    "{instr:?} (argus={argus_mode}) tapped {site} outside its static tap set"
                );
            }
        }
    }
}

/// Cycles each tapped-op run covers after its start.
const TAPPED_WINDOW: u64 = 2_500;

/// Runs `m` to `bound` one interpreter step at a time (the reference engine:
/// `run_to_halt` with the block engine off).
fn interpret_to(m: &mut Machine, inj: &mut FaultInjector, bound: u64) {
    while !m.halted() && m.cycle() < bound {
        m.step(inj);
    }
}

/// Runs a clone of `start` to `bound` under `faults` twice, with blocks and
/// on the one-step interpreter, and requires the two runs to agree in
/// cycle, retired count, architectural and microarchitectural state, tags,
/// flips and first flip cycle. Returns the block run's exec stats and its
/// flip count.
fn assert_tapped_run_matches(
    start: &Machine,
    faults: &[Fault],
    bound: u64,
    what: &str,
) -> (ExecStats, u64) {
    let (mut on, mut off) = (start.clone(), start.clone());
    let mut inj_on = FaultInjector::with_faults(faults.to_vec());
    let mut inj_off = FaultInjector::with_faults(faults.to_vec());
    on.take_exec_stats();
    let res_on = on.run_to_halt(&mut inj_on, bound);
    interpret_to(&mut off, &mut inj_off, bound);
    assert_eq!(res_on, off.run_result(), "{what}: cycle or retired count diverged");
    // The fingerprint's terms, with the tags compared as slices:
    // architectural, microarchitectural, tags.
    assert_eq!(on.state_digest_cached(), off.state_digest_cached(), "{what}");
    assert_eq!(on.microarch_digest(), off.microarch_digest(), "{what}");
    assert!(on.mem().memory().tags() == off.mem().memory().tags(), "{what}");
    assert_eq!(inj_on.flip_count(), inj_off.flip_count(), "{what}: flips");
    assert_eq!(inj_on.first_flip_cycle(), inj_off.first_flip_cycle(), "{what}: first flip");
    (on.take_exec_stats(), inj_on.flip_count())
}

/// `w`'s program loaded on a fresh machine and the same machine run
/// fault-free for a few windows, with their page-hash caches warm: each
/// run from a clone then rehashes only the pages it writes.
fn tapped_starts(prog: &Program) -> [Machine; 2] {
    let mut boot = Machine::new(mcfg(true));
    prog.load(&mut boot);
    let mut mid = boot.clone();
    mid.run_to_halt(&mut FaultInjector::none(), 3 * TAPPED_WINDOW);
    boot.state_digest_cached();
    mid.state_digest_cached();
    [boot, mid]
}

/// A fault on `site` at `bit`, armed at `arm_cycle`.
fn fault_on(
    site: &argus_sim::fault::SiteDesc,
    bit: u8,
    kind: FaultKind,
    arm_cycle: u64,
    sensitization: f64,
) -> Fault {
    Fault {
        site: site.name,
        bit: bit % site.width,
        kind,
        arm_cycle,
        flavor: site.flavor,
        width: site.width,
        sensitization,
    }
}

/// Arm a few cycles past the start: mid-block once running.
fn tapped_arm_cycle(start: &Machine) -> u64 {
    if start.cycle() == 0 {
        0
    } else {
        start.cycle() + 7
    }
}

/// Blocks run under a live fault on a site some of their ops tap, running
/// those ops as tapped ops: for every suite workload and one fault on each
/// machine site outside the every-op set, in both flavors (the double-bit
/// operand, result and load/store buses and register cells included),
/// permanent at sensitization 1.0 and 0.5 and transient at 1.0 and 0.5
/// (expiring inside a tapped op; a cell's upset persisting), armed at
/// cycle 0 and mid-block, the run equals the one-step interpreter in state,
/// cycle, retired count and every flip.
#[test]
fn tapped_op_blocks_match_the_interpreter_on_every_site() {
    let mut sites: Vec<_> = argus_machine::sites::core_sites()
        .into_iter()
        .filter(|s| !TapSet::EVERY_OP.intersects(TapSet::site(s.name)))
        .collect();
    sites.sort_by_key(|s| (s.name, s.flavor == SiteFlavor::Double));
    sites.dedup_by_key(|s| (s.name, s.flavor));
    let doubles = sites.iter().filter(|s| s.flavor == SiteFlavor::Double).count();
    assert_eq!(
        sites.len() - doubles,
        26 + 32,
        "every scalar site off the every-op set and every cell"
    );
    assert_eq!(doubles, 5 + 32, "the five double-bit buses and every cell");
    let (mut transient_flips, mut cell_upsets) = (0, 0);
    for w in &all_workloads() {
        let prog = build(w);
        let mut tapped_hits = 0;
        for start in &tapped_starts(&prog) {
            let arm_cycle = tapped_arm_cycle(start);
            let bound = start.cycle() + TAPPED_WINDOW;
            for site in &sites {
                for kind in [FaultKind::Permanent, FaultKind::Transient] {
                    for sensitization in [1.0, 0.5] {
                        let fault = fault_on(site, 3, kind, arm_cycle, sensitization);
                        let what = format!(
                            "{} {} {:?} {kind:?} p={sensitization} arm={arm_cycle}",
                            w.name, site.name, site.flavor
                        );
                        let (stats, flips) =
                            assert_tapped_run_matches(start, &[fault], bound, &what);
                        tapped_hits += stats.tapped_block_hits;
                        if kind == FaultKind::Transient && flips > 0 && stats.tapped_ops > 0 {
                            transient_flips += 1;
                            cell_upsets += site.name.starts_with("rf_cell_") as u32;
                        }
                    }
                }
            }
        }
        assert!(tapped_hits > 0, "{}: no block ran a tapped op", w.name);
    }
    assert!(transient_flips > 0, "no transient fired in a run with tapped ops");
    assert!(cell_upsets > 0, "no cell transient fired in a run with tapped ops");
}

/// Two live faults in one block: a read-address fault that sends a port
/// to a register the program never names, paired with a fault (permanent
/// or transient) on that register's cell; and a result-bus fault paired
/// with a write-address fault. Every such run equals the one-step
/// interpreter, and the first pair does reach the unnamed cell.
#[test]
fn tapped_op_blocks_match_the_interpreter_under_two_faults() {
    use argus_isa::instr::Instr;
    let inventory = argus_machine::sites::core_sites();
    let site = |name: &str, flavor: SiteFlavor| {
        *inventory.iter().find(|s| s.name == name && s.flavor == flavor).expect("inventory site")
    };
    let mut reached = 0;
    for w in &all_workloads() {
        let prog = build(w);
        // Registers no instruction of the program names.
        let mut named = [false; 32];
        for &word in &prog.code {
            let instr = decode(word);
            for r in instr.sources().iter() {
                named[usize::from(*r)] = true;
            }
            match instr {
                Instr::Alu { rd, .. }
                | Instr::AluImm { rd, .. }
                | Instr::ShiftImm { rd, .. }
                | Instr::Ext { rd, .. }
                | Instr::Movhi { rd, .. }
                | Instr::MulDiv { rd, .. }
                | Instr::Load { rd, .. } => named[usize::from(rd)] = true,
                Instr::Jump { link: true, .. } | Instr::JumpReg { link: true, .. } => {
                    named[usize::from(argus_isa::reg::Reg::LR)] = true
                }
                _ => {}
            }
        }
        let unnamed: Vec<usize> = (1..32).filter(|&r| !named[r]).collect();
        assert!(!unnamed.is_empty(), "{}: the program names every register", w.name);
        for start in &tapped_starts(&prog) {
            let arm_cycle = tapped_arm_cycle(start);
            let bound = start.cycle() + TAPPED_WINDOW;
            let mut pairs = Vec::new();
            for port in [argus_machine::sites::RF_RADDR_A, argus_machine::sites::RF_RADDR_B] {
                for bit in 0..5 {
                    for &cell in unnamed.iter().take(2) {
                        for kind in [FaultKind::Permanent, FaultKind::Transient] {
                            let raddr = fault_on(
                                &site(port, SiteFlavor::Single),
                                bit,
                                FaultKind::Permanent,
                                arm_cycle,
                                1.0,
                            );
                            let cell_site = site(
                                argus_machine::machine::RF_CELL_SITES[cell],
                                SiteFlavor::Single,
                            );
                            pairs.push((raddr, fault_on(&cell_site, 4, kind, arm_cycle, 1.0)));
                        }
                    }
                }
            }
            for flavor in [SiteFlavor::Single, SiteFlavor::Double] {
                for sensitization in [1.0, 0.5] {
                    for kind in [FaultKind::Permanent, FaultKind::Transient] {
                        let bus = site(argus_machine::sites::EX_RESULT_BUS, flavor);
                        let waddr = site(argus_machine::sites::RF_WADDR, SiteFlavor::Single);
                        pairs.push((
                            fault_on(&bus, 3, kind, arm_cycle, sensitization),
                            fault_on(&waddr, 1, FaultKind::Permanent, arm_cycle, sensitization),
                        ));
                    }
                }
            }
            for (a, b) in pairs {
                let what = format!(
                    "{}: {} {:?} {:?} + {} {:?} p={} arm={arm_cycle}",
                    w.name, a.site, a.flavor, a.kind, b.site, b.kind, a.sensitization
                );
                let cell_pair = b.site.starts_with("rf_cell_");
                let (stats, flips) =
                    assert_tapped_run_matches(start, &[a.clone(), b], bound, &what);
                if cell_pair && stats.tapped_ops > 0 {
                    // Until the cell fault fires, the pair's run is the
                    // address fault's run alone: a different flip count
                    // means it fired.
                    let (_, alone) = assert_tapped_run_matches(start, &[a], bound, &what);
                    reached += (flips != alone) as u32;
                }
            }
        }
    }
    assert!(reached > 0, "no read-address fault reached an unnamed cell in a tapped op");
}

/// Runs `w`'s campaign with the block engine on and off and requires
/// identical per-injection classifications, for both fault kinds, with and
/// without snapshot forking. Returns the plan hits taken while a fault was
/// armed, summed over the block-on campaigns, and the blocks that
/// interpreted a tapped op, summed over the block-on permanent campaigns.
fn assert_campaigns_identical(w: &Workload, injections: usize, snapshot_every: u64) -> (u64, u64) {
    let (mut armed_hits, mut tapped_hits) = (0, 0);
    for kind in [FaultKind::Transient, FaultKind::Permanent] {
        for snapshot_every in [None, Some(snapshot_every)] {
            let base = CampaignConfig {
                injections,
                kind,
                seed: 0xB10CEC5,
                snapshot_every,
                ..CampaignConfig::default()
            };
            let mut on_cfg = base.clone();
            on_cfg.mcfg.block_exec = true;
            let mut off_cfg = base;
            off_cfg.mcfg.block_exec = false;

            let (on, on_exec) = campaign(w, &on_cfg);
            let (off, off_exec) = campaign(w, &off_cfg);

            let ctx = format!("{} {kind:?}, snapshots {snapshot_every:?}", w.name);
            assert_eq!(on.1, off.1, "golden trajectory diverged ({ctx})");
            assert_eq!(
                format!("{:?}", on.0),
                format!("{:?}", off.0),
                "classification diverged ({ctx})"
            );
            assert_eq!(off_exec.plan_hits, 0, "plan cache leaked past the knob ({ctx})");
            assert_eq!(
                (on_exec.cursor_overshoots, off_exec.cursor_overshoots),
                (0, 0),
                "a cursor walk passed its arm cycle ({ctx})"
            );
            armed_hits += on_exec.armed_plan_hits;
            if kind == FaultKind::Permanent {
                tapped_hits += on_exec.tapped_block_hits;
            }
        }
    }
    (armed_hits, tapped_hits)
}

/// `run_campaign`'s serial loop, also returning the workspace's
/// plan-cache counters: `((results, golden cycles), exec stats)`.
fn campaign(w: &Workload, cfg: &CampaignConfig) -> ((Vec<InjectionResult>, u64), ExecStats) {
    let cfg = &cfg.sized_for(w);
    let prep = prepare_campaign(w, cfg);
    let mut ws = CampaignWorkspace::new();
    let results =
        (0..prep.injections()).map(|i| run_injection_in(&prep, cfg, i, &mut ws)).collect();
    ((results, prep.golden_cycles()), ws.exec_stats())
}

/// Full campaigns — transient and permanent faults, with and without
/// snapshot forking — classify every injection identically with the block
/// engine on or off. Arm cycles land anywhere in the golden window, so
/// faults routinely arm mid-block; permanent faults then stay armed for
/// the rest of the run, where blocks keep executing whenever they cannot
/// tap the fault's site.
#[test]
fn campaigns_classify_identically_with_block_exec_on_and_off() {
    let (armed, tapped) = assert_campaigns_identical(&argus_workloads::stress(), 120, 500);
    assert!(armed > 0, "stress campaigns never ran a block while a fault was armed");
    assert!(tapped > 0, "stress permanent campaigns never ran a tapped-op block");
}

/// The same identity on pegwit, the permanent-fault throughput workload:
/// a longer golden run with a different instruction mix.
#[test]
fn pegwit_campaigns_classify_identically_with_block_exec_on_and_off() {
    let (armed, tapped) = assert_campaigns_identical(&argus_workloads::pegwit::pegwit(), 40, 4000);
    assert!(armed > 0, "pegwit campaigns never ran a block while a fault was armed");
    assert!(tapped > 0, "pegwit permanent campaigns never ran a tapped-op block");
}
