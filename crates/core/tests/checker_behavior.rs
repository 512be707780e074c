//! Behavioural tests of the assembled checker on compiled programs:
//! memory scrubbing, sub-word store coverage, indirect control flow,
//! block-length enforcement, and detection attribution edge cases.

use argus_compiler::{compile, EmbedConfig, Mode, Program, ProgramBuilder};
use argus_core::{Argus, ArgusConfig, CheckerKind};
use argus_isa::instr::{Cond, MemSize};
use argus_isa::reg::{r, Reg};
use argus_machine::{Machine, MachineConfig, StepOutcome};
use argus_sim::fault::{Fault, FaultInjector, FaultKind, SiteFlavor};

fn fault(site: &'static str, bit: u8, width: u8, arm: u64) -> Fault {
    Fault {
        site,
        bit,
        kind: FaultKind::Permanent,
        arm_cycle: arm,
        flavor: SiteFlavor::Single,
        width,
        sensitization: 1.0,
    }
}

struct Ran {
    machine: Machine,
    argus: Argus,
}

/// How the end-of-run scrub covers memory.
#[derive(Debug, Clone, Copy)]
enum Scrub {
    /// Every word from the data base up (`Argus::scrub_memory`).
    Full,
    /// Only pages written since the boot generation
    /// (`Argus::scrub_memory_dirty`), the campaign engine's scrub.
    SinceBoot,
}

fn run_with(prog: &Program, f: Option<Fault>, acfg: ArgusConfig) -> Ran {
    run_scrubbed(prog, f, acfg, Scrub::Full)
}

fn run_scrubbed(prog: &Program, f: Option<Fault>, acfg: ArgusConfig, scrub: Scrub) -> Ran {
    let mut m = Machine::new(MachineConfig::default());
    prog.load(&mut m);
    let boot_gen = m.mem_mut().memory_mut().advance_generation();
    let mut argus = Argus::new(acfg);
    argus.expect_entry(prog.entry_dcs.unwrap());
    let mut inj = match f {
        Some(f) => FaultInjector::with_fault(f),
        None => FaultInjector::none(),
    };
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
        if m.cycle() > 5_000_000 {
            break;
        }
    }
    if argus.first_detection().is_none() {
        match scrub {
            Scrub::Full => argus.scrub_memory(&m, prog.data_base, &mut inj),
            Scrub::SinceBoot => argus.scrub_memory_dirty(&m, prog.data_base, &mut inj, boot_gen),
        };
    }
    Ran { machine: m, argus }
}

fn store_heavy_program() -> Program {
    store_heavy_program_at(0x8_0000)
}

fn store_heavy_program_at(buffer: u32) -> Program {
    // Stores a buffer of words that is never loaded back — only the scrub
    // can see corruption parked there.
    let mut b = ProgramBuilder::new();
    b.li(r(2), buffer);
    b.li(r(3), 0x1234);
    b.li(r(4), 0);
    b.li(r(5), 32);
    b.label("loop");
    b.add(r(3), r(3), r(3));
    b.xori(r(3), r(3), 0x2F);
    b.sw(r(2), r(3), 0);
    b.addi(r(2), r(2), 4);
    b.addi(r(4), r(4), 1);
    b.sf(Cond::Ltu, r(4), r(5));
    b.bf("loop");
    b.nop();
    b.halt();
    compile(&b.unit(), Mode::Argus, &EmbedConfig::default()).unwrap()
}

#[test]
fn scrub_catches_store_bus_corruption_parked_in_memory() {
    let prog = store_heavy_program();
    let ran = run_with(
        &prog,
        Some(fault(argus_machine::sites::LSU_ST_BUS, 7, 32, 100)),
        ArgusConfig::default(),
    );
    let ev = ran.argus.first_detection().expect("scrub must catch it");
    assert_eq!(ev.checker, CheckerKind::Parity);
    assert_eq!(ev.reason, "scrub_parity");

    // The boot-generation scrub reports the same first event, for a word
    // parked in memory and for a fault on the scrub's own comparator (the
    // full-sweep fallback). With the buffer two pages above the data base,
    // a dirty-only sweep of the comparator fault would start two pages
    // late.
    let data_base = prog.data_base;
    for buffer in [data_base, data_base + 0x2000] {
        let prog = store_heavy_program_at(buffer);
        for site in [argus_machine::sites::LSU_ST_BUS, argus_core::sites::MFC_PARITY_CHECK] {
            let width = if site == argus_core::sites::MFC_PARITY_CHECK { 1 } else { 32 };
            let bit = if width == 1 { 0 } else { 7 };
            let f = fault(site, bit, width, 100);
            let full = run_scrubbed(&prog, Some(f.clone()), ArgusConfig::default(), Scrub::Full);
            let dirty = run_scrubbed(&prog, Some(f), ArgusConfig::default(), Scrub::SinceBoot);
            let ev = full.argus.first_detection().expect("the full scrub detects").clone();
            assert_eq!(ev.reason, "scrub_parity", "{site} at {buffer:#x}");
            assert_eq!(dirty.argus.first_detection(), Some(&ev), "{site} at {buffer:#x}");
            if site == argus_core::sites::MFC_PARITY_CHECK {
                assert_eq!(ev.pc, data_base, "the comparator fault fires on the first word");
            }
        }
    }
}

#[test]
fn scrub_catches_wrong_row_stores() {
    let prog = store_heavy_program();
    let ran = run_with(
        &prog,
        Some(fault(argus_machine::sites::DMEM_ROW_ADDR, 5, 14, 120)),
        ArgusConfig::default(),
    );
    let ev = ran.argus.first_detection().expect("wrong-row store detected");
    assert_eq!(ev.checker, CheckerKind::Parity);
}

fn subword_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.li(r(2), 0x8_0000);
    b.li(r(3), 0xAB);
    b.li(r(4), 0);
    b.li(r(5), 24);
    b.label("loop");
    b.store(MemSize::Byte, r(2), r(3), 1);
    b.load(MemSize::Byte, false, r(6), r(2), 1);
    b.add(r(3), r(3), r(6));
    b.addi(r(2), r(2), 4);
    b.addi(r(4), r(4), 1);
    b.sf(Cond::Ltu, r(4), r(5));
    b.bf("loop");
    b.nop();
    b.halt();
    compile(&b.unit(), Mode::Argus, &EmbedConfig::default()).unwrap()
}

#[test]
fn store_merge_faults_are_caught_by_the_rsse_checker() {
    let prog = subword_program();
    let ran = run_with(
        &prog,
        Some(fault(argus_machine::sites::LSU_ST_MERGE, 11, 32, 100)),
        ArgusConfig::default(),
    );
    let ev = ran.argus.first_detection().expect("merge corruption detected");
    assert_eq!(ev.checker, CheckerKind::Computation);
    assert_eq!(ev.reason, "merge_mismatch");
}

#[test]
fn indirect_jump_register_corruption_is_detected() {
    // Corrupt the DCS bits of a function pointer: the CFC must flag the
    // return/jump mismatch at the target block's end.
    let mut b = ProgramBuilder::new();
    b.li(r(3), 1);
    b.jal("callee");
    b.nop();
    b.halt();
    b.label("callee");
    b.addi(r(3), r(3), 10);
    b.jr(Reg::LR);
    b.nop();
    let prog = compile(&b.unit(), Mode::Argus, &EmbedConfig::default()).unwrap();
    // r9's top bits carry the link DCS; flip one persistently.
    let ran = run_with(
        &prog,
        Some(Fault {
            site: argus_machine::machine::RF_CELL_SITES[9],
            bit: 29, // inside the DCS field [31:27]
            kind: FaultKind::Permanent,
            arm_cycle: 0,
            flavor: SiteFlavor::Single,
            width: 32,
            sensitization: 1.0,
        }),
        ArgusConfig::default(),
    );
    let ev = ran.argus.first_detection().expect("link-DCS corruption detected");
    // Either the register parity check or the DCS comparison gets it.
    assert!(matches!(ev.checker, CheckerKind::Parity | CheckerKind::Dcs));
}

#[test]
fn block_length_cap_fires_when_halt_decays_to_nop() {
    // A fault that turns `halt` into a NOP lets execution run into the
    // zero-filled memory beyond the program; the block-length bound is the
    // checker's backstop.
    let mut b = ProgramBuilder::new();
    b.li(r(3), 5);
    b.halt();
    let prog = compile(&b.unit(), Mode::Argus, &EmbedConfig::default()).unwrap();
    let halt_idx = prog.code.len() - 1;
    let mut bad = prog.clone();
    bad.code[halt_idx] ^= 1 << 29; // opcode 0x08 → 0x28 (invalid → NOP)
    let ran = run_with(&bad, None, ArgusConfig::default());
    let ev = ran.argus.first_detection().expect("runaway execution detected");
    assert_eq!(ev.checker, CheckerKind::Dcs);
    // The dropped `halt` perturbs the current block's DCS first; if that
    // ever aliased, the block-length bound is the backstop.
    assert!(
        ["dcs_mismatch", "block_length_exceeded"].contains(&ev.reason),
        "unexpected reason {}",
        ev.reason
    );
    assert!(!ran.machine.halted());
}

#[test]
fn attribution_reasons_are_stable_names() {
    // The reason strings are part of the reporting interface; pin them.
    let prog = store_heavy_program();
    let ran = run_with(
        &prog,
        Some(fault(argus_machine::sites::ALU_ADDER_OUT, 3, 32, 50)),
        ArgusConfig::default(),
    );
    let ev = ran.argus.first_detection().unwrap();
    assert!(
        ["adder_mismatch", "addr_mismatch"].contains(&ev.reason),
        "unexpected reason {}",
        ev.reason
    );
}

#[test]
fn masked_checker_fault_is_detected_but_harmless() {
    let prog = store_heavy_program();
    // Golden digest.
    let clean = run_with(&prog, None, ArgusConfig::default());
    assert!(clean.argus.events().is_empty());
    let golden = clean.machine.state_digest();

    let ran = run_with(
        &prog,
        Some(fault(argus_core::sites::DCS_XOR_OUT, 2, 8, 80)),
        ArgusConfig::default(),
    );
    assert!(ran.argus.first_detection().is_some(), "broken DCS tree must false-alarm");
    assert_eq!(ran.machine.state_digest(), golden, "checker faults never corrupt the core");
}

#[test]
fn scrub_respects_enable_parity() {
    let prog = store_heavy_program();
    let acfg = ArgusConfig { enable_parity: false, ..Default::default() };
    let ran = run_with(&prog, Some(fault(argus_machine::sites::LSU_ST_BUS, 7, 32, 100)), acfg);
    assert!(
        ran.argus.events().iter().all(|e| e.checker != CheckerKind::Parity),
        "parity disabled but parity events raised"
    );
}
