//! The early-finish table (`argus_faults::sites::early_finish`) against a
//! simulation oracle.
//!
//! With the golden short-cuts on, a permanent fault's run ends where the
//! table says the no-fault run already decides it. The table rests on two
//! facts about the design, and this file checks each one by simulation
//! rather than by reading the code:
//!
//! * **Checker-only machine sites** feed nothing but the checker. A
//!   permanent fault on one, armed at cycle 0 with every exercise
//!   corrupting, steps in lockstep with a fault-free twin: once it has
//!   flipped, the state digest, the microarchitectural digest and the
//!   cycle count stay equal after every step, and so does the full state
//!   fingerprint at the end.
//! * **Masked bits** reach no value. For every (site, bit) the table marks
//!   masked, a whole checked run ends with the no-fault run's state
//!   digest and fingerprint, checker state fingerprint and detection
//!   events.
//!
//! Negative rows (`mul_lo`, and `shs_crc_out` bit 4 inside the signature)
//! must diverge, so neither oracle passes by comparing nothing.

use argus_compiler::{compile, EmbedConfig, Mode, Program};
use argus_core::{Argus, ArgusConfig, DetectionEvent};
use argus_faults::sites::{early_finish, full_inventory, EarlyFinish, SamplePoint};
use argus_faults::CampaignConfig;
use argus_machine::{sites, Machine, MachineConfig, SnapshotState, StepOutcome};
use argus_sim::fault::{Fault, FaultInjector, FaultKind, SiteDesc};
use argus_workloads::Workload;

/// Cycle bound for one run: far past either workload's halt.
const BOUND: u64 = 50_000_000;

fn workloads() -> [Workload; 2] {
    [argus_workloads::stress(), argus_workloads::pegwit::pegwit()]
}

/// The compiled image and the campaign's machine configuration for `w`.
fn build(w: &Workload) -> (Program, MachineConfig) {
    let prog = compile(&w.unit, Mode::Argus, &EmbedConfig::default())
        .unwrap_or_else(|e| panic!("{}: compile failed: {e:?}", w.name));
    (prog, CampaignConfig::default().sized_for(w).mcfg)
}

/// A cold boot: the image loaded and the checker armed with the entry DCS.
fn boot(prog: &Program, mcfg: MachineConfig) -> (Machine, Argus) {
    let mut m = Machine::new(mcfg);
    prog.load(&mut m);
    let mut argus = Argus::new(ArgusConfig::default());
    if let Some(d) = prog.entry_dcs {
        argus.expect_entry(d);
    }
    (m, argus)
}

/// A permanent fault at `bit` of `site`, armed at cycle 0, that corrupts
/// every exercise.
fn permanent(site: &SiteDesc, bit: u8) -> Fault {
    Fault { sensitization: 1.0, ..SamplePoint { site: *site, bit }.fault(FaultKind::Permanent, 0) }
}

fn site(name: &str) -> SiteDesc {
    *full_inventory().iter().find(|s| s.name == name).unwrap_or_else(|| panic!("no site {name}"))
}

/// Steps a machine carrying `fault` beside a fault-free twin to halt.
/// Returns how many taps the fault corrupted and the first cycle, after
/// the first flip, at which the two differ in state digest,
/// microarchitectural digest or cycle count (or, at the end, in full
/// state fingerprint).
fn lockstep(prog: &Program, mcfg: MachineConfig, fault: Fault) -> (u64, Option<u64>) {
    let (mut m, _) = boot(prog, mcfg);
    let (mut twin, _) = boot(prog, mcfg);
    let mut inj = FaultInjector::with_fault(fault);
    let mut none = FaultInjector::none();
    loop {
        let halted = matches!(m.step(&mut inj), StepOutcome::Halted);
        twin.step(&mut none);
        if inj.flip_count() > 0
            && (m.cycle() != twin.cycle()
                || m.state_digest_cached() != twin.state_digest_cached()
                || m.microarch_digest() != twin.microarch_digest())
        {
            return (inj.flip_count(), Some(m.cycle()));
        }
        if halted || m.cycle() > BOUND {
            break;
        }
    }
    let diverged = (m.state_fingerprint() != twin.state_fingerprint()).then(|| m.cycle());
    (inj.flip_count(), diverged)
}

/// What a whole checked run (every commit and stall through the checker)
/// ends with: the machine's state digest and full state fingerprint, the
/// checker's state fingerprint, its events, and how many taps the injector
/// corrupted.
fn checked_run(
    prog: &Program,
    mcfg: MachineConfig,
    mut inj: FaultInjector,
) -> ([u64; 2], u64, Vec<DetectionEvent>, u64) {
    let (mut m, mut argus) = boot(prog, mcfg);
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
        assert!(m.cycle() <= BOUND, "the run did not halt");
    }
    let machine = [m.state_digest(), m.state_fingerprint()];
    (machine, argus.state_fingerprint(), argus.events().to_vec(), inj.flip_count())
}

/// The machine sites the table marks checker-only, whatever the bit.
fn checker_only_machine_sites() -> Vec<SiteDesc> {
    let sig_width = ArgusConfig::default().sig_width;
    argus_machine::sites::core_sites()
        .into_iter()
        .filter(|s| {
            (0..s.width)
                .all(|bit| early_finish(&permanent(s, bit), sig_width) == EarlyFinish::AtDetection)
        })
        .collect()
}

#[test]
fn checker_only_machine_sites_never_reach_the_machine() {
    let only = checker_only_machine_sites();
    let names: Vec<&str> = only.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [sites::ID_OPC_SUBCHK, sites::ID_OPC_SHS, sites::MUL_HI, sites::DIV_R],
        "the table's checker-only machine sites changed; extend the oracle"
    );
    let mut fired = vec![false; only.len()];
    for w in &workloads() {
        let (prog, mcfg) = build(w);
        for (s, fired) in only.iter().zip(&mut fired) {
            for bit in [0, 26] {
                let (flips, diverged) = lockstep(&prog, mcfg, permanent(s, bit));
                assert_eq!(
                    diverged, None,
                    "{} {}[{bit}]: the machine left the twin",
                    w.name, s.name
                );
                *fired |= flips > 0;
            }
        }
    }
    for (s, fired) in only.iter().zip(fired) {
        assert!(fired, "{}: no workload exercised the site", s.name);
    }
}

#[test]
fn a_site_that_reaches_the_machine_leaves_the_twin() {
    let mul_lo = site(sites::MUL_LO);
    for w in &workloads() {
        let (prog, mcfg) = build(w);
        let (flips, diverged) = lockstep(&prog, mcfg, permanent(&mul_lo, 0));
        assert!(flips > 0, "{}: mul_lo never fired", w.name);
        assert!(diverged.is_some(), "{}: a corrupted product changed nothing", w.name);
    }
}

#[test]
fn masked_bits_leave_the_whole_run_unchanged() {
    let sig_width = ArgusConfig::default().sig_width;
    let masked: Vec<(SiteDesc, u8)> = full_inventory()
        .into_iter()
        .flat_map(|s| (0..s.width).map(move |bit| (s, bit)))
        .filter(|(s, bit)| early_finish(&permanent(s, *bit), sig_width) == EarlyFinish::AtFirstFlip)
        .collect();
    // Bits 5..8 of the four 8-bit signature sites, bits 0..2 of next-PC.
    assert_eq!(masked.len(), 4 * 3 + 2, "the table's masked bits changed: {masked:?}");
    for w in &workloads() {
        let (prog, mcfg) = build(w);
        let (machine, checker, events, _) = checked_run(&prog, mcfg, FaultInjector::none());
        assert!(events.is_empty(), "{}: the no-fault run detected", w.name);
        for (s, bit) in &masked {
            let what = format!("{} {}[{bit}]", w.name, s.name);
            let inj = FaultInjector::with_fault(permanent(s, *bit));
            let (m, c, e, flips) = checked_run(&prog, mcfg, inj);
            assert!(flips > 0, "{what}: the fault never fired");
            assert_eq!(m, machine, "{what}: state digest and fingerprint");
            assert_eq!(c, checker, "{what}: checker state fingerprint");
            assert_eq!(e, events, "{what}: detection events");
        }
    }
}

#[test]
fn a_signature_bit_the_checker_reads_changes_the_run() {
    let crc = site(argus_core::sites::SHS_CRC_OUT);
    let fault = permanent(&crc, 4);
    assert_eq!(early_finish(&fault, ArgusConfig::default().sig_width), EarlyFinish::AtDetection);
    for w in &workloads() {
        let (prog, mcfg) = build(w);
        let (_, checker, events, _) = checked_run(&prog, mcfg, FaultInjector::none());
        let (_, c, e, flips) = checked_run(&prog, mcfg, FaultInjector::with_fault(fault.clone()));
        assert!(flips > 0, "{}: the fault never fired", w.name);
        assert!(c != checker || e != events, "{}: signature bit 4 changed nothing", w.name);
    }
}
