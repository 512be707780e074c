//! Property tests pinning the snapshot engine's contract: capturing at a
//! step boundary, restoring (in place or through a store image), and stepping
//! `k` more steps is bit-identical to never having snapshotted at all —
//! for random programs, both cache associativities, and snapshot points
//! landing right after multi-cycle multiply/divide steps.

use argus_core::{Argus, ArgusConfig};
use argus_isa::encode::encode;
use argus_isa::instr::{AluImmOp, AluOp, Instr, MemSize, MulDivOp};
use argus_isa::reg::{r, Reg};
use argus_machine::snapshot::SnapshotState;
use argus_machine::{Machine, MachineConfig, StepOutcome};
use argus_mem::MemConfig;
use argus_sim::fault::FaultInjector;
use argus_snapshot::{combined_fingerprint, MappedStore, MappedStoreWriter, PageCache};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Builds a random straight-line program from op tuples; always halts.
fn gen_program(seeds: &[u16], ops: &[(u8, u8, u8, u8, u32)]) -> Vec<u32> {
    let mut prog = Vec::new();
    for (k, &s) in seeds.iter().enumerate() {
        prog.push(Instr::AluImm { op: AluImmOp::Ori, rd: r(3 + k as u8), ra: Reg::ZERO, imm: s });
    }
    for &(opk, d, a, b, slot) in ops {
        let off = (0x100 + slot * 4) as i16;
        match opk {
            0..=7 => {
                let op = [
                    AluOp::Add,
                    AluOp::Sub,
                    AluOp::And,
                    AluOp::Or,
                    AluOp::Xor,
                    AluOp::Sll,
                    AluOp::Srl,
                    AluOp::Sra,
                ][opk as usize];
                prog.push(Instr::Alu { op, rd: r(d), ra: r(a), rb: r(b) });
            }
            8 => prog.push(Instr::MulDiv { op: MulDivOp::Mul, rd: r(d), ra: r(a), rb: r(b) }),
            9 => prog.push(Instr::MulDiv { op: MulDivOp::Div, rd: r(d), ra: r(a), rb: r(b) }),
            _ => {
                prog.push(Instr::Store { size: MemSize::Word, ra: Reg::ZERO, rb: r(a), off });
                prog.push(Instr::Load {
                    size: MemSize::Word,
                    signed: false,
                    rd: r(d),
                    ra: Reg::ZERO,
                    off,
                });
            }
        }
    }
    prog.push(Instr::Halt);
    prog.iter().map(encode).collect()
}

fn boot(words: &[u32], mem: MemConfig) -> Machine {
    let mut m = Machine::new(MachineConfig { mem, argus_mode: false, ..Default::default() });
    m.load_code(0, words);
    m
}

/// Steps `n` times (stopping at halt); returns steps actually taken.
fn advance(m: &mut Machine, n: usize) -> usize {
    let mut inj = FaultInjector::none();
    for k in 0..n {
        if m.step(&mut inj) == StepOutcome::Halted {
            return k;
        }
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// capture → restore → run-to-halt ≡ run-to-halt, for random
    /// programs, random capture points, and both cache associativities.
    /// The per-step outcomes must match too, not just the final state.
    #[test]
    fn fork_replays_bit_identically(
        seeds in prop::collection::vec(any::<u16>(), 4),
        ops in prop::collection::vec((0u8..11, 3u8..8, 3u8..8, 3u8..8, 0u32..64), 1..32),
        cut in 0usize..24,
        two_way in any::<bool>(),
    ) {
        let words = gen_program(&seeds, &ops);
        let mem = if two_way { MemConfig::default().two_way() } else { MemConfig::default() };

        let mut a = boot(&words, mem);
        advance(&mut a, cut);
        let snap = a.capture_state();

        let mut b = boot(&words, mem);
        b.restore_state(&snap);
        prop_assert_eq!(a.state_fingerprint(), b.state_fingerprint());

        let mut steps = 0u32;
        loop {
            let ra = a.step(&mut FaultInjector::none());
            let rb = b.step(&mut FaultInjector::none());
            prop_assert_eq!(&ra, &rb, "diverged {} steps after the fork", steps);
            if ra == StepOutcome::Halted {
                break;
            }
            steps += 1;
            prop_assert!(steps < 10_000, "straight-line program failed to halt");
        }
        prop_assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        prop_assert_eq!(a.cycle(), b.cycle());
        prop_assert_eq!(a.state_digest(), b.state_digest());
    }

    /// The interval policy with `every = 1` snapshots after *every* step —
    /// including the boundaries right after multi-cycle mul/div steps —
    /// and every one of those snapshots forks to the same final state.
    #[test]
    fn every_snapshot_of_a_muldiv_run_forks_to_the_same_end(
        va in 1u16..500,
        vb in 1u16..40,
    ) {
        let words: Vec<u32> = [
            Instr::AluImm { op: AluImmOp::Ori, rd: r(3), ra: Reg::ZERO, imm: va },
            Instr::AluImm { op: AluImmOp::Ori, rd: r(4), ra: Reg::ZERO, imm: vb },
            Instr::MulDiv { op: MulDivOp::Mul, rd: r(5), ra: r(3), rb: r(4) },
            Instr::MulDiv { op: MulDivOp::Div, rd: r(6), ra: r(5), rb: r(4) },
            Instr::MulDiv { op: MulDivOp::Div, rd: r(7), ra: r(5), rb: r(3) },
            Instr::Store { size: MemSize::Word, ra: Reg::ZERO, rb: r(6), off: 0x200 },
            Instr::Halt,
        ]
        .iter()
        .map(encode)
        .collect();

        // Uninterrupted reference.
        let mut golden = boot(&words, MemConfig::default());
        advance(&mut golden, 10_000);
        prop_assert!(golden.halted());
        let want = golden.state_fingerprint();

        // Golden run again, snapshotting after every step (machine-only
        // runs pair the machine with an idle checker).
        let mut m = boot(&words, MemConfig::default());
        let idle = Argus::new(ArgusConfig::default());
        let mut writer = MappedStoreWriter::in_memory(1);
        writer.capture_now(&m, &idle).unwrap();
        while !m.halted() {
            advance(&mut m, 1);
            writer.maybe_capture(&m, &idle).unwrap();
        }
        let store = writer.finish().unwrap();
        prop_assert!(store.len() >= words.len(), "one snapshot per step at least");

        let mut cache = PageCache::default();
        for i in 0..store.len() {
            let (mut fork, _) = store.restore_fresh(i, &mut cache).unwrap();
            advance(&mut fork, 10_000);
            prop_assert!(fork.halted());
            prop_assert_eq!(
                fork.state_fingerprint(),
                want,
                "fork from cycle {:?} diverged",
                store.cycle(i)
            );
        }
    }

    /// A snapshot that goes through the binary image — serialized, then
    /// parsed back as `argus snapshot restore` does — forks exactly like
    /// the machine it was taken from.
    #[test]
    fn file_roundtrip_preserves_the_fork(
        seeds in prop::collection::vec(any::<u16>(), 4),
        ops in prop::collection::vec((0u8..11, 3u8..8, 3u8..8, 3u8..8, 0u32..64), 1..16),
        cut in 0usize..16,
    ) {
        let words = gen_program(&seeds, &ops);
        let mut a = boot(&words, MemConfig::default());
        advance(&mut a, cut);
        let idle = Argus::new(ArgusConfig::default());
        let mut writer = MappedStoreWriter::in_memory(1);
        writer.capture_now(&a, &idle).unwrap();
        let image = writer.finish().unwrap().file_bytes().to_vec();

        let store = MappedStore::from_bytes(image).unwrap();
        let (mut b, _checker) = store.try_restore_fresh(0, &mut PageCache::default()).unwrap();
        prop_assert_eq!(a.state_fingerprint(), b.state_fingerprint());

        advance(&mut a, 10_000);
        advance(&mut b, 10_000);
        prop_assert!(a.halted() && b.halted());
        prop_assert_eq!(a.state_fingerprint(), b.state_fingerprint());
    }
}

/// Compiled once for the checker-in-lockstep property below.
fn stress_prog() -> &'static argus_compiler::Program {
    static PROG: OnceLock<argus_compiler::Program> = OnceLock::new();
    PROG.get_or_init(|| {
        let w = argus_workloads::stress();
        argus_compiler::compile(&w.unit, argus_compiler::Mode::Argus, &Default::default())
            .expect("stress compiles")
    })
}

fn checked_pair() -> (Machine, Argus) {
    let prog = stress_prog();
    let mut m = Machine::new(MachineConfig::default());
    prog.load(&mut m);
    let mut argus = Argus::new(ArgusConfig::default());
    argus.expect_entry(prog.entry_dcs.unwrap_or(0));
    (m, argus)
}

fn step_checked(m: &mut Machine, argus: &mut Argus, n: usize) {
    let mut inj = FaultInjector::none();
    for _ in 0..n {
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With the Argus checker running in lockstep (a real signature-
    /// embedded binary), capture → restore → step-k ≡ step-k: the full
    /// machine + checker fingerprint matches at the cut and after k more
    /// steps.
    #[test]
    fn checker_lockstep_fork_matches(cut in 0usize..600, k in 0usize..400) {
        let (mut m, mut argus) = checked_pair();
        step_checked(&mut m, &mut argus, cut);

        let mut writer = MappedStoreWriter::in_memory(1);
        writer.capture_now(&m, &argus).unwrap();
        let store = writer.finish().unwrap();
        let (mut fm, mut fargus) = store.restore_fresh(0, &mut PageCache::default()).unwrap();
        prop_assert_eq!(Some(combined_fingerprint(&fm, &fargus)), store.fingerprint(0));

        step_checked(&mut m, &mut argus, k);
        step_checked(&mut fm, &mut fargus, k);
        prop_assert_eq!(
            combined_fingerprint(&m, &argus),
            combined_fingerprint(&fm, &fargus),
            "forked checker run diverged after {} steps from cycle {}",
            k,
            cut
        );
    }
}
