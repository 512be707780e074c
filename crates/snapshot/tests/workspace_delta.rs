//! Delta-restore workspace contract: restoring a snapshot into a reused
//! [`Workspace`] is bit-identical to a full restore and to a cold boot
//! (`restore_fresh`), while actually skipping clean pages. The store is an
//! in-memory ARGSTORE image; the file-mapped form parses identically.

use argus_core::{Argus, ArgusConfig};
use argus_isa::encode::encode;
use argus_isa::instr::{AluImmOp, Instr, MemSize};
use argus_isa::reg::{r, Reg};
use argus_machine::{Machine, MachineConfig, StepOutcome};
use argus_mem::MemConfig;
use argus_sim::fault::FaultInjector;
use argus_snapshot::{combined_fingerprint, MappedStore, MappedStoreWriter, PageCache, Workspace};

/// A short program that stores to two distant addresses (two different
/// memory pages) and halts.
fn program() -> Vec<u32> {
    [
        Instr::AluImm { op: AluImmOp::Ori, rd: r(3), ra: Reg::ZERO, imm: 0x1234 },
        Instr::AluImm { op: AluImmOp::Ori, rd: r(4), ra: Reg::ZERO, imm: 0x00FF },
        Instr::Store { size: MemSize::Word, ra: Reg::ZERO, rb: r(3), off: 0x200 },
        Instr::Store { size: MemSize::Word, ra: Reg::ZERO, rb: r(4), off: 0x7F00 },
        Instr::AluImm { op: AluImmOp::Xori, rd: r(5), ra: r(3), imm: 0x00F0 },
        Instr::Store { size: MemSize::Word, ra: Reg::ZERO, rb: r(5), off: 0x204 },
        Instr::Halt,
    ]
    .iter()
    .map(encode)
    .collect()
}

fn boot(words: &[u32]) -> Machine {
    let mut m = Machine::new(MachineConfig {
        mem: MemConfig::default(),
        argus_mode: false,
        ..Default::default()
    });
    m.load_code(0, words);
    m
}

fn advance(m: &mut Machine, n: usize) -> usize {
    let mut inj = FaultInjector::none();
    for k in 0..n {
        if m.step(&mut inj) == StepOutcome::Halted {
            return k;
        }
    }
    n
}

/// Two snapshots of the same run at different cycles, sharing one store:
/// index 0 three steps in, index 1 at halt.
fn two_snapshots() -> MappedStore {
    let argus = Argus::new(ArgusConfig::default());
    let mut w = MappedStoreWriter::in_memory(1);
    let mut m = boot(&program());
    advance(&mut m, 3);
    w.capture_now(&mut m, &argus).unwrap();
    advance(&mut m, 10_000);
    assert!(m.halted());
    w.capture_now(&mut m, &argus).unwrap();
    w.finish().unwrap()
}

fn fingerprint_of(ws: &Workspace) -> Option<u64> {
    ws.pair().map(|(m, a)| combined_fingerprint(m, a))
}

#[test]
fn delta_restore_matches_cold_boot_and_full_restore() {
    let store = two_snapshots();
    let cache = &mut PageCache::default();

    let (cold_m, cold_a) = store.restore_fresh(0, cache).unwrap();
    assert_eq!(Some(combined_fingerprint(&cold_m, &cold_a)), store.fingerprint(0));

    let mut ws = Workspace::new();
    store.restore_into(0, &mut ws, cache).unwrap();
    assert_eq!(fingerprint_of(&ws), store.fingerprint(0));
    assert_eq!(ws.pair().unwrap().0.state_digest(), cold_m.state_digest());
    assert_eq!(ws.stats().restores, 1);
    assert_eq!(ws.stats().full_restores, 1, "first use cold-builds the pair");

    // Dirty the workspace by running to halt, then delta-restore back.
    {
        let (m, _) = ws.pair_mut().unwrap();
        advance(m, 10_000);
        assert!(m.halted());
    }
    store.restore_into(0, &mut ws, cache).unwrap();
    assert_eq!(fingerprint_of(&ws), store.fingerprint(0));
    assert_eq!(ws.pair().unwrap().0.state_digest(), cold_m.state_digest());
    let s = ws.stats();
    assert_eq!(s.restores, 2);
    assert_eq!(s.full_restores, 1, "second restore took the delta path");
    assert!(s.pages_skipped > 0, "delta restore must skip clean pages, got {s:?}");
    assert!(s.pages_rewritten >= 1, "the run dirtied at least one page, got {s:?}");

    // Cross-snapshot delta: move the same workspace to a different
    // checkpoint of the same run.
    store.restore_into(1, &mut ws, cache).unwrap();
    assert_eq!(fingerprint_of(&ws), store.fingerprint(1));
    let (cold_m2, _) = store.restore_fresh(1, cache).unwrap();
    assert_eq!(ws.pair().unwrap().0.state_digest(), cold_m2.state_digest());
}

#[test]
fn workspace_replay_is_bit_identical_to_cold_boot() {
    let store = two_snapshots();
    let cache = &mut PageCache::default();

    let (mut cold_m, _) = store.restore_fresh(0, cache).unwrap();
    advance(&mut cold_m, 10_000);
    assert!(cold_m.halted());

    let mut ws = Workspace::new();
    store.restore_into(0, &mut ws, cache).unwrap();
    // Pollute, restore, replay: the replay must match the cold replay.
    {
        let (m, _) = ws.pair_mut().unwrap();
        advance(m, 2);
    }
    store.restore_into(0, &mut ws, cache).unwrap();
    let (m, _) = ws.pair_mut().unwrap();
    advance(m, 10_000);
    assert!(m.halted());
    assert_eq!(m.state_digest(), cold_m.state_digest());
    assert_eq!(m.cycle(), cold_m.cycle());
}

#[test]
fn invalidate_forces_full_rewrite() {
    let store = two_snapshots();
    let cache = &mut PageCache::default();
    let mut ws = Workspace::new();
    store.restore_into(0, &mut ws, cache).unwrap();
    ws.invalidate();
    store.restore_into(0, &mut ws, cache).unwrap();
    let s = ws.stats();
    assert_eq!(s.restores, 2);
    assert_eq!(s.full_restores, 2, "invalidation must force the full path, got {s:?}");
    assert_eq!(fingerprint_of(&ws), store.fingerprint(0));
}

#[test]
fn try_restore_into_rejects_corrupt_snapshot() {
    let mut store = two_snapshots();
    assert!(store.corrupt_page_for_test(0));

    let mut ws = Workspace::new();
    let err = store.try_restore_into(0, &mut ws, &mut PageCache::default()).unwrap_err();
    assert!(err.contains("CRC"), "unexpected error: {err}");
}

#[test]
fn try_restore_into_verifies_clean_snapshot_without_fallback() {
    let store = two_snapshots();
    let cache = &mut PageCache::default();
    let mut ws = Workspace::new();
    assert_eq!(store.try_restore_into(0, &mut ws, cache), Ok(false));
    {
        let (m, _) = ws.pair_mut().unwrap();
        advance(m, 4);
    }
    assert_eq!(store.try_restore_into(0, &mut ws, cache), Ok(false));
    assert_eq!(fingerprint_of(&ws), store.fingerprint(0));
}
