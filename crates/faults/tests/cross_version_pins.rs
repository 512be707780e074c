//! Cross-version pins on every integrity value a campaign stores or sends.
//!
//! A remote worker refuses to lease work unless its rebuilt entry state
//! matches the coordinator's `entry_fingerprint`, and a store written by
//! one build is read back by another. So the entry fingerprint, every
//! snapshot fingerprint and every ARGSTORE image byte must stay the same
//! across builds, whatever kernel computes them: a silent change would
//! split a mixed-version cluster. The values below were computed before
//! `Crc32` became table-driven and before the fingerprint's tag term
//! learned to skip all-clear pages.

use argus_core::{Argus, ArgusConfig};
use argus_faults::{prepare_campaign, CampaignConfig};
use argus_machine::snapshot::Fnv64;
use argus_machine::{Machine, MachineConfig};
use argus_snapshot::{MappedStore, MappedStoreWriter, PAGE_WORDS};
use argus_workloads::Workload;

/// The image's CRC-32 trailer (its last four bytes, little-endian).
fn trailer(store: &MappedStore) -> u32 {
    let b = store.file_bytes();
    u32::from_le_bytes(b[b.len() - 4..].try_into().unwrap())
}

/// Every snapshot fingerprint of `store`, folded in order.
fn snapshot_fingerprints(store: &MappedStore) -> u64 {
    let mut h = Fnv64::new();
    for i in 0..store.len() {
        h.mix(store.fingerprint(i).unwrap());
    }
    h.finish()
}

/// (entry fingerprint, store trailer, folded snapshot fingerprints,
/// snapshot count) of `w` prepared with a capture every `every` cycles.
fn pins(w: &Workload, every: u64) -> (u64, u32, u64, usize) {
    let cfg = CampaignConfig { snapshot_every: Some(every), ..Default::default() }.sized_for(w);
    let prep = prepare_campaign(w, &cfg);
    let store = prep.snapshot_store().expect("a snapshot campaign builds a store");
    (prep.entry_fingerprint(&cfg), trailer(store), snapshot_fingerprints(store), store.len())
}

fn workload(name: &str) -> Workload {
    argus_workloads::suite().into_iter().find(|w| w.name == name).unwrap()
}

#[test]
fn pegwit_entry_and_store_values_are_pinned() {
    let got = pins(&workload("pegwit"), 1000);
    assert_eq!(got, (0x4cc3_4049_be98_2093, 0xc938_cd54, 0x357a_7918_45f2_f14e, 90));
}

#[test]
fn stress_xl_entry_and_store_values_are_pinned() {
    let got = pins(&argus_workloads::stress_xl(), 8000);
    assert_eq!(got, (0xbe38_c9b9_391f_f4c1, 0x276e_f03d, 0x76e4_4c4d_723f_ce90, 13));
}

/// One in-memory image over a memory with a partial last page, set tags
/// at both ends of a page, a repeated page (dedup) and two captures.
#[test]
fn an_in_memory_image_is_pinned_byte_for_byte() {
    let words = 3 * PAGE_WORDS + 5;
    let mcfg = {
        let mut c = MachineConfig::default();
        c.mem.mem_bytes = 4 * words as u32;
        c
    };
    let argus = Argus::new(ArgusConfig::default());
    let mut m = Machine::new(mcfg);
    let mem = m.mem_mut().memory_mut();
    for i in 0..PAGE_WORDS {
        let v = (i as u32).wrapping_mul(0x9E37_79B9);
        mem.write(4 * i as u32, v, i == 0 || i == PAGE_WORDS - 1).unwrap();
        mem.write(4 * (PAGE_WORDS + i) as u32, v, i == 0 || i == PAGE_WORDS - 1).unwrap();
    }
    mem.write(4 * (3 * PAGE_WORDS + 4) as u32, 0xDEAD_BEEF, true).unwrap();
    let mut w = MappedStoreWriter::in_memory(1);
    w.capture_now(&mut m, &argus).unwrap();
    let mut core = m.capture_core();
    core.cycle = 1;
    m.restore_core(&core);
    m.mem_mut().memory_mut().write(4 * (2 * PAGE_WORDS + 7) as u32, 42, false).unwrap();
    w.capture_now(&mut m, &argus).unwrap();
    let store = w.finish().unwrap();
    let bytes = store.file_bytes();
    let mut h = Fnv64::new();
    for &b in bytes {
        h.mix(u64::from(b));
    }
    let got = (bytes.len(), trailer(&store), h.finish(), snapshot_fingerprints(&store));
    assert_eq!(got, (51_340, 0x3724_af4d, 0xe852_cd3c_17a1_46a1, 0x2964_c8bb_913e_a12a));
}
