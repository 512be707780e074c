//! Adversarial decode tests for the ARGSTORE snapshot format.
//!
//! The contract under attack: [`MappedStore::from_bytes`] (and
//! [`MappedStore::open`], which parses the same way) must return `Err`
//! on *any* damaged image — truncation, wrong magic, crafted over-long
//! counts, flipped bits — and must never panic or allocate proportionally
//! to a lying field. The whole-file CRC-32 trailer is verified before a
//! single field past the magic is interpreted, which is what makes the
//! single-bit-flip properties below deterministic: CRC-32 detects every
//! 1-bit error and every burst shorter than its width.
//!
//! Two fixtures cover the two shapes the format takes in practice: a
//! one-snapshot image (`argus snapshot save`, the distributed `entry`
//! artifact) and a multi-snapshot campaign store. A file mutated *after*
//! open is the mapped form's extra hazard; it must fail the per-page CRC.

use argus_core::{Argus, ArgusConfig};
use argus_machine::{Machine, MachineConfig};
use argus_mem::MemConfig;
use argus_sim::fault::FaultInjector;
use argus_snapshot::mapped::{MappedStore, MappedStoreWriter, PageCache};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A small but real machine: 16 KiB of memory keeps the per-case CRC
/// work cheap without changing any code path.
fn small_config() -> MachineConfig {
    MachineConfig {
        mem: MemConfig { mem_bytes: 1 << 14, ..Default::default() },
        ..Default::default()
    }
}

/// Re-seals `bytes` with an honest CRC trailer, so the parser — not the
/// envelope — must reject whatever field was crafted.
fn reseal(bytes: &mut [u8]) {
    let end = bytes.len() - 4;
    let crc = argus_sim::crc::crc32(&bytes[..end]);
    bytes[end..].copy_from_slice(&crc.to_le_bytes());
}

/// A one-snapshot image of a machine a few steps in (so the core state is
/// not all-zero).
fn valid_file() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut m = Machine::new(small_config());
        let mut inj = FaultInjector::none();
        for _ in 0..5 {
            let _ = m.step(&mut inj);
        }
        let mut w = MappedStoreWriter::in_memory(1);
        w.capture_now(&mut m, &Argus::new(ArgusConfig::default())).expect("capture");
        w.finish().expect("seal").file_bytes().to_vec()
    })
}

fn load(bytes: &[u8]) -> std::io::Result<MappedStore> {
    MappedStore::from_bytes(bytes.to_vec())
}

#[test]
fn the_valid_file_itself_loads() {
    let store = load(valid_file()).expect("pristine image must load");
    assert_eq!(store.len(), 1);
    store.try_restore_fresh(0, &mut PageCache::default()).expect("restores verified");
}

#[test]
fn every_short_prefix_is_rejected() {
    let buf = valid_file();
    // Exhaustive over the header region, sampled beyond it.
    for len in (0..4200.min(buf.len())).chain((4200..buf.len()).step_by(257)) {
        assert!(load(&buf[..len]).is_err(), "prefix of {len} bytes must not load");
    }
    let err = load(&buf[..buf.len() - 1]).unwrap_err();
    assert!(err.to_string().contains("checksum") || err.to_string().contains("too short"), "{err}");
}

#[test]
fn wrong_magic_and_wrong_version_are_distinguished() {
    let buf = valid_file();

    let mut other = buf.to_vec();
    other[0] = b'X';
    let err = load(&other).unwrap_err();
    assert!(err.to_string().contains("not an argus store file"), "{err}");

    // Same magic, different version field behind an honest CRC: a
    // *version* error, not a generic one.
    let mut future = buf.to_vec();
    future[8] = 0x7F;
    reseal(&mut future);
    let err = load(&future).unwrap_err();
    assert!(err.to_string().contains("unsupported store format version"), "{err}");
}

#[test]
fn crafted_overlong_memory_count_is_rejected_without_allocating() {
    let buf = valid_file();
    let n = Machine::new(small_config()).mem().memory().words().len();
    let pages = n.div_ceil(argus_snapshot::PAGE_WORDS);
    // The lone snapshot's metadata ends [mem_words: u64][n_ids: u64][ids: 4 × pages],
    // right before the 32-byte footer and the CRC trailer.
    let ids_at = buf.len() - 4 - 32 - 4 * pages;
    let (count_at, table_at) = (ids_at - 16, ids_at - 8);
    let field = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    assert_eq!(field(buf, count_at), n as u64, "located the memory word count");
    assert_eq!(field(buf, table_at), pages as u64, "located the page-table length");

    // A 2^64-word memory image, and a 2^64-entry page table: the parser
    // must refuse both before sizing anything by them.
    for (at, want) in [(count_at, "implausibly large"), (table_at, "page table length")] {
        let mut crafted = buf.to_vec();
        crafted[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut crafted);
        let err = load(&crafted).unwrap_err();
        assert!(err.to_string().contains(want), "{err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single flipped bit anywhere in the image — header, pages,
    /// metadata, or CRC trailer — must be rejected. Guaranteed, not
    /// probabilistic: CRC-32 detects all single-bit errors, and a flip
    /// inside the magic is caught even earlier.
    #[test]
    fn any_single_bit_flip_is_rejected(pos in 0usize..usize::MAX, bit in 0u8..8) {
        let mut buf = valid_file().to_vec();
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        prop_assert!(load(&buf).is_err(), "flipping bit {} of byte {} went unnoticed", bit, pos);
    }

    /// Short bursts of adjacent corruption (up to 4 bytes = the CRC
    /// width) are likewise always detected.
    #[test]
    fn short_corruption_bursts_are_rejected(
        pos in 0usize..usize::MAX,
        burst in prop::collection::vec(1u8..=255, 1..=4),
    ) {
        let mut buf = valid_file().to_vec();
        let pos = pos % buf.len();
        for (k, &b) in burst.iter().enumerate() {
            if let Some(byte) = buf.get_mut(pos + k) {
                *byte ^= b;
            }
        }
        prop_assert!(load(&buf).is_err());
    }

    /// Random truncation points never load.
    #[test]
    fn random_truncations_are_rejected(cut in 0usize..usize::MAX) {
        let buf = valid_file();
        let cut = cut % buf.len();
        prop_assert!(load(&buf[..cut]).is_err());
    }
}

// ---------------------------------------------------------------------------
// Multi-snapshot campaign stores under the same attack model.
// ---------------------------------------------------------------------------

/// A sealed store with a handful of snapshots of a stepping machine,
/// built once in memory.
fn valid_store_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut m = Machine::new(small_config());
        let argus = Argus::new(ArgusConfig::default());
        let mut w = MappedStoreWriter::in_memory(64);
        w.capture_now(&mut m, &argus).expect("seed cycle 0");
        let mut inj = FaultInjector::none();
        for _ in 0..400 {
            let _ = m.step(&mut inj);
            w.maybe_capture(&mut m, &argus).expect("interval capture");
        }
        let store = w.finish().expect("seal store");
        assert!(store.len() >= 3, "want several snapshots to attack");
        store.file_bytes().to_vec()
    })
}

#[test]
fn the_valid_store_itself_opens_and_restores() {
    let store = load(valid_store_bytes()).expect("pristine store must open");
    let mut cache = PageCache::new(8);
    for i in 0..store.len() {
        store.try_restore_fresh(i, &mut cache).expect("every snapshot restores verified");
    }
}

#[test]
fn store_lying_footer_counts_are_rejected_without_allocating() {
    // Footer layout (before the 4-byte CRC trailer):
    // [n_pages: u64][n_snaps: u64][meta_len: u64][footer magic: 8].
    let buf = valid_store_bytes();
    let footer_at = buf.len() - 4 - 32;
    for field in 0..3usize {
        let mut crafted = buf.to_vec();
        let at = footer_at + 8 * field;
        crafted[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        // The size equation — not the CRC — must reject the 2^64-page store.
        reseal(&mut crafted);
        assert!(load(&crafted).is_err(), "footer field {field} = u64::MAX must not open");
    }
}

#[test]
fn store_mutated_after_open_fails_page_crc_not_execution() {
    let path = std::env::temp_dir().join(format!("argus-advstore-{}-live.bin", std::process::id()));
    std::fs::write(&path, valid_store_bytes()).unwrap();
    let store = MappedStore::open(&path).expect("pristine store must open");

    // Flip one byte in the body slot of a page the last snapshot uses,
    // through the file — the shared mapping observes it.
    let victim = *store
        .page_ids(store.len() - 1)
        .expect("snapshot has pages")
        .last()
        .expect("non-empty page table");
    let body_off = 4096 + victim as u64 * 4096;
    {
        use std::io::{Seek, SeekFrom, Write as _};
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(body_off)).unwrap();
        f.write_all(&[0xFF]).unwrap();
        f.sync_all().unwrap();
    }
    let _ = std::fs::remove_file(&path);

    assert_eq!(store.check_page_crc(victim), Some(false), "spot check must see the flip");
    assert_eq!(store.check_page_crc(u32::MAX), None, "out-of-range id is None, not a panic");
    let mut cache = PageCache::new(8);
    let err = store
        .try_restore_fresh(store.len() - 1, &mut cache)
        .expect_err("restoring through the damaged page must fail");
    assert!(err.contains("CRC") || err.contains("corrupt"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single flipped bit anywhere in the store — header, page
    /// bodies, tags, index, snapshot metas, footer, or trailer — must be
    /// rejected at open.
    #[test]
    fn store_single_bit_flips_are_rejected(pos in 0usize..usize::MAX, bit in 0u8..8) {
        let mut buf = valid_store_bytes().to_vec();
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        prop_assert!(load(&buf).is_err(), "flipping bit {} of byte {} went unnoticed", bit, pos);
    }

    /// Random truncation points never open (the footer magic backstops
    /// the envelope even on CRC collisions).
    #[test]
    fn store_truncations_are_rejected(cut in 0usize..usize::MAX) {
        let buf = valid_store_bytes();
        let cut = cut % buf.len();
        prop_assert!(load(&buf[..cut]).is_err());
    }
}
