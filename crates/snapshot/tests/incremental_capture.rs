//! Guards on incremental capture: a writer reuses page ids only for the
//! memory it captured last, identified by `MainMemory::uid`, never by
//! write stamps alone. Each test feeds the writer a second machine whose
//! stamps would wrongly read clean against the writer's last capture —
//! stamped before that capture's generation, yet holding different
//! content. The writer must intern every page of it, which the store
//! shows twice: the page table points at the new content, and every
//! snapshot verifies against its capture fingerprint.

use argus_core::{Argus, ArgusConfig};
use argus_machine::{Machine, MachineConfig};
use argus_snapshot::{MappedStore, MappedStoreWriter, PageCache, PAGE_WORDS};

/// Generations the first machine advances past before its capture, so
/// that every stamp of a machine built or cloned earlier lies below the
/// writer's clean generation.
const AHEAD: u64 = 100;

/// Byte address of the first word of page `p`.
fn page_addr(p: usize) -> u32 {
    (4 * PAGE_WORDS * p) as u32
}

/// A machine with one word written on each of pages 0 and 2, its write
/// generation advanced past [`AHEAD`].
fn captured_machine() -> Machine {
    let mut m = Machine::new(MachineConfig::default());
    let mem = m.mem_mut().memory_mut();
    mem.write(page_addr(0), 0xAAAA, true).unwrap();
    mem.write(page_addr(2), 0xBBBB, false).unwrap();
    for _ in 0..AHEAD {
        mem.advance_generation();
    }
    m
}

/// Sets `m`'s cycle counter without touching memory, so captures stay in
/// cycle order.
fn set_cycle(m: &mut Machine, cycle: u64) {
    let mut core = m.capture_core();
    core.cycle = cycle;
    m.restore_core(&core);
}

/// Seals `w` and checks every snapshot restores to its fingerprint.
fn seal_and_verify(w: MappedStoreWriter) -> MappedStore {
    let store = w.finish().unwrap();
    let mut cache = PageCache::default();
    for i in 0..store.len() {
        store.try_restore_fresh(i, &mut cache).unwrap_or_else(|e| panic!("snapshot {i}: {e}"));
    }
    store
}

#[test]
fn a_fresh_machine_is_interned_in_full() {
    let argus = Argus::new(ArgusConfig::default());
    let mut first = captured_machine();
    let mut w = MappedStoreWriter::in_memory(1);
    w.capture_now(&mut first, &argus).unwrap();

    // Same writes on pages 0 and 2, but page 2 holds other content; the
    // fresh machine's stamps all lie below the first one's generation.
    let mut fresh = Machine::new(MachineConfig::default());
    let mem = fresh.mem_mut().memory_mut();
    mem.write(page_addr(0), 0xAAAA, true).unwrap();
    mem.write(page_addr(2), 0xCCCC, false).unwrap();
    assert!((0..mem.page_count()).all(|p| !mem.page_dirty_since(p, AHEAD)));
    set_cycle(&mut fresh, 1);
    w.capture_now(&mut fresh, &argus).unwrap();

    let store = seal_and_verify(w);
    let (a, b) = (store.page_ids(0).unwrap(), store.page_ids(1).unwrap());
    assert_ne!(a[2], b[2], "page 2 changed content");
    assert_eq!((a[0], a[1]), (b[0], b[1]), "unchanged content keeps its id");
}

#[test]
fn a_clone_taken_before_the_capture_is_interned_in_full() {
    let argus = Argus::new(ArgusConfig::default());
    let mut first = captured_machine();
    let mut clone = first.clone();
    let mut w = MappedStoreWriter::in_memory(1);
    w.capture_now(&mut first, &argus).unwrap();

    // The clone's own generation is the one it was cloned at, AHEAD + 1,
    // so this write is stamped below the writer's clean generation, which
    // the capture advanced past it.
    let mem = clone.mem_mut().memory_mut();
    mem.write(page_addr(1), 0xDDDD, true).unwrap();
    assert!(!mem.page_dirty_since(1, AHEAD + 2), "the write reads clean by its stamp");
    set_cycle(&mut clone, 1);
    w.capture_now(&mut clone, &argus).unwrap();

    // And back to the first machine, unchanged since its capture: its
    // pages are clean against the writer's clean generation, but the
    // writer last captured the clone, so it interns them all again.
    set_cycle(&mut first, 2);
    w.capture_now(&mut first, &argus).unwrap();

    let store = seal_and_verify(w);
    let ids = |i| store.page_ids(i).unwrap().to_vec();
    assert_ne!(ids(0)[1], ids(1)[1], "page 1 changed content in the clone");
    assert_eq!(ids(0), ids(2), "the first machine's content is unchanged");
}
