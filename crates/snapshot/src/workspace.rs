//! Reusable per-worker fork target: one `Machine` + `Argus` pair that
//! successive snapshot restores rewrite in place.
//!
//! A cold fork ([`crate::MappedStore::restore_fresh`]) allocates a
//! machine, zero-fills memory, and copies every page. A workspace restore
//! keeps the allocation (and the warm predecode memo) and rewrites only
//!
//! 1. pages the previous injection run dirtied (tracked by
//!    `argus_mem::MainMemory`'s generation stamps), plus
//! 2. pages where the target snapshot differs from the snapshot the
//!    workspace currently mirrors (a store dedups its pages, so equal
//!    page ids within one store mean equal contents).
//!
//! Identity stays defined by `Machine::state_digest` /
//! [`crate::combined_fingerprint`]: the verifying entry point
//! ([`crate::MappedStore::try_restore_into`]) checks the capture
//! fingerprint after the delta rewrite and falls back to a full in-place
//! restore on mismatch, and the trusted entry point
//! ([`crate::MappedStore::restore_into`]) re-checks the full fingerprint
//! under `debug_assertions`, so every test build verifies every delta
//! restore.

use argus_core::Argus;
use argus_machine::Machine;

// A dirty-tracking page in main memory must be exactly one snapshot page,
// or the page-index identification below is wrong.
const _: () = assert!(crate::page::PAGE_WORDS == argus_mem::DIRTY_PAGE_WORDS);

/// Cumulative restore statistics (observability for the fork-overhead
/// bench and the equivalence tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Restores served by this workspace (any path).
    pub restores: u64,
    /// Restores that could not use the delta path (first use, config
    /// change, explicit invalidation, or verification fallback).
    pub full_restores: u64,
    /// Pages rewritten by delta restores.
    pub pages_rewritten: u64,
    /// Pages skipped by delta restores (clean and already matching).
    pub pages_skipped: u64,
}

/// A reusable fork target. Create once per worker with [`Workspace::new`],
/// then restore snapshots into it via [`crate::MappedStore::restore_into`]
/// / [`crate::MappedStore::try_restore_into`].
#[derive(Debug, Default)]
pub struct Workspace {
    pub(crate) pair: Option<(Machine, Argus)>,
    /// Page ids (within the store identified by `mirrored_store`) the
    /// memory mirrored after the last restore (empty = unknown → next
    /// restore is full). A store dedups its pages, so equal ids mean equal
    /// contents — but only within one store, hence the uid check.
    pub(crate) mirrored_ids: Vec<u32>,
    /// Process-unique uid of the store `mirrored_ids` refers to (0 =
    /// none). Restores from a different store must not trust the ids.
    pub(crate) mirrored_store: u64,
    /// Memory write generation stamped right after the last restore:
    /// pages dirty since this generation have diverged from `mirrored_ids`.
    pub(crate) clean_gen: u64,
    pub(crate) stats: WorkspaceStats,
}

impl Workspace {
    /// An empty workspace; the first restore into it is a full (cold)
    /// restore that builds the machine + checker pair.
    pub fn new() -> Self {
        Self::default()
    }

    /// The resident pair, if any restore has populated the workspace.
    pub fn pair_mut(&mut self) -> Option<(&mut Machine, &mut Argus)> {
        self.pair.as_mut().map(|(m, a)| (&mut *m, &mut *a))
    }

    /// Read-only view of the resident pair.
    pub fn pair(&self) -> Option<(&Machine, &Argus)> {
        self.pair.as_ref().map(|(m, a)| (m, a))
    }

    /// Replaces the resident pair with `boot()`'s, dropping the old pair
    /// first so a worker never holds two machines at once. The new pair
    /// mirrors no snapshot (its write generations restart), so the next
    /// restore rewrites every page. Not a restore: [`WorkspaceStats`] is
    /// untouched. Writes to the resident pair's memory need no such call —
    /// they are generation-stamped, and the next delta restore rewrites
    /// the pages they touched.
    pub fn reboot(
        &mut self,
        boot: impl FnOnce() -> (Machine, Argus),
    ) -> (&mut Machine, &mut Argus) {
        self.invalidate();
        self.pair = None;
        let (m, a) = self.pair.insert(boot());
        (m, a)
    }

    /// Forgets what the workspace mirrors: the next restore rewrites every
    /// page. Call after mutating machine memory through any path that
    /// bypasses `MainMemory`'s write API (none exist in-tree; the hook is
    /// for tests and future instrumentation).
    pub fn invalidate(&mut self) {
        self.mirrored_ids.clear();
        self.mirrored_store = 0;
    }

    /// Memory write generation stamped right after the last restore:
    /// pages not dirty since this generation still hold the restored
    /// snapshot's content (the campaign engine bounds its end-of-run
    /// memory scrub with this).
    pub fn clean_generation(&self) -> u64 {
        self.clean_gen
    }

    /// Cumulative restore statistics.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }
}
