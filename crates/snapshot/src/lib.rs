//! # argus-snapshot — checkpointed golden-run forking
//!
//! Fault campaigns (§5) re-execute the same workload thousands of times,
//! and each injection is bit-identical to the golden run until its fault
//! arms: `FaultInjector` is a pure pass-through before the arm cycle, so
//! everything before it is shared, deterministic work. This crate makes
//! that sharing explicit:
//!
//! * [`mapped::MappedStoreWriter`] — the interval policy the golden run
//!   drives (`--snapshot-every N`): each checkpoint records core state
//!   ([`argus_machine::snapshot::CoreState`]: registers, parity tags,
//!   pipeline latches, cycle/retired counters, both cache arrays), the
//!   checker state ([`argus_core::ArgusState`]), and main memory as
//!   content-addressed [`page::Page`]s shared with earlier checkpoints,
//!   stamped with its cycle and a combined state fingerprint.
//! * [`mapped::MappedStore`] — the sealed ARGSTORE image campaign shards
//!   share behind an `Arc`, over a file map or an owned buffer;
//!   `nearest_index_at_or_before(arm_cycle)` seeks the fork point for an
//!   injection. The same format is the `argus snapshot save` file and
//!   the distributed `entry` / `store` artifact.
//! * [`workspace::Workspace`] — a reusable per-worker fork target;
//!   [`mapped::MappedStore::restore_into`] rewrites only pages dirtied
//!   since the workspace's last restore plus pages differing from the
//!   target snapshot, keeping forks O(touched state) instead of
//!   O(machine state).
//! * [`io`] — the field codec the format is built from.
//!
//! The load-bearing guarantee — forking from a snapshot is
//! **bit-identical** to cold-booting and re-executing — rests on two
//! facts the property tests in `tests/snapshot_props.rs` pin down:
//! snapshots are taken at step boundaries only, and every piece of state
//! that influences future behaviour (architectural, microarchitectural,
//! checker) round-trips through capture/restore.

pub mod io;
pub mod mapped;
pub mod page;
#[cfg(test)]
mod store;
pub mod workspace;

pub use mapped::{
    combined_fingerprint, MappedStore, MappedStoreWriter, PageCache, StoreStats,
    DEFAULT_PAGE_CACHE_ENTRIES,
};
pub use page::{Page, PAGE_WORDS};
pub use workspace::{Workspace, WorkspaceStats};
