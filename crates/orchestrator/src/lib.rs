//! # argus-orchestrator — parallel campaign engine
//!
//! Turns a `CampaignConfig` into a sharded, multi-threaded fault-injection
//! campaign (std-only: `std::thread` + atomics, no external dependencies)
//! with three properties the serial engine lacks:
//!
//! * **Determinism under parallelism** — every injection's randomness is a
//!   private `SplitMix64` stream keyed by `(campaign seed, injection
//!   index)`, and every tally accumulator is commutative, so the merged
//!   report is bit-identical to the serial run for *any* worker count,
//!   chunk size, or work-stealing schedule.
//! * **Checkpoint/resume** — the completed-index set (coalesced ranges) and
//!   the global tally are flushed to a hand-rolled JSON state file
//!   periodically and on exit; an interrupted campaign resumes exactly
//!   where it stopped, under any worker count.
//! * **Live observability** — workers publish per-injection updates through
//!   atomics; any thread can snapshot injections/sec, per-outcome running
//!   counts, per-shard liveness, and elapsed time while the campaign runs.
//! * **Supervision** — each injection runs behind a panic net and a
//!   watchdog; panics become quarantine records, runaways are classified
//!   hung, corrupt checkpoints fall back to their `.bak` generation, and
//!   transient flush failures retry with backoff under a degraded flag.
//!
//! # Examples
//!
//! ```no_run
//! use argus_orchestrator::{run_sharded, OrchestratorConfig, Progress};
//! use argus_faults::CampaignConfig;
//! use std::sync::atomic::AtomicBool;
//!
//! let cfg = CampaignConfig { injections: 10_000, ..Default::default() };
//! let ocfg = OrchestratorConfig { shards: 8, ..Default::default() };
//! let progress = Progress::new(ocfg.shards);
//! let stop = AtomicBool::new(false);
//! let report =
//!     run_sharded(&argus_workloads::stress(), &cfg, &ocfg, &stop, &progress).unwrap();
//! println!("coverage {:.1}%", 100.0 * report.unmasked_coverage());
//! ```

pub mod checkpoint;
pub mod engine;
pub mod json;
pub mod lease;
pub mod ledger;
pub mod progress;

pub use checkpoint::{
    backup_path, tally_from_json, tally_to_json, CampaignTally, Checkpoint, CheckpointError,
    Fingerprint, Recovery,
};
pub use engine::{
    complement, ledger_view, mark_done, mark_range_done, range_overlap, run_campaign, run_sharded,
    shard_ranges, Observer, OrchestratorConfig, OrchestratorError, RemoteRunStats, ShardedReport,
};
pub use json::Json;
pub use lease::{LeaseGrant, LeasePool};
pub use ledger::{CompleteVerdict, Ledger, LOCAL_PREFIX};
pub use progress::{Progress, ProgressSnapshot};
