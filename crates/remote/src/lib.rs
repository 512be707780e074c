//! # argus-remote — distributed campaign workers
//!
//! Opens the orchestrator's chunk pool to the network: a campaign
//! running under the daemon can be drained by remote `argus worker`
//! processes that lease injection chunks over plain HTTP/1.1, execute
//! them against locally reconstructed state, and post merged tallies
//! back. Std-only, like everything else in the tree.
//!
//! The design leans entirely on two properties the repo already
//! guarantees:
//!
//! * **Determinism** — injection `i` of a campaign draws all randomness
//!   from a stream keyed by `(seed, i)`; *who* runs it and *when* is
//!   irrelevant to its result.
//! * **Commutativity** — every tally accumulator merges commutatively,
//!   so chunk results can arrive in any order.
//!
//! On top of that, three mechanisms make the wire safe (see
//! `DESIGN.md` § Distributed execution for the full argument):
//!
//! * the orchestrator's `LeasePool`, opened with a TTL — a crashed or
//!   partitioned worker's chunks expire and reissue *verbatim*, so no
//!   work is lost and overlapping completions are always exact
//!   duplicates;
//! * the orchestrator's `Ledger` dedup gate, which every completion
//!   (local, remote, duplicate, stale) crosses under one lock, wrapped
//!   here in a [`share::CampaignShare`] with what remote workers need;
//! * a fingerprinted manifest ([`protocol::Manifest`]) — workers
//!   cold-start from a URL, rebuild the campaign (a snapshot campaign's
//!   store included) and check their golden-run length and entry-state
//!   fingerprint against the coordinator's before running anything. No
//!   campaign state crosses the wire.
//!
//! The result: a distributed run's report is byte-identical to one-shot
//! `argus campaign --json` modulo the volatile `"run"` section, which
//! the end-to-end tests and `scripts/distributed_smoke.sh` enforce —
//! including runs where a worker is SIGKILLed mid-campaign.

pub mod client;
pub mod coordinator;
pub mod protocol;
pub mod share;
pub mod worker;

pub use coordinator::{open_share, DistributedConfig};
pub use protocol::{CompleteReply, CompleteRequest, LeaseReply, Manifest, PROTOCOL_VERSION};
pub use share::CampaignShare;
pub use worker::{run_worker, WorkerConfig, WorkerSummary};
