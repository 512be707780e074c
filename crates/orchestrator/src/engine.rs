//! The campaign engine.
//!
//! A campaign of `n` injections is a single shared pool of indices, and
//! one, two or many executors drain it: the engine's own worker threads,
//! and — when a daemon opens the pool to the network — remote `argus
//! worker` processes. Everyone leases contiguous chunks from the same
//! [`LeasePool`] and commits each chunk whole through the same
//! [`Ledger`] dedup gate; there is no second engine for distributed runs.
//!
//! * **One pool, optional TTL.** A local-only pool's leases never expire
//!   (a stopping thread releases its chunk); an open pool's leases carry a
//!   TTL, renewed by remote heartbeats and swept here, and a dead
//!   worker's chunk is reissued verbatim. Each local thread is served
//!   from its home region (the static [`shard_ranges`] slice) while it
//!   lasts and then steals the lowest remaining indices; lease size decays
//!   toward 1 as the pool empties, so the tail never leaves a worker idle
//!   behind one long chunk. Within a chunk, injections run in arm-cycle
//!   order ([`PreparedCampaign::arm_order`]): that, not index order, is
//!   what keeps a warm workspace's restores cheap.
//! * **Chunk-atomic completion.** A chunk's injections tally privately and
//!   merge into the ledger in one commit; a stop mid-chunk discards the
//!   partial tally and releases the range. `stop_after` and the
//!   quarantine limit are counted at the commit.
//!
//! Determinism under this dynamic schedule rests on two facts:
//!
//! * every injection draws all of its randomness from a private stream
//!   keyed by `(seed, injection index)` (see `argus_faults::run_injection`)
//!   — results depend only on *which* indices run, never on where or when;
//! * every accumulator in the global [`CampaignTally`] is commutative
//!   (counts, BTreeMap counters, histogram merges, an index-sorted
//!   quarantine ledger), so the merged tallies — and the JSON report built
//!   from them — are bit-identical for any worker count, chunk size, mix
//!   of local and remote executors, or interleaving, including runs
//!   stitched together through a checkpoint.
//!
//! The engine supports:
//!
//! * **checkpoint/resume** — the completed-index set (coalesced ranges)
//!   and the global tally are flushed to a JSON state file periodically
//!   and on exit; a later run with `resume` leases out exactly the
//!   complement, under *any* worker count, local or distributed;
//! * **graceful cancellation** — a shared stop flag (wired to Ctrl-C by the
//!   CLI) makes every worker release its chunk and break, and a final
//!   checkpoint is flushed before returning;
//! * **live observability** — workers publish to a shared [`Progress`]
//!   (atomics only on the hot path) including scheduler utilization
//!   (leases, steals, busy time) that any thread can snapshot, and an
//!   [`Observer`] is called on every tick of the caller's thread (a daemon
//!   publishes its job events from there);
//! * **golden-run forking** — when `CampaignConfig::snapshot_every` is
//!   set, each worker forks injections from the shared read-only snapshot
//!   store into its private reusable workspace (delta restore: only pages
//!   dirtied since the last fork are rewritten), instead of cold-booting
//!   (which resets the same resident pair to the load image);
//! * **supervision** — each injection runs inside a panic quarantine and
//!   under a watchdog (see `argus_sim::supervise`), so one buggy or
//!   livelocked injection costs one ledger entry, not the campaign.
//!   Checkpoint files carry a CRC and a `.bak` generation; resume heals
//!   around torn or corrupted artifacts instead of crashing. `strict`
//!   turns all of this off for debugging.

use crate::checkpoint::{CampaignTally, Checkpoint, CheckpointError, Fingerprint};
use crate::json::Json;
use crate::lease::LeasePool;
use crate::ledger::{Ledger, LOCAL_PREFIX};
use crate::progress::Progress;
use argus_faults::campaign::{
    prepare_campaign, run_injection_guarded_in, run_injection_supervised_in, CampaignConfig,
    CampaignWorkspace, ExecStats, PreparedCampaign, QuarantineRecord, SupervisedOutcome,
};
use argus_faults::Outcome;
use argus_invariants::{Hook, InvariantCtx, InvariantStats, LedgerView};
use argus_sim::fault::FaultKind;
use argus_sim::stats::{CounterSet, Histogram};
use argus_sim::supervise::{panic_message, Anomaly};
use argus_workloads::Workload;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Orchestration knobs on top of a [`CampaignConfig`].
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Worker thread count (≥ 1).
    pub shards: usize,
    /// Maximum injections per scheduler lease (≥ 1). Larger chunks
    /// amortize scheduler locking; the scheduler shrinks leases toward 1
    /// at the tail regardless, so this only caps the *early* lease size.
    pub chunk: usize,
    /// Where to write checkpoints; `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Minimum time between periodic checkpoint flushes.
    pub checkpoint_interval: Duration,
    /// Load prior progress from `checkpoint_path` before starting.
    pub resume: bool,
    /// Strict mode: disable the supervision safety nets. Injection panics
    /// propagate and kill the run, a hung injection is a panic, and a
    /// corrupt checkpoint is a hard error instead of a recovery.
    pub strict: bool,
    /// Abort the campaign once more than this many injections have been
    /// quarantined — past that point the campaign machinery itself is
    /// suspect and tallies would be misleading.
    pub quarantine_limit: usize,
    /// Extra attempts for a failed checkpoint flush before giving up on
    /// that flush (periodic) or erroring out (final).
    pub flush_retries: u32,
    /// Base backoff between flush retries (grows linearly per attempt).
    pub flush_backoff: Duration,
    /// Test hook: raise the stop flag once this many injections have been
    /// committed to the ledger in this run. Interruption tests use it to
    /// cut a campaign at a deterministic point, however fast the host runs
    /// it; workers release the chunks still in flight, so a run stops with
    /// the commit that crossed the mark plus any that landed with it.
    #[doc(hidden)]
    pub stop_after: Option<usize>,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            chunk: 32,
            checkpoint_path: None,
            checkpoint_interval: Duration::from_secs(5),
            resume: false,
            strict: false,
            quarantine_limit: 64,
            flush_retries: 3,
            flush_backoff: Duration::from_millis(25),
            stop_after: None,
        }
    }
}

/// Aggregated results of a campaign. Unlike the serial `CampaignReport`
/// this holds only merged tallies, not per-injection records — that is
/// what makes checkpoints small and merging cheap.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Per-outcome counts over completed injections, indexed like
    /// [`Outcome::ALL`].
    pub outcomes: [u64; 4],
    /// First-detector attribution over completed injections.
    pub attribution: CounterSet,
    /// Detection-latency distribution (cycles from first corruption to
    /// detection) over completed, detected injections.
    pub latency: Histogram,
    /// Completed injections that actually corrupted a signal.
    pub exercised: u64,
    /// Completed injections (equals `total` unless cancelled).
    pub completed: usize,
    /// Injections completed by this run (excludes resumed work).
    pub completed_this_run: usize,
    /// Planned injections.
    pub total: usize,
    /// Fault kind injected.
    pub kind: FaultKind,
    /// Golden run length in cycles.
    pub golden_cycles: u64,
    /// Wall-clock time of this run (setup + injection loop).
    pub elapsed: Duration,
    /// Wall-clock time spent preparing the campaign (compile, golden run,
    /// snapshot capture) before any injection ran; part of `elapsed`.
    pub setup: Duration,
    /// Worker thread count used.
    pub shards: usize,
    /// Maximum scheduler lease size used.
    pub chunk: usize,
    /// Chunks leased out by the scheduler this run.
    pub leases: u64,
    /// Leases taken outside the leasing worker's home region (its static
    /// `shard_ranges` slice) — work-stealing events.
    pub steals: u64,
    /// Total time workers spent inside injections this run (summed across
    /// workers; compare against `elapsed * shards` for utilization).
    pub busy: Duration,
    /// Spread between the first and the last worker to run out of work —
    /// the wall-clock cost of load imbalance at the tail.
    pub tail_imbalance: Duration,
    /// True when the stop flag cut the campaign short.
    pub interrupted: bool,
    /// Snapshot interval the campaign ran with (`None`: cold-boot path).
    ///
    /// Deliberately absent from [`ShardedReport::to_json`]: snapshots only
    /// change throughput, never results, and the JSON report is specified
    /// to be byte-identical with snapshots on or off.
    pub snapshot_every: Option<u64>,
    /// Golden-run checkpoints captured (0 on the cold-boot path).
    pub snapshots: usize,
    /// Injections the watchdog declared hung (counted in `completed`,
    /// absent from `outcomes`).
    pub hung: u64,
    /// Quarantined (panicked) injections, sorted by injection index.
    /// `quarantine.len()` is the quarantined count.
    pub quarantine: Vec<QuarantineRecord>,
    /// True when checkpoint flushing needed retries or failed — tallies
    /// are still exact, but the on-disk checkpoint may lag.
    pub degraded: bool,
    /// Individual checkpoint-flush attempts that failed (retries that
    /// later succeeded still count).
    pub flush_failures: u64,
    /// Injections that cold-booted because their golden-run snapshot
    /// failed verification (0 unless a snapshot was corrupted in memory).
    pub snapshot_fallbacks: u64,
    /// Predecode/plan-cache counters summed over this run's local workers.
    /// Volatile — cache warmth depends on scheduling and snapshot forking —
    /// so it serializes under the report's `"run"` key.
    pub exec: ExecStats,
    /// Predecode/plan-cache counters from the campaign's golden run (after
    /// the lowering pass warmed the plan cache). Also under `"run"`.
    pub golden_exec: ExecStats,
    /// Human-readable warnings from artifact recovery (corrupt checkpoint
    /// or snapshot handling). Empty on undisturbed runs.
    pub recovery_warnings: Vec<String>,
    /// True when resume had to fall back to the `.bak` checkpoint
    /// generation.
    pub used_backup_checkpoint: bool,
    /// Distributed-execution accounting, present only on runs coordinated
    /// through the remote lease protocol. Volatile (scheduling-shaped), so
    /// it serializes under the `"run"` key and never perturbs the
    /// deterministic payload.
    pub remote: Option<RemoteRunStats>,
    /// Always-on invariant accounting. `checks_run` is scheduling-shaped
    /// (hooks stride over whatever chunks this run happened to execute),
    /// so the whole object serializes under the volatile `"run"` key; on a
    /// healthy campaign `violations` is 0 in every mode.
    pub invariants: InvariantStats,
}

/// Accounting for a distributed (remote-lease) run: how the chunk pool was
/// split between the daemon's local workers and remote `argus worker`
/// processes, and how often the lease machinery had to intervene. All
/// values are wall-clock/schedule shaped — two identical campaigns may
/// differ here — so they live under the report's volatile `"run"` key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RemoteRunStats {
    /// Distinct remote workers that ever held a lease this run.
    pub workers_seen: u64,
    /// Chunks completed over the wire by remote workers.
    pub remote_chunks: u64,
    /// Chunks completed by the daemon's local pool workers.
    pub local_chunks: u64,
    /// Leases that expired (missed heartbeats) and were reissued.
    pub expired_leases: u64,
    /// Duplicate `complete` posts dropped by chunk/range dedup.
    pub duplicate_completes: u64,
    /// Manifests served to cold-starting workers.
    pub manifest_fetches: u64,
}

impl RemoteRunStats {
    /// The `"remote"` object under the report's `"run"` key.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("workers_seen", self.workers_seen)
            .set("remote_chunks", self.remote_chunks)
            .set("local_chunks", self.local_chunks)
            .set("expired_leases", self.expired_leases)
            .set("duplicate_completes", self.duplicate_completes)
            .set("manifest_fetches", self.manifest_fetches)
    }
}

/// An [`InvariantStats`] as the `"invariants"` object under the `"run"`
/// key: mode, totals, per-invariant violation counts, and example details.
fn invariants_json(s: &InvariantStats) -> Json {
    Json::obj()
        .set("mode", s.mode.as_str())
        .set("checks_run", s.checks_run)
        .set("violations", s.violations)
        .set(
            "per_invariant",
            Json::Obj(s.per_invariant.iter().map(|(k, v)| (k.clone(), (*v).into())).collect()),
        )
        .set(
            "examples",
            Json::Arr(
                s.examples
                    .iter()
                    .map(|(name, detail)| {
                        Json::obj().set("invariant", name.as_str()).set("detail", detail.as_str())
                    })
                    .collect(),
            ),
        )
}

/// An [`ExecStats`] as a `"run"`-key JSON object.
fn exec_json(e: &ExecStats) -> Json {
    Json::obj()
        .set("predecode_hits", e.predecode_hits)
        .set("predecode_misses", e.predecode_misses)
        .set("plan_hits", e.plan_hits)
        .set("armed_plan_hits", e.armed_plan_hits)
        .set("tapped_block_hits", e.tapped_block_hits)
        .set("tapped_ops", e.tapped_ops)
        .set("armed_steps", e.armed_steps)
        .set("plan_misses", e.plan_misses)
        .set("plan_evictions", e.plan_evictions)
        .set("plan_fallbacks", e.plan_fallbacks)
        .set("converged", e.converged)
        .set("converged_cycles_saved", e.converged_cycles_saved)
        .set("dead_site", e.dead_site)
        .set("checker_only", e.checker_only)
        .set("masked_bits", e.masked_bits)
        .set("declined_steps", e.declined_steps)
        .set("declined_flipped", e.declined_flipped)
        .set("cursor_walk_cycles", e.cursor_walk_cycles)
        .set("cursor_resets", e.cursor_resets)
        .set("cursor_overshoots", e.cursor_overshoots)
        .set("prefix_cycles", e.prefix_cycles)
}

impl ShardedReport {
    /// Count of one outcome.
    pub fn count(&self, o: Outcome) -> u64 {
        self.outcomes[o.index()]
    }

    /// Fraction of one outcome over completed injections (0.0 when empty).
    pub fn fraction(&self, o: Outcome) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.count(o) as f64 / self.completed as f64
        }
    }

    /// Coverage of unmasked errors: detected / (detected + undetected).
    pub fn unmasked_coverage(&self) -> f64 {
        let d = self.count(Outcome::UnmaskedDetected) as f64;
        let u = self.count(Outcome::UnmaskedUndetected) as f64;
        if d + u == 0.0 {
            1.0
        } else {
            d / (d + u)
        }
    }

    /// Injections per second achieved by this run.
    pub fn rate(&self) -> f64 {
        if self.elapsed.as_secs_f64() > 1e-9 {
            self.completed_this_run as f64 / self.elapsed.as_secs_f64()
        } else {
            0.0
        }
    }

    /// Worker utilization: busy time over total worker-time, in percent.
    pub fn busy_pct(&self) -> f64 {
        let denom = self.elapsed.as_secs_f64() * self.shards as f64;
        if denom > 1e-9 {
            100.0 * self.busy.as_secs_f64() / denom
        } else {
            0.0
        }
    }

    /// The final structured report rendered by `argus campaign --json`.
    ///
    /// The top-level keys are the *deterministic* payload: byte-identical
    /// for any worker count, chunk size, snapshot interval, or clean-vs-resumed
    /// run of the same campaign. Everything run-shaped (wall clock,
    /// scheduler utilization, recovery metadata) lives under the single
    /// volatile `"run"` key, so consumers can diff reports by dropping one
    /// field.
    pub fn to_json(&self) -> Json {
        let mut outcomes = Json::obj();
        let mut fractions = Json::obj();
        for o in Outcome::ALL {
            outcomes = outcomes.set(o.label(), self.count(o));
            fractions = fractions.set(o.label(), self.fraction(o));
        }
        let mut run = Json::obj()
            .set("elapsed_seconds", self.elapsed.as_secs_f64())
            .set("setup_seconds", self.setup.as_secs_f64())
            .set("injections_per_second", self.rate())
            .set("completed_this_run", self.completed_this_run)
            .set("workers", self.shards)
            .set("chunk", self.chunk)
            .set("leases", self.leases)
            .set("steals", self.steals)
            .set("busy_pct", self.busy_pct())
            .set("tail_imbalance_seconds", self.tail_imbalance.as_secs_f64())
            .set("degraded", self.degraded)
            .set("flush_failures", self.flush_failures)
            .set("snapshot_fallbacks", self.snapshot_fallbacks)
            .set(
                "recovery_warnings",
                Json::Arr(self.recovery_warnings.iter().map(|w| w.as_str().into()).collect()),
            )
            .set("used_backup_checkpoint", self.used_backup_checkpoint)
            .set("exec", exec_json(&self.exec))
            .set("golden_exec", exec_json(&self.golden_exec))
            .set("invariants", invariants_json(&self.invariants));
        if let Some(remote) = &self.remote {
            run = run.set("remote", remote.to_json());
        }
        Json::obj()
            .set(
                "kind",
                match self.kind {
                    FaultKind::Transient => "transient",
                    FaultKind::Permanent => "permanent",
                },
            )
            .set("total", self.total)
            .set("completed", self.completed)
            .set("interrupted", self.interrupted)
            .set("golden_cycles", self.golden_cycles)
            .set("outcomes", outcomes)
            .set("fractions", fractions)
            .set("unmasked_coverage", self.unmasked_coverage())
            .set("exercised", self.exercised)
            .set(
                "attribution",
                Json::Obj(self.attribution.iter().map(|(k, v)| (k.to_owned(), v.into())).collect()),
            )
            .set(
                "detect_latency",
                Json::obj()
                    .set("count", self.latency.count())
                    .set("mean", self.latency.mean())
                    .set("p50", self.latency.percentile(0.5).map_or(Json::Null, Json::from))
                    .set("p99", self.latency.percentile(0.99).map_or(Json::Null, Json::from))
                    .set("max", self.latency.max().map_or(Json::Null, Json::from)),
            )
            .set("hung", self.hung)
            .set("quarantined", self.quarantine.len())
            .set(
                "quarantine",
                Json::Arr(
                    self.quarantine
                        .iter()
                        .map(|q| {
                            Json::obj()
                                .set("index", q.index)
                                .set("seed", q.seed)
                                .set("panic_msg", q.panic_msg.as_str())
                        })
                        .collect(),
                ),
            )
            .set("run", run)
    }
}

/// Errors surfaced by the engine. With supervision on (the default),
/// injection panics become quarantine records instead of propagating; in
/// strict mode they propagate as panics, like the serial engine's.
#[derive(Debug)]
pub enum OrchestratorError {
    /// Checkpoint loading/validation/saving failed.
    Checkpoint(CheckpointError),
    /// Nonsensical orchestration config.
    Config(String),
    /// The supervision layer aborted the campaign (quarantine limit
    /// exceeded — the campaign machinery itself is suspect).
    Supervision(String),
    /// Strict mode observed an invariant violation; the message names the
    /// violating invariant and its first recorded detail.
    Invariant(String),
}

impl std::fmt::Display for OrchestratorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Checkpoint(e) => write!(f, "{e}"),
            Self::Config(m) => write!(f, "bad orchestrator config: {m}"),
            Self::Supervision(m) => write!(f, "campaign aborted by supervision: {m}"),
            Self::Invariant(m) => write!(f, "invariant violated: {m}"),
        }
    }
}

impl std::error::Error for OrchestratorError {}

impl From<CheckpointError> for OrchestratorError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

/// Splits `0..n` into `shards` contiguous slices whose lengths differ by at
/// most one (the first `n % shards` slices are one longer). The engine
/// uses these as its threads' *home regions* in the lease pool, for steal
/// accounting; correctness never depends on them.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(shards > 0, "need at least one shard");
    let base = n / shards;
    let extra = n % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut at = 0;
    for k in 0..shards {
        let len = base + usize::from(k < extra);
        ranges.push(at..at + len);
        at += len;
    }
    ranges
}

/// Folds `index` into a sorted, disjoint, coalesced range set.
pub fn mark_done(done: &mut Vec<Range<usize>>, index: usize) {
    let i = done.partition_point(|r| r.end < index);
    if i < done.len() {
        if done[i].start <= index && index < done[i].end {
            return; // already recorded (never happens: indices lease once)
        }
        if done[i].end == index {
            done[i].end = index + 1;
            if i + 1 < done.len() && done[i + 1].start == index + 1 {
                done[i].end = done[i + 1].end;
                done.remove(i + 1);
            }
            return;
        }
        if index + 1 == done[i].start {
            done[i].start = index;
            return;
        }
    }
    done.insert(i, index..index + 1);
}

/// Folds a whole chunk range into a sorted, disjoint, coalesced range set
/// (every executor completes work a chunk at a time).
pub fn mark_range_done(done: &mut Vec<Range<usize>>, range: Range<usize>) {
    for index in range {
        mark_done(done, index);
    }
}

/// Whether `range` overlaps the done set at all, and whether it is fully
/// covered by it. `(overlaps, covered)`: a duplicate chunk completion is
/// `(true, true)`; fresh work is `(false, false)`; `(true, false)` is a
/// partial overlap the lease protocol treats as a protocol violation.
pub fn range_overlap(done: &[Range<usize>], range: &Range<usize>) -> (bool, bool) {
    if range.is_empty() {
        return (false, true);
    }
    let mut covered_until = range.start;
    let mut overlaps = false;
    for r in done {
        if r.start >= range.end {
            break;
        }
        if r.end <= range.start {
            continue;
        }
        overlaps = true;
        if r.start <= covered_until {
            covered_until = covered_until.max(r.end);
        }
    }
    (overlaps, covered_until >= range.end)
}

/// The unleased complement of a done-range set within `0..n`.
pub fn complement(done: &[Range<usize>], n: usize) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut at = 0;
    for r in done {
        if at < r.start {
            out.push(at..r.start);
        }
        at = r.end.max(at);
    }
    if at < n {
        out.push(at..n);
    }
    out
}

/// The bookkeeping view the orchestrator's conservation-law invariants
/// check: done ranges, outcome tallies, and the quarantine ledger, as one
/// plain-data snapshot taken under the state lock.
pub fn ledger_view(total: usize, done: &[Range<usize>], tally: &CampaignTally) -> LedgerView {
    LedgerView {
        total: total as u64,
        done: done.iter().map(|r| (r.start as u64, r.end as u64)).collect(),
        outcomes: tally.outcomes.to_vec(),
        hung: tally.hung,
        quarantine_indices: tally.quarantine.iter().map(|q| q.index).collect(),
        accounted: tally.accounted(),
    }
}

/// Decrements the live-worker count when the worker exits — including by
/// unwinding in strict mode, so the checkpoint coordinator's wait loop
/// always terminates — and wakes the caller's thread so it settles now
/// rather than at its next tick.
struct LiveGuard<'a> {
    live: &'a AtomicUsize,
    caller: &'a Thread,
}

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Release);
        self.caller.unpark();
    }
}

/// Watches a campaign from the engine's caller thread. Both hooks run on
/// that thread, between the engine's own bookkeeping steps.
pub trait Observer {
    /// The campaign is prepared and its ledger exists; no injection has
    /// run yet. A caller that opened the pool publishes the ledger to
    /// remote executors here (a daemon registers it with its router).
    fn ready(&self, prep: &PreparedCampaign, cfg: &CampaignConfig, ledger: &Arc<Ledger>);

    /// One engine tick: on every pass of the caller's loop while workers
    /// run (every 10 ms at most, sooner when a local worker exits), and
    /// once more with `last` after every worker has settled, before the
    /// final checkpoint flush.
    fn tick(&self, last: bool);
}

/// Longest sleep of the caller's bookkeeping loop between two ticks.
const TICK: Duration = Duration::from_millis(10);

/// Runs a checkpointable, cancellable campaign on `ocfg.shards` local
/// worker threads: [`run_campaign`] with the pool closed to the network.
///
/// # Panics
///
/// As [`run_campaign`].
pub fn run_sharded(
    w: &Workload,
    cfg: &CampaignConfig,
    ocfg: &OrchestratorConfig,
    stop: &AtomicBool,
    progress: &Progress,
) -> Result<ShardedReport, OrchestratorError> {
    run_campaign(w, cfg, ocfg, stop, progress, None, None)
}

/// The campaign engine: one-shot, daemon and distributed runs all go
/// through here.
///
/// `ocfg.shards` local threads lease chunks from the campaign's
/// [`Ledger`] and commit each one whole. With a `lease_ttl`, the pool is
/// open: also leasable by remote executors (then `ocfg.shards` may be 0),
/// whose leases carry that TTL, and the caller's thread sweeps expiries and
/// replays remote completions into shard 0 of `progress`. `observer` sees
/// the ledger before any work runs and every tick of the caller's thread
/// after that. `stop` is polled between injections on every local worker;
/// once set, workers release their in-flight chunks and a final checkpoint
/// is written. `progress` must have `max(shards, 1)` shards.
///
/// # Panics
///
/// Panics if the workload fails to compile, the golden run does not halt
/// (same contract as the serial engine), or `progress` disagrees on the
/// worker count.
pub fn run_campaign(
    w: &Workload,
    cfg: &CampaignConfig,
    ocfg: &OrchestratorConfig,
    stop: &AtomicBool,
    progress: &Progress,
    lease_ttl: Option<Duration>,
    observer: Option<&dyn Observer>,
) -> Result<ShardedReport, OrchestratorError> {
    let open = lease_ttl.is_some();
    if ocfg.shards == 0 && !open {
        return Err(OrchestratorError::Config("shards must be >= 1".into()));
    }
    if ocfg.chunk == 0 {
        return Err(OrchestratorError::Config("chunk must be >= 1".into()));
    }
    if ocfg.strict && open {
        return Err(OrchestratorError::Config(
            "strict mode is a local-debugging tool; distributed runs always supervise".into(),
        ));
    }
    assert_eq!(
        progress.shards(),
        ocfg.shards.max(1),
        "progress must have max(shards, 1) shards (shard 0 carries remote completions)"
    );
    let cfg = &cfg.sized_for(w);
    let started = Instant::now();

    let fingerprint = Fingerprint {
        workload: w.name.to_owned(),
        injections: cfg.injections,
        seed: cfg.seed,
        kind: cfg.kind,
        structural_mask: cfg.structural_mask,
    };

    // Fresh pool, or the progress saved by an earlier interrupted run —
    // the checkpoint is worker-count independent, so a file written under
    // any --shards value, local or distributed, resumes here.
    let mut initial = Checkpoint::empty(fingerprint.clone());
    let mut recovery_warnings: Vec<String> = Vec::new();
    let mut used_backup_checkpoint = false;
    if ocfg.resume {
        let path = ocfg
            .checkpoint_path
            .as_deref()
            .ok_or_else(|| OrchestratorError::Config("--resume needs a checkpoint path".into()))?;
        if path.exists() {
            let saved = if ocfg.strict {
                // Strict mode: a damaged checkpoint is a hard error.
                Some(Checkpoint::load(path)?)
            } else {
                let rec = Checkpoint::load_resilient(path);
                recovery_warnings = rec.warnings;
                used_backup_checkpoint = rec.used_backup;
                rec.checkpoint
            };
            if let Some(saved) = saved {
                saved.check_matches(&fingerprint)?;
                initial = saved;
            }
            // rec.checkpoint == None: both generations were unusable; the
            // warnings say so and the affected work restarts from scratch.
        }
    }
    if argus_sim::canary::enabled("canary-quarantine-drop-on-resume") {
        // Seeded bug: resume "forgets" the quarantine ledger it just
        // loaded. The post-load checkpoint audit must flag the tally as no
        // longer accounting for the done ranges.
        initial.tally.quarantine.clear();
    }

    let resumed = initial.completed();
    let resumed_anomalies = [initial.tally.quarantine.len() as u64, initial.tally.hung];
    progress.begin(
        cfg.injections as u64,
        resumed as u64,
        initial.tally.outcomes,
        resumed_anomalies,
        &vec![0; progress.shards()],
    );

    let prepare_started = Instant::now();
    let prep = prepare_campaign(w, cfg);
    let setup = prepare_started.elapsed();
    let inv = prep.invariants().clone();
    // Audit the bookkeeping exactly as loaded (or empty, on a fresh run)
    // before any new work: a resume that lost or double-counted ledger
    // state is caught here, not hours into the continuation.
    if inv.enabled() {
        inv.run_hook(
            Hook::Checkpoint,
            &InvariantCtx::Ledger(ledger_view(cfg.injections, &initial.done, &initial.tally)),
        );
    }
    let pool = LeasePool::new(
        complement(&initial.done, cfg.injections),
        ocfg.chunk,
        ocfg.shards,
        lease_ttl,
    );
    let ledger =
        Arc::new(Ledger::new(pool, initial.done, initial.tally, cfg.injections, Arc::clone(&inv)));
    if let Some(observer) = observer {
        observer.ready(&prep, cfg, &ledger);
    }

    let homes = shard_ranges(cfg.injections, ocfg.shards.max(1));
    let live_workers = AtomicUsize::new(ocfg.shards);
    let caller = std::thread::current();
    let flush_failures = AtomicU64::new(0);
    let flush_degraded = AtomicBool::new(false);
    // Per-worker (busy time, out-of-work instant, exec-cache counters) for
    // utilization and plan-cache stats.
    let worker_stats: Mutex<Vec<Option<(Duration, Duration, ExecStats)>>> =
        Mutex::new(vec![None; ocfg.shards]);
    // First panic payload seen by a strict-mode worker: re-raised from the
    // caller's thread after the final checkpoint flush, so the original
    // message survives `thread::scope`'s generic join panic and the
    // progress made so far is still persisted.
    let strict_panic: Mutex<Option<String>> = Mutex::new(None);

    let snapshot = || {
        let (done, tally) = ledger.checkpoint_state();
        Checkpoint { fingerprint: fingerprint.clone(), done, tally }
    };
    // Saves with retries; any failed attempt flags degraded mode.
    let save = |cp: &Checkpoint, path: &Path| -> std::io::Result<()> {
        let result = cp.save_with_retry(path, ocfg.flush_retries, ocfg.flush_backoff);
        let failed = *result.as_ref().unwrap_or(&(ocfg.flush_retries + 1));
        if failed > 0 {
            flush_failures.fetch_add(u64::from(failed), Ordering::Relaxed);
            flush_degraded.store(true, Ordering::Relaxed);
            progress.set_degraded(true);
        }
        result.map(|_| ())
    };
    // `stop_after` and the quarantine limit count at the ledger commit.
    let check_limits = || {
        let (covered, quarantined) = ledger.counts();
        if ocfg.stop_after.is_some_and(|n| covered - resumed >= n)
            || quarantined > ocfg.quarantine_limit
        {
            stop.store(true, Ordering::Release);
        }
    };

    std::thread::scope(|scope| {
        for (k, home) in homes.iter().enumerate().take(ocfg.shards) {
            let ledger = &ledger;
            let prep = &prep;
            let inv = &inv;
            let live_workers = &live_workers;
            let caller = &caller;
            let strict_panic = &strict_panic;
            let worker_stats = &worker_stats;
            let check_limits = &check_limits;
            scope.spawn(move || {
                let _live = LiveGuard { live: live_workers, caller };
                let worker = format!("{LOCAL_PREFIX}{k}");
                // One reusable machine per worker: consecutive leases
                // delta-restore or reset the same warm Machine/Argus pair.
                let mut ws = CampaignWorkspace::new();
                let mut busy = Duration::ZERO;
                let mut exec_total = ExecStats::default();
                'work: while !stop.load(Ordering::Relaxed) {
                    let Some(grant) = ledger.lease(&worker, Some(home), Instant::now()) else {
                        // Nothing leasable. A local-only pool never refills
                        // (chunks return only when their worker stops); an
                        // open one refills when a remote lease expires.
                        if !open || ledger.finished() {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    };
                    progress.record_lease(grant.stolen);
                    let mut tally = CampaignTally::empty();
                    for index in prep.arm_order(cfg, grant.range.clone()) {
                        if stop.load(Ordering::Relaxed) {
                            // Abandon mid-chunk: the partial tally is
                            // discarded and the whole range re-leases —
                            // determinism makes the re-run identical.
                            ledger.release(grant.chunk);
                            break 'work;
                        }
                        let t0 = Instant::now();
                        // Strict mode runs without the panic net: a
                        // panicking (or hung) injection aborts the whole
                        // campaign. The payload is captured so it can be
                        // re-raised from the caller's thread with its
                        // message intact — `thread::scope` would replace it
                        // with a generic "a scoped thread panicked".
                        let sup = if ocfg.strict {
                            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                run_injection_guarded_in(prep, cfg, index, &mut ws)
                            })) {
                                Ok(SupervisedOutcome::Hung { index, cause }) => {
                                    Err(format!("injection {index} hung ({})", cause.label()))
                                }
                                Ok(other) => Ok(other),
                                Err(payload) => Err(panic_message(payload.as_ref())),
                            }
                        } else {
                            Ok(run_injection_supervised_in(prep, cfg, index, &mut ws))
                        };
                        let sup = match sup {
                            Ok(sup) => sup,
                            Err(msg) => {
                                strict_panic
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .get_or_insert(msg);
                                stop.store(true, Ordering::Release);
                                ledger.release(grant.chunk);
                                break 'work;
                            }
                        };
                        let spent = t0.elapsed();
                        busy += spent;
                        progress.add_busy(spent);
                        let ex = ws.take_exec_stats();
                        exec_total.merge(&ex);
                        progress.add_exec(&ex);
                        match sup {
                            SupervisedOutcome::Classified(r) => {
                                tally.apply(&r);
                                progress.record(k, r.outcome);
                            }
                            SupervisedOutcome::Hung { .. } => {
                                tally.apply_hung();
                                progress.record_anomaly(k, Anomaly::Hung);
                            }
                            SupervisedOutcome::Quarantined(q) => {
                                tally.apply_quarantined(q);
                                progress.record_anomaly(k, Anomaly::Quarantined);
                            }
                        }
                    }
                    if grant.stolen && argus_sim::canary::enabled("canary-tally-drop-on-steal") {
                        // Seeded bug: stolen work is committed without its
                        // tally, so the tally stops accounting for the
                        // done set.
                        tally = CampaignTally::empty();
                    }
                    ledger.complete(&worker, grant.chunk, &grant.range, &tally);
                    check_limits();
                    progress.set_invariant_violations(inv.violations());
                    if ocfg.strict && inv.violations() > 0 {
                        stop.store(true, Ordering::Release);
                    }
                }
                worker_stats.lock().unwrap_or_else(|e| e.into_inner())[k] =
                    Some((busy, started.elapsed(), exec_total));
                progress.shard_finished(k);
            });
        }

        // The caller's thread keeps the books while workers run: expiry
        // sweeps and remote progress replay when the pool is open, periodic
        // checkpoint flushes when one is configured, and the observer's
        // ticks. A local-only run with neither a checkpoint nor an observer
        // has nothing to tick and just joins.
        if !open && ocfg.checkpoint_path.is_none() && observer.is_none() {
            return;
        }
        let mut last_flush = Instant::now();
        let mut replayed = ([0u64; 4], [0u64; 2]);
        loop {
            let settled = live_workers.load(Ordering::Acquire) == 0
                && (!open || stop.load(Ordering::Relaxed) || ledger.finished());
            if open {
                ledger.expire(Instant::now());
                let (outcomes, anomalies) = ledger.remote_progress();
                for o in Outcome::ALL {
                    for _ in replayed.0[o.index()]..outcomes[o.index()] {
                        progress.record(0, o);
                    }
                }
                for _ in replayed.1[0]..anomalies[0] {
                    progress.record_anomaly(0, Anomaly::Quarantined);
                }
                for _ in replayed.1[1]..anomalies[1] {
                    progress.record_anomaly(0, Anomaly::Hung);
                }
                replayed = (outcomes, anomalies);
                check_limits();
                progress.set_invariant_violations(inv.violations());
            }
            if let Some(path) = ocfg.checkpoint_path.as_deref() {
                if last_flush.elapsed() >= ocfg.checkpoint_interval {
                    // A failing periodic flush is not fatal mid-run — it
                    // retried with backoff and flagged degraded mode; the
                    // final flush below surfaces persistent I/O problems.
                    let _ = save(&snapshot(), path);
                    last_flush = Instant::now();
                }
            }
            if settled {
                break;
            }
            if let Some(observer) = observer {
                observer.tick(false);
            }
            // A worker's exit unparks this thread, so the run settles as
            // soon as its last worker is done.
            std::thread::park_timeout(TICK);
        }
        if let Some(observer) = observer {
            observer.tick(true);
        }
    });

    // A stop that rises with the last completion cut nothing short.
    let interrupted = stop.load(Ordering::Relaxed) && !ledger.finished();
    let final_cp = snapshot();
    if let Some(path) = ocfg.checkpoint_path.as_deref() {
        save(&final_cp, path).map_err(CheckpointError::from)?;
    }
    progress.finish();

    // Strict mode: re-raise the worker's panic with its original message,
    // now that progress has been flushed.
    if let Some(msg) = strict_panic.lock().unwrap_or_else(|e| e.into_inner()).take() {
        panic!("{msg}");
    }

    if final_cp.tally.quarantine.len() > ocfg.quarantine_limit {
        return Err(OrchestratorError::Supervision(format!(
            "{} injections quarantined (limit {}); progress checkpointed, tallies would be \
             misleading",
            final_cp.tally.quarantine.len(),
            ocfg.quarantine_limit
        )));
    }

    let invariants = inv.stats();
    progress.set_invariant_violations(invariants.violations);
    if ocfg.strict && invariants.violations > 0 {
        let first = inv.first_violation().unwrap_or_else(|| "unnamed invariant".into());
        return Err(OrchestratorError::Invariant(first));
    }

    // The ledger's tally IS the merged result: every accumulator is
    // commutative over the completed-index set, so no per-worker merge
    // step exists to get wrong.
    let completed = final_cp.completed();
    let tally = final_cp.tally;

    let stats = worker_stats.into_inner().unwrap_or_else(|e| e.into_inner());
    let busy = stats.iter().flatten().map(|&(b, _, _)| b).sum();
    let finishes: Vec<Duration> = stats.iter().flatten().map(|&(_, f, _)| f).collect();
    let mut exec = ExecStats::default();
    for &(_, _, e) in stats.iter().flatten() {
        exec.merge(&e);
    }
    let tail_imbalance = match (finishes.iter().min(), finishes.iter().max()) {
        (Some(&lo), Some(&hi)) => hi - lo,
        _ => Duration::ZERO,
    };
    let (leases, steals) = ledger.lease_counts();

    recovery_warnings.extend(prep.take_snapshot_warnings());

    Ok(ShardedReport {
        outcomes: tally.outcomes,
        attribution: tally.attribution,
        latency: tally.latency,
        exercised: tally.exercised,
        completed,
        completed_this_run: completed - resumed,
        total: cfg.injections,
        kind: cfg.kind,
        golden_cycles: prep.golden_cycles(),
        elapsed: started.elapsed(),
        setup,
        shards: ocfg.shards,
        chunk: ocfg.chunk,
        leases,
        steals,
        busy,
        tail_imbalance,
        interrupted,
        snapshot_every: cfg.snapshot_every,
        snapshots: prep.snapshot_store().map_or(0, |s| s.len()),
        hung: tally.hung,
        quarantine: tally.quarantine,
        degraded: flush_degraded.load(Ordering::Relaxed),
        flush_failures: flush_failures.load(Ordering::Relaxed),
        snapshot_fallbacks: prep.snapshot_fallbacks(),
        exec,
        golden_exec: prep.golden_exec(),
        recovery_warnings,
        used_backup_checkpoint,
        remote: open.then(|| ledger.stats()),
        invariants,
    })
}

#[cfg(test)]
// Done-sets really are `Vec<Range<usize>>`; single-range literals are the
// point of these fixtures, not a mistyped `collect()`.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use crate::lease::LeaseGrant;

    #[test]
    fn shard_ranges_partition_exactly() {
        for n in [0usize, 1, 7, 100, 101, 1000] {
            for shards in [1usize, 2, 3, 8, 17] {
                let ranges = shard_ranges(n, shards);
                assert_eq!(ranges.len(), shards);
                let mut at = 0;
                for r in &ranges {
                    assert_eq!(r.start, at, "contiguous");
                    at = r.end;
                }
                assert_eq!(at, n, "covers 0..{n}");
                let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(hi - lo <= 1, "balanced: {lens:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        shard_ranges(10, 0);
    }

    #[test]
    fn zero_shard_config_is_an_error() {
        let w = argus_workloads::stress();
        let cfg = CampaignConfig { injections: 1, ..Default::default() };
        let ocfg = OrchestratorConfig { shards: 0, ..Default::default() };
        let progress = Progress::new(0);
        let stop = AtomicBool::new(false);
        assert!(matches!(
            run_sharded(&w, &cfg, &ocfg, &stop, &progress),
            Err(OrchestratorError::Config(_))
        ));
    }

    #[test]
    fn zero_chunk_config_is_an_error() {
        let w = argus_workloads::stress();
        let cfg = CampaignConfig { injections: 1, ..Default::default() };
        let ocfg = OrchestratorConfig { shards: 1, chunk: 0, ..Default::default() };
        let progress = Progress::new(1);
        let stop = AtomicBool::new(false);
        assert!(matches!(
            run_sharded(&w, &cfg, &ocfg, &stop, &progress),
            Err(OrchestratorError::Config(_))
        ));
    }

    /// Leases and completes like one engine thread, for the pool tests.
    fn lease_local(pool: &mut LeasePool, k: usize, home: &Range<usize>) -> Option<LeaseGrant> {
        let g = pool.lease(&format!("{LOCAL_PREFIX}{k}"), Some(home), Instant::now())?;
        pool.complete(g.chunk, &g.range);
        Some(g)
    }

    #[test]
    fn chunk_larger_than_remaining_clamps_instead_of_empty_lease() {
        // Regression: a --chunk far beyond the remaining injection count
        // must clamp the lease to the remnant, never hand out an empty or
        // out-of-range chunk.
        let mut pool = LeasePool::new(vec![0..5], 1000, 1, None);
        let mut drained = Vec::new();
        while let Some(l) = lease_local(&mut pool, 0, &(0..5)) {
            assert!(!l.range.is_empty(), "oversized chunk must clamp, not issue empty");
            assert!(l.range.end <= 5, "lease stays inside the pool");
            drained.extend(l.range.clone());
        }
        drained.sort_unstable();
        assert_eq!(drained, (0..5).collect::<Vec<_>>(), "pool fully drained");

        // Same at the tail of a larger pool: the last lease is exactly the
        // leftover, and every lease stays non-empty and in range.
        let mut pool = LeasePool::new(vec![0..7], 64, 2, None);
        let mut seen = Vec::new();
        while let Some(l) = lease_local(&mut pool, 0, &(0..7)) {
            assert!(!l.range.is_empty());
            assert!(l.range.end <= 7);
            seen.extend(l.range.clone());
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<_>>(), "every index leased exactly once");
    }

    #[test]
    fn range_overlap_classifies_fresh_duplicate_partial() {
        let done = vec![0..4, 8..12];
        assert_eq!(range_overlap(&done, &(4..8)), (false, false), "fresh");
        assert_eq!(range_overlap(&done, &(0..4)), (true, true), "duplicate");
        assert_eq!(range_overlap(&done, &(8..12)), (true, true), "duplicate");
        assert_eq!(range_overlap(&done, &(2..6)), (true, false), "partial");
        assert_eq!(range_overlap(&done, &(0..12)), (true, false), "spanning");
        assert_eq!(range_overlap(&[], &(0..3)), (false, false));
    }

    #[test]
    fn mark_range_done_matches_per_index() {
        let mut a = vec![2..4];
        let mut b = vec![2..4];
        mark_range_done(&mut a, 7..13);
        for i in 7..13 {
            mark_done(&mut b, i);
        }
        assert_eq!(a, b);
        mark_range_done(&mut a, 4..7);
        assert_eq!(a, vec![2..13]);
    }

    #[test]
    fn mark_done_coalesces_every_shape() {
        let mut done = Vec::new();
        for i in [5usize, 7, 6, 0, 9, 8, 1] {
            mark_done(&mut done, i);
        }
        assert_eq!(done, vec![0..2, 5..10]);
        mark_done(&mut done, 4);
        assert_eq!(done, vec![0..2, 4..10]);
        mark_done(&mut done, 3);
        mark_done(&mut done, 2);
        assert_eq!(done, vec![0..10]);
    }

    #[test]
    fn mark_done_adjacency_edges() {
        // Extending a range on its right edge, left edge, and bridging
        // two ranges into one — each adjacency case separately.
        let mut done = vec![2..4];
        mark_done(&mut done, 4); // right-adjacent
        assert_eq!(done, vec![2..5]);
        mark_done(&mut done, 1); // left-adjacent
        assert_eq!(done, vec![1..5]);
        let mut done = vec![0..3, 4..7];
        mark_done(&mut done, 3); // bridges: both neighbours adjacent
        assert_eq!(done, vec![0..7]);
        // A mark adjacent to nothing opens its own range.
        let mut done = vec![0..2, 10..12];
        mark_done(&mut done, 5);
        assert_eq!(done, vec![0..2, 5..6, 10..12]);
    }

    #[test]
    fn mark_done_duplicates_are_idempotent() {
        // The engine never leases an index twice, but a resumed run
        // re-deriving ranges must tolerate replayed marks: interior,
        // first, and last index of an existing range are all no-ops.
        let mut done = vec![3..8];
        for dup in [3usize, 5, 7, 5, 3] {
            mark_done(&mut done, dup);
            assert_eq!(done, vec![3..8], "duplicate mark {dup} must not change the set");
        }
    }

    #[test]
    fn mark_done_any_order_converges() {
        // Out-of-order completion (work stealing finishes indices in an
        // arbitrary interleaving) must always coalesce to the same set.
        let indices = [9usize, 2, 7, 0, 4, 3, 8, 1];
        let mut perm: Vec<usize> = indices.to_vec();
        // Walk a few hundred distinct orders via next-permutation-ish
        // rotations; every order must produce the identical range set.
        for rotation in 0..indices.len() {
            perm.rotate_left(1);
            for window in 2..=perm.len() {
                let mut order = perm.clone();
                order[..window].reverse();
                let mut done = Vec::new();
                for &i in &order {
                    mark_done(&mut done, i);
                }
                assert_eq!(
                    done,
                    vec![0..5, 7..10],
                    "order {order:?} (rotation {rotation}, window {window})"
                );
            }
        }
    }

    proptest::proptest! {
        /// Random marks with duplicates, any order: the coalesced set
        /// must cover exactly the marked indices, stay sorted, disjoint,
        /// non-empty, and gap-separated (no two mergeable neighbours).
        #[test]
        fn mark_done_matches_set_model(marks in proptest::collection::vec(0usize..64, 0..96)) {
            let mut done = Vec::new();
            for &i in &marks {
                mark_done(&mut done, i);
            }
            let model: std::collections::BTreeSet<usize> = marks.iter().copied().collect();
            let covered: Vec<usize> = done.iter().flat_map(|r| r.clone()).collect();
            proptest::prop_assert_eq!(&covered, &model.iter().copied().collect::<Vec<_>>());
            for pair in done.windows(2) {
                proptest::prop_assert!(
                    pair[0].end < pair[1].start,
                    "ranges {:?} are unsorted, overlapping, or failed to coalesce", pair
                );
            }
            for r in &done {
                proptest::prop_assert!(r.start < r.end, "empty range {r:?}");
            }
            // Complement round-trips: done ∪ complement partitions 0..64.
            let holes = complement(&done, 64);
            let total: usize = done.iter().map(Range::len).sum::<usize>()
                + holes.iter().map(Range::len).sum::<usize>();
            proptest::prop_assert_eq!(total, 64);
        }
    }

    #[test]
    fn complement_inverts_done_ranges() {
        assert_eq!(complement(&[], 5), vec![0..5]);
        assert_eq!(complement(&[0..5], 5), Vec::<Range<usize>>::new());
        assert_eq!(complement(&[1..2, 4..5], 7), vec![0..1, 2..4, 5..7]);
        assert_eq!(complement(&[0..3], 3), Vec::<Range<usize>>::new());
    }

    #[test]
    fn scheduler_leases_cover_the_pool_exactly_once() {
        // Whatever the stealing pattern, the union of leases must be a
        // partition of the pool.
        let n = 103;
        let workers = 4;
        let homes = shard_ranges(n, workers);
        let mut pool = LeasePool::new(vec![0..n], 8, workers, None);
        let mut seen = vec![false; n];
        let mut turn = 0;
        loop {
            // Round-robin the workers so everyone leases from everywhere.
            let k = turn % workers;
            turn += 1;
            let Some(lease) = lease_local(&mut pool, k, &homes[k]) else { break };
            assert!(lease.range.len() <= 8, "chunk cap respected");
            for i in lease.range {
                assert!(!seen[i], "index {i} leased twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every index leased");
        assert!(pool.leases > 0);
        assert!(pool.drained());
    }

    #[test]
    fn scheduler_shrinks_leases_at_the_tail() {
        let workers = 2;
        let homes = shard_ranges(20, workers);
        let mut pool = LeasePool::new(vec![0..20], 64, workers, None);
        // 20 remaining / (2 workers * 2) = 5 → first lease is 5 wide.
        let first = lease_local(&mut pool, 0, &homes[0]).unwrap();
        assert_eq!(first.range.len(), 5);
        // Drain to a tiny tail: leases decay to single injections.
        while pool.unleased() > 3 {
            lease_local(&mut pool, 0, &homes[0]).unwrap();
        }
        let tail = lease_local(&mut pool, 1, &homes[1]).unwrap();
        assert_eq!(tail.range.len(), 1, "tail leases shrink to 1");
    }

    #[test]
    fn scheduler_counts_steals_only_outside_home() {
        let workers = 2;
        let homes = shard_ranges(10, workers);
        let mut pool = LeasePool::new(vec![0..10], 100, workers, None);
        // Worker 1 drains its own home first: no steals.
        let l = lease_local(&mut pool, 1, &homes[1]).unwrap();
        assert!(!l.stolen, "home-region lease is not a steal");
        assert!(l.range.start >= homes[1].start);
        // Keep leasing as worker 1 until its home is gone, then the next
        // lease comes from worker 0's territory and counts as a steal.
        loop {
            let l = lease_local(&mut pool, 1, &homes[1]).unwrap();
            if l.stolen {
                assert!(l.range.end <= homes[1].start, "stolen work lies outside home");
                break;
            }
        }
        assert_eq!(pool.steals, 1);
        // A worker without a home (a remote one) is never counted stealing.
        let remote = pool.lease("remote-a", None, Instant::now()).unwrap();
        assert!(!remote.stolen);
        assert_eq!(pool.steals, 1);
    }
}
