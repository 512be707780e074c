//! The work-stealing campaign engine.
//!
//! A campaign of `n` injections is a single shared pool of indices.
//! Workers *lease* chunks of contiguous indices from a scheduler instead
//! of owning fixed slices: each worker prefers work inside its "home"
//! region (the static slice [`shard_ranges`] would have given it, for
//! locality of the warm per-worker fork workspace) and steals from the
//! front of the remaining pool once its home is drained. Lease size decays
//! toward 1 as the pool empties, so the tail of the campaign never leaves
//! a worker idle behind one long-running slice.
//!
//! Determinism under this dynamic schedule rests on two facts:
//!
//! * every injection draws all of its randomness from a private stream
//!   keyed by `(seed, injection index)` (see `argus_faults::run_injection`)
//!   — results depend only on *which* indices run, never on where or when;
//! * every accumulator in the global [`CampaignTally`] is commutative
//!   (counts, BTreeMap counters, histogram merges, an index-sorted
//!   quarantine ledger), so the merged tallies — and the JSON report built
//!   from them — are bit-identical for any worker count, chunk size, or
//!   interleaving, including runs stitched together through a checkpoint.
//!
//! The engine supports:
//!
//! * **checkpoint/resume** — the completed-index set (coalesced ranges)
//!   and the global tally are flushed to a JSON state file periodically
//!   and on exit; a later run with `resume` leases out exactly the
//!   complement, under *any* worker count;
//! * **graceful cancellation** — a shared stop flag (wired to Ctrl-C by the
//!   CLI) makes every worker break after its current injection, and a final
//!   checkpoint is flushed before returning;
//! * **live observability** — workers publish to a shared [`Progress`]
//!   (atomics only on the hot path) including scheduler utilization
//!   (leases, steals, busy time) that any thread can snapshot;
//! * **golden-run forking** — when `CampaignConfig::snapshot_every` is
//!   set, each worker forks injections from the shared read-only snapshot
//!   store into its private reusable workspace (delta restore: only pages
//!   dirtied since the last fork are rewritten), instead of cold-booting;
//! * **supervision** — each injection runs inside a panic quarantine and
//!   under a watchdog (see `argus_sim::supervise`), so one buggy or
//!   livelocked injection costs one ledger entry, not the campaign.
//!   Checkpoint files carry a CRC and a `.bak` generation; resume heals
//!   around torn or corrupted artifacts instead of crashing. `strict`
//!   turns all of this off for debugging.

use crate::checkpoint::{CampaignTally, Checkpoint, CheckpointError, Fingerprint};
use crate::json::Json;
use crate::progress::Progress;
use argus_faults::campaign::{
    prepare_campaign, run_injection_guarded_in, run_injection_supervised_in, CampaignConfig,
    CampaignWorkspace, ExecStats, InjectionResult, QuarantineRecord, SupervisedOutcome,
};
use argus_faults::Outcome;
use argus_invariants::{Hook, InvariantCtx, InvariantStats, LedgerView};
use argus_sim::fault::FaultKind;
use argus_sim::stats::{CounterSet, Histogram};
use argus_sim::supervise::{panic_message, Anomaly};
use argus_workloads::Workload;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
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
    /// Test hook: raise the stop flag once this many injections have
    /// completed in this run, on the completion path itself. Interruption
    /// tests use it to cut a campaign at a deterministic point, however
    /// fast the host runs it; workers finish only the injections already
    /// in flight, so a run stops within `shards - 1` of the mark.
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
    /// Artifact bodies served to cold-starting workers.
    pub artifact_fetches: u64,
    /// Artifact bodies workers resolved from their on-disk CRC-keyed
    /// caches instead of re-fetching (reported on completion posts).
    pub artifact_cache_hits: u64,
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
            .set("artifact_fetches", self.artifact_fetches)
            .set("artifact_cache_hits", self.artifact_cache_hits)
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
        .set("plan_misses", e.plan_misses)
        .set("plan_evictions", e.plan_evictions)
        .set("plan_fallbacks", e.plan_fallbacks)
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
/// most one (the first `n % shards` slices are one longer). The scheduler
/// uses these as advisory *home regions* for locality and steal
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

/// One chunk of injection indices handed to a worker.
struct Lease {
    range: Range<usize>,
    /// True when the chunk lies outside the worker's home region.
    stolen: bool,
}

/// The work-stealing chunk scheduler: unleased indices as sorted disjoint
/// ranges. Workers lease from their home region while it lasts, then steal
/// from the front of whatever remains. Lease size is
/// `clamp(remaining / (workers * 2), 1, chunk_max)` — large while the pool
/// is deep (amortizing the lock), decaying to single injections at the
/// tail so no worker idles behind one long lease.
struct Scheduler {
    /// Unleased work, ascending and disjoint.
    remaining: Vec<Range<usize>>,
    remaining_len: usize,
    workers: usize,
    chunk_max: usize,
    leases: u64,
    steals: u64,
}

impl Scheduler {
    fn new(remaining: Vec<Range<usize>>, workers: usize, chunk_max: usize) -> Self {
        let remaining_len = remaining.iter().map(Range::len).sum();
        Self { remaining, remaining_len, workers, chunk_max, leases: 0, steals: 0 }
    }

    fn lease(&mut self, home: &Range<usize>) -> Option<Lease> {
        if self.remaining_len == 0 {
            return None;
        }
        let chunk = (self.remaining_len / (self.workers * 2)).clamp(1, self.chunk_max);
        // Prefer work overlapping the home region; otherwise steal the
        // lowest remaining indices.
        let pick = self.remaining.iter().position(|r| r.start < home.end && home.start < r.end);
        let (i, stolen) = match pick {
            Some(i) => (i, false),
            None => (0, true),
        };
        let r = self.remaining[i].clone();
        let s = if stolen { r.start } else { r.start.max(home.start) };
        let e = (s + chunk).min(r.end);
        // Carve s..e out of the range, leaving up to two remnants.
        let mut remnants = Vec::with_capacity(2);
        if r.start < s {
            remnants.push(r.start..s);
        }
        if e < r.end {
            remnants.push(e..r.end);
        }
        self.remaining.splice(i..i + 1, remnants);
        self.remaining_len -= e - s;
        self.leases += 1;
        self.steals += u64::from(stolen);
        Some(Lease { range: s..e, stolen })
    }
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
/// (the distributed lease protocol completes work a chunk at a time).
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

/// All campaign-global mutable state behind one lock: the scheduler, the
/// completed-index set, and the tallies. Workers take the lock twice per
/// injection (lease amortized over its chunk, then one tally apply) —
/// injections cost milliseconds, so contention is negligible.
struct CampaignState {
    sched: Scheduler,
    done: Vec<Range<usize>>,
    tally: CampaignTally,
}

impl CampaignState {
    fn apply(&mut self, index: usize, r: &InjectionResult) {
        mark_done(&mut self.done, index);
        self.tally.apply(r);
    }

    fn apply_hung(&mut self, index: usize) {
        mark_done(&mut self.done, index);
        self.tally.apply_hung();
    }

    fn apply_quarantined(&mut self, index: usize, q: QuarantineRecord) {
        mark_done(&mut self.done, index);
        self.tally.apply_quarantined(q);
    }
}

/// Poison-tolerant lock: a worker that panicked (strict mode) must not
/// wedge the checkpoint coordinator out of saving everyone else's work.
fn lock_state(m: &Mutex<CampaignState>) -> std::sync::MutexGuard<'_, CampaignState> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Decrements the live-worker count when the worker exits — including by
/// unwinding in strict mode, so the checkpoint coordinator's wait loop
/// always terminates.
struct LiveGuard<'a>(&'a AtomicUsize);

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// Runs a work-stealing, checkpointable, cancellable campaign.
///
/// `stop` is polled between injections on every worker; once set, workers
/// drain and a final checkpoint is written. `progress` must have been
/// created with the same worker count.
///
/// # Panics
///
/// Panics if the workload fails to compile, the golden run does not halt
/// (same contract as the serial engine), or `progress` disagrees on the
/// worker count.
pub fn run_sharded(
    w: &Workload,
    cfg: &CampaignConfig,
    ocfg: &OrchestratorConfig,
    stop: &AtomicBool,
    progress: &Progress,
) -> Result<ShardedReport, OrchestratorError> {
    if ocfg.shards == 0 {
        return Err(OrchestratorError::Config("shards must be >= 1".into()));
    }
    if ocfg.chunk == 0 {
        return Err(OrchestratorError::Config("chunk must be >= 1".into()));
    }
    assert_eq!(progress.shards(), ocfg.shards, "progress was created for a different shard count");
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
    // any --shards value resumes here.
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
        &vec![0; ocfg.shards],
    );
    let resumed_quarantined = initial.tally.quarantine.len();

    let prep = prepare_campaign(w, cfg);
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
    let homes = shard_ranges(cfg.injections, ocfg.shards);
    let pool = complement(&initial.done, cfg.injections);
    let state = Mutex::new(CampaignState {
        sched: Scheduler::new(pool, ocfg.shards, ocfg.chunk),
        done: initial.done,
        tally: initial.tally,
    });
    let live_workers = AtomicUsize::new(ocfg.shards);
    let completed_here = AtomicUsize::new(0);
    let quarantined_total = AtomicUsize::new(resumed_quarantined);
    let quarantine_abort = AtomicBool::new(false);
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

    let snapshot_all = |state: &Mutex<CampaignState>| -> Checkpoint {
        let g = lock_state(state);
        let cp = Checkpoint {
            fingerprint: fingerprint.clone(),
            done: g.done.clone(),
            tally: g.tally.clone(),
        };
        // Every checkpoint snapshot is audited before it hits disk, in
        // every mode — a persisted ledger that violates the conservation
        // laws would poison any later resume. The audit runs under the
        // state lock: ledger snapshots must reach the monotonicity
        // invariants in the order they were taken.
        if inv.enabled() {
            inv.run_hook(
                Hook::Checkpoint,
                &InvariantCtx::Ledger(ledger_view(cfg.injections, &cp.done, &cp.tally)),
            );
        }
        cp
    };

    std::thread::scope(|scope| {
        for (k, home) in homes.iter().enumerate() {
            let state = &state;
            let prep = &prep;
            let inv = &inv;
            let live_workers = &live_workers;
            let completed_here = &completed_here;
            let quarantined_total = &quarantined_total;
            let quarantine_abort = &quarantine_abort;
            let strict_panic = &strict_panic;
            let worker_stats = &worker_stats;
            scope.spawn(move || {
                let _live = LiveGuard(live_workers);
                // One reusable fork target per worker: consecutive leases
                // delta-restore into the same warm Machine/Argus pair.
                let mut ws = CampaignWorkspace::new();
                let mut busy = Duration::ZERO;
                let mut exec_total = ExecStats::default();
                'work: loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let lease = lock_state(state).sched.lease(home);
                    let Some(lease) = lease else { break };
                    progress.record_lease(lease.stolen);
                    // Execute the lease in arm-cycle order: each injection's
                    // parameters (and thus its result) depend only on its
                    // index, so any order tallies identically — but armed
                    // neighbors fork from the same golden snapshot, so the
                    // warm workspace rewrites only run-dirty pages instead
                    // of cross-snapshot diffs.
                    let mut order: Vec<usize> = lease.range.clone().collect();
                    order.sort_by_key(|&i| prep.arm_cycle_of(cfg, i));
                    for index in order {
                        if stop.load(Ordering::Relaxed) {
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
                            let guarded =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    run_injection_guarded_in(prep, cfg, index, &mut ws)
                                }));
                            match guarded {
                                Ok(SupervisedOutcome::Hung { index, cause }) => {
                                    strict_panic
                                        .lock()
                                        .unwrap_or_else(|e| e.into_inner())
                                        .get_or_insert_with(|| {
                                            format!("injection {index} hung ({})", cause.label())
                                        });
                                    stop.store(true, Ordering::Release);
                                    break 'work;
                                }
                                Ok(other) => other,
                                Err(payload) => {
                                    strict_panic
                                        .lock()
                                        .unwrap_or_else(|e| e.into_inner())
                                        .get_or_insert_with(|| panic_message(payload.as_ref()));
                                    stop.store(true, Ordering::Release);
                                    break 'work;
                                }
                            }
                        } else {
                            run_injection_supervised_in(prep, cfg, index, &mut ws)
                        };
                        let spent = t0.elapsed();
                        busy += spent;
                        progress.add_busy(spent);
                        let ex = ws.take_exec_stats();
                        exec_total.merge(&ex);
                        progress.add_exec(&ex);
                        match sup {
                            SupervisedOutcome::Classified(r) => {
                                let mut g = lock_state(state);
                                if lease.stolen
                                    && argus_sim::canary::enabled("canary-tally-drop-on-steal")
                                {
                                    // Seeded bug: stolen work is marked
                                    // done but never tallied, so the tally
                                    // stops accounting for the done set.
                                    mark_done(&mut g.done, index);
                                } else {
                                    g.apply(index, &r);
                                }
                                drop(g);
                                progress.record(k, r.outcome);
                            }
                            SupervisedOutcome::Hung { .. } => {
                                lock_state(state).apply_hung(index);
                                progress.record_anomaly(k, Anomaly::Hung);
                            }
                            SupervisedOutcome::Quarantined(q) => {
                                lock_state(state).apply_quarantined(index, q);
                                progress.record_anomaly(k, Anomaly::Quarantined);
                                let seen = quarantined_total.fetch_add(1, Ordering::AcqRel) + 1;
                                if seen > ocfg.quarantine_limit {
                                    quarantine_abort.store(true, Ordering::Release);
                                    stop.store(true, Ordering::Release);
                                }
                            }
                        }
                        if let Some(n) = ocfg.stop_after {
                            if completed_here.fetch_add(1, Ordering::AcqRel) + 1 >= n {
                                stop.store(true, Ordering::Release);
                            }
                        }
                    }
                    // Chunk-completion ledger audit (every chunk, every
                    // mode): the conservation laws must hold at each lease
                    // boundary, not only at checkpoint flushes.
                    if inv.enabled() {
                        // Snapshot and audit under one lock hold: if another
                        // worker's newer snapshot could overtake this one on
                        // the way into the registry, the monotonicity
                        // invariants would see time run backwards.
                        let g = lock_state(state);
                        let view = ledger_view(cfg.injections, &g.done, &g.tally);
                        let fresh = inv.run_hook(Hook::ChunkComplete, &InvariantCtx::Ledger(view));
                        drop(g);
                        progress.set_invariant_violations(inv.violations());
                        if fresh > 0 && ocfg.strict {
                            stop.store(true, Ordering::Release);
                        }
                    }
                }
                worker_stats.lock().unwrap_or_else(|e| e.into_inner())[k] =
                    Some((busy, started.elapsed(), exec_total));
                progress.shard_finished(k);
            });
        }

        // Checkpoint coordinator (runs on the caller's thread inside the
        // scope): periodic flushes while workers make progress.
        if let Some(path) = ocfg.checkpoint_path.as_deref() {
            let mut last_flush = Instant::now();
            while live_workers.load(Ordering::Acquire) > 0 {
                std::thread::sleep(Duration::from_millis(25));
                if last_flush.elapsed() >= ocfg.checkpoint_interval {
                    // A failing periodic flush is not fatal mid-run — it
                    // retries with backoff, flags degraded mode, and the
                    // final flush below surfaces persistent I/O problems.
                    match snapshot_all(&state).save_with_retry(
                        path,
                        ocfg.flush_retries,
                        ocfg.flush_backoff,
                    ) {
                        Ok(0) => {}
                        Ok(failed_attempts) => {
                            flush_failures.fetch_add(u64::from(failed_attempts), Ordering::Relaxed);
                            flush_degraded.store(true, Ordering::Relaxed);
                            progress.set_degraded(true);
                        }
                        Err(_) => {
                            flush_failures
                                .fetch_add(u64::from(ocfg.flush_retries) + 1, Ordering::Relaxed);
                            flush_degraded.store(true, Ordering::Relaxed);
                            progress.set_degraded(true);
                        }
                    }
                    last_flush = Instant::now();
                }
            }
        }
    });

    let interrupted = stop.load(Ordering::Relaxed);
    let final_cp = snapshot_all(&state);
    if let Some(path) = ocfg.checkpoint_path.as_deref() {
        match final_cp.save_with_retry(path, ocfg.flush_retries, ocfg.flush_backoff) {
            Ok(0) => {}
            Ok(failed_attempts) => {
                flush_failures.fetch_add(u64::from(failed_attempts), Ordering::Relaxed);
                flush_degraded.store(true, Ordering::Relaxed);
                progress.set_degraded(true);
            }
            Err(e) => return Err(CheckpointError::from(e).into()),
        }
    }
    progress.finish();

    // Strict mode: re-raise the worker's panic with its original message,
    // now that progress has been flushed.
    if let Some(msg) = strict_panic.lock().unwrap_or_else(|e| e.into_inner()).take() {
        panic!("{msg}");
    }

    if quarantine_abort.load(Ordering::Acquire) {
        return Err(OrchestratorError::Supervision(format!(
            "{} injections quarantined (limit {}); progress checkpointed, tallies would be \
             misleading",
            quarantined_total.load(Ordering::Acquire),
            ocfg.quarantine_limit
        )));
    }

    let invariants = inv.stats();
    progress.set_invariant_violations(invariants.violations);
    if ocfg.strict && invariants.violations > 0 {
        let first = inv.first_violation().unwrap_or_else(|| "unnamed invariant".into());
        return Err(OrchestratorError::Invariant(first));
    }

    // The global tally IS the merged result: every accumulator is
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
    let (leases, steals) = {
        let g = lock_state(&state);
        (g.sched.leases, g.sched.steals)
    };

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
        remote: None,
        invariants,
    })
}

#[cfg(test)]
// Done-sets really are `Vec<Range<usize>>`; single-range literals are the
// point of these fixtures, not a mistyped `collect()`.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;

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

    #[test]
    fn chunk_larger_than_remaining_clamps_instead_of_empty_lease() {
        // Regression: a --chunk far beyond the remaining injection count
        // must clamp the lease to the remnant, never hand out an empty or
        // out-of-range chunk.
        let mut s = Scheduler::new(vec![0..5], 1, 1000);
        let home = 0..5;
        let mut drained = Vec::new();
        while let Some(l) = s.lease(&home) {
            assert!(!l.range.is_empty(), "oversized chunk must clamp, not issue empty");
            assert!(l.range.end <= 5, "lease stays inside the pool");
            drained.extend(l.range.clone());
        }
        drained.sort_unstable();
        assert_eq!(drained, (0..5).collect::<Vec<_>>(), "pool fully drained");

        // Same at the tail of a larger pool: the last lease is exactly the
        // leftover, and every lease stays non-empty and in range.
        let mut s = Scheduler::new(vec![0..7], 2, 64);
        let mut seen = Vec::new();
        while let Some(l) = s.lease(&(0..7)) {
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
        let mut sched = Scheduler::new(vec![0..n], workers, 8);
        let mut seen = vec![false; n];
        let mut turn = 0;
        loop {
            // Round-robin the workers so everyone leases from everywhere.
            let home = &homes[turn % workers];
            turn += 1;
            let Some(lease) = sched.lease(home) else { break };
            assert!(lease.range.len() <= 8, "chunk cap respected");
            for i in lease.range {
                assert!(!seen[i], "index {i} leased twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every index leased");
        assert!(sched.leases > 0);
        assert_eq!(sched.remaining_len, 0);
    }

    #[test]
    fn scheduler_shrinks_leases_at_the_tail() {
        let workers = 2;
        let homes = shard_ranges(20, workers);
        let mut sched = Scheduler::new(vec![0..20], workers, 64);
        // 20 remaining / (2 workers * 2) = 5 → first lease is 5 wide.
        let first = sched.lease(&homes[0]).unwrap();
        assert_eq!(first.range.len(), 5);
        // Drain to a tiny tail: leases decay to single injections.
        while sched.remaining_len > 3 {
            sched.lease(&homes[0]).unwrap();
        }
        let tail = sched.lease(&homes[1]).unwrap();
        assert_eq!(tail.range.len(), 1, "tail leases shrink to 1");
    }

    #[test]
    fn scheduler_counts_steals_only_outside_home() {
        let workers = 2;
        let homes = shard_ranges(10, workers);
        let mut sched = Scheduler::new(vec![0..10], workers, 100);
        // Worker 1 drains its own home first: no steals.
        let l = sched.lease(&homes[1]).unwrap();
        assert!(!l.stolen, "home-region lease is not a steal");
        assert!(l.range.start >= homes[1].start);
        // Keep leasing as worker 1 until its home is gone, then the next
        // lease comes from worker 0's territory and counts as a steal.
        loop {
            let l = sched.lease(&homes[1]).unwrap();
            if l.stolen {
                assert!(l.range.end <= homes[1].start, "stolen work lies outside home");
                break;
            }
        }
        assert_eq!(sched.steals, 1);
    }
}
