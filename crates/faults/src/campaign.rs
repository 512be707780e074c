//! The error-injection campaign and Table-1 classification.

use crate::sites::{full_inventory, sample_points, SamplePoint};
use argus_compiler::{compile, preplan, EmbedConfig, Mode, Program};
use argus_core::{Argus, ArgusConfig, CheckerKind, DetectionEvent};
use argus_invariants::{
    ExecView, Hook, InvariantCtx, InvariantEngine, InvariantMode, SnapshotView, StoreView,
};
pub use argus_machine::ExecStats;
use argus_machine::{Machine, MachineConfig, StepOutcome};
use argus_sim::fault::{FaultInjector, FaultKind};
use argus_sim::rng::SplitMix64;
use argus_sim::stats::CounterSet;
use argus_sim::supervise::{catch_supervised, HangCause, InjectionWatchdog, WatchdogConfig};
use argus_snapshot::{
    combined_fingerprint, MappedStore, MappedStoreWriter, PageCache, Workspace, WorkspaceStats,
    PAGE_WORDS,
};
use argus_workloads::Workload;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of injections.
    pub injections: usize,
    /// Transient or permanent bit inversions.
    pub kind: FaultKind,
    /// RNG seed (site sampling and arm-cycle choice).
    pub seed: u64,
    /// Checker configuration.
    pub acfg: ArgusConfig,
    /// Machine configuration (must be Argus mode).
    pub mcfg: MachineConfig,
    /// Extra cycles added to the hang window (the run is declared hung
    /// after `2 × golden_cycles + hang_slack` cycles).
    pub hang_slack: u64,
    /// Structural-masking probability: the fraction of sampled gate
    /// outputs whose faults can never reach an observable signal at all
    /// (untestable/redundant logic, off-path gates). These injections run
    /// but never corrupt anything — the masked-undetected population
    /// gate-level studies report.
    pub structural_mask: f64,
    /// Compiler/embedding configuration (must agree with `acfg` on the
    /// signature width and block-length bound; ablations sweep both
    /// together).
    pub ecfg: EmbedConfig,
    /// Checkpoint the golden run every this many cycles into an ARGSTORE
    /// snapshot store and delta-fork each injection from the nearest
    /// snapshot at or before its arm cycle, instead of cold-booting and
    /// replaying the whole deterministic prefix. `None` (the default)
    /// keeps the cold-boot path. Results are bit-identical either way —
    /// this only trades a golden-run capture for injection throughput.
    pub snapshot_every: Option<u64>,
    /// Watchdog cycle budget for one injection, as a multiple of the
    /// golden run length (plus `hang_slack`). The budget counts step-loop
    /// *iterations*, so it keeps firing even when the fault corrupts the
    /// simulated cycle counter that the ordinary hang window reads. The
    /// default (4.0) sits well above the hang window's factor of 2, so it
    /// never fires on a run the window would have classified — default
    /// results are bit-identical with or without the watchdog.
    pub inj_cycle_factor: f64,
    /// Wall-clock ceiling per injection — the backstop for true livelocks
    /// where even the iteration count stops being meaningful. `None`
    /// disables it.
    pub inj_wall_limit: Option<Duration>,
    /// Test-only fault injection into the *campaign machinery itself*:
    /// selected injection indices panic or livelock instead of running.
    /// `None` (always, outside resilience tests) leaves every injection
    /// untouched.
    pub chaos: Option<ChaosConfig>,
    /// Short-circuit structurally masked injections (`sensitization == 0`):
    /// such a fault provably never fires (`FaultInjector::fire_mask`
    /// draws against a zero sensitization), and an armed-but-never-firing
    /// fault is observably identical to no fault at all, so the run's
    /// classification is read off a once-per-campaign no-fault template
    /// instead of re-stepping the whole workload. Bit-identical by
    /// construction (the equivalence suite pins this too); the toggle
    /// exists for those tests and for A/B measurements.
    pub shortcut_inert: bool,
    /// Always-on invariant checking: read-only structural assertions over
    /// the machine, checker, snapshot, and bookkeeping state, evaluated at
    /// commit/block/snapshot hooks. Purely observational — checks never
    /// mutate observed state, so results are bit-identical across modes;
    /// `Sampled` (the default) strides the hooks so the overhead stays
    /// inside the bench gates, `Full` checks every hook.
    pub invariants: InvariantMode,
    /// Set only by the frozen `perf/` benchmark; there is one store.
    /// Delete with the next benchmark change.
    #[doc(hidden)]
    pub store: StoreKind,
}

/// A one-value enum kept only so the frozen `perf/` benchmark, which sets
/// `CampaignConfig { store: StoreKind::Mapped, .. }`, still builds; delete
/// with the next benchmark change.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// The ARGSTORE snapshot store every campaign uses.
    #[default]
    Mapped,
}

/// Deliberate campaign-machinery faults for resilience testing: the listed
/// injection indices misbehave instead of running, exercising the panic
/// quarantine and the watchdog exactly the way an organic bug would.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Injection indices that panic mid-run.
    pub panic_at: Vec<usize>,
    /// Injection indices that livelock until the watchdog fires.
    pub livelock_at: Vec<usize>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            injections: 1000,
            kind: FaultKind::Transient,
            seed: 0xA9_05,
            acfg: ArgusConfig::default(),
            mcfg: MachineConfig::default(),
            hang_slack: 2_000,
            structural_mask: 0.30,
            ecfg: EmbedConfig::default(),
            snapshot_every: None,
            inj_cycle_factor: 4.0,
            inj_wall_limit: Some(Duration::from_secs(60)),
            chaos: None,
            shortcut_inert: true,
            invariants: InvariantMode::default(),
            store: StoreKind::default(),
        }
    }
}

impl CampaignConfig {
    /// Returns a copy with the machine's main memory grown to the
    /// workload's [`Workload::min_mem_bytes`]. Call this at the campaign
    /// entry point — the same configuration must reach both
    /// [`prepare_campaign`] and every `run_injection*` call, or the forked
    /// machines would not match the golden snapshots.
    #[must_use]
    pub fn sized_for(&self, w: &Workload) -> Self {
        let mut cfg = self.clone();
        cfg.mcfg.mem.mem_bytes = cfg.mcfg.mem.mem_bytes.max(w.min_mem_bytes);
        cfg
    }

    /// Watchdog limits for one injection of a campaign whose golden run
    /// took `golden_cycles`.
    pub fn watchdog_config(&self, golden_cycles: u64) -> WatchdogConfig {
        let budget = (golden_cycles as f64 * self.inj_cycle_factor) as u64 + self.hang_slack;
        WatchdogConfig { cycle_budget: budget.max(1), wall_limit: self.inj_wall_limit }
    }
}

/// Classification quadrants (the columns of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Silent data corruption — the bad quadrant.
    UnmaskedUndetected,
    /// Detected genuine error.
    UnmaskedDetected,
    /// No architectural effect, no report.
    MaskedUndetected,
    /// Detected masked error (DME) — a spurious but safe recovery.
    MaskedDetected,
}

impl Outcome {
    /// All four quadrants in canonical (Table-1 column) order.
    pub const ALL: [Outcome; 4] = [
        Outcome::UnmaskedUndetected,
        Outcome::UnmaskedDetected,
        Outcome::MaskedUndetected,
        Outcome::MaskedDetected,
    ];

    /// Position in [`Outcome::ALL`]; stable across runs, used to index
    /// per-outcome count arrays in shard tallies and checkpoints.
    pub fn index(self) -> usize {
        match self {
            Outcome::UnmaskedUndetected => 0,
            Outcome::UnmaskedDetected => 1,
            Outcome::MaskedUndetected => 2,
            Outcome::MaskedDetected => 3,
        }
    }

    /// Stable snake_case label (JSON keys, report fields).
    pub fn label(self) -> &'static str {
        match self {
            Outcome::UnmaskedUndetected => "unmasked_undetected",
            Outcome::UnmaskedDetected => "unmasked_detected",
            Outcome::MaskedUndetected => "masked_undetected",
            Outcome::MaskedDetected => "masked_detected",
        }
    }
}

/// One injection's result.
#[derive(Debug, Clone)]
pub struct InjectionResult {
    /// The injected point.
    pub point: SamplePoint,
    /// Cycle at which the fault armed.
    pub arm_cycle: u64,
    /// Classification.
    pub outcome: Outcome,
    /// First checker to fire, if detected.
    pub detector: Option<CheckerKind>,
    /// Cycles from the fault's first actual corruption to detection.
    pub detect_latency: Option<u64>,
    /// Whether the fault ever corrupted a signal.
    pub exercised: bool,
}

/// One quarantined (panicked) injection, as recorded in shard checkpoints
/// and the final report: everything needed to replay it under a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Campaign-wide injection index.
    pub index: u64,
    /// Campaign seed (with the index, fully determines the injection).
    pub seed: u64,
    /// The captured panic message.
    pub panic_msg: String,
}

/// What a *supervised* injection produced: a normal Table-1 classification,
/// or one of the two anomalies the supervision layer absorbs instead of
/// crashing the shard. Anomalies are deliberately **not** [`Outcome`]
/// variants — the four-quadrant tallies (and their bit-identity across
/// shard counts) stay exactly as they were; anomalies are counted beside
/// them.
#[derive(Debug, Clone)]
pub enum SupervisedOutcome {
    /// The injection ran to classification.
    Classified(InjectionResult),
    /// The watchdog declared the run hung; no classification exists.
    Hung {
        /// Campaign-wide injection index.
        index: u64,
        /// Which watchdog limit fired.
        cause: HangCause,
    },
    /// The injection panicked and was isolated.
    Quarantined(QuarantineRecord),
}

/// Aggregated campaign results.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-injection results.
    pub results: Vec<InjectionResult>,
    /// Fault kind injected.
    pub kind: FaultKind,
    /// First-detector attribution over all detected injections.
    pub attribution: CounterSet,
    /// Golden run length in cycles.
    pub golden_cycles: u64,
}

impl CampaignReport {
    /// Count of one outcome.
    pub fn count(&self, o: Outcome) -> usize {
        self.results.iter().filter(|r| r.outcome == o).count()
    }

    /// Fraction of one outcome (0.0 when empty).
    pub fn fraction(&self, o: Outcome) -> f64 {
        if self.results.is_empty() {
            0.0
        } else {
            self.count(o) as f64 / self.results.len() as f64
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

    /// One formatted row in the style of Table 1.
    pub fn table_row(&self) -> String {
        format!(
            "{:9} | {:>8.2}% | {:>8.1}% | {:>8.1}% | {:>8.1}%",
            match self.kind {
                FaultKind::Transient => "transient",
                FaultKind::Permanent => "permanent",
            },
            100.0 * self.fraction(Outcome::UnmaskedUndetected),
            100.0 * self.fraction(Outcome::UnmaskedDetected),
            100.0 * self.fraction(Outcome::MaskedUndetected),
            100.0 * self.fraction(Outcome::MaskedDetected),
        )
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:9} | unmasked | unmasked | masked   | masked", "")?;
        writeln!(f, "{:9} | undet(SDC)| detected | undetect | detected(DME)", "type")?;
        writeln!(f, "{}", self.table_row())?;
        writeln!(f, "unmasked coverage: {:.1}%", 100.0 * self.unmasked_coverage())?;
        writeln!(f, "detection attribution:")?;
        write!(f, "{}", self.attribution)
    }
}

/// Compiles the workload once (Argus mode).
fn compile_workload(w: &Workload, ecfg: &EmbedConfig) -> Program {
    compile(&w.unit, Mode::Argus, ecfg)
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name))
}

struct GoldenRun {
    digest: u64,
    cycles: u64,
    /// Predecode/plan-cache counters the golden run accumulated.
    exec: ExecStats,
}

/// Everything a campaign computes once up front and shares across all
/// injections: the compiled image, the golden-run reference, the hang
/// window, and the sampled injection points. Immutable after construction,
/// so worker threads can share one instance (`&PreparedCampaign` is `Sync`).
pub struct PreparedCampaign {
    prog: Program,
    golden_digest: u64,
    golden_cycles: u64,
    window: u64,
    points: Vec<SamplePoint>,
    /// Golden-run checkpoints when `snapshot_every` is set; shards share
    /// the read-only store (one mmap of the ARGSTORE file, or its
    /// in-memory image) and fork injections from it.
    snapshots: Option<Arc<MappedStore>>,
    /// Per-snapshot "restored once and matched its fingerprint" flags.
    /// Full-state verification is too expensive per fork, so each snapshot
    /// is verified the first time any worker forks from it and trusted
    /// afterwards.
    snapshot_verified: Vec<AtomicBool>,
    /// Per-snapshot "failed verification" flags; a poisoned snapshot is
    /// never forked from again — affected injections cold-boot instead,
    /// which is bit-identical, just slower.
    snapshot_poisoned: Vec<AtomicBool>,
    /// How many injections fell back to cold boot because their nearest
    /// snapshot was poisoned.
    snapshot_fallbacks: AtomicU64,
    /// Human-readable warnings from snapshot verification failures.
    snapshot_warnings: Mutex<Vec<String>>,
    /// Lazily computed no-fault reference outcome backing the
    /// structurally-masked short-circuit (see
    /// [`CampaignConfig::shortcut_inert`]). One cold-boot replay of the
    /// workload, shared by every worker.
    inert_template: OnceLock<InertTemplate>,
    /// Predecode/plan-cache counters from the golden run (after the
    /// lowering pass warmed the plan cache). Reported under the campaign
    /// report's volatile `"run"` key.
    golden_exec: ExecStats,
    /// The always-on invariant engine shared by every worker. Checks are
    /// read-only, so sharing one engine across threads only aggregates
    /// counters — it never couples run results.
    invariants: Arc<InvariantEngine>,
}

/// What a no-fault run of the campaign's faulty loop produces. A
/// structurally masked fault (`sensitization == 0.0`) never corrupts any
/// tapped value, so its run is observably identical to this template —
/// including the end-of-run scrub and the watchdog verdict, both of which
/// the template run exercises for real.
#[derive(Debug, Clone)]
struct InertTemplate {
    detection: Option<DetectionEvent>,
    halted: bool,
    digest: u64,
    hung: Option<HangCause>,
}

/// A worker's reusable injection state: the delta-restore [`Workspace`]
/// consecutive forked injections rewrite in place. One per worker thread;
/// dropping it just frees the resident machine.
#[derive(Debug, Default)]
pub struct CampaignWorkspace {
    ws: Workspace,
    /// Resident decoded-page cache for store restores. This — not the
    /// store — is what bounds a worker's peak RSS: page bodies stay on
    /// disk behind the shared map and only the entries here are
    /// materialized.
    cache: PageCache,
    /// Predecode/plan-cache counters accumulated over every injection run
    /// through this workspace, forked or cold-booted.
    exec: ExecStats,
}

impl CampaignWorkspace {
    /// An empty workspace; the first forked injection populates it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative delta-restore statistics (bench/test observability).
    pub fn stats(&self) -> WorkspaceStats {
        self.ws.stats()
    }

    /// The store's page cache (hit/miss/residency observability).
    pub fn page_cache(&self) -> &PageCache {
        &self.cache
    }

    /// Cumulative predecode/plan-cache counters (campaign `run` reporting).
    pub fn exec_stats(&self) -> ExecStats {
        self.exec
    }

    /// Drains the accumulated predecode/plan-cache counters.
    pub fn take_exec_stats(&mut self) -> ExecStats {
        std::mem::take(&mut self.exec)
    }
}

impl PreparedCampaign {
    /// Number of planned injections.
    pub fn injections(&self) -> usize {
        self.points.len()
    }

    /// Golden (fault-free) run length in cycles.
    pub fn golden_cycles(&self) -> u64 {
        self.golden_cycles
    }

    /// The cycle at which injection `index` arms, derived from the same
    /// per-index RNG stream [`run_injection_in`] uses (each stream is
    /// seeded independently, so peeking here consumes nothing). Schedulers
    /// use this to sort a chunk of indices by arm cycle: injections that
    /// arm near each other fork from the same snapshot, so a warm
    /// workspace rewrites only run-dirty pages instead of cross-snapshot
    /// diffs. Pure per-index — execution order never changes any result.
    pub fn arm_cycle_of(&self, cfg: &CampaignConfig, index: usize) -> u64 {
        let mut rng = SplitMix64::stream(cfg.seed ^ INJECTION_STREAM_SALT, index as u64);
        self.draw_arm_cycle(&mut rng)
    }

    /// Draws the arm cycle from an injection's RNG stream: somewhere in
    /// the first 3/4 of the golden execution, so the fault has time to be
    /// exercised and detected. Single source of truth for
    /// [`Self::arm_cycle_of`] and the injection runner.
    fn draw_arm_cycle(&self, rng: &mut SplitMix64) -> u64 {
        rng.below((self.golden_cycles * 3 / 4).max(1))
    }

    /// The golden-run snapshot store, when the campaign was prepared with
    /// `snapshot_every`.
    pub fn snapshot_store(&self) -> Option<&Arc<MappedStore>> {
        self.snapshots.as_ref()
    }

    /// How many injections cold-booted because their snapshot failed
    /// verification.
    pub fn snapshot_fallbacks(&self) -> u64 {
        self.snapshot_fallbacks.load(Ordering::Relaxed)
    }

    /// Predecode/plan-cache counters from the golden run.
    pub fn golden_exec(&self) -> ExecStats {
        self.golden_exec
    }

    /// The campaign's invariant engine (violation counts, report stats).
    pub fn invariants(&self) -> &Arc<InvariantEngine> {
        &self.invariants
    }

    /// The campaign's entry state: a fresh machine with the compiled image
    /// loaded and a checker armed with the entry DCS, at cycle 0 — exactly
    /// what every cold-booted injection starts from. Distributed campaigns
    /// serialize this pair as the content-addressed `golden-entry` artifact
    /// so a remote worker can verify that its locally reconstructed state
    /// is bit-identical to the coordinator's before leasing any work
    /// (catching version skew, a different workload, or a diverging
    /// compiler).
    pub fn entry_state(&self, cfg: &CampaignConfig) -> (Machine, Argus) {
        let mut m = Machine::new(cfg.mcfg);
        self.prog.load(&mut m);
        let mut argus = Argus::new(cfg.acfg);
        if let Some(d) = self.prog.entry_dcs {
            argus.expect_entry(d);
        }
        (m, argus)
    }

    /// Drains accumulated snapshot-corruption warnings.
    pub fn take_snapshot_warnings(&self) -> Vec<String> {
        let mut guard =
            self.snapshot_warnings.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        std::mem::take(&mut *guard)
    }

    /// Runs the snapshot-identity invariant against a freshly restored
    /// pair when the engine's restore clock says this one is due. Read-only
    /// (recomputes the combined fingerprint and compares it to the one the
    /// snapshot recorded at capture time), so forked runs are unaffected.
    fn check_snapshot_identity(&self, i: usize, m: &Machine, argus: &Argus) {
        if !self.invariants.snapshot_due() {
            return;
        }
        let Some(store) = self.snapshots.as_ref() else { return };
        let (Some(expected), Some(cycle)) = (store.fingerprint(i), store.cycle(i)) else {
            return;
        };
        let view = SnapshotView { expected, reconstructed: combined_fingerprint(m, argus), cycle };
        self.invariants.run_hook(Hook::SnapshotRestore, &InvariantCtx::Snapshot(view));
    }

    /// Poisons snapshot `i` after a failed restore and records why; the
    /// caller falls back to cold boot (bit-identical, just slower).
    fn poison_snapshot(&self, i: usize, why: &str) {
        self.snapshot_poisoned[i].store(true, Ordering::Relaxed);
        self.snapshot_fallbacks.fetch_add(1, Ordering::Relaxed);
        self.snapshot_warnings
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(format!("snapshot {i} failed verification, cold-booting: {why}"));
    }

    /// Delta-forks into `ws` from the nearest snapshot at or before
    /// `arm_cycle`, verifying the snapshot's fingerprint on first use
    /// (with the `try_restore_into` full-restore fallback). Returns
    /// whether `ws` now holds the forked pair; `false` means no snapshot
    /// applies or the applicable one is corrupt, and the caller cold-boots
    /// — bit-identical, just slower.
    fn fork_into(&self, arm_cycle: u64, ws: &mut Workspace, cache: &mut PageCache) -> bool {
        let Some(store) = self.snapshots.as_ref() else { return false };
        let Some(i) = store.nearest_index_at_or_before(arm_cycle) else { return false };
        if self.snapshot_poisoned[i].load(Ordering::Relaxed) {
            self.snapshot_fallbacks.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let restored = if self.snapshot_verified[i].load(Ordering::Relaxed) {
            store.restore_into(i, ws, cache)
        } else {
            store.try_restore_into(i, ws, cache).map(|_| ())
        };
        match restored {
            Ok(()) => {
                self.snapshot_verified[i].store(true, Ordering::Relaxed);
                let (m, a) = ws.pair().expect("restore populated the workspace");
                self.check_snapshot_identity(i, m, a);
                true
            }
            Err(why) => {
                self.poison_snapshot(i, &why);
                false
            }
        }
    }

    /// The no-fault reference outcome, computed on first use by replaying
    /// the workload once from cold boot through the real faulty loop
    /// (watchdog, scrub and all) with a pass-through injector.
    fn inert_template(&self, cfg: &CampaignConfig) -> &InertTemplate {
        self.inert_template.get_or_init(|| {
            let mut wd = InjectionWatchdog::new(&cfg.watchdog_config(self.golden_cycles));
            let mut m = Machine::new(cfg.mcfg);
            self.prog.load(&mut m);
            let mut argus = Argus::new(cfg.acfg);
            if let Some(d) = self.prog.entry_dcs {
                argus.expect_entry(d);
            }
            let mut inj = FaultInjector::none();
            let out = faulty_loop(
                &mut m,
                &mut argus,
                &mut inj,
                self.window,
                self.prog.data_base,
                &mut wd,
                &self.invariants,
                None,
            );
            InertTemplate {
                detection: out.detection,
                halted: out.halted,
                digest: out.digest,
                hung: out.hung,
            }
        })
    }

    /// Test-only: corrupts a page of the `index`-th snapshot (in a private
    /// copy of the store image) so resilience tests can exercise the
    /// poison → cold-boot fallback. Returns `false` when the campaign has
    /// no snapshots, the index is out of range, or the store is already
    /// shared.
    #[doc(hidden)]
    pub fn corrupt_snapshot_for_test(&mut self, index: usize) -> bool {
        self.snapshots
            .as_mut()
            .and_then(Arc::get_mut)
            .is_some_and(|store| store.corrupt_page_for_test(index))
    }
}

/// Salt separating the per-injection parameter streams (arm cycle +
/// structural-masking roll) from the site-sampling stream.
const INJECTION_STREAM_SALT: u64 = 0x5EED;

fn golden_run(prog: &Program, mcfg: MachineConfig) -> GoldenRun {
    let mut m = Machine::new(mcfg);
    prog.load(&mut m);
    // Lower every statically-reachable block into the plan cache up front;
    // `run_to_halt` then retires whole blocks per loop iteration wherever
    // the block-exec gates allow (bit-identical either way).
    preplan(prog, &mut m);
    let mut inj = FaultInjector::none();
    let res = m.run_to_halt(&mut inj, 500_000_000);
    assert!(res.halted, "golden run must halt");
    GoldenRun { digest: m.state_digest(), cycles: res.cycles, exec: m.take_exec_stats() }
}

/// The golden run again, but stepping the checker in lockstep and
/// checkpointing into `sink` on its interval. The checker runs
/// because its state (signature file, CFC expectation, watchdog) evolves
/// over the fault-free prefix and a forked injection must resume it
/// mid-flight; it never mutates the machine, so the trajectory — and the
/// golden digest — are identical to [`golden_run`].
///
/// Cycle 0 (image loaded, entry DCS armed, nothing executed) is always
/// captured, so every arm cycle has a snapshot at or before it. `Err` can
/// only come from a file sink's IO.
fn golden_run_with_snapshots(
    prog: &Program,
    mcfg: MachineConfig,
    acfg: ArgusConfig,
    sink: &mut MappedStoreWriter,
) -> io::Result<GoldenRun> {
    let mut m = Machine::new(mcfg);
    prog.load(&mut m);
    let mut argus = Argus::new(acfg);
    if let Some(d) = prog.entry_dcs {
        argus.expect_entry(d);
    }
    sink.capture_now(&m, &argus)?;
    preplan(prog, &mut m);
    let mut inj = FaultInjector::none();
    loop {
        // Checker-batched block execution: the golden run is pristine, so
        // whenever the machine can retire a compiled block and the checker
        // can verify it as one batch (`block_ready`), both advance in one
        // call. Snapshots land on block boundaries — still step boundaries,
        // so forked injections resume exactly as before.
        if let Some(gate) = m.plan_block(&inj, 500_000_000) {
            if argus.block_ready(&gate, &inj) {
                if let Some(commit) = m.exec_block(&mut inj, &gate) {
                    let plan = m.plan_at(gate.addr).expect("completed block keeps its plan");
                    let events = argus.on_block(plan, &commit, &mut inj);
                    debug_assert!(events.is_empty(), "golden run raised a false positive");
                    sink.maybe_capture(&m, &argus)?;
                    continue;
                }
            }
        }
        match m.step(&mut inj) {
            StepOutcome::Committed(rec) => {
                argus.on_commit(&rec, &mut inj);
            }
            StepOutcome::Stalled => {
                argus.on_stall(1, &mut inj);
            }
            StepOutcome::Halted => break,
        }
        sink.maybe_capture(&m, &argus)?;
        assert!(m.cycle() < 500_000_000, "golden run must halt");
    }
    debug_assert!(argus.events().is_empty(), "golden run raised a false positive");
    Ok(GoldenRun { digest: m.state_digest(), cycles: m.cycle(), exec: m.take_exec_stats() })
}

/// The golden capture: stream checkpoints into a temp ARGSTORE file,
/// seal and map it, then unlink the path — the map keeps the bytes alive,
/// nothing stays in the directory listing, and the kernel reclaims the
/// space when the campaign drops the store. When the file cannot be
/// written the capture reruns into an in-memory image instead (same
/// format, same forks, the whole store resident) and says so in
/// `warnings`.
fn capture_store(
    prog: &Program,
    cfg: &CampaignConfig,
    every: u64,
    warnings: &mut Vec<String>,
) -> (GoldenRun, MappedStore) {
    let capture = |mut sink: MappedStoreWriter| -> io::Result<(GoldenRun, MappedStore)> {
        let golden = golden_run_with_snapshots(prog, cfg.mcfg, cfg.acfg, &mut sink)?;
        Ok((golden, sink.finish()?))
    };
    let on_disk = MappedStoreWriter::create_temp(every).and_then(|sink| {
        let tmp = sink.path().map(Path::to_path_buf);
        let sealed = capture(sink);
        if let Some(tmp) = tmp {
            let _ = std::fs::remove_file(tmp);
        }
        sealed
    });
    on_disk.unwrap_or_else(|e| {
        warnings.push(format!(
            "snapshot store file unavailable ({e}); campaign keeps its store in memory"
        ));
        capture(MappedStoreWriter::in_memory(every)).expect("an in-memory store cannot fail")
    })
}

/// The `StoreOpen` invariant's plain-data view of a freshly sealed store.
fn store_view(s: &MappedStore) -> StoreView {
    let st = s.stats();
    let n = s.len();
    // Deterministic spot sample: up to 8 stored pages, evenly strided,
    // re-CRCed against the stored index.
    let pages = s.page_count();
    let step = (pages / 8).max(1);
    let crc_checks = (0..pages)
        .step_by(step)
        .take(8)
        .filter_map(|id| s.check_page_crc(id as u32).map(|ok| (id as u32, ok)))
        .collect();
    StoreView {
        snapshots: n,
        pages_distinct: st.pages_distinct,
        pages_total: st.pages_total,
        table_lens: (0..n).map(|i| s.page_ids(i).map_or(0, <[u32]>::len)).collect(),
        expected_lens: (0..n).map(|i| s.mem_words(i).unwrap_or(0).div_ceil(PAGE_WORDS)).collect(),
        cycles: (0..n).filter_map(|i| s.cycle(i)).collect(),
        max_page_id: (0..n).filter_map(|i| s.page_ids(i)).flatten().copied().max().unwrap_or(0),
        crc_checks,
    }
}

/// What one faulty run produced, before classification.
struct FaultyOutcome {
    detection: Option<DetectionEvent>,
    exercised_at: Option<u64>,
    halted: bool,
    digest: u64,
    /// `Some` when the watchdog abandoned the run; the other fields are
    /// then meaningless and the run is unclassifiable.
    hung: Option<HangCause>,
    /// Predecode/plan-cache counters the run accumulated (drained from the
    /// machine, so workspace-resident machines never double-count).
    exec: ExecStats,
}

/// The faulty-run step loop, shared by the cold-boot and forked paths.
///
/// The watchdog is ticked once per iteration *before* stepping, so it
/// bounds the loop even when a fault corrupts the cycle counter that the
/// `window` check reads.
#[allow(clippy::too_many_arguments)]
fn faulty_loop(
    m: &mut Machine,
    argus: &mut Argus,
    inj: &mut FaultInjector,
    window: u64,
    data_base: u32,
    wd: &mut InjectionWatchdog,
    inv: &InvariantEngine,
    scrub_since: Option<u64>,
) -> FaultyOutcome {
    let mut first: Option<DetectionEvent> = None;
    // Invariant-hook strides, advanced only while the run is still
    // pristine (no flip has fired): a fault is *allowed* to corrupt the
    // very state the invariants assert over, so post-flip state is out of
    // scope — divergence detection there belongs to the checker itself.
    // Checks are read-only, so the run's outcome is stride-independent.
    let commit_stride = inv.mode().commit_stride();
    let block_stride = inv.mode().block_stride();
    let mut commits: u64 = 0;
    let mut blocks: u64 = 0;
    loop {
        // Block-compiled fast path: retire a whole basic block per loop
        // iteration when every gate passes. `plan_block` refuses unless the
        // block provably finishes inside `window` and cannot tap the site
        // of any live fault armed by its end (the tap-set gate: no tap
        // inside it could fire), and the checker — while still live —
        // additionally requires a block it can verify as one batch
        // (`block_ready`: pristine run, no armed checker-site fault, simple
        // store-free block, watchdog checker idle). Post-detection only
        // the machine-side gates apply, mirroring the skipped `on_commit`
        // below. `tick_many` settles the supervision-watchdog debt for the
        // interpreter iterations the block replaced (a block never runs
        // while a stall fault is armed — every op taps the stall site — so
        // retired ops == replaced iterations), keeping the hung/not-hung
        // verdict bit-identical to the one-step loop.
        if let Some(gate) = m.plan_block(inj, window) {
            if first.is_some() || argus.block_ready(&gate, inj) {
                if let Some(commit) = m.exec_block(inj, &gate) {
                    if let Some(cause) = wd.tick_many(u64::from(commit.executed)) {
                        return FaultyOutcome {
                            detection: None,
                            exercised_at: inj.first_flip_cycle(),
                            halted: false,
                            digest: 0,
                            hung: Some(cause),
                            exec: m.take_exec_stats(),
                        };
                    }
                    if first.is_none() {
                        let plan = m.plan_at(gate.addr).expect("completed block keeps its plan");
                        first = argus.on_block(plan, &commit, inj).into_iter().next();
                        if commit_stride != 0 && inj.first_flip_cycle().is_none() {
                            commits += u64::from(commit.executed);
                            blocks += 1;
                            if blocks.is_multiple_of(block_stride) {
                                inv.run_hook(
                                    Hook::BlockEnd,
                                    &InvariantCtx::Exec(ExecView {
                                        machine: m,
                                        argus,
                                        entry_armed: inv.entry_armed(),
                                        block: Some(plan),
                                    }),
                                );
                            }
                            if commits >= commit_stride {
                                commits = 0;
                                inv.run_hook(
                                    Hook::Commit,
                                    &InvariantCtx::Exec(ExecView {
                                        machine: m,
                                        argus,
                                        entry_armed: inv.entry_armed(),
                                        block: None,
                                    }),
                                );
                            }
                        }
                    }
                    if m.cycle() > window {
                        break;
                    }
                    continue;
                }
            }
        }
        if let Some(cause) = wd.tick() {
            return FaultyOutcome {
                detection: None,
                exercised_at: inj.first_flip_cycle(),
                halted: false,
                digest: 0,
                hung: Some(cause),
                exec: m.take_exec_stats(),
            };
        }
        // Once the first detection is recorded the checker is done: only
        // `first` is ever reported, the fault has provably already fired
        // (a pre-flip run is bit-identical to the golden run, which raises
        // no false positives, so a detection implies a prior flip — and
        // `first_flip_cycle` keeps the first), and checker taps never feed
        // back into architectural state. Skipping `on_commit` from here on
        // changes no reported field and lets the run finish at bare-machine
        // speed — the bulk of a detected run's cycles come after detection.
        match m.step(inj) {
            StepOutcome::Committed(rec) => {
                if first.is_none() {
                    first = argus.on_commit(&rec, inj).into_iter().next();
                    if commit_stride != 0 && inj.first_flip_cycle().is_none() {
                        commits += 1;
                        if commits >= commit_stride {
                            commits = 0;
                            inv.run_hook(
                                Hook::Commit,
                                &InvariantCtx::Exec(ExecView {
                                    machine: m,
                                    argus,
                                    entry_armed: inv.entry_armed(),
                                    block: None,
                                }),
                            );
                        }
                        if rec.block_end {
                            blocks += 1;
                            if blocks.is_multiple_of(block_stride) {
                                inv.run_hook(
                                    Hook::BlockEnd,
                                    &InvariantCtx::Exec(ExecView {
                                        machine: m,
                                        argus,
                                        entry_armed: inv.entry_armed(),
                                        block: None,
                                    }),
                                );
                            }
                        }
                    }
                }
            }
            StepOutcome::Stalled => {
                if first.is_none() {
                    first = argus.on_stall(1, inj);
                }
            }
            StepOutcome::Halted => break,
        }
        if m.cycle() > window {
            break;
        }
    }
    // End-of-run scrub bounds the EDC detection latency for errors parked
    // in memory (§4.2). A delta-forked run passes its fork generation so
    // the scrub skips pages still holding golden-run content (valid EDC
    // by construction — observationally identical, see
    // `Argus::scrub_memory_dirty`).
    if first.is_none() {
        first = match scrub_since {
            Some(since) => argus.scrub_memory_dirty(m, data_base, inj, since),
            None => argus.scrub_memory(m, data_base, inj),
        };
    }
    FaultyOutcome {
        detection: first,
        exercised_at: inj.first_flip_cycle(),
        halted: m.halted(),
        digest: m.state_digest_cached(),
        hung: None,
        exec: m.take_exec_stats(),
    }
}

/// One faulty run from cold boot.
fn faulty_run(
    prog: &Program,
    cfg: &CampaignConfig,
    fault: argus_sim::fault::Fault,
    window: u64,
    wd: &mut InjectionWatchdog,
    inv: &InvariantEngine,
) -> FaultyOutcome {
    let mut m = Machine::new(cfg.mcfg);
    prog.load(&mut m);
    let mut argus = Argus::new(cfg.acfg);
    if let Some(d) = prog.entry_dcs {
        argus.expect_entry(d);
    }
    let mut inj = FaultInjector::with_fault(fault);
    faulty_loop(&mut m, &mut argus, &mut inj, window, prog.data_base, wd, inv, None)
}

/// Compiles the workload, takes the golden run, and samples the injection
/// points — the one-time setup shared by the serial and sharded engines.
///
/// # Panics
///
/// Panics if the configuration is inconsistent, the workload fails to
/// compile, or the golden run does not halt.
pub fn prepare_campaign(w: &Workload, cfg: &CampaignConfig) -> PreparedCampaign {
    assert!(cfg.mcfg.argus_mode, "campaigns run signature-embedded binaries");
    assert!(
        cfg.mcfg.mem.mem_bytes >= w.min_mem_bytes,
        "{} needs at least {} bytes of main memory but the campaign machine has {}; \
         size the configuration with CampaignConfig::sized_for",
        w.name,
        w.min_mem_bytes,
        cfg.mcfg.mem.mem_bytes,
    );
    assert_eq!(
        cfg.ecfg.sig_width, cfg.acfg.sig_width,
        "embedding and checker signature widths must agree"
    );
    let prog = compile_workload(w, &cfg.ecfg);
    let mut startup_warnings: Vec<String> = Vec::new();
    let (golden, snapshots) = match cfg.snapshot_every {
        Some(every) => {
            let (golden, store) = capture_store(&prog, cfg, every, &mut startup_warnings);
            (golden, Some(Arc::new(store)))
        }
        None => (golden_run(&prog, cfg.mcfg), None),
    };
    let window = golden.cycles * 2 + cfg.hang_slack;
    let inventory = full_inventory();
    let points = sample_points(&inventory, cfg.injections, cfg.seed);
    let nsnaps = snapshots.as_ref().map_or(0, |s| s.len());
    let invariants = Arc::new(InvariantEngine::new(cfg.invariants));
    invariants.set_entry_armed(prog.entry_dcs.is_some());
    if invariants.enabled() {
        if let Some(store) = &snapshots {
            invariants.run_hook(Hook::StoreOpen, &InvariantCtx::Store(store_view(store)));
        }
    }
    PreparedCampaign {
        prog,
        golden_digest: golden.digest,
        golden_cycles: golden.cycles,
        golden_exec: golden.exec,
        window,
        points,
        snapshots,
        snapshot_verified: (0..nsnaps).map(|_| AtomicBool::new(false)).collect(),
        snapshot_poisoned: (0..nsnaps).map(|_| AtomicBool::new(false)).collect(),
        snapshot_fallbacks: AtomicU64::new(0),
        snapshot_warnings: Mutex::new(startup_warnings),
        inert_template: OnceLock::new(),
        invariants,
    }
}

/// [`prepare_campaign`] for a process that already holds the campaign's
/// sealed ARGSTORE — a remote worker that fetched it from the coordinator
/// or found it in its on-disk artifact cache. The golden run is still
/// replayed (its digest and warmed plan cache are needed), but every
/// checkpoint capture and page intern — the expensive half at XL scale —
/// is skipped in favor of the adopted store.
///
/// # Errors
///
/// Returns an error when the store does not plausibly describe this
/// campaign: no snapshots, no cycle-0 checkpoint, checkpoints beyond the
/// golden run's end, or a cycle-0 fingerprint differing from the locally
/// reconstructed entry state. Callers fall back to [`prepare_campaign`],
/// which rebuilds the store from scratch.
///
/// # Panics
///
/// Panics on the same configuration inconsistencies as
/// [`prepare_campaign`].
pub fn prepare_campaign_with_store(
    w: &Workload,
    cfg: &CampaignConfig,
    store: Arc<MappedStore>,
) -> io::Result<PreparedCampaign> {
    assert!(cfg.mcfg.argus_mode, "campaigns run signature-embedded binaries");
    assert!(
        cfg.mcfg.mem.mem_bytes >= w.min_mem_bytes,
        "{} needs at least {} bytes of main memory but the campaign machine has {}; \
         size the configuration with CampaignConfig::sized_for",
        w.name,
        w.min_mem_bytes,
        cfg.mcfg.mem.mem_bytes,
    );
    let prog = compile_workload(w, &cfg.ecfg);
    let golden = golden_run(&prog, cfg.mcfg);
    let bad = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    if store.is_empty() {
        return bad("adopted store holds no snapshots".into());
    }
    if store.cycle(0) != Some(0) {
        return bad("adopted store is missing the cycle-0 checkpoint".into());
    }
    if let Some(last) = store.cycle(store.len() - 1) {
        if last > golden.cycles {
            return bad(format!(
                "adopted store checkpoints cycle {last}, past this binary's golden run \
                 ({} cycles) — version or config skew",
                golden.cycles
            ));
        }
    }
    let entry_print = {
        let mut m = Machine::new(cfg.mcfg);
        prog.load(&mut m);
        let mut argus = Argus::new(cfg.acfg);
        if let Some(d) = prog.entry_dcs {
            argus.expect_entry(d);
        }
        combined_fingerprint(&m, &argus)
    };
    if store.fingerprint(0) != Some(entry_print) {
        return bad(format!(
            "adopted store's entry fingerprint {:016x?} differs from the locally \
             reconstructed entry state {entry_print:016x} — refusing to fork from a \
             skewed campaign",
            store.fingerprint(0),
        ));
    }
    let window = golden.cycles * 2 + cfg.hang_slack;
    let inventory = full_inventory();
    let points = sample_points(&inventory, cfg.injections, cfg.seed);
    let snapshots = Some(store);
    let nsnaps = snapshots.as_ref().map_or(0, |s| s.len());
    let invariants = Arc::new(InvariantEngine::new(cfg.invariants));
    invariants.set_entry_armed(prog.entry_dcs.is_some());
    if invariants.enabled() {
        if let Some(store) = &snapshots {
            invariants.run_hook(Hook::StoreOpen, &InvariantCtx::Store(store_view(store)));
        }
    }
    Ok(PreparedCampaign {
        prog,
        golden_digest: golden.digest,
        golden_cycles: golden.cycles,
        golden_exec: golden.exec,
        window,
        points,
        snapshots,
        snapshot_verified: (0..nsnaps).map(|_| AtomicBool::new(false)).collect(),
        snapshot_poisoned: (0..nsnaps).map(|_| AtomicBool::new(false)).collect(),
        snapshot_fallbacks: AtomicU64::new(0),
        snapshot_warnings: Mutex::new(Vec::new()),
        inert_template: OnceLock::new(),
        invariants,
    })
}

/// Runs and classifies the `index`-th injection of a prepared campaign.
///
/// All randomness for one injection comes from its own
/// [`SplitMix64::stream`] keyed by `(seed, index)`, so the result depends
/// only on the campaign configuration and the index — never on which thread
/// runs it or in what order. This is what makes sharded campaigns
/// bit-identical to serial ones.
///
/// # Panics
///
/// Panics if `index` is out of range.
pub fn run_injection(
    prep: &PreparedCampaign,
    cfg: &CampaignConfig,
    index: usize,
) -> InjectionResult {
    run_injection_in(prep, cfg, index, &mut CampaignWorkspace::new())
}

/// [`run_injection`] routed through a worker's reusable
/// [`CampaignWorkspace`]: in a snapshot campaign consecutive calls on one
/// workspace share a single machine allocation (and its warm predecode
/// memo) and rewrite only touched pages. Results are identical
/// to [`run_injection`] — the workspace is a pure performance carrier.
pub fn run_injection_in(
    prep: &PreparedCampaign,
    cfg: &CampaignConfig,
    index: usize,
    ws: &mut CampaignWorkspace,
) -> InjectionResult {
    match run_injection_watched(prep, cfg, index, ws) {
        Ok(r) => r,
        Err(cause) => panic!("injection {index} hung ({})", cause.label()),
    }
}

/// [`run_injection_in`] with the watchdog verdict surfaced instead of
/// panicking: `Err` means the run blew its budget and has no
/// classification.
fn run_injection_watched(
    prep: &PreparedCampaign,
    cfg: &CampaignConfig,
    index: usize,
    ws: &mut CampaignWorkspace,
) -> Result<InjectionResult, HangCause> {
    let point = prep.points[index];
    let mut rng = SplitMix64::stream(cfg.seed ^ INJECTION_STREAM_SALT, index as u64);
    let arm_cycle = prep.draw_arm_cycle(&mut rng);
    let mut fault = point.fault(cfg.kind, arm_cycle);
    if rng.next_f64() < cfg.structural_mask {
        fault.sensitization = 0.0;
    }
    if cfg.shortcut_inert && fault.sensitization == 0.0 {
        let t = prep.inert_template(cfg);
        if let Some(cause) = t.hung {
            return Err(cause);
        }
        return Ok(classify(
            point,
            arm_cycle,
            t.halted && t.digest == prep.golden_digest,
            t.detection.clone(),
            None,
        ));
    }
    let mut wd = InjectionWatchdog::new(&cfg.watchdog_config(prep.golden_cycles));
    let inv = prep.invariants.as_ref();
    let out = if prep.fork_into(arm_cycle, &mut ws.ws, &mut ws.cache) {
        // Bit-identical to a cold boot because the fault is inert before
        // its arm cycle: `FaultInjector` passes every tap through
        // unchanged (and keeps no internal state) until `cycle >=
        // arm_cycle`, snapshots are taken at step boundaries, and the
        // snapshot's cycle stamp is at or before the arm cycle. Pages clean
        // since the fork generation still hold golden-run content; the
        // end-of-run scrub may skip them.
        let fork_gen = ws.ws.clean_generation();
        let (m, argus) = ws.ws.pair_mut().expect("fork_into populated the workspace");
        debug_assert!(m.cycle() <= fault.arm_cycle, "forked past the arm cycle");
        let mut inj = FaultInjector::with_fault(fault);
        faulty_loop(
            m,
            argus,
            &mut inj,
            prep.window,
            prep.prog.data_base,
            &mut wd,
            inv,
            Some(fork_gen),
        )
    } else {
        faulty_run(&prep.prog, cfg, fault, prep.window, &mut wd, inv)
    };
    ws.exec.merge(&out.exec);
    if let Some(cause) = out.hung {
        return Err(cause);
    }

    let masked = out.halted && out.digest == prep.golden_digest;
    Ok(classify(point, arm_cycle, masked, out.detection, out.exercised_at))
}

/// Table-1 classification from a run's observables.
fn classify(
    point: SamplePoint,
    arm_cycle: u64,
    masked: bool,
    detection: Option<DetectionEvent>,
    exercised_at: Option<u64>,
) -> InjectionResult {
    let detected = detection.is_some();
    let outcome = match (masked, detected) {
        (false, false) => Outcome::UnmaskedUndetected,
        (false, true) => Outcome::UnmaskedDetected,
        (true, false) => Outcome::MaskedUndetected,
        (true, true) => Outcome::MaskedDetected,
    };
    let detector = detection.as_ref().map(|d| d.checker);
    let detect_latency = match (&detection, exercised_at) {
        (Some(d), Some(x)) => Some(d.cycle.saturating_sub(x)),
        _ => None,
    };
    InjectionResult {
        point,
        arm_cycle,
        outcome,
        detector,
        detect_latency,
        exercised: exercised_at.is_some(),
    }
}

/// One supervised injection, *without* panic isolation: chaos hooks and
/// the watchdog apply, but a panic propagates to the caller. This is the
/// strict-mode path — and the body that [`run_injection_supervised`] wraps
/// in its panic guard.
pub fn run_injection_guarded(
    prep: &PreparedCampaign,
    cfg: &CampaignConfig,
    index: usize,
) -> SupervisedOutcome {
    run_injection_guarded_in(prep, cfg, index, &mut CampaignWorkspace::new())
}

/// [`run_injection_guarded`] routed through a worker's reusable
/// [`CampaignWorkspace`] (see [`run_injection_in`]).
pub fn run_injection_guarded_in(
    prep: &PreparedCampaign,
    cfg: &CampaignConfig,
    index: usize,
    ws: &mut CampaignWorkspace,
) -> SupervisedOutcome {
    if let Some(chaos) = &cfg.chaos {
        if chaos.panic_at.contains(&index) {
            panic!("chaos: injected panic at injection {index}");
        }
        if chaos.livelock_at.contains(&index) {
            // A real livelock, supervised by a real watchdog: spin until
            // it fires, exactly as the step loop would.
            let mut wd = InjectionWatchdog::new(&cfg.watchdog_config(prep.golden_cycles));
            loop {
                if let Some(cause) = wd.tick() {
                    return SupervisedOutcome::Hung { index: index as u64, cause };
                }
                std::hint::spin_loop();
            }
        }
    }
    match run_injection_watched(prep, cfg, index, ws) {
        Ok(r) => SupervisedOutcome::Classified(r),
        Err(cause) => SupervisedOutcome::Hung { index: index as u64, cause },
    }
}

/// One fully supervised injection: chaos hooks, watchdog, and panic
/// isolation. A panic anywhere inside the injection becomes a
/// [`SupervisedOutcome::Quarantined`] record instead of unwinding the
/// worker; all mutable run state is rebuilt from scratch (or from an
/// immutable snapshot) on the next call, so nothing leaks across runs.
pub fn run_injection_supervised(
    prep: &PreparedCampaign,
    cfg: &CampaignConfig,
    index: usize,
) -> SupervisedOutcome {
    run_injection_supervised_in(prep, cfg, index, &mut CampaignWorkspace::new())
}

/// [`run_injection_supervised`] routed through a worker's reusable
/// [`CampaignWorkspace`]. Unwind-safe: every memory mutation is
/// generation-stamped at write time, so a run that panics (or is
/// abandoned) mid-flight leaves only pages the next delta restore already
/// knows to rewrite, and core/checker state is rewritten in full on every
/// restore anyway.
pub fn run_injection_supervised_in(
    prep: &PreparedCampaign,
    cfg: &CampaignConfig,
    index: usize,
    ws: &mut CampaignWorkspace,
) -> SupervisedOutcome {
    match catch_supervised(|| run_injection_guarded_in(prep, cfg, index, ws)) {
        Ok(out) => out,
        Err(panic_msg) => SupervisedOutcome::Quarantined(QuarantineRecord {
            index: index as u64,
            seed: cfg.seed,
            panic_msg,
        }),
    }
}

/// Runs a full injection campaign on one workload, serially.
///
/// # Panics
///
/// Panics if the workload fails to compile or the golden run does not halt.
pub fn run_campaign(w: &Workload, cfg: &CampaignConfig) -> CampaignReport {
    let cfg = &cfg.sized_for(w);
    let prep = prepare_campaign(w, cfg);
    let mut results = Vec::with_capacity(prep.injections());
    let mut attribution = CounterSet::new();
    let mut ws = CampaignWorkspace::new();
    for index in 0..prep.injections() {
        let r = run_injection_in(&prep, cfg, index, &mut ws);
        if let Some(k) = r.detector {
            attribution.bump(&k.to_string());
        }
        results.push(r);
    }
    CampaignReport { results, kind: cfg.kind, attribution, golden_cycles: prep.golden_cycles }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_campaign(kind: FaultKind, n: usize) -> CampaignReport {
        run_campaign(
            &argus_workloads::stress(),
            &CampaignConfig { injections: n, kind, seed: 0xC0FE, ..Default::default() },
        )
    }

    #[test]
    fn campaign_runs_and_classifies() {
        let rep = small_campaign(FaultKind::Transient, 60);
        assert_eq!(rep.results.len(), 60);
        let total: usize = [
            Outcome::UnmaskedUndetected,
            Outcome::UnmaskedDetected,
            Outcome::MaskedUndetected,
            Outcome::MaskedDetected,
        ]
        .iter()
        .map(|&o| rep.count(o))
        .sum();
        assert_eq!(total, 60);
    }

    #[test]
    fn most_unmasked_errors_are_detected() {
        let rep = small_campaign(FaultKind::Permanent, 80);
        let unmasked =
            rep.count(Outcome::UnmaskedDetected) + rep.count(Outcome::UnmaskedUndetected);
        if unmasked >= 10 {
            assert!(
                rep.unmasked_coverage() > 0.80,
                "coverage {:.2} too low",
                rep.unmasked_coverage()
            );
        }
    }

    #[test]
    fn unexercised_transients_are_masked() {
        let rep = small_campaign(FaultKind::Transient, 60);
        for r in &rep.results {
            if !r.exercised {
                assert!(
                    matches!(r.outcome, Outcome::MaskedUndetected),
                    "unexercised fault at {} classified {:?}",
                    r.point.site.name,
                    r.outcome
                );
            }
        }
    }

    #[test]
    fn snapshot_forking_is_bit_identical_to_cold_boot() {
        let w = argus_workloads::stress();
        let cold_cfg = CampaignConfig { injections: 40, seed: 0xF0_0D, ..Default::default() };
        let snap_cfg = CampaignConfig { snapshot_every: Some(500), ..cold_cfg.clone() };

        let cold = prepare_campaign(&w, &cold_cfg);
        let snap = prepare_campaign(&w, &snap_cfg);
        assert_eq!(cold.golden_cycles(), snap.golden_cycles());
        let store = snap.snapshot_store().expect("snapshots were requested");
        assert!(store.len() > 2, "interval 500 over {} cycles", snap.golden_cycles());

        for index in 0..cold.injections() {
            let a = run_injection(&cold, &cold_cfg, index);
            let b = run_injection(&snap, &snap_cfg, index);
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "injection {index} diverged between cold-boot and forked paths"
            );
        }
    }

    #[test]
    fn snapshot_store_shares_untouched_pages() {
        let w = argus_workloads::stress();
        let cfg =
            CampaignConfig { injections: 1, snapshot_every: Some(1_000), ..Default::default() };
        let prep = prepare_campaign(&w, &cfg);
        let store = prep.snapshot_store().unwrap();
        let stats = store.stats();
        assert!(
            stats.dedup_hits > 0,
            "consecutive snapshots should share unchanged pages (stats: {stats:?})"
        );
        assert!(4 * 1024 * (stats.unique_pages as u64) >= stats.unique_bytes);
        assert!(store.materialized_bytes() > stats.unique_bytes, "dedup saved nothing");
    }

    /// One store, two byte sources: a campaign forking from the
    /// file-mapped store and one forking from the same image held in RAM
    /// (an owned buffer, as a campaign without a writable temp directory
    /// keeps it) classify every injection identically.
    #[test]
    fn mapped_store_campaign_is_bit_identical_to_ram() {
        let w = argus_workloads::stress();
        let cfg = CampaignConfig {
            injections: 40,
            seed: 0xF0_0D,
            snapshot_every: Some(500),
            ..Default::default()
        };
        let mapped = prepare_campaign(&w, &cfg);
        let map_store = mapped.snapshot_store().unwrap();
        assert!(map_store.path().is_some(), "the default store is file-backed");
        let image = MappedStore::from_bytes(map_store.file_bytes().to_vec()).unwrap();
        assert_eq!(image.path(), None);
        let ram = prepare_campaign_with_store(&w, &cfg, Arc::new(image)).unwrap();
        assert_eq!(ram.golden_cycles(), mapped.golden_cycles());
        let mut ram_ws = CampaignWorkspace::new();
        let mut map_ws = CampaignWorkspace::new();
        for index in 0..ram.injections() {
            let a = run_injection_in(&ram, &cfg, index, &mut ram_ws);
            let b = run_injection_in(&mapped, &cfg, index, &mut map_ws);
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "injection {index} diverged between RAM and mapped stores"
            );
        }
        assert_eq!(mapped.snapshot_fallbacks(), 0, "{:?}", mapped.take_snapshot_warnings());
        assert_eq!(ram.snapshot_fallbacks(), 0, "{:?}", ram.take_snapshot_warnings());
    }

    #[test]
    fn adopted_store_campaign_is_bit_identical() {
        let w = argus_workloads::stress();
        let cfg = CampaignConfig {
            injections: 25,
            seed: 0xF0_0D,
            snapshot_every: Some(500),
            ..Default::default()
        };
        let fresh = prepare_campaign(&w, &cfg);
        let store = fresh.snapshot_store().unwrap().clone();
        let adopted = prepare_campaign_with_store(&w, &cfg, store)
            .expect("a store from the same binary and config must adopt cleanly");
        assert_eq!(fresh.golden_cycles(), adopted.golden_cycles());
        let mut fresh_ws = CampaignWorkspace::new();
        let mut adopted_ws = CampaignWorkspace::new();
        for index in 0..fresh.injections() {
            let a = run_injection_in(&fresh, &cfg, index, &mut fresh_ws);
            let b = run_injection_in(&adopted, &cfg, index, &mut adopted_ws);
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "injection {index} diverged between the fresh and adopted stores"
            );
        }
        assert_eq!(adopted.snapshot_fallbacks(), 0, "{:?}", adopted.take_snapshot_warnings());

        // A store from a differently configured campaign must be refused
        // up front: a narrower signature width changes the embedded image,
        // so the cycle-0 fingerprints cannot match.
        let other = prepare_campaign(&w, &cfg);
        let store = other.snapshot_store().unwrap().clone();
        let bad_cfg = CampaignConfig {
            acfg: ArgusConfig { sig_width: 4, ..Default::default() },
            ecfg: EmbedConfig { sig_width: 4, ..Default::default() },
            ..cfg.clone()
        };
        let err = prepare_campaign_with_store(&w, &bad_cfg, store);
        assert!(err.is_err(), "a fingerprint-skewed store must not be adopted");
    }

    #[test]
    fn mapped_store_dedups_and_stays_out_of_core() {
        let w = argus_workloads::stress();
        let cfg =
            CampaignConfig { injections: 1, snapshot_every: Some(1_000), ..Default::default() };
        let prep = prepare_campaign(&w, &cfg);
        let store = prep.snapshot_store().unwrap();
        let stats = store.stats();
        assert!(stats.pages_total > stats.pages_distinct, "no cross-snapshot sharing: {stats:?}");
        assert!(stats.bytes_saved > 0, "{stats:?}");
        assert!(store.materialized_bytes() > 4096 * stats.pages_distinct);
        // The backing temp file is unlinked once mapped.
        let path = store.path().expect("the store is file-backed");
        assert!(!path.exists(), "campaign store file was not unlinked");
        // StoreOpen invariants ran clean over the fresh store.
        assert_eq!(prep.invariants().violations(), 0);
    }

    #[test]
    fn report_formats() {
        let rep = small_campaign(FaultKind::Transient, 20);
        let s = rep.to_string();
        assert!(s.contains("transient"));
        assert!(s.contains("coverage"));
    }

    #[test]
    fn supervised_matches_unsupervised_on_clean_runs() {
        let w = argus_workloads::stress();
        let cfg = CampaignConfig { injections: 12, seed: 0xBEEF, ..Default::default() };
        let prep = prepare_campaign(&w, &cfg);
        for index in 0..prep.injections() {
            let plain = run_injection(&prep, &cfg, index);
            match run_injection_supervised(&prep, &cfg, index) {
                SupervisedOutcome::Classified(r) => {
                    assert_eq!(format!("{plain:?}"), format!("{r:?}"), "injection {index}");
                }
                other => panic!("clean injection {index} became {other:?}"),
            }
        }
    }

    #[test]
    fn chaos_panic_is_quarantined_with_message() {
        let w = argus_workloads::stress();
        let cfg = CampaignConfig {
            injections: 4,
            chaos: Some(ChaosConfig { panic_at: vec![2], livelock_at: vec![] }),
            ..Default::default()
        };
        let prep = prepare_campaign(&w, &cfg);
        match run_injection_supervised(&prep, &cfg, 2) {
            SupervisedOutcome::Quarantined(q) => {
                assert_eq!(q.index, 2);
                assert_eq!(q.seed, cfg.seed);
                assert!(q.panic_msg.contains("chaos: injected panic at injection 2"));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // Neighbours are untouched.
        assert!(matches!(
            run_injection_supervised(&prep, &cfg, 1),
            SupervisedOutcome::Classified(_)
        ));
    }

    #[test]
    fn chaos_livelock_is_classified_hung() {
        let w = argus_workloads::stress();
        let cfg = CampaignConfig {
            injections: 4,
            chaos: Some(ChaosConfig { panic_at: vec![], livelock_at: vec![0] }),
            ..Default::default()
        };
        let prep = prepare_campaign(&w, &cfg);
        match run_injection_supervised(&prep, &cfg, 0) {
            SupervisedOutcome::Hung { index, cause } => {
                assert_eq!(index, 0);
                assert_eq!(cause, HangCause::CycleBudget);
            }
            other => panic!("expected hung, got {other:?}"),
        }
    }

    #[test]
    fn chaos_panic_propagates_in_guarded_mode() {
        let w = argus_workloads::stress();
        let cfg = CampaignConfig {
            injections: 2,
            chaos: Some(ChaosConfig { panic_at: vec![1], livelock_at: vec![] }),
            ..Default::default()
        };
        let prep = prepare_campaign(&w, &cfg);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_injection_guarded(&prep, &cfg, 1)
        }));
        assert!(caught.is_err(), "guarded (strict) mode must propagate panics");
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_cold_boot() {
        let w = argus_workloads::stress();
        let cold_cfg = CampaignConfig { injections: 20, seed: 0xD00D, ..Default::default() };
        let snap_cfg = CampaignConfig { snapshot_every: Some(500), ..cold_cfg.clone() };

        let cold = prepare_campaign(&w, &cold_cfg);
        let mut snap = prepare_campaign(&w, &snap_cfg);
        let nsnaps = snap.snapshot_store().unwrap().len();
        assert!(nsnaps > 1);
        // Corrupt every snapshot: all forks must now fall back.
        for i in 0..nsnaps {
            assert!(snap.corrupt_snapshot_for_test(i), "snapshot {i} not corruptible");
        }
        for index in 0..cold.injections() {
            let a = run_injection(&cold, &cold_cfg, index);
            let b = run_injection(&snap, &snap_cfg, index);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "injection {index} diverged");
        }
        assert!(snap.snapshot_fallbacks() > 0, "no injection hit the poisoned store");
        let warnings = snap.take_snapshot_warnings();
        assert!(!warnings.is_empty());
        assert!(warnings[0].contains("failed verification"));
        assert!(snap.take_snapshot_warnings().is_empty(), "warnings drain once");
    }

    /// Forking is a pure perf knob: a delta-forked campaign classifies
    /// every injection exactly as the same campaign without snapshots,
    /// with the inert shortcut off so every injection really runs.
    #[test]
    fn fork_strategies_are_bit_identical() {
        let w = argus_workloads::stress();
        let cold_cfg = CampaignConfig {
            injections: 40,
            seed: 0xF0_0D,
            shortcut_inert: false,
            ..Default::default()
        };
        let snap_cfg = CampaignConfig { snapshot_every: Some(500), ..cold_cfg.clone() };
        let delta = run_campaign(&w, &snap_cfg);
        let cold = run_campaign(&w, &cold_cfg);
        assert_eq!(format!("{:?}", delta.results), format!("{:?}", cold.results));
    }

    /// Both ways to fork from the mapped store agree: delta restores into
    /// one warm workspace (`run_campaign`) and full restores into a fresh
    /// workspace per injection (`run_injection`).
    #[test]
    fn mapped_store_fork_strategies_are_bit_identical() {
        let w = argus_workloads::stress();
        let cfg = CampaignConfig {
            injections: 30,
            seed: 0xF0_0D,
            snapshot_every: Some(500),
            shortcut_inert: false,
            ..Default::default()
        }
        .sized_for(&w);
        let delta = run_campaign(&w, &cfg);
        let prep = prepare_campaign(&w, &cfg);
        let full: Vec<_> = (0..prep.injections()).map(|i| run_injection(&prep, &cfg, i)).collect();
        assert_eq!(format!("{:?}", delta.results), format!("{full:?}"));
    }

    #[test]
    fn inert_shortcut_is_bit_identical() {
        let w = argus_workloads::stress();
        // structural_mask 1.0 exercises the shortcut on every injection;
        // the default 0.30 exercises the mixed case.
        for mask in [0.30, 1.0] {
            let base = CampaignConfig {
                injections: 30,
                seed: 0xAB_BA,
                snapshot_every: Some(500),
                structural_mask: mask,
                ..Default::default()
            };
            let fast = run_campaign(&w, &CampaignConfig { shortcut_inert: true, ..base.clone() });
            let slow = run_campaign(&w, &CampaignConfig { shortcut_inert: false, ..base.clone() });
            assert_eq!(
                format!("{:?}", fast.results),
                format!("{:?}", slow.results),
                "shortcut diverged at mask {mask}"
            );
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_workspaces() {
        let w = argus_workloads::stress();
        let cfg = CampaignConfig {
            injections: 25,
            seed: 0x1CE,
            snapshot_every: Some(500),
            ..Default::default()
        };
        let prep = prepare_campaign(&w, &cfg);
        let mut shared = CampaignWorkspace::new();
        for index in 0..prep.injections() {
            let reused = run_injection_in(&prep, &cfg, index, &mut shared);
            let fresh = run_injection(&prep, &cfg, index);
            assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "injection {index}");
        }
        let stats = shared.stats();
        assert!(stats.restores > 0, "snapshot campaign never used the workspace: {stats:?}");
        assert!(stats.pages_skipped > 0, "delta restores never skipped a clean page: {stats:?}");
    }

    #[test]
    fn watchdog_budget_scales_with_factor() {
        let cfg = CampaignConfig { inj_cycle_factor: 1.5, hang_slack: 100, ..Default::default() };
        let wd = cfg.watchdog_config(1000);
        assert_eq!(wd.cycle_budget, 1600);
        assert_eq!(wd.wall_limit, cfg.inj_wall_limit);
    }
}
