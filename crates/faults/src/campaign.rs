//! The error-injection campaign and Table-1 classification.

use crate::sites::{early_finish, full_inventory, sample_points, EarlyFinish, SamplePoint};
use argus_compiler::{compile, preplan, EmbedConfig, Mode, Program};
use argus_core::{Argus, ArgusConfig, ArgusState, CheckerKind, DetectionEvent};
use argus_invariants::{
    ExecView, Hook, InvariantCtx, InvariantEngine, InvariantMode, SnapshotView, StoreView,
};
use argus_machine::snapshot::Fnv64;
pub use argus_machine::ExecStats;
use argus_machine::{CoreState, Machine, MachineConfig, SnapshotState, StepOutcome, TapSet};
use argus_sim::fault::{Fault, FaultInjector, FaultKind};
use argus_sim::rng::SplitMix64;
use argus_sim::stats::CounterSet;
use argus_sim::supervise::{catch_supervised, HangCause, InjectionWatchdog, WatchdogConfig};
use argus_snapshot::{
    combined_fingerprint, MappedStore, MappedStoreWriter, PageCache, Workspace, WorkspaceStats,
    PAGE_WORDS,
};
use argus_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::ops::Range;
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
    /// keeps the cold-boot path, where with `golden_shortcuts` on each
    /// worker's rolling golden cursor replays that prefix once per chunk
    /// instead. Results are bit-identical either way — this only trades a
    /// golden-run capture for injection throughput.
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
    /// Read verdicts off the campaign's no-fault run instead of simulating
    /// what is provably its suffix. Three short-cuts share the toggle:
    /// - a structurally masked injection (`sensitization == 0`) never
    ///   fires (`FaultInjector::fire_mask` draws against a zero
    ///   sensitization), so its whole run is the no-fault run;
    /// - a fault on a *dead site* — a machine site the no-fault run never
    ///   taps at or after the fault's arm cycle — never fires either (a
    ///   fault draws, expires and flips only on a tap of its own site), so
    ///   its whole run is the no-fault run too (see DESIGN.md);
    /// - a spent transient (flipped, nothing left armed) stops at the
    ///   first golden block end where its full state matches the no-fault
    ///   run's (reconvergence, see DESIGN.md), and takes that run's end.
    ///
    /// The same run's block ends are where a cold-boot injection's rolling
    /// golden cursor stops, so the cursor rides on this toggle too.
    ///
    /// Bit-identical by construction (the equivalence suites pin this
    /// too); the toggle exists for those tests and for A/B measurements.
    pub golden_shortcuts: bool,
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
    /// Injection indices that panic mid-run (halfway through a cursor
    /// walk when the injection walks one).
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
            golden_shortcuts: true,
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
    /// Process-unique id, so a workspace never resets a pair booted for
    /// another campaign to this one's kept entry state.
    uid: u64,
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
    /// Lazily computed no-fault run backing the golden short-cuts (see
    /// [`CampaignConfig::golden_shortcuts`]). One replay of the workload
    /// from the entry state, on the resident pair of whichever worker
    /// needs it first, shared by every worker.
    golden_template: OnceLock<GoldenTemplate>,
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
/// structurally masked fault (`sensitization == 0.0`), or one on a site
/// this run never taps at or after the fault's arm cycle
/// ([`GoldenTemplate::never_taps`]), never corrupts any tapped value, so
/// its run is observably identical to this template — including the
/// end-of-run scrub and the watchdog verdict, both of which the template
/// run exercises for real. A spent transient whose state equals the
/// template's at one of its `keys` continues exactly as the template did
/// from there, so it ends the same way too.
#[derive(Debug, Clone)]
struct GoldenTemplate {
    detection: Option<DetectionEvent>,
    halted: bool,
    digest: u64,
    hung: Option<HangCause>,
    /// Reconvergence keys in cycle order; empty when the run hung.
    keys: Vec<TraceKey>,
    /// For every machine [`TapSet`] bit, the end cycle of the last block
    /// or step that could tap that site (0: none could).
    last_tap: [u64; TapSet::BITS],
    /// Watchdog budget left when the run ended.
    end_budget: u64,
    /// Cycle at which the run ended.
    end_cycle: u64,
    /// Cycle of every block end of this run, ascending: where the rolling
    /// golden cursor stops (DESIGN.md "Rolling golden cursor"). Empty when
    /// the run hung.
    block_ends: Vec<u64>,
}

impl GoldenTemplate {
    /// Whether this run never taps `fault`'s site at or after its arm
    /// cycle: every block or step that could tap the site ended before
    /// the fault armed. A step taps at its start cycle, below the end
    /// cycle recorded, so the test errs only toward running the fault.
    /// Checker sites (the foreign bit) are never dead: the template does
    /// not record the checker's taps.
    fn never_taps(&self, fault: &Fault) -> bool {
        let site = TapSet::site(fault.site);
        !site.has_foreign() && site.bits().all(|b| self.last_tap[b] < fault.arm_cycle)
    }

    /// Where `fault`'s run is decided by this run ([`early_finish`]). Never
    /// when this run hung: a forked faulty run starts with a fresh
    /// watchdog and may outlast it.
    fn early_finish(&self, fault: &Fault, sig_width: u32) -> EarlyFinish {
        if self.hung.is_some() {
            return EarlyFinish::Never;
        }
        early_finish(fault, sig_width)
    }

    /// The last block end of this run at or before `arm_cycle` (0 when
    /// none): where a cursor walk for a fault arming there stops.
    fn walk_target(&self, arm_cycle: u64) -> u64 {
        let n = self.block_ends.partition_point(|&c| c <= arm_cycle);
        n.checked_sub(1).map_or(0, |i| self.block_ends[i])
    }
}

/// Notes that the no-fault run could tap every site in `taps` up to
/// `cycle` (the end of the block or step that could tap them).
fn note_taps(last_tap: &mut [u64; TapSet::BITS], taps: TapSet, cycle: u64) {
    for b in taps.bits() {
        // Seeded bug: keep each site's first possible tap instead of its
        // last, so faults arming between the two are wrongly short-cut.
        if argus_sim::canary::enabled("canary-dead-site-first-tap") && last_tap[b] != 0 {
            continue;
        }
        last_tap[b] = cycle;
    }
}

/// The site a stalled cycle taps.
const STALL_TAPS: TapSet = TapSet::site(argus_machine::sites::CTL_STALL_RELEASE);

/// Minimum golden-run cycles between two reconvergence keys. Keys land
/// on block ends, so the actual spacing is this plus the rest of a block.
const KEY_SPACING: u64 = 256;

/// The no-fault run's full state at one of its block ends, as far as it
/// decides the rest of a run: what a spent faulty run must equal at the
/// same cycle to have rejoined the golden run. Compared cheapest tier
/// first; the architectural tier is kept verbatim so most mismatches cost
/// a few word compares.
#[derive(Debug, Clone)]
struct TraceKey {
    cycle: u64,
    regs: [u32; 32],
    pc: u32,
    flag: bool,
    retired: u64,
    /// [`Machine::microarch_digest`]: the rest of the core and the caches.
    micro: u64,
    /// Memory words and EDC tags ([`memory_digest`]).
    mem: u64,
    /// The checker's [`SnapshotState::state_fingerprint`].
    checker: u64,
    /// Watchdog budget left when the golden run passed this key.
    budget: u64,
}

impl TraceKey {
    fn capture(m: &mut Machine, argus: &Argus, budget: u64) -> Self {
        Self {
            cycle: m.cycle(),
            regs: *m.regs(),
            pc: m.pc(),
            flag: m.flag(),
            retired: m.retired(),
            micro: m.microarch_digest(),
            mem: memory_digest(m),
            checker: argus.state_fingerprint(),
            budget,
        }
    }

    /// Whether the pair, at this key's cycle, holds the state the golden
    /// run held here. The checker counts only while `with_checker` (no
    /// detection yet): after one, the run never consults it again.
    fn matches(&self, m: &mut Machine, argus: &Argus, with_checker: bool) -> bool {
        self.regs == *m.regs()
            && self.pc == m.pc()
            && self.flag == m.flag()
            && self.retired == m.retired()
            && self.micro == m.microarch_digest()
            && (!with_checker
                || argus_sim::canary::enabled("canary-reconverge-skip-checker")
                || self.checker == argus.state_fingerprint())
            && self.mem == memory_digest(m)
    }
}

/// Digest of main memory's words and EDC tags, from the per-page hash
/// caches: only pages written since the last digest are rehashed.
fn memory_digest(m: &mut Machine) -> u64 {
    let mem = m.mem_mut().memory_mut();
    let mut h = Fnv64::new();
    h.mix(mem.words_digest_cached());
    h.mix(mem.tags_digest_cached());
    h.finish()
}

/// What [`faulty_loop`] does with the golden trace.
enum Trace<'a> {
    /// Run to the end.
    Off,
    /// The no-fault template run: record a key at block ends, the last
    /// cycle each machine site could be tapped, and every block end.
    Record {
        keys: &'a mut Vec<TraceKey>,
        last_tap: &'a mut [u64; TapSet::BITS],
        block_ends: &'a mut Vec<u64>,
    },
    /// A cursor walk along the no-fault run: stop at the first step
    /// boundary at or past this cycle.
    Walk(u64),
    /// Stop at the first key a spent run's state matches, or where the
    /// [`EarlyFinish`] rule decides the run, and end as the template did.
    Follow(&'a GoldenTemplate, EarlyFinish),
}

/// A worker's reusable injection state: one resident machine + checker
/// pair, held by the delta-restore [`Workspace`], that every injection the
/// worker runs rewrites in place — forked injections by snapshot restore,
/// cold-boot injections by a resume of the rolling golden cursor or a
/// reset to the load image. One per worker thread; dropping it just frees
/// the resident machine.
#[derive(Debug, Default)]
pub struct CampaignWorkspace {
    ws: Workspace,
    /// What a reset to the campaign's entry state restores, and the
    /// rolling golden cursor; captured at this workspace's first cold boot
    /// for the campaign.
    entry: Option<EntryImage>,
    /// Resident decoded-page cache for store restores. This — not the
    /// store — is what bounds a worker's peak RSS: page bodies stay on
    /// disk behind the shared map and only the entries here are
    /// materialized.
    cache: PageCache,
    /// Predecode/plan-cache counters accumulated over every injection run
    /// through this workspace, forked or cold-booted.
    exec: ExecStats,
}

/// The entry state a resident pair resets to, captured through
/// [`SnapshotState`] from the pair's true cold boot.
#[derive(Debug)]
struct EntryImage {
    /// [`PreparedCampaign`] uid and configuration the pair was booted for.
    campaign: u64,
    acfg: ArgusConfig,
    core: CoreState,
    checker: ArgusState,
    /// Memory write generation stamped right after the last boot or reset:
    /// pages not dirty since still hold load-time content. `None` once a
    /// snapshot restore has had the pair (it may even have rebuilt it), so
    /// the next reset reloads every page.
    clean_gen: Option<u64>,
    /// The cold boot's combined fingerprint, checked after every reset
    /// under `debug_assertions` (0 in release builds).
    fingerprint: u64,
    /// The rolling golden cursor, when one sits on the no-fault run.
    cursor: Option<Cursor>,
}

/// A rolling checkpoint on the campaign's no-fault run (DESIGN.md "Rolling
/// golden cursor"): the resident pair's state at one of the run's block
/// ends, from which the next cold-boot injection arming at or after it
/// resumes instead of replaying the prefix from entry.
#[derive(Debug)]
struct Cursor {
    /// The no-fault run's block end the checkpoint sits on.
    cycle: u64,
    /// Watchdog ticks the no-fault run spent from entry to `cycle`.
    ticks: u64,
    core: CoreState,
    checker: ArgusState,
    /// Every page the no-fault run wrote between entry and `cycle`, as it
    /// stands at `cycle`; every other page holds its load-time contents.
    pages: BTreeMap<usize, PageCopy>,
    /// Memory write generation stamped right after the last capture or
    /// restore: pages not dirty since hold the checkpoint's contents.
    clean_gen: u64,
    /// The pair's state at capture, matched after every restore under
    /// `debug_assertions` (`None` in release builds).
    check: Option<TraceKey>,
}

/// One memory page's words and EDC tags.
#[derive(Debug)]
struct PageCopy {
    words: Box<[u32]>,
    tags: Box<[bool]>,
}

impl Cursor {
    /// Checkpoints the pair, which sits on the no-fault run: `pages` (the
    /// previous checkpoint's copies) plus every page written since
    /// generation `since`.
    fn capture(
        m: &mut Machine,
        argus: &Argus,
        ticks: u64,
        mut pages: BTreeMap<usize, PageCopy>,
        since: u64,
    ) -> Self {
        let mem = m.mem().memory();
        for page in (0..mem.page_count()).filter(|&p| mem.page_dirty_since(p, since)) {
            let r = mem.page_word_range(page);
            let copy = pages.entry(page).or_insert_with(|| PageCopy {
                words: vec![0; r.len()].into(),
                tags: vec![false; r.len()].into(),
            });
            copy.words.copy_from_slice(&mem.words()[r.clone()]);
            copy.tags.copy_from_slice(&mem.tags()[r]);
        }
        let check = cfg!(debug_assertions).then(|| TraceKey::capture(m, argus, 0));
        Self {
            cycle: m.cycle(),
            ticks,
            core: m.capture_core(),
            checker: argus.capture_state(),
            pages,
            clean_gen: m.mem_mut().memory_mut().advance_generation(),
            check,
        }
    }

    /// Puts the pair back at the checkpoint: each page written since the
    /// last capture or restore gets its copy, or its load-time contents
    /// when the no-fault run had not written it; core, caches and checker
    /// state are restored. Returns the write generation stamped right
    /// after, which becomes the checkpoint's `clean_gen`.
    fn restore(&self, prog: &Program, m: &mut Machine, argus: &mut Argus) -> u64 {
        // Seeded bug: leave one page the no-fault run wrote as the last
        // run left it.
        let mut skip = argus_sim::canary::enabled("canary-cursor-skips-walk-page");
        for page in 0..m.mem().memory().page_count() {
            if !m.mem().memory().page_dirty_since(page, self.clean_gen) {
                continue;
            }
            match self.pages.get(&page) {
                Some(_) if skip => skip = false,
                Some(copy) => {
                    let start = m.mem().memory().page_word_range(page).start;
                    m.mem_mut().memory_mut().restore_words(start, &copy.words, &copy.tags);
                }
                None => prog.reload_page(m, page),
            }
        }
        m.restore_core(&self.core);
        argus.restore_state(&self.checker);
        if let Some(k) = &self.check {
            assert!(k.matches(m, argus, true), "cursor restore does not match its capture");
        }
        m.mem_mut().memory_mut().advance_generation()
    }
}

impl CampaignWorkspace {
    /// An empty workspace; the first injection populates it.
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
    /// seeded independently, so peeking here consumes nothing).
    pub fn arm_cycle_of(&self, cfg: &CampaignConfig, index: usize) -> u64 {
        let mut rng = SplitMix64::stream(cfg.seed ^ INJECTION_STREAM_SALT, index as u64);
        self.draw_arm_cycle(&mut rng)
    }

    /// The indices of a leased chunk in the order every executor runs
    /// them: by arm cycle. Injections that arm near each other fork from
    /// the same snapshot, so a warm workspace rewrites only run-dirty
    /// pages instead of cross-snapshot diffs. Arm cycles come from
    /// per-index RNG streams, so index order itself carries no such
    /// locality. Pure per-index — execution order never changes any
    /// result.
    pub fn arm_order(&self, cfg: &CampaignConfig, range: Range<usize>) -> Vec<usize> {
        let mut order: Vec<usize> = range.collect();
        order.sort_by_cached_key(|&i| self.arm_cycle_of(cfg, i));
        order
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
    /// what every cold-booted injection starts from.
    pub fn entry_state(&self, cfg: &CampaignConfig) -> (Machine, Argus) {
        boot(&self.prog, cfg)
    }

    /// `combined_fingerprint` of [`PreparedCampaign::entry_state`].
    /// Distributed campaigns put it in the manifest so a remote worker can
    /// verify that its locally reconstructed state is bit-identical to the
    /// coordinator's before leasing any work (catching version skew, a
    /// different workload, or a diverging compiler).
    pub fn entry_fingerprint(&self, cfg: &CampaignConfig) -> u64 {
        let (m, argus) = self.entry_state(cfg);
        combined_fingerprint(&m, &argus)
    }

    /// Puts `ws`'s resident pair at the entry state and returns the memory
    /// write generation stamped right after: pages not dirty since then
    /// hold load-time content, with valid EDC, so the end-of-run scrub may
    /// skip them. The workspace's first boot for this campaign is a true
    /// cold boot ([`PreparedCampaign::entry_state`]) whose core and checker
    /// state it keeps. Every later boot resets the same pair in place: it
    /// reloads only the pages dirtied since the previous boot
    /// ([`Program::reload_pages`]) and restores core and checker state from
    /// the kept copies. The plan cache and predecode memo stay warm; plans
    /// over reloaded pages are re-validated like after any write. Not a
    /// snapshot restore, so [`CampaignWorkspace::stats`] is untouched.
    fn boot_into(&self, cfg: &CampaignConfig, ws: &mut CampaignWorkspace) -> u64 {
        if let Some((e, m, argus)) = self.kept_entry(cfg, ws) {
            self.prog.reload_pages(m, e.clean_gen.unwrap_or(0));
            m.restore_core(&e.core);
            argus.restore_state(&e.checker);
            let clean_gen = m.mem_mut().memory_mut().advance_generation();
            e.clean_gen = Some(clean_gen);
            debug_assert_eq!(
                combined_fingerprint(m, argus),
                e.fingerprint,
                "entry reset does not match a fresh boot"
            );
            return clean_gen;
        }
        let (m, argus) = ws.ws.reboot(|| self.entry_state(cfg));
        let clean_gen = m.mem_mut().memory_mut().advance_generation();
        ws.entry = Some(EntryImage {
            campaign: self.uid,
            acfg: cfg.acfg,
            core: m.capture_core(),
            checker: argus.capture_state(),
            clean_gen: Some(clean_gen),
            fingerprint: if cfg!(debug_assertions) { combined_fingerprint(m, argus) } else { 0 },
            cursor: None,
        });
        clean_gen
    }

    /// `ws`'s entry image and resident pair, when both were booted for
    /// this campaign and configuration.
    fn kept_entry<'w>(
        &self,
        cfg: &CampaignConfig,
        ws: &'w mut CampaignWorkspace,
    ) -> Option<(&'w mut EntryImage, &'w mut Machine, &'w mut Argus)> {
        let e = ws
            .entry
            .as_mut()
            .filter(|e| e.campaign == self.uid && e.core.cfg == cfg.mcfg && e.acfg == cfg.acfg)?;
        let (m, a) =
            ws.ws.pair_mut().filter(|(m, a)| m.config() == cfg.mcfg && a.config() == cfg.acfg)?;
        Some((e, m, a))
    }

    /// Puts `ws`'s resident pair on the no-fault run at its last block end
    /// at or before `arm_cycle`, through the worker's rolling golden cursor
    /// (DESIGN.md "Rolling golden cursor"). A cursor at or before the arm
    /// cycle is restored; otherwise the pair resets to entry. Either way
    /// the no-fault run is then walked on to the block end and
    /// re-checkpointed. Returns the memory write generation stamped right
    /// after (pages not dirty since hold the no-fault run's contents) and
    /// the watchdog ticks the no-fault run spent from entry to there.
    /// `chaos` names an injection that panics halfway through its walk.
    fn resume_cursor(
        &self,
        cfg: &CampaignConfig,
        ws: &mut CampaignWorkspace,
        t: &GoldenTemplate,
        arm_cycle: u64,
        chaos: Option<usize>,
    ) -> (u64, u64) {
        let target = t.walk_target(arm_cycle);
        // Taken out for the walk: a run that panics before it is put back
        // leaves no cursor, and the next injection resets to entry.
        let kept = self
            .kept_entry(cfg, ws)
            .and_then(|(e, ..)| e.cursor.take())
            .filter(|c| c.cycle <= arm_cycle);
        let (pages, ticks, since) = match kept {
            Some(c) => {
                let (m, argus) = ws.ws.pair_mut().expect("a kept cursor has its pair");
                let clean_gen = c.restore(&self.prog, m, argus);
                if target <= c.cycle {
                    let ticks = c.ticks;
                    let e = ws.entry.as_mut().expect("a kept cursor has its entry image");
                    e.cursor = Some(Cursor { clean_gen, ..c });
                    return (clean_gen, ticks);
                }
                (c.pages, c.ticks, clean_gen)
            }
            None => {
                ws.exec.cursor_resets += 1;
                let clean_gen = self.boot_into(cfg, ws);
                if target == 0 {
                    return (clean_gen, 0);
                }
                (BTreeMap::new(), 0, clean_gen)
            }
        };
        let budget = cfg.watchdog_config(self.golden_cycles);
        let mut wd = InjectionWatchdog::new(&budget);
        let (m, argus) = ws.ws.pair_mut().expect("restored or booted above");
        let start = m.cycle();
        let mut walk = |m: &mut Machine, argus: &mut Argus, to: u64| {
            let out = faulty_loop(
                m,
                argus,
                &mut FaultInjector::none(),
                self.window,
                self.prog.data_base,
                &mut wd,
                &self.invariants,
                since,
                Trace::Walk(to),
            );
            ws.exec.merge(&out.exec);
            out.hung
        };
        if let Some(index) = chaos {
            walk(m, argus, t.walk_target(start + (target - start) / 2));
            ws.exec.cursor_walk_cycles += m.cycle() - start;
            chaos_panic(index);
        }
        let hung = walk(m, argus, target);
        if hung.is_some() || m.cycle() > arm_cycle {
            ws.exec.cursor_overshoots += 1;
            return (self.boot_into(cfg, ws), 0);
        }
        ws.exec.cursor_walk_cycles += m.cycle() - start;
        let ticks = ticks + budget.cycle_budget - wd.remaining();
        let cursor = Cursor::capture(m, argus, ticks, pages, since);
        let clean_gen = cursor.clean_gen;
        ws.entry.as_mut().expect("restored or booted above").cursor = Some(cursor);
        (clean_gen, ticks)
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
    fn fork_into(&self, arm_cycle: u64, ws: &mut CampaignWorkspace) -> bool {
        let Some(store) = self.snapshots.as_ref() else { return false };
        let Some(i) = store.nearest_index_at_or_before(arm_cycle) else { return false };
        if self.snapshot_poisoned[i].load(Ordering::Relaxed) {
            self.snapshot_fallbacks.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if let Some(e) = ws.entry.as_mut() {
            e.clean_gen = None;
            e.cursor = None;
        }
        let (ws, cache) = (&mut ws.ws, &mut ws.cache);
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

    /// The no-fault run, computed on first use by replaying the workload
    /// once from the entry state, on `ws`'s resident pair, through the
    /// real faulty loop (watchdog, scrub and all) with a pass-through
    /// injector, recording reconvergence keys, each site's last possible
    /// tap and every block end on the way.
    fn golden_template(&self, cfg: &CampaignConfig, ws: &mut CampaignWorkspace) -> &GoldenTemplate {
        self.golden_template.get_or_init(|| {
            let mut wd = InjectionWatchdog::new(&cfg.watchdog_config(self.golden_cycles));
            let clean_gen = self.boot_into(cfg, ws);
            let (m, argus) = ws.ws.pair_mut().expect("boot_into populated the workspace");
            let mut inj = FaultInjector::none();
            let mut keys = Vec::new();
            let mut last_tap = [0; TapSet::BITS];
            let mut block_ends = Vec::new();
            let out = faulty_loop(
                m,
                argus,
                &mut inj,
                self.window,
                self.prog.data_base,
                &mut wd,
                &self.invariants,
                clean_gen,
                Trace::Record {
                    keys: &mut keys,
                    last_tap: &mut last_tap,
                    block_ends: &mut block_ends,
                },
            );
            if out.hung.is_some() {
                keys.clear();
                block_ends.clear();
            }
            GoldenTemplate {
                detection: out.detection,
                halted: out.halted,
                digest: out.digest,
                hung: out.hung,
                keys,
                last_tap,
                end_budget: wd.remaining(),
                end_cycle: m.cycle(),
                block_ends,
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

/// Source of [`PreparedCampaign`] uids.
static NEXT_CAMPAIGN_UID: AtomicU64 = AtomicU64::new(1);

/// The campaign's one cold boot: a fresh machine with the compiled image
/// loaded and a checker armed with the entry DCS, at cycle 0.
fn boot(prog: &Program, cfg: &CampaignConfig) -> (Machine, Argus) {
    let mut m = Machine::new(cfg.mcfg);
    prog.load(&mut m);
    let mut argus = Argus::new(cfg.acfg);
    if let Some(d) = prog.entry_dcs {
        argus.expect_entry(d);
    }
    (m, argus)
}

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
    cfg: &CampaignConfig,
    sink: &mut MappedStoreWriter,
) -> io::Result<GoldenRun> {
    let (mut m, mut argus) = boot(prog, cfg);
    sink.capture_now(&mut m, &argus)?;
    preplan(prog, &mut m);
    let mut inj = FaultInjector::none();
    loop {
        // Checker-batched block execution: the golden run is pristine, so
        // whenever the machine can retire a compiled block and the checker
        // can verify it as one batch (`block_ready`), both advance in one
        // call. Snapshots land on block boundaries (or, after a block bailed
        // on a self-modifying store, mid-block) — step boundaries either
        // way, so forked injections resume exactly as before.
        if let Some(gate) = m.plan_block(&inj, 500_000_000) {
            if argus.block_ready(&gate, &inj) {
                if let Some(commit) = m.exec_block(&mut inj, &gate) {
                    let plan = m.plan_at(gate.addr).expect("an executed block keeps its plan");
                    let events = argus.on_block(plan, &commit, &mut inj);
                    debug_assert!(events.is_empty(), "golden run raised a false positive");
                    sink.maybe_capture(&mut m, &argus)?;
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
        sink.maybe_capture(&mut m, &argus)?;
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
        let golden = golden_run_with_snapshots(prog, cfg, &mut sink)?;
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

/// The faulty-run step loop, shared by the cold-boot, cursor and forked
/// paths and by the cursor's walks.
///
/// The watchdog is ticked once per iteration *before* stepping, so it
/// bounds the loop even when a fault corrupts the cycle counter that the
/// `window` check reads. `clean_gen` is the memory write generation
/// stamped when the pair was last forked or booted: pages not dirty since
/// still hold golden-run (or load-time) content.
///
/// `trace` records the golden trace (template run), walks the no-fault run
/// to a cycle (a cursor walk, with a pass-through injector), or follows
/// the golden trace: once the fault is spent — it has flipped and no
/// fault is left live — the run is compared against each key whose cycle
/// it stops at, and on a match it ends with the template's outcome
/// instead of re-simulating the template's suffix. Only when the watchdog
/// has more budget left than that suffix took, so the hung verdict cannot
/// change.
#[allow(clippy::too_many_arguments)]
fn faulty_loop(
    m: &mut Machine,
    argus: &mut Argus,
    inj: &mut FaultInjector,
    window: u64,
    data_base: u32,
    wd: &mut InjectionWatchdog,
    inv: &InvariantEngine,
    clean_gen: u64,
    mut trace: Trace<'_>,
) -> FaultyOutcome {
    let mut first: Option<DetectionEvent> = None;
    // Cycle of the next key to record or check (one compare per
    // iteration), the index of that key when following, and whether the
    // last iteration ended a block (where the template records).
    let mut next_key = match &trace {
        Trace::Off => u64::MAX,
        // Every iteration: each block end is recorded.
        Trace::Record { .. } => 0,
        Trace::Follow(t, _) => t.keys.first().map_or(u64::MAX, |k| k.cycle),
        Trace::Walk(target) => *target,
    };
    let (early, template) = match &trace {
        Trace::Follow(t, early) => (*early, Some(*t)),
        _ => (EarlyFinish::Never, None),
    };
    // The counters this loop keeps itself, beside the machine's.
    let mut own = ExecStats::default();
    let mut cursor = 0;
    let mut at_block_end = false;
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
        // The one per-iteration test of the early-finish rule: a permanent
        // fault whose run the no-fault run now decides ends as that run
        // did (DESIGN.md "Early finish for permanent faults").
        let decided = match early {
            EarlyFinish::Never => false,
            EarlyFinish::AtDetection => first.is_some(),
            EarlyFinish::AtFirstFlip => inj.first_flip_cycle().is_some(),
        };
        if decided {
            let t = template.expect("an early finish follows the template");
            own.checker_only = u64::from(early == EarlyFinish::AtDetection);
            own.masked_bits = u64::from(early == EarlyFinish::AtFirstFlip);
            return FaultyOutcome {
                detection: first.or_else(|| t.detection.clone()),
                exercised_at: inj.first_flip_cycle(),
                halted: t.halted,
                digest: t.digest,
                hung: t.hung,
                exec: drain_exec(m, &own),
            };
        }
        if m.cycle() >= next_key {
            match &mut trace {
                Trace::Off => {}
                Trace::Walk(_) => {
                    return FaultyOutcome {
                        detection: first,
                        exercised_at: None,
                        halted: false,
                        digest: 0,
                        hung: None,
                        exec: drain_exec(m, &own),
                    };
                }
                Trace::Record { keys, block_ends, .. } => {
                    if at_block_end {
                        let cycle = m.cycle();
                        block_ends.push(cycle);
                        if keys.last().map_or(KEY_SPACING, |k| k.cycle + KEY_SPACING) <= cycle {
                            keys.push(TraceKey::capture(m, argus, wd.remaining()));
                        }
                    }
                }
                Trace::Follow(t, _) => {
                    let cycle = m.cycle();
                    while t.keys.get(cursor).is_some_and(|k| k.cycle < cycle) {
                        cursor += 1;
                    }
                    if let Some(k) = t.keys.get(cursor).filter(|k| k.cycle == cycle) {
                        cursor += 1;
                        if inj.first_flip_cycle().is_some()
                            && inj.live_faults().next().is_none()
                            && wd.remaining() > k.budget - t.end_budget
                            && k.matches(m, argus, first.is_none())
                        {
                            own.converged = 1;
                            own.converged_cycles_saved = t.end_cycle.saturating_sub(cycle);
                            return FaultyOutcome {
                                detection: first.or_else(|| t.detection.clone()),
                                exercised_at: inj.first_flip_cycle(),
                                halted: t.halted,
                                digest: t.digest,
                                hung: None,
                                exec: drain_exec(m, &own),
                            };
                        }
                    }
                    next_key = t.keys.get(cursor).map_or(u64::MAX, |k| k.cycle);
                }
            }
        }
        // Block-compiled fast path: retire a whole basic block per loop
        // iteration when every gate passes. `plan_block` refuses unless the
        // block provably finishes inside `window` and no live fault armed
        // by its end sits on a site every op taps; ops that can tap a live
        // fault's site (`gate.tapped`) are interpreted inside the block.
        // The checker — while still live — additionally requires a block
        // it can verify as one batch (`block_ready`: pristine run, no armed
        // checker-site fault, no tapped op, simple block, watchdog checker
        // idle). Post-detection only the machine-side gates apply,
        // mirroring the skipped `on_commit` below, so that is where tapped
        // blocks run. `tick_many` settles the supervision-watchdog debt for
        // the interpreter iterations the block replaced (a block never runs
        // while a stall fault is armed — every op taps the stall site — so
        // retired ops == replaced iterations), keeping the hung/not-hung
        // verdict bit-identical to the one-step loop.
        let mut offered = false;
        if let Some(gate) = m.plan_block(inj, window) {
            offered = true;
            if first.is_some() || argus.block_ready(&gate, inj) {
                if let Some(commit) = m.exec_block(inj, &gate) {
                    if let Some(cause) = wd.tick_many(u64::from(commit.executed)) {
                        return FaultyOutcome {
                            detection: None,
                            exercised_at: inj.first_flip_cycle(),
                            halted: false,
                            digest: 0,
                            hung: Some(cause),
                            exec: drain_exec(m, &own),
                        };
                    }
                    if let Trace::Record { last_tap, .. } = &mut trace {
                        note_taps(last_tap, gate.taps, m.cycle());
                    }
                    if first.is_none() {
                        let plan = m.plan_at(gate.addr).expect("an executed block keeps its plan");
                        first = argus.on_block(plan, &commit, inj).into_iter().next();
                        if commit_stride != 0 && inj.first_flip_cycle().is_none() {
                            commits += u64::from(commit.executed);
                            blocks += u64::from(commit.complete);
                            if commit.complete && blocks.is_multiple_of(block_stride) {
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
                    // A block that bailed on a self-modifying store stopped
                    // mid-block; the interpreter finishes it.
                    at_block_end = commit.complete;
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
                exec: drain_exec(m, &own),
            };
        }
        // Only the checker turns an offered block down, and only before
        // detection: the step below is one the block engine would have
        // taken.
        if offered && first.is_none() {
            own.declined_steps += 1;
            own.declined_flipped += u64::from(inj.first_flip_cycle().is_some());
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
                if let Trace::Record { last_tap, .. } = &mut trace {
                    // Campaigns run in Argus mode, whose tap sets are the
                    // larger ones.
                    note_taps(last_tap, Machine::op_taps(&rec.op_shs, true), m.cycle());
                }
                at_block_end = rec.block_end;
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
                if let Trace::Record { last_tap, .. } = &mut trace {
                    note_taps(last_tap, STALL_TAPS, m.cycle());
                }
                at_block_end = false;
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
    // in memory (§4.2). It skips pages clean since the fork or boot: they
    // still hold golden-run or load-time content, valid EDC by
    // construction — observationally identical, see
    // `Argus::scrub_memory_dirty`.
    if first.is_none() {
        first = argus.scrub_memory_dirty(m, data_base, inj, clean_gen);
    }
    FaultyOutcome {
        detection: first,
        exercised_at: inj.first_flip_cycle(),
        halted: m.halted(),
        digest: m.state_digest_cached(),
        hung: None,
        exec: drain_exec(m, &own),
    }
}

/// The machine's counters, drained, with the faulty loop's own added.
fn drain_exec(m: &mut Machine, own: &ExecStats) -> ExecStats {
    let mut exec = m.take_exec_stats();
    exec.merge(own);
    exec
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
        uid: NEXT_CAMPAIGN_UID.fetch_add(1, Ordering::Relaxed),
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
        golden_template: OnceLock::new(),
        invariants,
    }
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
/// [`CampaignWorkspace`]: consecutive calls on one workspace share a
/// single machine allocation (and its warm plan cache and predecode memo)
/// and rewrite only the pages the previous run touched — by delta restore
/// from a snapshot, or by a reset to the load image when the injection
/// cold-boots. Results are identical to [`run_injection`], whose fresh
/// workspace makes its one boot a true `Machine::new` + `Program::load`
/// cold boot — the workspace is a pure performance carrier.
pub fn run_injection_in(
    prep: &PreparedCampaign,
    cfg: &CampaignConfig,
    index: usize,
    ws: &mut CampaignWorkspace,
) -> InjectionResult {
    match run_injection_watched(prep, cfg, index, ws, false) {
        Ok(r) => r,
        Err(cause) => panic!("injection {index} hung ({})", cause.label()),
    }
}

/// [`run_injection_in`] with the watchdog verdict surfaced instead of
/// panicking: `Err` means the run blew its budget and has no
/// classification. `chaos` makes the injection panic mid-run: halfway
/// through its cursor walk when it walks, else just before its faulty run
/// (or its short-cut verdict).
fn run_injection_watched(
    prep: &PreparedCampaign,
    cfg: &CampaignConfig,
    index: usize,
    ws: &mut CampaignWorkspace,
    chaos: bool,
) -> Result<InjectionResult, HangCause> {
    let point = prep.points[index];
    let mut rng = SplitMix64::stream(cfg.seed ^ INJECTION_STREAM_SALT, index as u64);
    let arm_cycle = prep.draw_arm_cycle(&mut rng);
    let mut fault = point.fault(cfg.kind, arm_cycle);
    if rng.next_f64() < cfg.structural_mask {
        fault.sensitization = 0.0;
    }
    let golden = cfg.golden_shortcuts.then(|| prep.golden_template(cfg, ws));
    let chaos = chaos.then_some(index);
    // A fault that never fires leaves the no-fault run untouched: its run
    // *is* the template's, verdict and all.
    let inert = fault.sensitization == 0.0;
    if let Some(t) = golden.filter(|t| inert || t.never_taps(&fault)) {
        if let Some(index) = chaos {
            chaos_panic(index);
        }
        ws.exec.dead_site += u64::from(!inert);
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
    // A fork or a cursor resume is bit-identical to a cold boot because
    // the fault is inert before its arm cycle: `FaultInjector` passes every
    // tap through unchanged (and keeps no internal state) until
    // `cycle >= arm_cycle`, snapshots and cursors sit on step boundaries,
    // and their cycle is at or before the arm cycle. The cursor's watchdog
    // is charged with the no-fault prefix's ticks, as a cold boot's is.
    let (clean_gen, ticks) = if prep.fork_into(arm_cycle, ws) {
        (ws.ws.clean_generation(), 0)
    } else if let Some(t) = golden.filter(|_| cfg.snapshot_every.is_none()) {
        prep.resume_cursor(cfg, ws, t, arm_cycle, chaos)
    } else {
        (prep.boot_into(cfg, ws), 0)
    };
    if let Some(index) = chaos {
        chaos_panic(index);
    }
    let charged = wd.tick_many(ticks);
    debug_assert_eq!(charged, None, "the no-fault prefix exhausted the watchdog");
    let (m, argus) = ws.ws.pair_mut().expect("forked or booted above");
    debug_assert!(m.cycle() <= fault.arm_cycle, "forked past the arm cycle");
    ws.exec.prefix_cycles += arm_cycle.saturating_sub(m.cycle());
    let trace =
        golden.map_or(Trace::Off, |t| Trace::Follow(t, t.early_finish(&fault, cfg.acfg.sig_width)));
    let mut inj = FaultInjector::with_fault(fault);
    let out = faulty_loop(
        m,
        argus,
        &mut inj,
        prep.window,
        prep.prog.data_base,
        &mut wd,
        inv,
        clean_gen,
        trace,
    );
    ws.exec.merge(&out.exec);
    if let Some(cause) = out.hung {
        return Err(cause);
    }

    let masked = out.halted && out.digest == prep.golden_digest;
    Ok(classify(point, arm_cycle, masked, out.detection, out.exercised_at))
}

/// The panic a [`ChaosConfig::panic_at`] injection raises.
fn chaos_panic(index: usize) -> ! {
    panic!("chaos: injected panic at injection {index}")
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

/// One supervised injection, *without* panic isolation, routed through a
/// worker's reusable [`CampaignWorkspace`] (see [`run_injection_in`]):
/// chaos hooks and the watchdog apply, but a panic propagates to the
/// caller. This is the strict-mode path — and the body that
/// [`run_injection_supervised_in`] wraps in its panic guard.
pub fn run_injection_guarded_in(
    prep: &PreparedCampaign,
    cfg: &CampaignConfig,
    index: usize,
    ws: &mut CampaignWorkspace,
) -> SupervisedOutcome {
    if let Some(chaos) = &cfg.chaos {
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
    let panic = cfg.chaos.as_ref().is_some_and(|c| c.panic_at.contains(&index));
    match run_injection_watched(prep, cfg, index, ws, panic) {
        Ok(r) => SupervisedOutcome::Classified(r),
        Err(cause) => SupervisedOutcome::Hung { index: index as u64, cause },
    }
}

/// One fully supervised injection, routed through a worker's reusable
/// [`CampaignWorkspace`]: chaos hooks, watchdog, and panic isolation. A
/// panic anywhere inside the injection becomes a
/// [`SupervisedOutcome::Quarantined`] record instead of unwinding the
/// worker. Unwind-safe: every memory mutation is generation-stamped at
/// write time, so a run that panics (or is abandoned) mid-flight leaves
/// only pages the next delta restore or entry reset already knows to
/// rewrite, and core/checker state is rewritten in full by both anyway.
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

/// Runs a full injection campaign on one workload, serially, in the order
/// the campaign engine runs a fresh one: 32-index ranges, each by arm
/// cycle. Results are stored by index.
///
/// # Panics
///
/// Panics if the workload fails to compile or the golden run does not halt.
pub fn run_campaign(w: &Workload, cfg: &CampaignConfig) -> CampaignReport {
    let cfg = &cfg.sized_for(w);
    let prep = prepare_campaign(w, cfg);
    let n = prep.injections();
    let mut results: Vec<Option<InjectionResult>> = vec![None; n];
    let mut ws = CampaignWorkspace::new();
    // The engine's order: each lease-sized range by arm cycle, so the
    // workspace's cursor walks a range's no-fault prefix once.
    for start in (0..n).step_by(SERIAL_CHUNK) {
        for index in prep.arm_order(cfg, start..n.min(start + SERIAL_CHUNK)) {
            results[index] = Some(run_injection_in(&prep, cfg, index, &mut ws));
        }
    }
    let results: Vec<InjectionResult> =
        results.into_iter().map(|r| r.expect("every index ran")).collect();
    let mut attribution = CounterSet::new();
    for k in results.iter().filter_map(|r| r.detector) {
        attribution.bump(&k.to_string());
    }
    CampaignReport { results, kind: cfg.kind, attribution, golden_cycles: prep.golden_cycles }
}

/// Indices per arm-ordered range in [`run_campaign`]: the campaign
/// engine's default lease size.
const SERIAL_CHUNK: usize = 32;

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
        let mut ram = prepare_campaign(&w, &cfg);
        ram.snapshots = Some(Arc::new(image));
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
            match run_injection_supervised_in(&prep, &cfg, index, &mut CampaignWorkspace::new()) {
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
        match run_injection_supervised_in(&prep, &cfg, 2, &mut CampaignWorkspace::new()) {
            SupervisedOutcome::Quarantined(q) => {
                assert_eq!(q.index, 2);
                assert_eq!(q.seed, cfg.seed);
                assert!(q.panic_msg.contains("chaos: injected panic at injection 2"));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // Neighbours are untouched.
        assert!(matches!(
            run_injection_supervised_in(&prep, &cfg, 1, &mut CampaignWorkspace::new()),
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
        match run_injection_supervised_in(&prep, &cfg, 0, &mut CampaignWorkspace::new()) {
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
            run_injection_guarded_in(&prep, &cfg, 1, &mut CampaignWorkspace::new())
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
    /// with the golden short-cuts off so every injection really runs.
    #[test]
    fn fork_strategies_are_bit_identical() {
        let w = argus_workloads::stress();
        let cold_cfg = CampaignConfig {
            injections: 40,
            seed: 0xF0_0D,
            golden_shortcuts: false,
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
            golden_shortcuts: false,
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
            let fast = run_campaign(&w, &CampaignConfig { golden_shortcuts: true, ..base.clone() });
            let slow =
                run_campaign(&w, &CampaignConfig { golden_shortcuts: false, ..base.clone() });
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

    /// Asserts that `ws`'s resident pair equals a fresh cold boot.
    fn assert_fresh_boot(prep: &PreparedCampaign, cfg: &CampaignConfig, ws: &CampaignWorkspace) {
        let (fm, fa) = prep.entry_state(cfg);
        let (m, a) = ws.ws.pair().expect("booted");
        assert_eq!(combined_fingerprint(m, a), combined_fingerprint(&fm, &fa));
        assert_eq!(m.mem().memory().words(), fm.mem().memory().words());
        assert_eq!(m.mem().memory().tags(), fm.mem().memory().tags());
        assert_eq!(a.capture_state(), fa.capture_state());
    }

    /// The resident reset restores exactly what a fresh boot builds, after
    /// a faulty run that stored into code, data and a page the image never
    /// touches, and flipped a parity tag.
    #[test]
    fn entry_reset_is_a_fresh_boot() {
        use argus_sim::fault::{Fault, SiteFlavor};
        let w = argus_workloads::stress();
        let cfg = CampaignConfig { injections: 1, ..Default::default() }.sized_for(&w);
        let prep = prepare_campaign(&w, &cfg);
        let mut ws = CampaignWorkspace::new();
        let boot_gen = prep.boot_into(&cfg, &mut ws);
        assert_fresh_boot(&prep, &cfg, &ws);
        let (m, argus) = ws.ws.pair_mut().unwrap();
        let mut inj = FaultInjector::with_fault(Fault {
            site: argus_machine::sites::LSU_ST_BUS,
            bit: 9,
            kind: FaultKind::Permanent,
            arm_cycle: 0,
            flavor: SiteFlavor::Single,
            width: 32,
            sensitization: 1.0,
        });
        for _ in 0..5_000 {
            if let StepOutcome::Committed(rec) = m.step(&mut inj) {
                argus.on_commit(&rec, &mut inj);
            }
        }
        assert!(inj.first_flip_cycle().is_some(), "the store-bus fault never fired");
        let data = prep.prog.data_base;
        let last = m.mem().memory().size_bytes() - 4;
        m.write_data_word(data, 0xDEAD_BEEF);
        m.load_code(prep.prog.code_base, &[0xFFFF_FFFF]);
        m.write_data_word(last, 7);
        let (p, t) = m.mem().memory().read(data + 4).unwrap();
        m.mem_mut().memory_mut().write(data + 4, p, !t).unwrap();
        let page = |addr: u32| addr as usize / (4 * argus_mem::DIRTY_PAGE_WORDS);
        let mem = m.mem().memory();
        for addr in [data, prep.prog.code_base, last] {
            assert!(mem.page_dirty_since(page(addr), boot_gen));
        }
        let reset_gen = prep.boot_into(&cfg, &mut ws);
        assert!(reset_gen > boot_gen);
        assert_fresh_boot(&prep, &cfg, &ws);
        let mem = ws.ws.pair().unwrap().0.mem().memory();
        assert!((0..mem.page_count()).all(|p| !mem.page_dirty_since(p, reset_gen)));
        assert_eq!(ws.stats(), WorkspaceStats::default(), "entry resets are not restores");

        // A pair last rewritten by a snapshot restore resets in full.
        let snap_cfg = CampaignConfig { snapshot_every: Some(500), ..cfg.clone() };
        let snap = prepare_campaign(&w, &snap_cfg);
        let mut ws = CampaignWorkspace::new();
        snap.boot_into(&snap_cfg, &mut ws);
        for i in 0..3 {
            assert!(snap.fork_into(snap.golden_cycles() / 2 + i, &mut ws));
            ws.ws.pair_mut().unwrap().0.run_to_halt(&mut FaultInjector::none(), 1 << 30);
            snap.boot_into(&snap_cfg, &mut ws);
            assert_fresh_boot(&snap, &snap_cfg, &ws);
        }
    }

    #[test]
    fn watchdog_budget_scales_with_factor() {
        let cfg = CampaignConfig { inj_cycle_factor: 1.5, hang_slack: 100, ..Default::default() };
        let wd = cfg.watchdog_config(1000);
        assert_eq!(wd.cycle_budget, 1600);
        assert_eq!(wd.wall_limit, cfg.inj_wall_limit);
    }

    /// A spent-transient run that sits on a golden key, except for what
    /// `perturb` changes there. The pair replays the golden run to the
    /// middle key, a transient fires by hand (so the injector is spent but
    /// nothing it carries touched the pair), then `perturb` runs. Returns
    /// whether the key still matches, and the classification and outcome
    /// of the run finished with the trace followed and to the end.
    fn spent_run_at_key(
        perturb: impl FnOnce(&mut Machine, &mut Argus),
    ) -> (bool, [(String, ExecStats); 2], u64) {
        use argus_sim::fault::{Fault, SiteFlavor};
        let w = argus_workloads::stress();
        let cfg = CampaignConfig { injections: 1, ..Default::default() }.sized_for(&w);
        let prep = prepare_campaign(&w, &cfg);
        let mut ws = CampaignWorkspace::new();
        let t = prep.golden_template(&cfg, &mut ws).clone();
        let key = t.keys[t.keys.len() / 2].clone();
        let clean_gen = prep.boot_into(&cfg, &mut ws);
        let (m, argus) = ws.ws.pair_mut().unwrap();
        let mut none = FaultInjector::none();
        while m.cycle() < key.cycle {
            match m.step(&mut none) {
                StepOutcome::Committed(rec) => assert!(argus.on_commit(&rec, &mut none).is_empty()),
                other => panic!("golden replay produced {other:?}"),
            }
        }
        assert!(key.matches(m, argus, true), "the replay missed the golden key");
        let site = argus_machine::sites::LSU_ST_BUS;
        let mut inj = FaultInjector::with_fault(Fault {
            site,
            bit: 0,
            kind: FaultKind::Transient,
            arm_cycle: 0,
            flavor: SiteFlavor::Single,
            width: 32,
            sensitization: 1.0,
        });
        inj.set_cycle(m.cycle());
        assert_eq!(inj.tap32(site, 0), 1);
        assert!(inj.live_faults().next().is_none());
        perturb(m, argus);
        let matched = key.matches(m, argus, true);
        let point = prep.points[0];
        let runs = [Trace::Follow(&t, EarlyFinish::Never), Trace::Off].map(|trace| {
            let (mut m, mut argus) = (m.clone(), argus.clone());
            let mut wd = InjectionWatchdog::new(&cfg.watchdog_config(prep.golden_cycles));
            let out = faulty_loop(
                &mut m,
                &mut argus,
                &mut inj.clone(),
                prep.window,
                prep.prog.data_base,
                &mut wd,
                &prep.invariants,
                clean_gen,
                trace,
            );
            assert_eq!(out.hung, None);
            let masked = out.halted && out.digest == prep.golden_digest;
            let r = classify(point, 0, masked, out.detection, out.exercised_at);
            (format!("{r:?}"), out.exec)
        });
        (matched, runs, t.end_cycle - key.cycle)
    }

    /// Asserts the perturbed run did not stop at the key and classified
    /// exactly as the full run.
    fn assert_not_short_cut(perturb: impl FnOnce(&mut Machine, &mut Argus)) -> ExecStats {
        let (matched, [(followed, stats), (full, _)], suffix) = spent_run_at_key(perturb);
        assert!(!matched, "the perturbed state still matches the key");
        assert!(
            stats.converged == 0 || stats.converged_cycles_saved < suffix,
            "the run stopped at the perturbed key"
        );
        assert_eq!(followed, full);
        stats
    }

    #[test]
    fn reconvergence_stops_an_unperturbed_spent_run_at_the_key() {
        let (matched, [(followed, stats), (full, _)], suffix) = spent_run_at_key(|_, _| {});
        assert!(matched);
        assert_eq!((stats.converged, stats.converged_cycles_saved), (1, suffix));
        assert_eq!(followed, full);
    }

    /// A parked bad tag is invisible to the architectural digest but
    /// caught by the end-of-run scrub: the run must not take the golden
    /// (undetected) verdict.
    #[test]
    fn reconvergence_compares_edc_tags() {
        let stats = assert_not_short_cut(|m, _| {
            let mem = m.mem_mut().memory_mut();
            let last = mem.size_bytes() - 4;
            let (p, t) = mem.read(last).unwrap();
            mem.write(last, p, !t).unwrap();
        });
        assert_eq!(stats.converged, 0, "nothing rewrites the last word");
    }

    /// A checker that expects a different next DCS detects at the next
    /// block end; before detection the checker is part of the match.
    #[test]
    fn reconvergence_compares_checker_state() {
        assert_not_short_cut(|_, argus| {
            let d = argus.cfc().expected().expect("armed at a block end");
            argus.expect_entry(d ^ 1);
        });
    }

    /// Cache arrays decide future timing, so they are part of the match.
    /// Only one line's tag changes; the LRU clock, stamps and counters
    /// stay as they were, so the line array alone must break the match.
    #[test]
    fn reconvergence_compares_cache_lines() {
        assert_not_short_cut(|m, _| {
            let before = m.mem().capture_caches();
            let mut st = before.clone();
            let line = st.dcache.lines.iter_mut().find(|l| l.valid).expect("a valid dcache line");
            line.tag ^= 1;
            m.mem_mut().restore_caches(&st);
            let after = m.mem().capture_caches();
            assert_eq!((after.dcache.tick, after.icache), (before.dcache.tick, before.icache));
            assert_eq!(after.dcache.stats, before.dcache.stats);
            let changed =
                before.dcache.lines.iter().zip(&after.dcache.lines).filter(|(a, b)| a != b);
            assert_eq!(changed.count(), 1);
        });
    }

    /// The no-fault template of a small `stress` campaign, and the campaign.
    fn stress_template(mcfg: MachineConfig) -> (PreparedCampaign, CampaignConfig, GoldenTemplate) {
        let w = argus_workloads::stress();
        let cfg = CampaignConfig { injections: 1, mcfg, ..Default::default() }.sized_for(&w);
        let prep = prepare_campaign(&w, &cfg);
        let t = prep.golden_template(&cfg, &mut CampaignWorkspace::new()).clone();
        (prep, cfg, t)
    }

    fn fault_on(site: &'static str, kind: FaultKind, arm_cycle: u64) -> Fault {
        use argus_sim::fault::SiteFlavor;
        Fault {
            site,
            bit: 0,
            kind,
            arm_cycle,
            flavor: SiteFlavor::Single,
            width: 32,
            sensitization: 1.0,
        }
    }

    /// The dead-site boundary sits at the recorded last tap: a fault arming
    /// there is not short-cut, one cycle later it is. The fetch bus is
    /// tapped by every op, so its last tap is the start of the `halt` step;
    /// a permanent fault armed exactly there really fires, so that fault
    /// must never be claimed dead.
    #[test]
    fn dead_site_boundary_is_the_last_possible_tap() {
        use argus_machine::sites::IF_IBUS;
        let (prep, cfg, t) = stress_template(MachineConfig::default());
        let mut tapped = 0;
        for s in argus_machine::sites::core_sites() {
            let [bit] = TapSet::site(s.name).bits().collect::<Vec<_>>()[..] else {
                panic!("{} is not one machine tap bit", s.name)
            };
            let last = t.last_tap[bit];
            if last == 0 {
                continue;
            }
            tapped += 1;
            assert!(last <= t.end_cycle, "{}: tap recorded past the end", s.name);
            let kind = FaultKind::Permanent;
            assert!(
                !t.never_taps(&fault_on(s.name, kind, last)),
                "{} armed at its last tap",
                s.name
            );
            assert!(t.never_taps(&fault_on(s.name, kind, last + 1)), "{} armed past it", s.name);
        }
        assert!(tapped > 20, "only {tapped} machine sites recorded");

        // Start cycle of the last step: replay the no-fault run one op at
        // a time.
        let (mut m, _) = prep.entry_state(&cfg);
        let mut halt_start = 0;
        while !m.halted() {
            halt_start = m.cycle();
            m.step(&mut FaultInjector::none());
        }
        assert_eq!(m.cycle(), t.end_cycle);
        let fault = fault_on(IF_IBUS, FaultKind::Permanent, halt_start);
        assert!(!t.never_taps(&fault), "a fault that fires on the last tap was claimed dead");
        let mut ws = CampaignWorkspace::new();
        let clean_gen = prep.boot_into(&cfg, &mut ws);
        let (m, argus) = ws.ws.pair_mut().unwrap();
        let mut wd = InjectionWatchdog::new(&cfg.watchdog_config(prep.golden_cycles));
        let out = faulty_loop(
            m,
            argus,
            &mut FaultInjector::with_fault(fault),
            prep.window,
            prep.prog.data_base,
            &mut wd,
            &prep.invariants,
            clean_gen,
            Trace::Off,
        );
        assert_eq!(out.exercised_at, Some(halt_start), "the last fetch was not tapped");
    }

    /// The template does not record the checker's taps, so a fault on a
    /// checker site is never short-cut, however late it arms.
    #[test]
    fn checker_site_faults_are_never_dead() {
        let (_, _, t) = stress_template(MachineConfig::default());
        for s in argus_core::sites::argus_sites() {
            for arm in [0, t.end_cycle, u64::MAX] {
                let f = fault_on(s.name, FaultKind::Transient, arm);
                assert!(!t.never_taps(&f), "{} armed at {arm} was claimed dead", s.name);
            }
        }
    }

    /// Runs `fault` on a `stress` cold boot twice, following the template
    /// with its early-finish rule and to the end, and returns the rule, both
    /// classifications and outcomes, and the template.
    fn early_and_full(fault: Fault) -> (EarlyFinish, [(String, FaultyOutcome); 2], GoldenTemplate) {
        let (prep, cfg, t) = stress_template(MachineConfig::default());
        let early = t.early_finish(&fault, cfg.acfg.sig_width);
        let runs = [Trace::Follow(&t, early), Trace::Off].map(|trace| {
            let mut ws = CampaignWorkspace::new();
            let clean_gen = prep.boot_into(&cfg, &mut ws);
            let (m, argus) = ws.ws.pair_mut().unwrap();
            let mut wd = InjectionWatchdog::new(&cfg.watchdog_config(prep.golden_cycles));
            let out = faulty_loop(
                m,
                argus,
                &mut FaultInjector::with_fault(fault.clone()),
                prep.window,
                prep.prog.data_base,
                &mut wd,
                &prep.invariants,
                clean_gen,
                trace,
            );
            assert_eq!(out.hung, None);
            let masked = out.halted && out.digest == prep.golden_digest;
            let r = classify(prep.points[0], 0, masked, out.detection.clone(), out.exercised_at);
            (format!("{r:?}"), out)
        });
        (early, runs, t)
    }

    /// A checker-only fault that detects ends at its detection: the
    /// adder sub-checker's output is read by nothing but the checker, so
    /// the machine follows the no-fault run and only `first` is new.
    #[test]
    fn checker_only_fault_ends_at_its_detection() {
        let fault = fault_on(argus_core::sites::CC_ADDER_OUT, FaultKind::Permanent, 0);
        let (early, [(followed, out), (full, full_out)], t) = early_and_full(fault);
        assert_eq!(early, EarlyFinish::AtDetection);
        assert_eq!(followed, full);
        assert!(out.detection.is_some(), "the adder checker never fired");
        assert_eq!(out.detection, full_out.detection);
        assert_eq!((out.halted, out.digest, out.hung), (t.halted, t.digest, t.hung));
        assert_eq!((out.exec.checker_only, out.exec.masked_bits), (1, 0));
        assert_eq!((full_out.exec.checker_only, full_out.exec.masked_bits), (0, 0));
        // It stopped well before the end the full run went on to.
        assert!(out.exec.armed_steps < full_out.exec.armed_steps);
    }

    /// A fault on a bit no consumer reads ends at its first flip: bit 6 of
    /// the SHS CRC output lies outside the 5-bit signature, so the run is
    /// the no-fault run plus an exercise cycle.
    #[test]
    fn masked_bit_fault_ends_at_its_first_flip() {
        let fault = Fault {
            bit: 6,
            width: 8,
            ..fault_on(argus_core::sites::SHS_CRC_OUT, FaultKind::Permanent, 0)
        };
        let (early, [(followed, out), (full, full_out)], t) = early_and_full(fault);
        assert_eq!(early, EarlyFinish::AtFirstFlip);
        assert_eq!(followed, full);
        assert!(out.exercised_at.is_some(), "the CRC output was never tapped");
        assert_eq!(out.exercised_at, full_out.exercised_at);
        assert_eq!(out.detection, t.detection);
        assert_eq!((out.halted, out.digest), (t.halted, t.digest));
        assert_eq!((out.exec.checker_only, out.exec.masked_bits), (0, 1));
        assert_eq!((full_out.exec.checker_only, full_out.exec.masked_bits), (0, 0));
        assert!(out.exec.declined_steps < full_out.exec.declined_steps);
        assert!(full_out.exec.declined_flipped > 0, "the flipped run never declined a block");
    }

    /// Transients, faults on sites that reach the machine, and signature
    /// bits the checker reads run to their end.
    #[test]
    fn early_finish_leaves_other_faults_alone() {
        use argus_machine::sites::{IF_PC_NEXT, MUL_LO};
        let (_, cfg, t) = stress_template(MachineConfig::default());
        let w = cfg.acfg.sig_width;
        let crc = |bit| Fault {
            bit,
            width: 8,
            ..fault_on(argus_core::sites::SHS_CRC_OUT, FaultKind::Permanent, 0)
        };
        assert_eq!(t.early_finish(&crc(4), w), EarlyFinish::AtDetection);
        assert_eq!(t.early_finish(&crc(5), w), EarlyFinish::AtFirstFlip);
        let transient = Fault { kind: FaultKind::Transient, ..crc(5) };
        assert_eq!(t.early_finish(&transient, w), EarlyFinish::Never);
        assert_eq!(
            t.early_finish(&fault_on(MUL_LO, FaultKind::Permanent, 0), w),
            EarlyFinish::Never
        );
        let pc = |bit| Fault { bit, ..fault_on(IF_PC_NEXT, FaultKind::Permanent, 0) };
        assert_eq!(t.early_finish(&pc(1), w), EarlyFinish::AtFirstFlip);
        assert_eq!(t.early_finish(&pc(2), w), EarlyFinish::Never);
        let hung = GoldenTemplate { hung: Some(HangCause::CycleBudget), ..t.clone() };
        assert_eq!(hung.early_finish(&crc(5), w), EarlyFinish::Never);
    }

    /// Interpreted steps record their ops' taps: with the block engine off
    /// every op is one, and the record covers exactly the sites the block
    /// run records, each at most as late (a block records its end cycle
    /// for every op in it).
    #[test]
    fn interpreted_steps_record_their_taps() {
        let (_, _, blocks) = stress_template(MachineConfig::default());
        let interp = MachineConfig { block_exec: false, ..MachineConfig::default() };
        let (_, _, steps) = stress_template(interp);
        assert_eq!(steps.end_cycle, blocks.end_cycle);
        let mut recorded = 0;
        for (b, (&s, &k)) in steps.last_tap.iter().zip(&blocks.last_tap).enumerate() {
            assert_eq!(s == 0, k == 0, "bit {b}: recorded by one engine only");
            assert!(s <= k, "bit {b}: the step record is later than the block record");
            recorded += usize::from(s != 0);
        }
        assert!(recorded > 20, "the interpreter recorded only {recorded} sites");
    }

    /// Stalled cycles record the stall-release site: a permanent stall
    /// fault stops every commit, so only the stall path can move that
    /// site's record past the fault's arm cycle.
    #[test]
    fn stalled_cycles_record_the_stall_site() {
        use argus_machine::sites::{CTL_STALL_RELEASE, IF_IBUS};
        let (prep, cfg, t) = stress_template(MachineConfig::default());
        let arm = t.end_cycle / 2;
        let mut ws = CampaignWorkspace::new();
        let clean_gen = prep.boot_into(&cfg, &mut ws);
        let (m, argus) = ws.ws.pair_mut().unwrap();
        let mut wd = InjectionWatchdog::new(&cfg.watchdog_config(prep.golden_cycles));
        let (mut keys, mut last_tap) = (Vec::new(), [0; TapSet::BITS]);
        let out = faulty_loop(
            m,
            argus,
            &mut FaultInjector::with_fault(fault_on(CTL_STALL_RELEASE, FaultKind::Permanent, arm)),
            prep.window,
            prep.prog.data_base,
            &mut wd,
            &prep.invariants,
            clean_gen,
            Trace::Record { keys: &mut keys, last_tap: &mut last_tap, block_ends: &mut Vec::new() },
        );
        assert!(out.detection.is_some() || out.hung.is_some(), "the stall went unnoticed");
        let bit = |site| TapSet::site(site).bits().next().unwrap();
        let fetched = last_tap[bit(IF_IBUS)];
        assert!(fetched <= arm + 64, "ops kept committing after the stall armed");
        assert!(last_tap[bit(CTL_STALL_RELEASE)] > fetched, "stalled cycles were not recorded");
    }

    /// The template's block ends are strictly ascending, a walk from entry
    /// lands exactly on each target, and the cursor resumed at rising arm
    /// cycles puts the pair on the last block end at or before each, in
    /// the state a step-by-step checked replay of the no-fault run holds
    /// there.
    #[test]
    fn cursor_walks_land_on_golden_block_ends() {
        let (prep, cfg, t) = stress_template(MachineConfig::default());
        assert!(t.block_ends.len() > 100, "only {} block ends", t.block_ends.len());
        assert!(t.block_ends.windows(2).all(|w| w[0] < w[1]), "block ends not ascending");
        assert!(*t.block_ends.last().unwrap() <= t.end_cycle);
        let arms: Vec<u64> = (1..=12).map(|k| prep.golden_cycles * 3 / 4 * k / 12).collect();
        for &arm in &arms {
            let target = t.walk_target(arm);
            assert!(target <= arm && t.block_ends.contains(&target), "arm {arm}: {target}");
            assert!(t.block_ends.iter().all(|&c| c <= target || c > arm), "arm {arm}");
            let mut ws = CampaignWorkspace::new();
            let clean_gen = prep.boot_into(&cfg, &mut ws);
            let (m, argus) = ws.ws.pair_mut().unwrap();
            let mut wd = InjectionWatchdog::new(&cfg.watchdog_config(prep.golden_cycles));
            let out = faulty_loop(
                m,
                argus,
                &mut FaultInjector::none(),
                prep.window,
                prep.prog.data_base,
                &mut wd,
                &prep.invariants,
                clean_gen,
                Trace::Walk(target),
            );
            assert_eq!((out.hung, m.cycle()), (None, target), "arm {arm}: the walk missed");
        }

        // The replay: one checked interpreter step at a time.
        let (mut golden, mut golden_argus) = prep.entry_state(&cfg);
        let mut none = FaultInjector::none();
        let mut ws = CampaignWorkspace::new();
        let mut ticks = 0;
        for &arm in &arms {
            let (clean_gen, charged) = prep.resume_cursor(&cfg, &mut ws, &t, arm, None);
            let (m, argus) = ws.ws.pair_mut().unwrap();
            assert_eq!(m.cycle(), t.walk_target(arm), "arm {arm}");
            while golden.cycle() < m.cycle() {
                let StepOutcome::Committed(rec) = golden.step(&mut none) else {
                    panic!("the no-fault run stalled or halted")
                };
                assert!(golden_argus.on_commit(&rec, &mut none).is_empty());
                ticks += 1;
            }
            assert_eq!(charged, ticks, "arm {arm}: the prefix's watchdog ticks");
            assert_eq!(
                combined_fingerprint(m, argus),
                combined_fingerprint(&golden, &golden_argus)
            );
            assert_eq!(argus.capture_state(), golden_argus.capture_state());
            let mem = m.mem().memory();
            assert!((0..mem.page_count()).all(|p| !mem.page_dirty_since(p, clean_gen)));
            // A faulty run writes somewhere; the next resume rewrites it.
            m.write_data_word(prep.prog.data_base, 0xDEAD_BEEF);
        }
        let stats = ws.exec;
        assert_eq!((stats.cursor_resets, stats.cursor_overshoots), (1, 0));
        assert_eq!(stats.cursor_walk_cycles, t.walk_target(*arms.last().unwrap()));
        assert_eq!(ws.stats(), WorkspaceStats::default(), "cursor resumes are not restores");
    }

    /// `retired` alone differs: no architectural effect, but the states
    /// are not equal, so the run is not the golden suffix.
    #[test]
    fn reconvergence_compares_retired() {
        let stats = assert_not_short_cut(|m, _| {
            let mut core = m.capture_core();
            core.retired += 1;
            m.restore_core(&core);
        });
        assert_eq!(stats.converged, 0, "the retired count never realigns");
    }

    /// The golden run's incremental capture writes the image a full
    /// intern of every page writes. The oracle replays the same golden run
    /// one checked step at a time and interns every page at each cycle the
    /// store holds a snapshot for.
    #[test]
    fn incremental_capture_matches_full_intern_oracle_on_pegwit() {
        let w = argus_workloads::pegwit::pegwit();
        let cfg = CampaignConfig { snapshot_every: Some(1000), ..Default::default() }.sized_for(&w);
        let prog = compile_workload(&w, &cfg.ecfg);
        let mut incremental = MappedStoreWriter::in_memory(1000);
        golden_run_with_snapshots(&prog, &cfg, &mut incremental).unwrap();
        let incremental = incremental.finish().unwrap();
        assert!(incremental.len() > 50, "pegwit spans many intervals");

        let (mut m, mut argus) = boot(&prog, &cfg);
        let mut oracle = MappedStoreWriter::in_memory(1000);
        let mut inj = FaultInjector::none();
        for i in 0..incremental.len() {
            let at = incremental.cycle(i).unwrap();
            while m.cycle() < at {
                match m.step(&mut inj) {
                    StepOutcome::Committed(rec) => {
                        argus.on_commit(&rec, &mut inj);
                    }
                    StepOutcome::Stalled => {
                        argus.on_stall(1, &mut inj);
                    }
                    StepOutcome::Halted => unreachable!("a snapshot lies beyond the halt"),
                }
            }
            assert_eq!(m.cycle(), at, "snapshot {i} is not on a step boundary");
            oracle.capture_full_for_test(&mut m, &argus).unwrap();
        }
        let oracle = oracle.finish().unwrap();
        assert!(incremental.file_bytes() == oracle.file_bytes(), "images differ");
    }
}
