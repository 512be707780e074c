//! # argus-invariants — the always-on invariant registry
//!
//! Campaign correctness used to rest on end-state digest equality and
//! per-crate unit tests; nothing continuously asserted that machine,
//! checker, and orchestrator state stay *internally legal* while a
//! campaign runs. This crate closes that gap with a pluggable registry of
//! invariant checkers, each a small predicate over a read-only view of
//! live state, evaluated at well-defined hooks:
//!
//! * **Commit** — after a committed instruction (sampled by stride);
//! * **BlockEnd** — at a basic-block boundary (per-commit or batched);
//! * **SnapshotRestore** — after a snapshot restore reconstructed a
//!   machine+checker pair;
//! * **ChunkComplete** — after the sharded engine folds a finished lease
//!   into the campaign ledger;
//! * **Checkpoint** — around checkpoint save and load.
//!
//! Every invariant documents what failure it is *expected to catch*
//! (`Invariant::expected_to_catch`), which doubles as the canary-matrix
//! documentation: `scripts/canary_matrix.sh` builds the workspace with the
//! `canary` feature, activates one deliberately seeded checker bug at a
//! time (`ARGUS_CANARY=<name>`), and asserts a named invariant — or
//! campaign divergence — notices.
//!
//! Exec-level invariants (`InvariantCtx::Exec`) are only meaningful on a
//! pristine trajectory: once a fault has flipped state, "illegal" machine
//! state is the expected experimental outcome. Callers gate on
//! `FaultInjector::first_flip_cycle().is_none()`. Ledger invariants run
//! unconditionally — conservation laws hold regardless of what the
//! injections did.
//!
//! Checking never mutates the observed state and never alters campaign
//! results: the mode knob (`--invariants {off,sampled,full}`) is a
//! perf/diagnosis knob, never a result knob.

use argus_core::Argus;
use argus_machine::{BlockPlan, Machine};
use argus_mem::cache::CacheState;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// How densely the registry is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvariantMode {
    /// No checking at all (the registry is never consulted).
    Off,
    /// Strided exec checks + every-Nth snapshot restore + every ledger
    /// event. The default: cheap enough for the bench gates.
    #[default]
    Sampled,
    /// Dense exec checks, every snapshot restore, every ledger event.
    Full,
}

impl InvariantMode {
    /// Parses a `--invariants` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(Self::Off),
            "sampled" => Some(Self::Sampled),
            "full" => Some(Self::Full),
            _ => None,
        }
    }

    /// The canonical flag spelling.
    pub fn label(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Sampled => "sampled",
            Self::Full => "full",
        }
    }

    /// Commits between two Commit-hook evaluations (0 = never).
    pub fn commit_stride(self) -> u64 {
        match self {
            Self::Off => 0,
            Self::Sampled => 4096,
            Self::Full => 64,
        }
    }

    /// Block boundaries between two BlockEnd-hook evaluations (0 = never).
    pub fn block_stride(self) -> u64 {
        match self {
            Self::Off => 0,
            Self::Sampled => 512,
            Self::Full => 8,
        }
    }

    /// Snapshot restores between two SnapshotRestore-hook evaluations
    /// (0 = never). Fingerprint reconstruction walks the whole machine, so
    /// sampled mode amortizes it across forks.
    pub fn snapshot_stride(self) -> u64 {
        match self {
            Self::Off => 0,
            Self::Sampled => 64,
            Self::Full => 1,
        }
    }
}

/// Where in the engine an invariant is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    /// After a committed instruction (strided).
    Commit,
    /// At a basic-block boundary.
    BlockEnd,
    /// After a snapshot restore.
    SnapshotRestore,
    /// After a finished lease folds into the campaign ledger.
    ChunkComplete,
    /// Around checkpoint save/load.
    Checkpoint,
    /// After a snapshot store (RAM-built or memory-mapped) finishes
    /// opening, before any fork reads from it.
    StoreOpen,
}

impl Hook {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Commit => "commit",
            Self::BlockEnd => "block",
            Self::SnapshotRestore => "snapshot",
            Self::ChunkComplete => "chunk",
            Self::Checkpoint => "checkpoint",
            Self::StoreOpen => "store",
        }
    }
}

/// How bad a violation is. Everything registered today is a genuine
/// state-corruption witness, but the split keeps room for advisory checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// State corruption that invalidates campaign results.
    Critical,
    /// Internal inconsistency that may bias results.
    Error,
}

impl Severity {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Critical => "critical",
            Self::Error => "error",
        }
    }
}

/// Read-only view of live execution state (machine + checker), handed to
/// Commit/BlockEnd hooks on a pristine trajectory.
pub struct ExecView<'a> {
    /// The machine under test.
    pub machine: &'a Machine,
    /// The Argus checker shadowing it.
    pub argus: &'a Argus,
    /// Whether the campaign armed an entry-block DCS expectation (argus
    /// mode with an entry DCS); gates the expectation-armed invariant.
    pub entry_armed: bool,
    /// The block plan just batch-checked, when the hook fires from the
    /// block-compiled path (enables the batched-vs-fold cross-check).
    pub block: Option<&'a BlockPlan>,
}

/// A snapshot-restore identity observation: the fingerprint recorded when
/// the snapshot was captured vs. the digest recomputed from the restored
/// machine + checker.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView {
    /// Fingerprint recorded in the snapshot at capture time.
    pub expected: u64,
    /// `combined_fingerprint` over the freshly restored state.
    pub reconstructed: u64,
    /// Capture cycle, for diagnostics.
    pub cycle: u64,
}

/// A plain-data copy of the campaign ledger: done ranges, tally counters,
/// and the quarantine index list. Neutral (no orchestrator types) so the
/// dependency arrow stays orchestrator → invariants.
#[derive(Debug, Clone, Default)]
pub struct LedgerView {
    /// Total injections in the campaign.
    pub total: u64,
    /// Completed index ranges, half-open `[start, end)`, expected sorted,
    /// disjoint, and coalesced.
    pub done: Vec<(u64, u64)>,
    /// Classified outcome counters (detected/silent/masked/etc.).
    pub outcomes: Vec<u64>,
    /// Injections classified as hung.
    pub hung: u64,
    /// Quarantined injection indices, expected sorted and unique.
    pub quarantine_indices: Vec<u64>,
    /// The tally's own account of how many injections it covers.
    pub accounted: u64,
}

impl LedgerView {
    /// Injections covered by the done ranges.
    pub fn covered(&self) -> u64 {
        self.done.iter().map(|&(s, e)| e.saturating_sub(s)).sum()
    }
}

/// A plain-data observation of a freshly sealed snapshot store, taken
/// before any fork reads from it. Neutral (no snapshot-crate types) so the
/// dependency arrow stays faults → invariants.
#[derive(Debug, Clone, Default)]
pub struct StoreView {
    /// Snapshots in the store.
    pub snapshots: usize,
    /// Distinct pages stored.
    pub pages_distinct: u64,
    /// Total page references across all snapshots (>= distinct).
    pub pages_total: u64,
    /// Per-snapshot page-table lengths.
    pub table_lens: Vec<usize>,
    /// Per-snapshot expected table lengths (`mem_words.div_ceil(PAGE_WORDS)`).
    pub expected_lens: Vec<usize>,
    /// Per-snapshot capture cycles (must be strictly increasing).
    pub cycles: Vec<u64>,
    /// Largest page id referenced by any snapshot.
    pub max_page_id: u32,
    /// Page-body CRC spot checks as (page id, ok).
    pub crc_checks: Vec<(u32, bool)>,
}

/// The state an invariant is asked to judge.
pub enum InvariantCtx<'a> {
    /// Live machine + checker state.
    Exec(ExecView<'a>),
    /// A snapshot-restore identity observation.
    Snapshot(SnapshotView),
    /// A campaign-ledger observation.
    Ledger(LedgerView),
    /// A freshly opened snapshot store.
    Store(StoreView),
}

/// One invariant's verdict on one observation.
pub enum InvariantResult {
    /// The invariant held.
    Pass,
    /// The observation was not applicable (wrong ctx variant, or a
    /// precondition like "at a block boundary" did not hold).
    Skip,
    /// The invariant is violated; the string says how.
    Violation(String),
}

/// One registered invariant checker.
pub trait Invariant: Send + Sync {
    /// Stable kebab-case identifier (report JSON key, exit messages).
    fn name(&self) -> &'static str;
    /// How bad a violation is.
    fn severity(&self) -> Severity;
    /// The hooks this invariant wants to observe.
    fn hooks(&self) -> &'static [Hook];
    /// What real-world failure this invariant is expected to catch —
    /// the registry's documentation of its own purpose, printed by
    /// `argus invariants list` and exercised by the canary matrix.
    fn expected_to_catch(&self) -> &'static str;
    /// Judges one observation.
    fn check(&self, ctx: &InvariantCtx) -> InvariantResult;
}

// ---------------------------------------------------------------------------
// Registered invariants
// ---------------------------------------------------------------------------

/// Declares an invariant struct with static metadata and a check body.
macro_rules! invariant {
    ($ty:ident, $name:literal, $sev:expr, $hooks:expr, $doc:literal,
     |$self_:ident, $ctx:ident| $body:expr) => {
        struct $ty {
            #[allow(dead_code)]
            state: AtomicU64,
        }
        impl $ty {
            fn boxed() -> Box<dyn Invariant> {
                Box::new(Self { state: AtomicU64::new(0) })
            }
        }
        impl Invariant for $ty {
            fn name(&self) -> &'static str {
                $name
            }
            fn severity(&self) -> Severity {
                $sev
            }
            fn hooks(&self) -> &'static [Hook] {
                $hooks
            }
            fn expected_to_catch(&self) -> &'static str {
                $doc
            }
            fn check(&self, ctx: &InvariantCtx) -> InvariantResult {
                let $self_ = self;
                let $ctx = ctx;
                $body
            }
        }
    };
}

fn violation(msg: String) -> InvariantResult {
    InvariantResult::Violation(msg)
}

fn pass_if(ok: bool, msg: impl FnOnce() -> String) -> InvariantResult {
    if ok {
        InvariantResult::Pass
    } else {
        violation(msg())
    }
}

const EXEC_HOOKS: &[Hook] = &[Hook::Commit, Hook::BlockEnd];
const COMMIT_ONLY: &[Hook] = &[Hook::Commit];
const BLOCK_ONLY: &[Hook] = &[Hook::BlockEnd];
const LEDGER_HOOKS: &[Hook] = &[Hook::ChunkComplete, Hook::Checkpoint];

invariant!(
    PcWordAligned,
    "pc-word-aligned",
    Severity::Critical,
    EXEC_HOOKS,
    "PC corruption below instruction granularity: a fetch address that is not \
     word-aligned can only arise from machine-state corruption, never from a \
     legal control transfer.",
    |_s, ctx| {
        let InvariantCtx::Exec(v) = ctx else { return InvariantResult::Skip };
        let pc = v.machine.pc();
        pass_if(pc % 4 == 0, || format!("pc {pc:#x} is not word-aligned"))
    }
);

invariant!(
    RetiredWithinCycles,
    "retired-within-cycles",
    Severity::Critical,
    COMMIT_ONLY,
    "Counter corruption in the pipeline bookkeeping: every commit costs at \
     least one cycle, so the retired-instruction count can never exceed the \
     cycle count.",
    |_s, ctx| {
        let InvariantCtx::Exec(v) = ctx else { return InvariantResult::Skip };
        let (r, c) = (v.machine.retired(), v.machine.cycle());
        pass_if(r <= c, || format!("retired {r} exceeds cycle {c}"))
    }
);

invariant!(
    CfcBlockLengthBound,
    "cfc-block-length-bound",
    Severity::Critical,
    COMMIT_ONLY,
    "A CFC that silently stops bounding basic-block length (the guarantee \
     that caps time-between-checks together with the watchdog): the live \
     block-length counter must never exceed the configured bound.",
    |_s, ctx| {
        let InvariantCtx::Exec(v) = ctx else { return InvariantResult::Skip };
        let len = v.argus.cfc().block_len();
        let max = v.argus.config().max_block_len;
        pass_if(len <= max, || format!("cfc block length {len} exceeds bound {max}"))
    }
);

invariant!(
    CfcExpectationArmed,
    "cfc-expectation-armed",
    Severity::Critical,
    EXEC_HOOKS,
    "A CFC that drops its successor-DCS expectation (canary-cfc-drop-\
     expectation): once the entry block's DCS is armed, every subsequent \
     block hand-off must leave an expectation in place, otherwise DCS \
     comparisons silently stop happening.",
    |_s, ctx| {
        let InvariantCtx::Exec(v) = ctx else { return InvariantResult::Skip };
        if !v.entry_armed || !v.argus.config().enable_dcs {
            return InvariantResult::Skip;
        }
        pass_if(v.argus.cfc().expected().is_some(), || {
            "cfc expectation is unarmed after the entry DCS was armed".into()
        })
    }
);

invariant!(
    WatchdogWithinBudget,
    "watchdog-within-budget",
    Severity::Critical,
    COMMIT_ONLY,
    "Watchdog budget corruption or trip suppression: the stall counter \
     saturates at the threshold, reaching the threshold must coincide \
     with a trip, and a probe of a cloned watchdog driven to saturation \
     must fire (canary-watchdog-never-fires suppresses the trip, which \
     only the probe can see — healthy programs never stall that long).",
    |s, ctx| {
        let InvariantCtx::Exec(v) = ctx else { return InvariantResult::Skip };
        if !v.argus.config().enable_watchdog {
            return InvariantResult::Skip;
        }
        let wd = v.argus.watchdog();
        let (c, t) = (wd.count(), wd.threshold());
        if c > t {
            return violation(format!("watchdog count {c} exceeds threshold {t}"));
        }
        if c >= t && !wd.tripped() {
            return violation(format!("watchdog saturated at {c} without tripping"));
        }
        if wd.tripped() && c < t {
            return violation(format!("watchdog tripped with count {c} below threshold {t}"));
        }
        // Active probe (throttled): saturate a clone of the live
        // watchdog and require it to fire. The live counter never gets
        // near the threshold on a healthy run, so trip suppression is
        // invisible to the passive checks above.
        if s.state.fetch_add(1, Ordering::Relaxed).is_multiple_of(64) {
            let mut probe = wd.clone();
            let mut inj = argus_sim::fault::FaultInjector::none();
            if !probe.stall(t, &mut inj) {
                return violation(format!("watchdog probe driven {t} stall cycles did not trip"));
            }
        }
        InvariantResult::Pass
    }
);

invariant!(
    ShsSigsWithinWidth,
    "shs-sigs-within-width",
    Severity::Critical,
    EXEC_HOOKS,
    "SHS file corruption: every one of the 35 location signatures is a \
     width-bit value; a signature with set bits above the width means the \
     file itself (not the program) was corrupted.",
    |_s, ctx| {
        let InvariantCtx::Exec(v) = ctx else { return InvariantResult::Skip };
        let f = v.argus.shs_file();
        let mask = (1u32 << f.width()) - 1;
        for (i, sig) in f.all().iter().enumerate() {
            if sig & !mask != 0 {
                return violation(format!("SHS location {i} holds {sig:#x}, above width mask"));
            }
        }
        InvariantResult::Pass
    }
);

invariant!(
    ShsResetAtBoundary,
    "shs-reset-at-boundary",
    Severity::Critical,
    BLOCK_ONLY,
    "A missed SHS file reset at a basic-block boundary: block signatures are \
     defined over a per-block-reset file, so at a CFC block boundary every \
     location must sit at its initial value.",
    |_s, ctx| {
        let InvariantCtx::Exec(v) = ctx else { return InvariantResult::Skip };
        if !v.argus.config().enable_dcs || !v.argus.cfc().at_block_boundary() {
            return InvariantResult::Skip;
        }
        let f = v.argus.shs_file();
        let fresh = argus_core::shs::ShsFile::new(f.width());
        pass_if(f.all() == fresh.all(), || {
            "SHS file not at initial values at a block boundary".into()
        })
    }
);

invariant!(
    DcsWithinWidth,
    "dcs-within-width",
    Severity::Critical,
    BLOCK_ONLY,
    "DCS fold corruption: the XOR fold of width-bit signatures through the \
     hard-wired permutation is itself a width-bit value.",
    |_s, ctx| {
        let InvariantCtx::Exec(v) = ctx else { return InvariantResult::Skip };
        if !v.argus.config().enable_dcs {
            return InvariantResult::Skip;
        }
        let dcs = v.argus.current_dcs();
        let w = v.argus.config().sig_width;
        pass_if(dcs >> w == 0, || format!("DCS {dcs:#x} has bits above width {w}"))
    }
);

invariant!(
    ShsFusedTablesMatchReference,
    "shs-fused-tables-match-reference",
    Severity::Critical,
    BLOCK_ONLY,
    "Silent corruption of the fused CRC/substitution lookup tables \
     (canary-shs-stale-table-row): every entry must equal a from-scratch \
     recomputation of the bit-serial CRC followed by the substitution box. \
     Self-throttled: the full table sweep runs every 32nd evaluation.",
    |s, ctx| {
        let InvariantCtx::Exec(v) = ctx else { return InvariantResult::Skip };
        if !s.state.fetch_add(1, Ordering::Relaxed).is_multiple_of(32) {
            return InvariantResult::Skip;
        }
        match v.argus.verify_shs_tables() {
            Ok(()) => InvariantResult::Pass,
            Err(e) => violation(e),
        }
    }
);

invariant!(
    ShsOpMemoConsistent,
    "shs-op-memo-consistent",
    Severity::Critical,
    BLOCK_ONLY,
    "A stale or corrupted operation-symbol memo: every cached (pc, instr, \
     sym) triple must satisfy sym == op_sym(instr), else the checker applies \
     wrong symbols without noticing. Self-throttled: the full memo sweep \
     runs every 16th evaluation.",
    |s, ctx| {
        let InvariantCtx::Exec(v) = ctx else { return InvariantResult::Skip };
        if !s.state.fetch_add(1, Ordering::Relaxed).is_multiple_of(16) {
            return InvariantResult::Skip;
        }
        match v.argus.audit_op_memo() {
            Ok(()) => InvariantResult::Pass,
            Err(e) => violation(e),
        }
    }
);

invariant!(
    DcsBlockMemoMatchesFold,
    "dcs-block-memo-matches-fold",
    Severity::Critical,
    BLOCK_ONLY,
    "Divergence between the block-batched checking path and the per-step \
     fold it memoizes: the static DCS and successor slots cached for a block \
     must equal a fresh per-instruction SHS replay over that block's plan.",
    |_s, ctx| {
        let InvariantCtx::Exec(v) = ctx else { return InvariantResult::Skip };
        let Some(plan) = v.block else { return InvariantResult::Skip };
        match v.argus.audit_block_plan(plan) {
            Ok(()) => InvariantResult::Pass,
            Err(e) => violation(e),
        }
    }
);

fn check_cache(label: &str, st: &CacheState, sets: u32, ways: u32) -> Result<(), String> {
    if st.lines.len() != (sets * ways) as usize {
        return Err(format!(
            "{label}: {} lines captured for a {sets}x{ways} geometry",
            st.lines.len()
        ));
    }
    for set in 0..sets as usize {
        let lines = &st.lines[set * ways as usize..(set + 1) * ways as usize];
        for (i, a) in lines.iter().enumerate() {
            if !a.valid {
                continue;
            }
            if a.lru > st.tick {
                return Err(format!(
                    "{label}: set {set} way {i} lru stamp {} ahead of clock {}",
                    a.lru, st.tick
                ));
            }
            for (j, b) in lines.iter().enumerate().skip(i + 1) {
                if b.valid && a.tag == b.tag {
                    return Err(format!(
                        "{label}: set {set} ways {i},{j} hold duplicate tag {:#x}",
                        a.tag
                    ));
                }
            }
        }
    }
    let s = st.stats;
    if s.hits + s.misses != s.accesses {
        return Err(format!(
            "{label}: hits {} + misses {} != accesses {}",
            s.hits, s.misses, s.accesses
        ));
    }
    Ok(())
}

invariant!(
    CacheArraysLegal,
    "cache-arrays-legal",
    Severity::Critical,
    COMMIT_ONLY,
    "Corruption of the flat cache arrays (e.g. by a bad delta restore): \
     valid lines within a set must carry distinct tags, every LRU stamp \
     must be behind the LRU clock, and hits + misses must equal accesses.",
    |_s, ctx| {
        let InvariantCtx::Exec(v) = ctx else { return InvariantResult::Skip };
        let mem = v.machine.mem();
        let cfg = mem.config();
        let caches = mem.capture_caches();
        for (label, st, c) in
            [("icache", &caches.icache, cfg.icache), ("dcache", &caches.dcache, cfg.dcache)]
        {
            if let Err(e) = check_cache(label, st, c.num_sets(), c.ways) {
                return violation(e);
            }
        }
        InvariantResult::Pass
    }
);

invariant!(
    CacheTagsWithinMemory,
    "cache-tags-within-memory",
    Severity::Critical,
    COMMIT_ONLY,
    "Cache tags decoding to addresses outside the backing main-memory pages: \
     every valid line must name a line-aligned address inside mem_bytes, or \
     the tag array and the page store have come apart.",
    |_s, ctx| {
        let InvariantCtx::Exec(v) = ctx else { return InvariantResult::Skip };
        let mem = v.machine.mem();
        let cfg = mem.config();
        let caches = mem.capture_caches();
        for (label, st, c) in
            [("icache", &caches.icache, cfg.icache), ("dcache", &caches.dcache, cfg.dcache)]
        {
            let sets = c.num_sets() as u64;
            let ways = c.ways as usize;
            for (k, l) in st.lines.iter().enumerate() {
                if !l.valid {
                    continue;
                }
                let set = (k / ways) as u64;
                let addr = (u64::from(l.tag) * sets + set) * u64::from(c.line_bytes);
                if addr >= u64::from(cfg.mem_bytes) {
                    return violation(format!(
                        "{label}: valid tag {:#x} decodes to {addr:#x}, beyond mem_bytes {:#x}",
                        l.tag, cfg.mem_bytes
                    ));
                }
            }
        }
        InvariantResult::Pass
    }
);

invariant!(
    SnapshotFingerprintIdentity,
    "snapshot-fingerprint-identity",
    Severity::Critical,
    &[Hook::SnapshotRestore],
    "A snapshot restore that reconstructs different state than was captured \
     (recorded fingerprint vs. recomputed digest) — e.g. a generation-stamp \
     or dirty-page bug in the delta-restore path.",
    |_s, ctx| {
        let InvariantCtx::Snapshot(v) = ctx else { return InvariantResult::Skip };
        pass_if(v.expected == v.reconstructed, || {
            format!(
                "restored state digest {:#x} != captured fingerprint {:#x} (cycle {})",
                v.reconstructed, v.expected, v.cycle
            )
        })
    }
);

invariant!(
    DoneRangesCanonical,
    "done-ranges-canonical",
    Severity::Critical,
    LEDGER_HOOKS,
    "Done-range coalescing that loses or double-counts an injection: the \
     completed ranges must stay sorted, non-empty, disjoint, coalesced \
     (gap-separated), and inside the campaign total.",
    |_s, ctx| {
        let InvariantCtx::Ledger(v) = ctx else { return InvariantResult::Skip };
        let mut prev_end: Option<u64> = None;
        for &(s, e) in &v.done {
            if s >= e {
                return violation(format!("empty or inverted done range [{s}, {e})"));
            }
            if e > v.total {
                return violation(format!("done range [{s}, {e}) beyond total {}", v.total));
            }
            if let Some(p) = prev_end {
                if s <= p {
                    return violation(format!(
                        "done range [{s}, {e}) overlaps or abuts previous end {p} (uncoalesced)"
                    ));
                }
            }
            prev_end = Some(e);
        }
        InvariantResult::Pass
    }
);

invariant!(
    TallyAccountsDone,
    "tally-accounts-done",
    Severity::Critical,
    LEDGER_HOOKS,
    "Tally/ledger conservation: the injections the tally accounts for must \
     equal the injections the done ranges cover — broken by dropping a \
     stolen lease's results (canary-tally-drop-on-steal), double-merging a \
     remote completion (canary-lease-double-complete), or losing quarantine \
     entries across resume (canary-quarantine-drop-on-resume).",
    |_s, ctx| {
        let InvariantCtx::Ledger(v) = ctx else { return InvariantResult::Skip };
        let covered = v.covered();
        pass_if(v.accounted == covered, || {
            format!("tally accounts for {} injections but done ranges cover {covered}", v.accounted)
        })
    }
);

invariant!(
    TallyWithinTotal,
    "tally-within-total",
    Severity::Critical,
    LEDGER_HOOKS,
    "Tally counter overflow or double-merge: no outcome counter, nor the \
     accounted sum, may exceed the campaign total.",
    |_s, ctx| {
        let InvariantCtx::Ledger(v) = ctx else { return InvariantResult::Skip };
        if v.accounted > v.total {
            return violation(format!("accounted {} exceeds total {}", v.accounted, v.total));
        }
        for (i, &c) in v.outcomes.iter().enumerate() {
            if c > v.total {
                return violation(format!("outcome counter {i} at {c} exceeds total {}", v.total));
            }
        }
        if v.hung > v.total {
            return violation(format!("hung count {} exceeds total {}", v.hung, v.total));
        }
        InvariantResult::Pass
    }
);

invariant!(
    QuarantineLedgerCanonical,
    "quarantine-ledger-canonical",
    Severity::Critical,
    LEDGER_HOOKS,
    "Quarantine-ledger corruption across steal/lease-expiry/resume: the \
     quarantined indices must stay sorted, unique, inside the total, and \
     each must lie inside a completed done range (a quarantined injection \
     is a completed injection).",
    |_s, ctx| {
        let InvariantCtx::Ledger(v) = ctx else { return InvariantResult::Skip };
        let mut prev: Option<u64> = None;
        for &ix in &v.quarantine_indices {
            if ix >= v.total {
                return violation(format!("quarantined index {ix} beyond total {}", v.total));
            }
            if let Some(p) = prev {
                if ix <= p {
                    return violation(format!(
                        "quarantine ledger not strictly increasing at index {ix} (prev {p})"
                    ));
                }
            }
            if !v.done.iter().any(|&(s, e)| ix >= s && ix < e) {
                return violation(format!(
                    "quarantined index {ix} is not inside any completed done range"
                ));
            }
            prev = Some(ix);
        }
        InvariantResult::Pass
    }
);

invariant!(
    CompletedMonotone,
    "completed-monotone",
    Severity::Critical,
    LEDGER_HOOKS,
    "Ledger regression: the number of completed injections never decreases \
     within one engine run — a decrease means a merge or resume dropped \
     completed work.",
    |s, ctx| {
        let InvariantCtx::Ledger(v) = ctx else { return InvariantResult::Skip };
        let covered = v.covered();
        // Monotone high-water mark; the stored value only ever grows.
        let prev = s.state.fetch_max(covered, Ordering::Relaxed);
        pass_if(covered >= prev, || format!("completed count regressed from {prev} to {covered}"))
    }
);

invariant!(
    CfcBitsMatchLength,
    "cfc-bits-match-length",
    Severity::Critical,
    EXEC_HOOKS,
    "A CFC whose collected embedded-bit stream and instruction counter come \
     apart (delay-slot/transition bookkeeping bugs): collected bits without \
     counted instructions, or an implausibly long stream for the counted \
     block length, mean the per-commit transition accounting is broken.",
    |_s, ctx| {
        let InvariantCtx::Exec(v) = ctx else { return InvariantResult::Skip };
        if !v.argus.config().enable_dcs {
            return InvariantResult::Skip;
        }
        let cfc = v.argus.cfc();
        let (bits, len) = (cfc.bits_len(), cfc.block_len());
        if len == 0 && bits != 0 {
            return violation(format!("{bits} embedded bits collected with zero instructions"));
        }
        pass_if(bits as u64 <= u64::from(len) * 32, || {
            format!("{bits} embedded bits collected over only {len} instructions")
        })
    }
);

invariant!(
    StorePageIndexCanonical,
    "store-page-index-canonical",
    Severity::Critical,
    &[Hook::StoreOpen],
    "Snapshot-store index corruption at open time: every snapshot's page \
     table must cover exactly its memory image (one entry per page), page \
     ids must stay inside the stored page pool, capture cycles must be \
     strictly increasing, and the reference/distinct page accounting must \
     balance — a store violating any of these would fork corrupted state \
     into every injection.",
    |_s, ctx| {
        let InvariantCtx::Store(v) = ctx else { return InvariantResult::Skip };
        if v.table_lens.len() != v.snapshots || v.cycles.len() != v.snapshots {
            return violation(format!(
                "store holds {} snapshots but {} page tables / {} cycles",
                v.snapshots,
                v.table_lens.len(),
                v.cycles.len()
            ));
        }
        for (i, (&got, &want)) in v.table_lens.iter().zip(&v.expected_lens).enumerate() {
            if got != want {
                return violation(format!(
                    "snapshot {i} page table has {got} entries, memory needs {want}"
                ));
            }
        }
        for w in v.cycles.windows(2) {
            if w[1] <= w[0] {
                return violation(format!(
                    "capture cycles not strictly increasing: {} then {}",
                    w[0], w[1]
                ));
            }
        }
        if u64::from(v.max_page_id) >= v.pages_distinct {
            return violation(format!(
                "page id {} referenced but only {} pages stored",
                v.max_page_id, v.pages_distinct
            ));
        }
        let refs: u64 = v.table_lens.iter().map(|&n| n as u64).sum();
        pass_if(v.pages_total == refs, || {
            format!("store accounts {} page references but tables hold {refs}", v.pages_total)
        })
    }
);

invariant!(
    StorePageCrcSpotCheck,
    "store-page-crc-spot-check",
    Severity::Critical,
    &[Hook::StoreOpen],
    "Bit rot or post-write tampering in a snapshot store's page bodies: \
     a deterministic sample of stored pages is re-CRCed against the \
     store's page index at open; a mismatch means the store (a mapped \
     file, or its in-memory image) no longer holds the bytes the golden \
     run wrote.",
    |_s, ctx| {
        let InvariantCtx::Store(v) = ctx else { return InvariantResult::Skip };
        for &(id, ok) in &v.crc_checks {
            if !ok {
                return violation(format!("stored page {id} fails its index CRC"));
            }
        }
        InvariantResult::Pass
    }
);

/// Builds one fresh instance of every registered invariant. Per-campaign
/// instances: some invariants carry monotonicity state.
pub fn registry() -> Vec<Box<dyn Invariant>> {
    vec![
        PcWordAligned::boxed(),
        RetiredWithinCycles::boxed(),
        CfcBlockLengthBound::boxed(),
        CfcExpectationArmed::boxed(),
        WatchdogWithinBudget::boxed(),
        ShsSigsWithinWidth::boxed(),
        ShsResetAtBoundary::boxed(),
        DcsWithinWidth::boxed(),
        ShsFusedTablesMatchReference::boxed(),
        ShsOpMemoConsistent::boxed(),
        CfcBitsMatchLength::boxed(),
        DcsBlockMemoMatchesFold::boxed(),
        CacheArraysLegal::boxed(),
        CacheTagsWithinMemory::boxed(),
        SnapshotFingerprintIdentity::boxed(),
        DoneRangesCanonical::boxed(),
        TallyAccountsDone::boxed(),
        TallyWithinTotal::boxed(),
        QuarantineLedgerCanonical::boxed(),
        CompletedMonotone::boxed(),
        StorePageIndexCanonical::boxed(),
        StorePageCrcSpotCheck::boxed(),
    ]
}

/// The names of the deliberately seeded checker bugs gated behind the
/// `canary` cargo feature (activated one at a time via `ARGUS_CANARY`).
/// `scripts/canary_matrix.sh` iterates exactly this list.
pub const CANARIES: &[&str] = &[
    "canary-dcs-skip-last-block",
    "canary-shs-stale-table-row",
    "canary-cfc-drop-expectation",
    "canary-watchdog-never-fires",
    "canary-parity-skip-loads",
    "canary-tally-drop-on-steal",
    "canary-lease-double-complete",
    "canary-quarantine-drop-on-resume",
    "canary-reconverge-skip-checker",
    "canary-dead-site-first-tap",
    "canary-tapped-op-skips-draw",
    "canary-early-finish-live-bit",
    "canary-cursor-skips-walk-page",
    "canary-tapped-op-stale-cycle",
];

// ---------------------------------------------------------------------------
// Engine: registry + mode + violation sink
// ---------------------------------------------------------------------------

/// Aggregated invariant-checking results, plain data for report JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvariantStats {
    /// The mode label ("off"/"sampled"/"full").
    pub mode: String,
    /// Invariant evaluations that returned Pass or Violation.
    pub checks_run: u64,
    /// Total violations observed.
    pub violations: u64,
    /// Violation counts keyed by invariant name (violating invariants
    /// only; empty when everything held).
    pub per_invariant: Vec<(String, u64)>,
    /// Up to [`MAX_EXAMPLES`] example violations as (invariant, detail).
    pub examples: Vec<(String, String)>,
}

impl InvariantStats {
    /// The increment since `prev` (an earlier snapshot of the same
    /// engine). Remote workers post per-chunk deltas rather than their
    /// cumulative totals, so the coordinator can `absorb_remote` each
    /// post without double-counting; deltas telescope back to the total.
    pub fn delta_since(&self, prev: &InvariantStats) -> InvariantStats {
        let per_invariant = self
            .per_invariant
            .iter()
            .filter_map(|(name, count)| {
                let before =
                    prev.per_invariant.iter().find(|(n, _)| n == name).map_or(0, |(_, c)| *c);
                let d = count.saturating_sub(before);
                (d > 0).then(|| (name.clone(), d))
            })
            .collect();
        InvariantStats {
            mode: self.mode.clone(),
            checks_run: self.checks_run.saturating_sub(prev.checks_run),
            violations: self.violations.saturating_sub(prev.violations),
            per_invariant,
            examples: self.examples.get(prev.examples.len()..).unwrap_or_default().to_vec(),
        }
    }

    /// True when this snapshot carries nothing worth posting.
    pub fn is_empty(&self) -> bool {
        self.checks_run == 0 && self.violations == 0 && self.per_invariant.is_empty()
    }
}

/// Cap on retained example violation details.
pub const MAX_EXAMPLES: usize = 8;

#[derive(Default)]
struct SinkDetail {
    counts: BTreeMap<String, u64>,
    examples: Vec<(String, String)>,
}

/// A registry instance bound to a mode, with thread-safe violation
/// accounting. One per campaign; shared by every worker.
pub struct InvariantEngine {
    mode: InvariantMode,
    invariants: Vec<Box<dyn Invariant>>,
    entry_armed: AtomicBool,
    checks_run: AtomicU64,
    violations: AtomicU64,
    snapshot_clock: AtomicU64,
    detail: Mutex<SinkDetail>,
}

impl InvariantEngine {
    /// Builds the full registry at the given mode.
    pub fn new(mode: InvariantMode) -> Self {
        Self {
            mode,
            invariants: if mode == InvariantMode::Off { Vec::new() } else { registry() },
            entry_armed: AtomicBool::new(false),
            checks_run: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            snapshot_clock: AtomicU64::new(0),
            detail: Mutex::new(SinkDetail::default()),
        }
    }

    /// The mode this engine runs at.
    pub fn mode(&self) -> InvariantMode {
        self.mode
    }

    /// Whether any checking happens at all.
    pub fn enabled(&self) -> bool {
        self.mode != InvariantMode::Off
    }

    /// Records whether the campaign armed an entry-block DCS.
    pub fn set_entry_armed(&self, armed: bool) {
        self.entry_armed.store(armed, Ordering::Relaxed);
    }

    /// Whether the campaign armed an entry-block DCS.
    pub fn entry_armed(&self) -> bool {
        self.entry_armed.load(Ordering::Relaxed)
    }

    /// Whether this snapshot restore should be identity-checked (advances
    /// the shared restore clock).
    pub fn snapshot_due(&self) -> bool {
        let stride = self.mode.snapshot_stride();
        if stride == 0 {
            return false;
        }
        self.snapshot_clock.fetch_add(1, Ordering::Relaxed).is_multiple_of(stride)
    }

    /// Evaluates every invariant subscribed to `hook` against `ctx`.
    /// Returns the number of new violations.
    pub fn run_hook(&self, hook: Hook, ctx: &InvariantCtx) -> u64 {
        if self.mode == InvariantMode::Off {
            return 0;
        }
        let mut new_violations = 0u64;
        for inv in &self.invariants {
            if !inv.hooks().contains(&hook) {
                continue;
            }
            match inv.check(ctx) {
                InvariantResult::Skip => {}
                InvariantResult::Pass => {
                    self.checks_run.fetch_add(1, Ordering::Relaxed);
                }
                InvariantResult::Violation(detail) => {
                    self.checks_run.fetch_add(1, Ordering::Relaxed);
                    self.violations.fetch_add(1, Ordering::Relaxed);
                    new_violations += 1;
                    let mut d = self.detail.lock().unwrap();
                    *d.counts.entry(inv.name().to_string()).or_insert(0) += 1;
                    if d.examples.len() < MAX_EXAMPLES {
                        d.examples.push((inv.name().to_string(), detail));
                    }
                }
            }
        }
        new_violations
    }

    /// Total violations so far.
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Total evaluations so far.
    pub fn checks_run(&self) -> u64 {
        self.checks_run.load(Ordering::Relaxed)
    }

    /// The first recorded violation as "invariant: detail" (exit messages).
    pub fn first_violation(&self) -> Option<String> {
        let d = self.detail.lock().unwrap();
        d.examples.first().map(|(n, e)| format!("{n}: {e}"))
    }

    /// Folds violation accounting reported by a remote worker into this
    /// engine (the worker ran the same registry on its own chunk).
    pub fn absorb_remote(&self, stats: &InvariantStats) {
        self.checks_run.fetch_add(stats.checks_run, Ordering::Relaxed);
        self.violations.fetch_add(stats.violations, Ordering::Relaxed);
        if stats.violations == 0 && stats.per_invariant.is_empty() {
            return;
        }
        let mut d = self.detail.lock().unwrap();
        for (name, count) in &stats.per_invariant {
            *d.counts.entry(name.clone()).or_insert(0) += count;
        }
        for (name, ex) in &stats.examples {
            if d.examples.len() < MAX_EXAMPLES {
                d.examples.push((name.clone(), ex.clone()));
            }
        }
    }

    /// Plain-data snapshot of the accounting, for report JSON.
    pub fn stats(&self) -> InvariantStats {
        let d = self.detail.lock().unwrap();
        InvariantStats {
            mode: self.mode.label().to_string(),
            checks_run: self.checks_run(),
            violations: self.violations(),
            per_invariant: d.counts.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            examples: d.examples.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_core::ArgusConfig;
    use argus_machine::{Machine, MachineConfig};

    fn exec_ctx<'a>(m: &'a Machine, a: &'a Argus) -> InvariantCtx<'a> {
        InvariantCtx::Exec(ExecView { machine: m, argus: a, entry_armed: false, block: None })
    }

    #[test]
    fn registry_meets_floor_and_is_documented() {
        let regs = registry();
        assert!(regs.len() >= 15, "registry shrank below the 15-invariant floor");
        let mut names = std::collections::HashSet::new();
        for inv in &regs {
            assert!(!inv.expected_to_catch().is_empty(), "{} undocumented", inv.name());
            assert!(!inv.hooks().is_empty(), "{} subscribed to no hooks", inv.name());
            assert!(names.insert(inv.name()), "duplicate invariant name {}", inv.name());
            assert!(
                inv.name().chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{} is not kebab-case",
                inv.name()
            );
        }
    }

    #[test]
    fn fresh_machine_passes_every_exec_hook() {
        let m = Machine::new(MachineConfig::default());
        let a = Argus::new(ArgusConfig::default());
        let eng = InvariantEngine::new(InvariantMode::Full);
        for hook in [Hook::Commit, Hook::BlockEnd] {
            eng.run_hook(hook, &exec_ctx(&m, &a));
        }
        assert_eq!(eng.violations(), 0, "{:?}", eng.stats().examples);
        assert!(eng.checks_run() > 0);
    }

    #[test]
    fn ledger_conservation_catches_dropped_tally() {
        let eng = InvariantEngine::new(InvariantMode::Sampled);
        let good = LedgerView {
            total: 100,
            done: vec![(0, 10), (20, 30)],
            outcomes: vec![15, 3, 2, 0],
            hung: 0,
            quarantine_indices: vec![5, 25],
            accounted: 20,
        };
        eng.run_hook(Hook::ChunkComplete, &InvariantCtx::Ledger(good.clone()));
        assert_eq!(eng.violations(), 0, "{:?}", eng.stats().examples);

        let mut dropped = good;
        dropped.accounted = 15; // a stolen lease's results went missing
        eng.run_hook(Hook::ChunkComplete, &InvariantCtx::Ledger(dropped));
        assert!(eng.violations() > 0);
        assert!(eng.first_violation().unwrap().starts_with("tally-accounts-done"));
    }

    #[test]
    fn ledger_catches_uncanonical_ranges_and_quarantine() {
        for (view, want) in [
            (
                LedgerView {
                    total: 50,
                    done: vec![(0, 10), (5, 20)],
                    accounted: 25,
                    ..Default::default()
                },
                "done-ranges-canonical",
            ),
            (
                LedgerView {
                    total: 50,
                    done: vec![(0, 10)],
                    quarantine_indices: vec![40],
                    accounted: 10,
                    ..Default::default()
                },
                "quarantine-ledger-canonical",
            ),
            (
                LedgerView { total: 5, done: vec![(0, 5)], accounted: 9, ..Default::default() },
                "tally-accounts-done",
            ),
        ] {
            let eng = InvariantEngine::new(InvariantMode::Full);
            eng.run_hook(Hook::Checkpoint, &InvariantCtx::Ledger(view));
            let first = eng.first_violation().expect("violation expected");
            assert!(first.starts_with(want), "wanted {want}, got {first}");
        }
    }

    #[test]
    fn completed_monotone_flags_regression() {
        let eng = InvariantEngine::new(InvariantMode::Full);
        let at = |n: u64| LedgerView {
            total: 100,
            done: vec![(0, n)],
            accounted: n,
            ..Default::default()
        };
        eng.run_hook(Hook::ChunkComplete, &InvariantCtx::Ledger(at(30)));
        assert_eq!(eng.violations(), 0);
        eng.run_hook(Hook::ChunkComplete, &InvariantCtx::Ledger(at(10)));
        assert!(eng.stats().per_invariant.iter().any(|(n, _)| n == "completed-monotone"));
    }

    #[test]
    fn snapshot_identity_catches_mismatch() {
        let eng = InvariantEngine::new(InvariantMode::Full);
        let ok = SnapshotView { expected: 7, reconstructed: 7, cycle: 10 };
        eng.run_hook(Hook::SnapshotRestore, &InvariantCtx::Snapshot(ok));
        assert_eq!(eng.violations(), 0);
        let bad = SnapshotView { expected: 7, reconstructed: 8, cycle: 10 };
        eng.run_hook(Hook::SnapshotRestore, &InvariantCtx::Snapshot(bad));
        assert!(eng.first_violation().unwrap().starts_with("snapshot-fingerprint-identity"));
    }

    #[test]
    fn off_mode_runs_nothing() {
        let eng = InvariantEngine::new(InvariantMode::Off);
        assert!(!eng.enabled());
        let bad = SnapshotView { expected: 1, reconstructed: 2, cycle: 0 };
        eng.run_hook(Hook::SnapshotRestore, &InvariantCtx::Snapshot(bad));
        assert_eq!(eng.checks_run(), 0);
        assert_eq!(eng.violations(), 0);
        assert!(!eng.snapshot_due());
    }

    #[test]
    fn mode_parse_roundtrip() {
        for m in [InvariantMode::Off, InvariantMode::Sampled, InvariantMode::Full] {
            assert_eq!(InvariantMode::parse(m.label()), Some(m));
        }
        assert_eq!(InvariantMode::parse("bogus"), None);
        assert_eq!(InvariantMode::default(), InvariantMode::Sampled);
    }

    #[test]
    fn absorb_remote_folds_counts_and_examples() {
        let eng = InvariantEngine::new(InvariantMode::Sampled);
        let remote = InvariantStats {
            mode: "sampled".into(),
            checks_run: 40,
            violations: 2,
            per_invariant: vec![("tally-accounts-done".into(), 2)],
            examples: vec![("tally-accounts-done".into(), "remote detail".into())],
        };
        eng.absorb_remote(&remote);
        let s = eng.stats();
        assert_eq!(s.checks_run, 40);
        assert_eq!(s.violations, 2);
        assert_eq!(s.per_invariant, vec![("tally-accounts-done".to_string(), 2)]);
        assert_eq!(eng.first_violation().unwrap(), "tally-accounts-done: remote detail");
    }

    fn store_view() -> StoreView {
        StoreView {
            snapshots: 2,
            pages_distinct: 5,
            pages_total: 8,
            table_lens: vec![4, 4],
            expected_lens: vec![4, 4],
            cycles: vec![100, 200],
            max_page_id: 4,
            crc_checks: vec![(0, true), (4, true)],
        }
    }

    #[test]
    fn healthy_store_passes_open_hook() {
        let eng = InvariantEngine::new(InvariantMode::Full);
        eng.run_hook(Hook::StoreOpen, &InvariantCtx::Store(store_view()));
        assert_eq!(eng.violations(), 0, "{:?}", eng.stats().examples);
        assert!(eng.checks_run() >= 2);
    }

    #[test]
    fn store_open_catches_index_and_crc_corruption() {
        for (mutate, want) in [
            (
                Box::new(|v: &mut StoreView| v.table_lens[1] = 3) as Box<dyn Fn(&mut StoreView)>,
                "store-page-index-canonical",
            ),
            (Box::new(|v: &mut StoreView| v.cycles = vec![200, 100]), "store-page-index-canonical"),
            (Box::new(|v: &mut StoreView| v.max_page_id = 5), "store-page-index-canonical"),
            (Box::new(|v: &mut StoreView| v.pages_total = 9), "store-page-index-canonical"),
            (
                Box::new(|v: &mut StoreView| v.crc_checks[1] = (4, false)),
                "store-page-crc-spot-check",
            ),
        ] {
            let mut v = store_view();
            mutate(&mut v);
            let eng = InvariantEngine::new(InvariantMode::Full);
            eng.run_hook(Hook::StoreOpen, &InvariantCtx::Store(v));
            let first = eng.first_violation().expect("violation expected");
            assert!(first.starts_with(want), "wanted {want}, got {first}");
        }
    }

    #[test]
    fn canary_list_is_stable() {
        assert_eq!(CANARIES.len(), 14);
        for c in CANARIES {
            assert!(c.starts_with("canary-"), "{c} must carry the canary- prefix");
        }
    }
}
