//! # argus-cli — command-line driver
//!
//! A small front end over the workspace for interactive use:
//!
//! ```text
//! argus asm <file.s> [--argus]           disassemble the compiled image
//! argus run <file.s> [--baseline] [--two-way] [--regs r3,r4]
//! argus inject <file.s> --site S --bit N [--permanent] [--arm C]
//! argus campaign [-n N] [--permanent] [--snapshot-every N] [--shards N]
//!                [--checkpoint PATH]
//!                [--checkpoint-interval-ms MS] [--resume]
//!                [--inj-cycle-factor F] [--quarantine-limit N] [--strict]
//!                [--json] [--quiet]
//! argus snapshot save|pack|info|restore  standalone ARGSTORE files
//! argus sites                            list the fault-site inventory
//! ```
//!
//! `campaign` runs serially by default (the historical path); any of the
//! sharded-engine flags (`--shards/--checkpoint/--resume/--json/--quiet/
//! --strict/--quarantine-limit/--checkpoint-interval-ms`) routes it through
//! the sharded [`argus_orchestrator`] engine, which adds Ctrl-C-safe
//! cancellation, checkpoint/resume, live progress on stderr, and the
//! supervision layer (panic quarantine, injection watchdogs,
//! corrupt-artifact recovery). Tallies are identical either way for a
//! given seed.
//!
//! The library half exposes the command implementations so they are unit
//! testable; `main.rs` is a thin argv shim.

use argus_compiler::{asm, compile, EmbedConfig, Mode};
use argus_core::{Argus, ArgusConfig};
use argus_faults::campaign::{run_campaign, CampaignConfig, ChaosConfig};
use argus_faults::Outcome;
use argus_invariants::InvariantMode;
use argus_machine::{Machine, MachineConfig, StepOutcome};
use argus_mem::MemConfig;
use argus_orchestrator::{run_sharded, OrchestratorConfig, Progress, ShardedReport};
use argus_sim::fault::{Fault, FaultInjector, FaultKind};
use argus_snapshot::{combined_fingerprint, MappedStore, MappedStoreWriter, PageCache};
use std::fmt::Write as _;

// Signal wiring (SIGINT + SIGTERM -> one stop flag) lives in
// `argus_sim::supervise::signals`, shared between `argus campaign` and the
// `argus serve` daemon; it is installed only by the long-running verbs so
// other subcommands keep the default interrupt behaviour.
use argus_sim::supervise::signals;

/// A CLI-level failure, printed to stderr with its exit code.
///
/// Exit codes are uniform across every verb:
///
/// - `0` — success
/// - `1` — runtime failure (I/O, compile, engine, verification)
/// - `2` — usage error (unknown command/flag, malformed or out-of-range
///   flag value)
#[derive(Debug)]
pub struct CliError {
    /// Message for stderr.
    pub msg: String,
    /// Process exit code (`1` runtime, `2` usage).
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for CliError {}

/// A runtime failure (exit code 1).
fn fail(msg: impl Into<String>) -> CliError {
    CliError { msg: msg.into(), code: 1 }
}

/// A usage error (exit code 2).
fn usage(msg: impl Into<String>) -> CliError {
    CliError { msg: msg.into(), code: 2 }
}

/// Simple flag scanner: `--name value` and boolean `--name`.
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    /// Wraps raw arguments (without the program name and subcommand).
    pub fn new(rest: Vec<String>) -> Self {
        Self { rest }
    }

    /// Removes and returns a boolean flag.
    pub fn flag(&mut self, name: &str) -> bool {
        if let Some(i) = self.rest.iter().position(|a| a == name) {
            self.rest.remove(i);
            true
        } else {
            false
        }
    }

    /// Removes and returns a `--name value` option.
    pub fn opt(&mut self, name: &str) -> Option<String> {
        let i = self.rest.iter().position(|a| a == name)?;
        if i + 1 >= self.rest.len() {
            return None;
        }
        let v = self.rest.remove(i + 1);
        self.rest.remove(i);
        Some(v)
    }

    /// Removes and returns the first positional argument.
    pub fn positional(&mut self) -> Option<String> {
        let i = self.rest.iter().position(|a| !a.starts_with("--"))?;
        Some(self.rest.remove(i))
    }

    /// Errors if anything was left unconsumed.
    pub fn finish(self) -> Result<(), CliError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(usage(format!("unrecognized arguments: {:?}", self.rest)))
        }
    }
}

fn load_unit(path: &str) -> Result<argus_compiler::ProgramUnit, CliError> {
    let src =
        std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read `{path}`: {e}")))?;
    asm::assemble(&src).map_err(|e| fail(format!("{path}: {e}")))
}

/// `argus asm`: compile and disassemble.
pub fn cmd_asm(mut args: Args) -> Result<String, CliError> {
    let path = args.positional().ok_or_else(|| usage("usage: argus asm <file.s> [--argus]"))?;
    let mode = if args.flag("--argus") { Mode::Argus } else { Mode::Baseline };
    args.finish()?;
    let unit = load_unit(&path)?;
    let prog = compile(&unit, mode, &EmbedConfig::default()).map_err(|e| fail(e.to_string()))?;
    let mut out = asm::disassemble(&prog.code, prog.code_base);
    let _ = writeln!(
        out,
        "; {} instructions ({} signature words), {} data words, mode {:?}",
        prog.stats.static_instrs,
        prog.stats.sig_instrs,
        prog.data.len(),
        mode
    );
    Ok(out)
}

/// `argus run`: compile + execute, optionally under the checker.
pub fn cmd_run(mut args: Args) -> Result<String, CliError> {
    let path = args.positional().ok_or_else(|| {
        usage("usage: argus run <file.s> [--baseline] [--two-way] [--regs r3,r4]")
    })?;
    let baseline = args.flag("--baseline");
    let two_way = args.flag("--two-way");
    let regs: Vec<argus_isa::Reg> = match args.opt("--regs") {
        Some(spec) => spec
            .split(',')
            .map(|t| {
                t.trim()
                    .strip_prefix('r')
                    .and_then(|n| n.parse::<u8>().ok())
                    .filter(|&n| n < 32)
                    .map(argus_isa::Reg::new)
                    .ok_or_else(|| usage(format!("bad register `{t}`")))
            })
            .collect::<Result<_, _>>()?,
        None => vec![],
    };
    let max_cycles: u64 = match args.opt("--max-cycles") {
        Some(s) => s.parse().map_err(|_| usage("bad --max-cycles"))?,
        None => 200_000_000,
    };
    let trace: u64 = match args.opt("--trace") {
        Some(s) => s.parse().map_err(|_| usage("bad --trace"))?,
        None => 0,
    };
    args.finish()?;

    let unit = load_unit(&path)?;
    let mode = if baseline { Mode::Baseline } else { Mode::Argus };
    let prog = compile(&unit, mode, &EmbedConfig::default()).map_err(|e| fail(e.to_string()))?;
    let mem = if two_way { MemConfig::default().two_way() } else { MemConfig::default() };
    let mut m = Machine::new(MachineConfig { argus_mode: !baseline, mem, ..Default::default() });
    prog.load(&mut m);

    let mut out = String::new();
    let mut checker = (!baseline).then(|| {
        let mut c = Argus::new(ArgusConfig::default());
        c.expect_entry(prog.entry_dcs.unwrap_or(0));
        c
    });
    let mut inj = FaultInjector::none();
    // Same loop shape and timeout classification as `Machine::run_to_halt`:
    // `halted` distinguishes a clean `halt` from a cycle-budget timeout.
    while !m.halted() && m.cycle() < max_cycles {
        match m.step(&mut inj) {
            StepOutcome::Committed(rec) => {
                if m.retired() <= trace {
                    let _ = writeln!(
                        out,
                        "[{:>6}] {:#06x}: {}{}",
                        rec.cycle,
                        rec.pc,
                        rec.instr,
                        if rec.block_end { "   ; block end" } else { "" }
                    );
                }
                if let Some(c) = checker.as_mut() {
                    for ev in c.on_commit(&rec, &mut inj) {
                        let _ = writeln!(out, "DETECTED: {ev}");
                    }
                }
            }
            StepOutcome::Stalled => {
                if let Some(c) = checker.as_mut() {
                    c.on_stall(1, &mut inj);
                }
            }
            StepOutcome::Halted => break,
        }
    }
    let res = m.run_result();
    let _ = writeln!(
        out,
        "halted={} cycles={} retired={} detections={}",
        res.halted,
        res.cycles,
        res.retired,
        checker.as_ref().map(|c| c.events().len()).unwrap_or(0)
    );
    for r in regs {
        let _ = writeln!(out, "{r} = {:#010x}", m.reg(r));
    }
    Ok(out)
}

/// `argus inject`: single-fault run with outcome report.
pub fn cmd_inject(mut args: Args) -> Result<String, CliError> {
    let path = args.positional().ok_or_else(|| {
        usage("usage: argus inject <file.s> --site S --bit N [--permanent] [--arm C]")
    })?;
    let site_name = args.opt("--site").ok_or_else(|| usage("--site is required"))?;
    let bit: u8 = args
        .opt("--bit")
        .ok_or_else(|| usage("--bit is required"))?
        .parse()
        .map_err(|_| usage("bad --bit"))?;
    let kind = if args.flag("--permanent") { FaultKind::Permanent } else { FaultKind::Transient };
    let arm: u64 = match args.opt("--arm") {
        Some(s) => s.parse().map_err(|_| usage("bad --arm"))?,
        None => 100,
    };
    args.finish()?;

    let inventory = argus_faults::sites::full_inventory();
    let site = inventory
        .iter()
        .find(|s| s.name == site_name)
        .ok_or_else(|| usage(format!("unknown site `{site_name}` (try `argus sites`)")))?;
    if bit >= site.width {
        return Err(usage(format!(
            "bit {bit} out of range for {site_name} (width {})",
            site.width
        )));
    }

    let unit = load_unit(&path)?;
    let prog =
        compile(&unit, Mode::Argus, &EmbedConfig::default()).map_err(|e| fail(e.to_string()))?;

    // Golden run for masking classification.
    let mut golden = Machine::new(MachineConfig::default());
    prog.load(&mut golden);
    golden.run_to_halt(&mut FaultInjector::none(), 200_000_000);
    let (gd, gc) = (golden.state_digest(), golden.cycle());

    let mut m = Machine::new(MachineConfig::default());
    prog.load(&mut m);
    let mut checker = Argus::new(ArgusConfig::default());
    checker.expect_entry(prog.entry_dcs.unwrap_or(0));
    let mut inj = FaultInjector::with_fault(Fault {
        site: site.name,
        bit,
        kind,
        arm_cycle: arm,
        flavor: site.flavor,
        width: site.width,
        sensitization: 1.0,
    });
    loop {
        match m.step(&mut inj) {
            StepOutcome::Committed(rec) => {
                checker.on_commit(&rec, &mut inj);
            }
            StepOutcome::Stalled => {
                checker.on_stall(1, &mut inj);
            }
            StepOutcome::Halted => break,
        }
        if m.cycle() > gc * 2 + 2_000 {
            break;
        }
    }
    if checker.first_detection().is_none() {
        checker.scrub_memory(&m, prog.data_base, &mut inj);
    }

    let masked = m.halted() && m.state_digest() == gd;
    let mut out = String::new();
    let _ = writeln!(out, "site {site_name} bit {bit} ({kind:?}, armed at cycle {arm})");
    let _ = writeln!(out, "exercised: {:?}", inj.first_flip_cycle());
    match checker.first_detection() {
        Some(ev) => {
            let _ = writeln!(out, "detected: {ev}");
        }
        None => {
            let _ = writeln!(out, "detected: no");
        }
    }
    let _ = writeln!(
        out,
        "outcome: {}",
        match (masked, checker.first_detection().is_some()) {
            (false, false) => "UNMASKED, UNDETECTED — silent data corruption",
            (false, true) => "unmasked, detected",
            (true, false) => "masked, undetected",
            (true, true) => "masked, detected (DME)",
        }
    );
    Ok(out)
}

/// `argus sites`: the fault-site inventory.
pub fn cmd_sites(args: Args) -> Result<String, CliError> {
    args.finish()?;
    let mut out =
        format!("{:24} {:>5} {:>9} {:>7} {}\n", "site", "width", "weight", "sens", "unit");
    for s in argus_faults::sites::full_inventory() {
        let _ = writeln!(
            out,
            "{:24} {:>5} {:>9.2} {:>7.2} {}{}",
            s.name,
            s.width,
            s.weight,
            s.sensitization,
            s.unit,
            if matches!(s.flavor, argus_sim::fault::SiteFlavor::Double) { " (double)" } else { "" }
        );
    }
    Ok(out)
}

/// `argus campaign`: a Table-1 campaign on the stress microbenchmark.
///
/// Without orchestrator flags this is the historical single-threaded path.
/// `--shards/--checkpoint/--resume/--json/--quiet` switch to the sharded
/// engine: same tallies for the same seed, plus parallelism, Ctrl-C-safe
/// checkpoints, and live progress on stderr.
pub fn cmd_campaign(mut args: Args) -> Result<String, CliError> {
    let n: usize = match args.opt("-n") {
        Some(s) => s.parse().map_err(|_| usage("bad -n"))?,
        None => 1000,
    };
    let kind = if args.flag("--permanent") { FaultKind::Permanent } else { FaultKind::Transient };
    let seed: Option<u64> = match args.opt("--seed") {
        Some(s) => Some(s.parse().map_err(|_| usage("bad --seed"))?),
        None => None,
    };
    let snapshot_every: Option<u64> = match args.opt("--snapshot-every") {
        Some(s) => Some(
            s.parse()
                .ok()
                .filter(|&v| v >= 1)
                .ok_or_else(|| usage("bad --snapshot-every (want an integer >= 1)"))?,
        ),
        None => None,
    };
    let inj_cycle_factor: Option<f64> = match args.opt("--inj-cycle-factor") {
        Some(s) => Some(
            s.parse()
                .ok()
                .filter(|v: &f64| v.is_finite() && *v >= 1.0)
                .ok_or_else(|| usage("bad --inj-cycle-factor (want a number >= 1)"))?,
        ),
        None => None,
    };
    let quarantine_limit: Option<usize> = match args.opt("--quarantine-limit") {
        Some(s) => Some(
            s.parse()
                .ok()
                .filter(|&v: &usize| v >= 1)
                .ok_or_else(|| usage("bad --quarantine-limit (want an integer >= 1)"))?,
        ),
        None => None,
    };
    let checkpoint_interval_ms: Option<u64> = match args.opt("--checkpoint-interval-ms") {
        Some(s) => Some(
            s.parse()
                .ok()
                .filter(|&v| v >= 1)
                .ok_or_else(|| usage("bad --checkpoint-interval-ms (want an integer >= 1)"))?,
        ),
        None => None,
    };
    let strict = args.flag("--strict");
    let invariants: Option<InvariantMode> = match args.opt("--invariants") {
        Some(s) => Some(
            InvariantMode::parse(&s)
                .ok_or_else(|| usage("bad --invariants (want off|sampled|full)"))?,
        ),
        None => None,
    };
    let chaos_panic_at: Option<Vec<usize>> = match args.opt("--chaos-panic-at") {
        Some(s) => Some(
            s.split(',')
                .map(|p| p.trim().parse::<usize>())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| usage("bad --chaos-panic-at (want INDEX[,INDEX...])"))?,
        ),
        None => None,
    };
    let shards_arg = args.opt("--shards");
    let chunk: Option<usize> = match args.opt("--chunk") {
        Some(s) => Some(
            s.parse()
                .ok()
                .filter(|&v| v >= 1)
                .ok_or_else(|| usage("bad --chunk (want an integer >= 1)"))?,
        ),
        None => None,
    };
    let checkpoint = args.opt("--checkpoint");
    let resume = args.flag("--resume");
    let json = args.flag("--json");
    let quiet = args.flag("--quiet");
    args.finish()?;

    let mut cfg = CampaignConfig { injections: n, kind, snapshot_every, ..Default::default() };
    if let Some(s) = seed {
        cfg.seed = s;
    }
    if let Some(f) = inj_cycle_factor {
        cfg.inj_cycle_factor = f;
    }
    if let Some(mode) = invariants {
        cfg.invariants = mode;
    }
    if let Some(panic_at) = &chaos_panic_at {
        cfg.chaos = Some(ChaosConfig { panic_at: panic_at.clone(), livelock_at: vec![] });
    }

    let sharded = shards_arg.is_some()
        || chunk.is_some()
        || checkpoint.is_some()
        || resume
        || json
        || quiet
        || strict
        || invariants.is_some()
        || chaos_panic_at.is_some()
        || quarantine_limit.is_some()
        || checkpoint_interval_ms.is_some();
    if !sharded {
        let rep = run_campaign(&argus_workloads::stress(), &cfg);
        return Ok(format!("{rep}"));
    }

    let shards = match shards_arg {
        Some(s) => s
            .parse::<usize>()
            .ok()
            .filter(|&v| v >= 1)
            .ok_or_else(|| usage("bad --shards (want an integer >= 1)"))?,
        None => std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
    };
    if resume && checkpoint.is_none() {
        return Err(usage("--resume needs --checkpoint PATH"));
    }
    let mut ocfg = OrchestratorConfig {
        shards,
        checkpoint_path: checkpoint.map(std::path::PathBuf::from),
        resume,
        strict,
        ..Default::default()
    };
    if let Some(c) = chunk {
        ocfg.chunk = c;
    }
    if let Some(limit) = quarantine_limit {
        ocfg.quarantine_limit = limit;
    }
    if let Some(ms) = checkpoint_interval_ms {
        ocfg.checkpoint_interval = std::time::Duration::from_millis(ms);
    }

    signals::install();
    let progress = Progress::new(shards);
    let report = std::thread::scope(|scope| {
        let monitor = (!quiet).then(|| {
            scope.spawn(|| {
                let mut since_print = std::time::Duration::ZERO;
                let tick = std::time::Duration::from_millis(100);
                while !progress.finished() {
                    std::thread::sleep(tick);
                    since_print += tick;
                    if since_print >= std::time::Duration::from_millis(500) {
                        eprintln!("{}", progress.snapshot());
                        since_print = std::time::Duration::ZERO;
                    }
                }
            })
        });
        let report =
            run_sharded(&argus_workloads::stress(), &cfg, &ocfg, &signals::STOP, &progress);
        if let Some(m) = monitor {
            let _ = m.join();
        }
        report
    })
    .map_err(|e| fail(e.to_string()))?;

    if !quiet {
        eprintln!("{}", progress.snapshot());
    }
    // Recovery/supervision warnings always go to stderr so they reach the
    // operator even when stdout carries the JSON report.
    for w in &report.recovery_warnings {
        eprintln!("warning: {w}");
    }
    if json {
        return Ok(format!("{}\n", report.to_json().to_string_compact()));
    }
    Ok(render_sharded_report(&report, ocfg.checkpoint_path.as_deref()))
}

/// `argus serve`: the campaign-as-a-service daemon.
///
/// Binds an HTTP/JSON API over a shared worker pool and blocks until
/// SIGINT/SIGTERM or a `POST /drain`, then drains gracefully: stops
/// leasing, checkpoints every running job, persists the job table, and
/// exits 0. Unfinished jobs resume on the next start from the same
/// `--state-dir`.
pub fn cmd_serve(mut args: Args) -> Result<String, CliError> {
    let addr = args.opt("--addr").unwrap_or_else(|| "127.0.0.1:7700".to_string());
    let workers: usize = match args.opt("--workers") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&v| v >= 1)
            .ok_or_else(|| usage("bad --workers (want an integer >= 1)"))?,
        None => std::thread::available_parallelism()
            .map(|p| p.get().saturating_sub(1).max(1))
            .unwrap_or(1),
    };
    let http_threads: usize = match args.opt("--http-threads") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&v| v >= 1)
            .ok_or_else(|| usage("bad --http-threads (want an integer >= 1)"))?,
        None => 4,
    };
    let state_dir = args.opt("--state-dir").unwrap_or_else(|| "argus-serve-state".to_string());
    let checkpoint_interval_ms: u64 = match args.opt("--checkpoint-interval-ms") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&v| v >= 1)
            .ok_or_else(|| usage("bad --checkpoint-interval-ms (want an integer >= 1)"))?,
        None => 500,
    };
    let lease_ttl_ms: u64 = match args.opt("--lease-ttl-ms") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&v| v >= 1)
            .ok_or_else(|| usage("bad --lease-ttl-ms (want an integer >= 1)"))?,
        None => 10_000,
    };
    args.finish()?;

    signals::install();
    let mut server = argus_server::Server::start(argus_server::ServerConfig {
        addr,
        workers,
        http_threads,
        state_dir: std::path::PathBuf::from(&state_dir),
        checkpoint_interval: std::time::Duration::from_millis(checkpoint_interval_ms),
        lease_ttl: std::time::Duration::from_millis(lease_ttl_ms),
    })
    .map_err(fail)?;
    eprintln!(
        "argus serve: listening on http://{} ({} campaign workers, state dir `{state_dir}`)",
        server.addr(),
        workers,
    );

    while !signals::stop_requested() && !server.drain_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let cause = signals::stop_cause().unwrap_or("drain request");
    eprintln!("argus serve: draining ({cause})");
    server.drain();
    eprintln!("argus serve: drained; unfinished jobs resume on next start");
    Ok(String::new())
}

/// `argus worker`: a remote campaign worker.
///
/// Connects to an `argus serve` daemon, leases injection chunks from its
/// distributed jobs, executes them against locally reconstructed state,
/// and posts the merged tallies back. Reconnects with capped backoff
/// when the daemon is unreachable; SIGINT/SIGTERM drains gracefully
/// (finish held chunks, stop leasing, exit 0).
pub fn cmd_worker(mut args: Args) -> Result<String, CliError> {
    let connect: std::net::SocketAddr = args
        .opt("--connect")
        .ok_or_else(|| usage("--connect HOST:PORT is required"))?
        .parse()
        .map_err(|_| usage("bad --connect (want HOST:PORT)"))?;
    let workers: usize = match args.opt("--workers") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&v| v >= 1)
            .ok_or_else(|| usage("bad --workers (want an integer >= 1)"))?,
        None => 1,
    };
    let poll_ms: u64 = match args.opt("--poll-ms") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&v| v >= 1)
            .ok_or_else(|| usage("bad --poll-ms (want an integer >= 1)"))?,
        None => 500,
    };
    let job: Option<u64> = match args.opt("--job") {
        Some(s) => Some(s.parse().map_err(|_| usage("bad --job (want an integer id)"))?),
        None => None,
    };
    let name = args.opt("--name").unwrap_or_else(|| format!("w{}", std::process::id()));
    if name.is_empty() || name.starts_with("local:") {
        return Err(usage("--name must be non-empty and not use the `local:` prefix"));
    }
    let cache_dir = args.opt("--cache-dir").map(std::path::PathBuf::from);
    args.finish()?;

    signals::install();
    let wcfg = argus_remote::WorkerConfig {
        connect,
        workers,
        poll: std::time::Duration::from_millis(poll_ms),
        job,
        name: name.clone(),
        cache_dir,
    };
    eprintln!(
        "argus worker: `{name}` connecting to http://{connect} ({workers} executor thread(s))"
    );
    let summary =
        argus_remote::run_worker(&wcfg, &signals::STOP).map_err(|e| fail(e.to_string()))?;
    if let Some(cause) = signals::stop_cause() {
        eprintln!("argus worker: drained ({cause})");
    }
    Ok(format!(
        "worker `{name}`: {} job(s), {} chunk(s) accepted ({} duplicate(s)), {} injection(s), \
         {} artifact cache hit(s)\n",
        summary.jobs, summary.chunks, summary.duplicates, summary.injections, summary.cache_hits
    ))
}

/// Human-readable rendering of a sharded campaign's merged tallies.
///
/// Everything run-shaped (wall clock, rate, scheduler utilization) stays
/// on the first line; every later line is deterministic for the campaign,
/// so output diffs after dropping one line.
fn render_sharded_report(rep: &ShardedReport, checkpoint: Option<&std::path::Path>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "campaign: {}/{} injections ({:?}), {} shards, chunk {}, {} leases ({} stolen), busy {:.0}%, tail {:.2}s, setup {:.2}s, {:.1}s ({:.1} inj/s)",
        rep.completed,
        rep.total,
        rep.kind,
        rep.shards,
        rep.chunk,
        rep.leases,
        rep.steals,
        rep.busy_pct(),
        rep.tail_imbalance.as_secs_f64(),
        rep.setup.as_secs_f64(),
        rep.elapsed.as_secs_f64(),
        rep.rate(),
    );
    if let Some(every) = rep.snapshot_every {
        let _ = writeln!(
            out,
            "snapshots: {} golden-run checkpoints every {} cycles",
            rep.snapshots, every
        );
    }
    for o in Outcome::ALL {
        let _ = writeln!(
            out,
            "  {:20} {:>8}  {:5.1}%",
            o.label(),
            rep.count(o),
            100.0 * rep.fraction(o)
        );
    }
    let _ = writeln!(out, "unmasked coverage: {:.1}%", 100.0 * rep.unmasked_coverage());
    let quarantined = rep.quarantine.len() as u64;
    if quarantined > 0 || rep.hung > 0 {
        let _ = writeln!(
            out,
            "anomalies: {quarantined} quarantined (panicked), {} hung (watchdog) — excluded from tallies",
            rep.hung
        );
        for q in &rep.quarantine {
            let _ = writeln!(
                out,
                "  quarantined injection {} (seed {:#x}): {}",
                q.index, q.seed, q.panic_msg
            );
        }
    }
    // Invariant results are printed only on violation: `checks_run` depends
    // on worker scheduling, and every later line of this report must stay
    // deterministic for a given seed regardless of shard count.
    if rep.invariants.violations > 0 {
        let _ = writeln!(
            out,
            "INVARIANT VIOLATIONS: {} ({} mode)",
            rep.invariants.violations, rep.invariants.mode
        );
        for (name, count) in &rep.invariants.per_invariant {
            if *count > 0 {
                let _ = writeln!(out, "  {name}: {count}");
            }
        }
        for (name, detail) in &rep.invariants.examples {
            let _ = writeln!(out, "  example [{name}]: {detail}");
        }
    }
    if rep.snapshot_fallbacks > 0 {
        let _ = writeln!(
            out,
            "snapshot integrity: {} injections cold-booted past corrupt snapshots",
            rep.snapshot_fallbacks
        );
    }
    if rep.degraded {
        let _ = writeln!(
            out,
            "DEGRADED: checkpoint flushing needed retries ({} failed attempts)",
            rep.flush_failures
        );
    }
    if rep.used_backup_checkpoint {
        let _ = writeln!(out, "recovered from backup (.bak) checkpoint");
    }
    if rep.latency.count() > 0 {
        let _ = writeln!(
            out,
            "detect latency: mean {:.1} p50 {} p99 {} max {} cycles",
            rep.latency.mean(),
            rep.latency.percentile(0.5).unwrap_or(0),
            rep.latency.percentile(0.99).unwrap_or(0),
            rep.latency.max().unwrap_or(0),
        );
    }
    let _ = writeln!(out, "detection attribution:");
    let _ = write!(out, "{}", rep.attribution);
    if rep.interrupted {
        let hint = checkpoint
            .map(|p| format!(" — resume with --resume --checkpoint {}", p.display()))
            .unwrap_or_default();
        let _ = writeln!(out, "INTERRUPTED at {}/{}{hint}", rep.completed, rep.total);
    }
    out
}

/// Steps a machine + checker pair in lockstep until the machine halts or
/// `stop_at` cycles elapse (fault-free).
fn run_checked(m: &mut Machine, checker: &mut Argus, stop_at: u64) {
    let mut inj = FaultInjector::none();
    while !m.halted() && m.cycle() < stop_at {
        match m.step(&mut inj) {
            StepOutcome::Committed(rec) => {
                checker.on_commit(&rec, &mut inj);
            }
            StepOutcome::Stalled => {
                checker.on_stall(1, &mut inj);
            }
            StepOutcome::Halted => break,
        }
    }
}

/// `argus snapshot`: standalone ARGSTORE files — capture a program at a
/// cycle (`save`, one snapshot) or on an interval (`pack`), inspect a
/// file, or restore a one-snapshot file and resume execution.
pub fn cmd_snapshot(mut args: Args) -> Result<String, CliError> {
    const SNAP_USAGE: &str = "usage: argus snapshot <save|pack|info|restore>
  argus snapshot save <file.s> --out PATH [--at-cycle C] [--two-way]
  argus snapshot pack <file.s> --out PATH [--every N] [--until-cycle C]
  argus snapshot info <PATH>
  argus snapshot restore <PATH> [--run] [--regs r3,r4]";
    let verb = args.positional().ok_or_else(|| usage(SNAP_USAGE))?;
    match verb.as_str() {
        "save" => {
            let path = args.positional().ok_or_else(|| usage(SNAP_USAGE))?;
            let out_path = args.opt("--out").ok_or_else(|| usage("--out PATH is required"))?;
            let at_cycle: u64 = match args.opt("--at-cycle") {
                Some(s) => s.parse().map_err(|_| usage("bad --at-cycle"))?,
                None => 0,
            };
            let two_way = args.flag("--two-way");
            args.finish()?;

            let unit = load_unit(&path)?;
            let prog = compile(&unit, Mode::Argus, &EmbedConfig::default())
                .map_err(|e| fail(e.to_string()))?;
            let mem = if two_way { MemConfig::default().two_way() } else { MemConfig::default() };
            let mut m = Machine::new(MachineConfig { mem, ..Default::default() });
            prog.load(&mut m);
            let mut checker = Argus::new(ArgusConfig::default());
            checker.expect_entry(prog.entry_dcs.unwrap_or(0));
            run_checked(&mut m, &mut checker, at_cycle);

            let mut writer = MappedStoreWriter::create(out_path.as_ref(), 1)
                .map_err(|e| fail(format!("cannot create `{out_path}`: {e}")))?;
            writer
                .capture_now(&mut m, &checker)
                .and_then(|()| writer.finish())
                .map_err(|e| fail(format!("writing `{out_path}`: {e}")))?;
            Ok(format!(
                "saved snapshot: cycle {} retired {} fingerprint {:#018x} -> {}\n",
                m.cycle(),
                m.retired(),
                combined_fingerprint(&m, &checker),
                out_path
            ))
        }
        "pack" => {
            let path = args.positional().ok_or_else(|| usage(SNAP_USAGE))?;
            let out_path = args.opt("--out").ok_or_else(|| usage("--out PATH is required"))?;
            let every: u64 = match args.opt("--every") {
                Some(s) => s
                    .parse()
                    .ok()
                    .filter(|&v| v >= 1)
                    .ok_or_else(|| usage("bad --every (want an integer >= 1)"))?,
                None => 1000,
            };
            let until_cycle: u64 = match args.opt("--until-cycle") {
                Some(s) => s.parse().map_err(|_| usage("bad --until-cycle"))?,
                None => 200_000_000,
            };
            args.finish()?;

            let unit = load_unit(&path)?;
            let prog = compile(&unit, Mode::Argus, &EmbedConfig::default())
                .map_err(|e| fail(e.to_string()))?;
            let mut m = Machine::new(MachineConfig::default());
            prog.load(&mut m);
            let mut checker = Argus::new(ArgusConfig::default());
            checker.expect_entry(prog.entry_dcs.unwrap_or(0));

            let mut writer = MappedStoreWriter::create(out_path.as_ref(), every)
                .map_err(|e| fail(format!("cannot create `{out_path}`: {e}")))?;
            let pack_err = |e: std::io::Error| fail(format!("writing `{out_path}`: {e}"));
            // Seed cycle 0 like the campaign golden run, then capture on
            // the interval until the program halts.
            writer.capture_now(&mut m, &checker).map_err(pack_err)?;
            let mut inj = FaultInjector::none();
            while !m.halted() && m.cycle() < until_cycle {
                match m.step(&mut inj) {
                    StepOutcome::Committed(rec) => {
                        checker.on_commit(&rec, &mut inj);
                    }
                    StepOutcome::Stalled => {
                        checker.on_stall(1, &mut inj);
                    }
                    StepOutcome::Halted => break,
                }
                writer.maybe_capture(&mut m, &checker).map_err(pack_err)?;
            }
            let store = writer.finish().map_err(pack_err)?;
            let stats = store.stats();
            Ok(format!(
                "packed {out_path}: {} snapshot(s) every {every} cycles, {} distinct page(s) \
                 of {} referenced, {} bytes saved by dedup\n",
                store.len(),
                stats.pages_distinct,
                stats.pages_total,
                stats.bytes_saved,
            ))
        }
        "info" => {
            let path = args.positional().ok_or_else(|| usage(SNAP_USAGE))?;
            args.finish()?;
            store_info(&path)
        }
        "restore" => {
            let path = args.positional().ok_or_else(|| usage(SNAP_USAGE))?;
            let run = args.flag("--run");
            let regs: Vec<argus_isa::Reg> = match args.opt("--regs") {
                Some(spec) => spec
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .strip_prefix('r')
                            .and_then(|n| n.parse::<u8>().ok())
                            .filter(|&n| n < 32)
                            .map(argus_isa::Reg::new)
                            .ok_or_else(|| usage(format!("bad register `{t}`")))
                    })
                    .collect::<Result<_, _>>()?,
                None => vec![],
            };
            args.finish()?;
            let store = open_store(&path)?;
            if store.len() != 1 {
                return Err(fail(format!(
                    "`{path}` holds {} snapshots; restore resumes one-snapshot files \
                     (write one with `argus snapshot save`)",
                    store.len()
                )));
            }
            let (mut m, mut checker) = store
                .try_restore_fresh(0, &mut PageCache::default())
                .map_err(|e| fail(format!("{path}: {e}")))?;
            let mut out = String::new();
            let _ = writeln!(out, "restored at cycle {} (pc {:#06x})", m.cycle(), m.pc());
            if run {
                run_checked(&mut m, &mut checker, 200_000_000);
            }
            let _ = writeln!(
                out,
                "halted={} cycles={} retired={} detections={}",
                m.halted(),
                m.cycle(),
                m.retired(),
                checker.events().len()
            );
            for r in regs {
                let _ = writeln!(out, "{r} = {:#010x}", m.reg(r));
            }
            Ok(out)
        }
        other => Err(usage(format!("unknown snapshot verb `{other}`\n{SNAP_USAGE}"))),
    }
}

fn open_store(path: &str) -> Result<MappedStore, CliError> {
    MappedStore::open(path.as_ref()).map_err(|e| fail(format!("{path}: {e}")))
}

/// `argus snapshot info`: open (verifying the whole-file CRC envelope),
/// report the dedup accounting, and describe the last snapshot.
fn store_info(path: &str) -> Result<String, CliError> {
    let store = open_store(path)?;
    let stats = store.stats();
    let first = store.cycle(0).unwrap_or(0);
    let last = store.len().checked_sub(1).and_then(|i| store.cycle(i)).unwrap_or(first);
    let mut out = String::new();
    let _ = writeln!(out, "store {path}");
    let _ = writeln!(
        out,
        "  {} snapshot(s) every {} cycles, covering cycles {first}..={last}",
        store.len(),
        stats.interval,
    );
    let _ = writeln!(
        out,
        "  pages: {} referenced, {} distinct, {} bytes saved by dedup",
        stats.pages_total, stats.pages_distinct, stats.bytes_saved,
    );
    let _ = writeln!(
        out,
        "  file {} bytes, materialized image {} bytes",
        store.file_bytes().len(),
        store.materialized_bytes(),
    );
    if let Some(i) = store.len().checked_sub(1) {
        let (m, checker) = store
            .try_restore_fresh(i, &mut PageCache::default())
            .map_err(|e| fail(format!("{path}: {e}")))?;
        let _ = writeln!(out, "last snapshot:");
        let _ = writeln!(
            out,
            "  cycle {} retired {} pc {:#06x} halted {}",
            m.cycle(),
            m.retired(),
            m.pc(),
            m.halted()
        );
        let _ = writeln!(out, "  fingerprint {:#018x}", combined_fingerprint(&m, &checker));
        let _ = writeln!(
            out,
            "  memory {} words, detections so far {}",
            m.mem().memory().words().len(),
            checker.events().len()
        );
    }
    Ok(out)
}

/// `argus verify`: compile in Argus mode and statically verify the image's
/// embedded signatures.
pub fn cmd_verify(mut args: Args) -> Result<String, CliError> {
    let path = args.positional().ok_or_else(|| usage("usage: argus verify <file.s>"))?;
    args.finish()?;
    let unit = load_unit(&path)?;
    let ecfg = EmbedConfig::default();
    let prog = compile(&unit, Mode::Argus, &ecfg).map_err(|e| fail(e.to_string()))?;
    let rep = argus_compiler::binver::verify_image(&prog, &ecfg)
        .map_err(|e| fail(format!("verification FAILED: {e}")))?;
    Ok(format!(
        "image verifies: {} blocks, {} embedded successor slots checked, entry DCS {:#04x}\n",
        rep.blocks,
        rep.slots_checked,
        prog.entry_dcs.unwrap_or(0)
    ))
}

/// `argus invariants`: inspect the always-on invariant registry.
///
/// `list` prints every registered invariant with its severity, the hooks
/// it observes, and the `expected_to_catch` documentation — the registry
/// is self-describing so operators can map a violation name in a report
/// straight to the failure class it guards against.
pub fn cmd_invariants(mut args: Args) -> Result<String, CliError> {
    const INV_USAGE: &str = "usage: argus invariants list";
    let verb = args.positional().ok_or_else(|| usage(INV_USAGE))?;
    args.finish()?;
    match verb.as_str() {
        "list" => {
            let regs = argus_invariants::registry();
            let mut out = String::new();
            let _ =
                writeln!(out, "{} registered invariants (modes: off|sampled|full):", regs.len());
            for inv in &regs {
                let hooks: Vec<&str> = inv.hooks().iter().map(|h| h.label()).collect();
                let _ = writeln!(
                    out,
                    "{} [{}] hooks: {}",
                    inv.name(),
                    inv.severity().label(),
                    hooks.join(",")
                );
                let _ = writeln!(out, "    expected to catch: {}", inv.expected_to_catch());
            }
            Ok(out)
        }
        other => Err(usage(format!("unknown invariants verb `{other}`\n{INV_USAGE}"))),
    }
}

/// Dispatches a subcommand; returns the text to print.
pub fn dispatch(cmd: &str, args: Args) -> Result<String, CliError> {
    match cmd {
        "asm" => cmd_asm(args),
        "run" => cmd_run(args),
        "inject" => cmd_inject(args),
        "sites" => cmd_sites(args),
        "campaign" => cmd_campaign(args),
        "serve" => cmd_serve(args),
        "worker" => cmd_worker(args),
        "snapshot" => cmd_snapshot(args),
        "invariants" => cmd_invariants(args),
        "verify" => cmd_verify(args),
        other => Err(usage(format!("unknown command `{other}`\n{USAGE}"))),
    }
}

/// Top-level usage text.
pub const USAGE: &str =
    "usage: argus <asm|run|inject|verify|sites|campaign|serve|worker|snapshot|invariants> [options]
  argus asm <file.s> [--argus]
  argus run <file.s> [--baseline] [--two-way] [--regs r3,r4] [--max-cycles N]
  argus inject <file.s> --site S --bit N [--permanent] [--arm C]
  argus verify <file.s>
  argus campaign [-n N] [--permanent] [--seed S] [--snapshot-every N]
                 [--shards N] [--chunk N]
                 [--checkpoint PATH] [--checkpoint-interval-ms MS] [--resume]
                 [--inj-cycle-factor F] [--quarantine-limit N]
                 [--invariants off|sampled|full] [--chaos-panic-at I,J,...]
                 [--strict] [--json] [--quiet]
  argus serve [--addr HOST:PORT] [--workers N] [--http-threads N]
              [--state-dir PATH] [--checkpoint-interval-ms MS]
              [--lease-ttl-ms MS]
  argus worker --connect HOST:PORT [--workers N] [--poll-ms MS]
               [--job ID] [--name NAME] [--cache-dir PATH]
  argus snapshot save <file.s> --out PATH [--at-cycle C] [--two-way]
  argus snapshot pack <file.s> --out PATH [--every N] [--until-cycle C]
  argus snapshot info <PATH>
  argus snapshot restore <PATH> [--run] [--regs r3,r4]
  argus invariants list
  argus sites
campaign runs serially by default; any sharded-engine flag (--shards,
--chunk, --checkpoint, --resume, --json, --quiet, --strict,
--invariants, --chaos-panic-at, --quarantine-limit,
--checkpoint-interval-ms) uses the work-stealing engine
(same tallies and same JSON for the same seed under ANY worker count;
Ctrl-C flushes a checkpoint, --resume continues it — even under a different
--shards; progress goes to stderr, results to stdout). --chunk caps the
scheduler lease size (default 32); leases shrink toward 1 at the tail.
--snapshot-every N checkpoints the golden run every N cycles and forks each
injection from the nearest checkpoint at or before its arm cycle — identical
results, fewer replayed cycles. The checkpoints stream as deduped pages into
an ARGSTORE scratch file that is memory-mapped, so campaign RSS stays bounded
at any machine size (in memory, with a warning, if the file cannot be made).
snapshot save and pack write the same ARGSTORE format standalone (one
snapshot, or one per interval; inspect either with snapshot info, restore a
saved one); worker --cache-dir caches fetched job artifacts by content
address so reconnects skip re-fetching and golden-run rebuilds.
--invariants selects how densely the always-on invariant registry audits
the run (off, sampled [default], full); violations land in the report
(JSON: run.invariants) and, with --strict, abort the campaign naming the
violating invariant. `argus invariants list` documents every check.
--chaos-panic-at injects deliberate panics at the given injection indices
(testing aid for quarantine/checkpoint recovery paths).
Supervision: each injection runs behind a panic net and a watchdog whose
cycle budget is golden-run length x --inj-cycle-factor (default 4); panicked
injections are quarantined (campaign aborts past --quarantine-limit, default
64); --strict disables the net so the first panic crashes and a hang is
fatal. Corrupt checkpoints fall back to their .bak generation, then restart
affected shards from scratch (strict mode refuses instead).
serve turns the same engine into a daemon: submit/inspect/cancel fault
campaigns over an HTTP/JSON API with priorities, per-job worker budgets,
checkpoint-backed preemption, and streaming progress; SIGTERM/SIGINT (or
POST /drain) checkpoints everything and exits 0, and the next start
resumes all unfinished jobs. See EXPERIMENTS.md for the API reference.
worker joins a daemon's distributed jobs (submitted with
\"distributed\":true) from any machine: it cold-starts from the job
manifest, verifies its reconstruction against content-addressed
snapshots, then leases chunks, runs them, and posts tallies back.
Results are byte-identical to a local run regardless of worker count,
crashes, or duplicated posts.
Exit codes (all verbs): 0 success, 1 runtime failure, 2 usage error";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(xs: &[&str]) -> Args {
        Args::new(xs.iter().map(|s| s.to_string()).collect())
    }

    fn write_temp(name: &str, contents: &str) -> String {
        let dir = std::env::temp_dir().join("argus-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, contents).unwrap();
        p.to_string_lossy().into_owned()
    }

    const PROG: &str = "li r3, 0\nli r4, 1\nli r5, 10\nloop: add r3, r3, r4\naddi r4, r4, 1\nsfleu r4, r5\nbf loop\nnop\nhalt\n";

    #[test]
    fn args_parsing() {
        let mut a = args(&["file.s", "--permanent", "--bit", "3"]);
        assert_eq!(a.positional().as_deref(), Some("file.s"));
        assert!(a.flag("--permanent"));
        assert!(!a.flag("--permanent"));
        assert_eq!(a.opt("--bit").as_deref(), Some("3"));
        assert!(a.finish().is_ok());

        let a = args(&["--mystery"]);
        assert!(a.finish().is_err());
    }

    #[test]
    fn asm_command() {
        let p = write_temp("asm.s", PROG);
        let out = cmd_asm(args(&[p.as_str(), "--argus"])).unwrap();
        assert!(out.contains("add r3, r3, r4"));
        assert!(out.contains("signature words"));
    }

    #[test]
    fn run_command_baseline_and_checked() {
        let p = write_temp("run.s", PROG);
        let out = cmd_run(args(&[p.as_str(), "--baseline", "--regs", "r3"])).unwrap();
        assert!(out.contains("halted=true"));
        assert!(out.contains("r3 = 0x00000037"), "{out}");
        let out = cmd_run(args(&[p.as_str(), "--regs", "r3"])).unwrap();
        assert!(out.contains("detections=0"));
    }

    #[test]
    fn inject_command_detects_alu_fault() {
        let p = write_temp("inject.s", PROG);
        let out = cmd_inject(args(&[
            p.as_str(),
            "--site",
            "alu_adder_out",
            "--bit",
            "2",
            "--permanent",
            "--arm",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("detected: computation"), "{out}");
    }

    #[test]
    fn inject_rejects_unknown_site() {
        let p = write_temp("bad.s", PROG);
        let e = cmd_inject(args(&[p.as_str(), "--site", "nope", "--bit", "0"])).unwrap_err();
        assert!(e.to_string().contains("unknown site"));
    }

    #[test]
    fn sites_command_lists_inventory() {
        let out = cmd_sites(args(&[])).unwrap();
        assert!(out.contains("alu_adder_out"));
        assert!(out.contains("shs_crc_out"));
    }

    #[test]
    fn dispatch_unknown_command() {
        assert!(dispatch("frobnicate", args(&[])).is_err());
    }

    /// Every subcommand advertised in `USAGE`'s `<a|b|c>` list must
    /// actually dispatch — i.e. never fall through to "unknown command".
    #[test]
    fn usage_subcommands_all_dispatch() {
        let list = USAGE
            .split_once('<')
            .and_then(|(_, rest)| rest.split_once('>'))
            .map(|(inner, _)| inner)
            .expect("USAGE lists subcommands as <a|b|...>");
        let cmds: Vec<&str> = list.split('|').collect();
        assert!(cmds.len() >= 7, "expected the full subcommand list, got {cmds:?}");
        for cmd in cmds {
            // A flag no verb knows keeps this a pure routing check: every
            // verb rejects it (or its missing file) before doing real work
            // — `serve` would otherwise start a daemon and block, and
            // `campaign` would run a full default campaign. Any error is
            // fine except "unknown command", which means USAGE advertises
            // something dispatch() cannot route.
            match dispatch(cmd, args(&["--no-such-flag"])) {
                Ok(_) => {}
                Err(e) => assert!(
                    !e.to_string().contains("unknown command"),
                    "USAGE names `{cmd}` but dispatch does not route it"
                ),
            }
        }
    }

    #[test]
    fn campaign_sharded_matches_serial_and_reports_json() {
        let serial = cmd_campaign(args(&["-n", "40", "--seed", "7"])).unwrap();
        assert!(serial.contains("unmasked coverage"), "{serial}");

        let human =
            cmd_campaign(args(&["-n", "40", "--seed", "7", "--shards", "2", "--quiet"])).unwrap();
        assert!(human.contains("campaign: 40/40"), "{human}");
        assert!(human.contains("2 shards"), "{human}");

        let js =
            cmd_campaign(args(&["-n", "40", "--seed", "7", "--shards", "3", "--json", "--quiet"]))
                .unwrap();
        let parsed = argus_orchestrator::Json::parse(&js).unwrap();
        assert_eq!(parsed.get("completed").and_then(|v| v.as_u64()), Some(40));
        assert_eq!(parsed.get("interrupted").and_then(|v| v.as_bool()), Some(false));

        // Shard count must not change the tallies: compare the sharded
        // JSON outcome block against the serial engine's counts.
        let rep = run_campaign(
            &argus_workloads::stress(),
            &CampaignConfig { injections: 40, seed: 7, ..Default::default() },
        );
        let outcomes = parsed.get("outcomes").unwrap();
        for o in Outcome::ALL {
            assert_eq!(
                outcomes.get(o.label()).and_then(|v| v.as_u64()),
                Some(rep.count(o) as u64),
                "{o:?}"
            );
        }
    }

    #[test]
    fn campaign_flag_validation() {
        let e = cmd_campaign(args(&["--shards", "0", "--quiet"])).unwrap_err();
        assert!(e.to_string().contains("bad --shards"), "{e}");
        let e = cmd_campaign(args(&["--resume", "--quiet"])).unwrap_err();
        assert!(e.to_string().contains("--resume needs --checkpoint"), "{e}");
        let e = cmd_campaign(args(&["--inj-cycle-factor", "0.5", "--quiet"])).unwrap_err();
        assert!(e.to_string().contains("bad --inj-cycle-factor"), "{e}");
        let e = cmd_campaign(args(&["--inj-cycle-factor", "nan", "--quiet"])).unwrap_err();
        assert!(e.to_string().contains("bad --inj-cycle-factor"), "{e}");
        let e = cmd_campaign(args(&["--quarantine-limit", "many", "--quiet"])).unwrap_err();
        assert!(e.to_string().contains("bad --quarantine-limit"), "{e}");
        let e = cmd_campaign(args(&["--checkpoint-interval-ms", "0", "--quiet"])).unwrap_err();
        assert!(e.to_string().contains("bad --checkpoint-interval-ms"), "{e}");
        let e = cmd_campaign(args(&["--chunk", "0", "--quiet"])).unwrap_err();
        assert!(e.to_string().contains("bad --chunk"), "{e}");
    }

    #[test]
    fn campaign_chunk_size_leaves_output_unchanged() {
        // --chunk is a scheduler knob: tallies and every line after the
        // first (wall-clock) line must be identical for any lease size.
        let tallies = |s: &str| s.split_once('\n').map(|(_, rest)| rest.to_string()).unwrap();
        let wide =
            cmd_campaign(args(&["-n", "30", "--seed", "7", "--shards", "2", "--quiet"])).unwrap();
        let narrow = cmd_campaign(args(&[
            "-n", "30", "--seed", "7", "--shards", "2", "--chunk", "1", "--quiet",
        ]))
        .unwrap();
        assert_eq!(tallies(&wide), tallies(&narrow), "--chunk changed the tallies");
        assert!(narrow.contains("chunk 1"), "{narrow}");
    }

    #[test]
    fn campaign_supervision_flags_leave_clean_tallies_unchanged() {
        // A clean campaign classifies identically with or without strict
        // mode, a custom watchdog factor, and a quarantine limit — the
        // supervision layer must be invisible when nothing goes wrong.
        let base =
            cmd_campaign(args(&["-n", "30", "--seed", "7", "--shards", "2", "--quiet"])).unwrap();
        let supervised = cmd_campaign(args(&[
            "-n",
            "30",
            "--seed",
            "7",
            "--shards",
            "2",
            "--quiet",
            "--strict",
            "--inj-cycle-factor",
            "8",
            "--quarantine-limit",
            "1",
        ]))
        .unwrap();
        // The first line carries wall-clock rate/elapsed; everything after
        // it is deterministic tallies.
        let tallies = |s: &str| s.split_once('\n').map(|(_, rest)| rest.to_string()).unwrap();
        assert_eq!(
            tallies(&base),
            tallies(&supervised),
            "supervision flags perturbed a clean campaign"
        );
        assert!(!base.contains("anomalies:"), "{base}");
        assert!(!base.contains("DEGRADED"), "{base}");

        // The JSON schema carries the supervision fields, zeroed on a
        // clean run; run-shaped health fields live under the volatile
        // "run" sub-object.
        let js = cmd_campaign(args(&["-n", "30", "--seed", "7", "--json", "--quiet"])).unwrap();
        let parsed = argus_orchestrator::Json::parse(&js).unwrap();
        assert_eq!(parsed.get("hung").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(parsed.get("quarantined").and_then(|v| v.as_u64()), Some(0));
        let run = parsed.get("run").expect("volatile run sub-object");
        assert_eq!(run.get("degraded").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(run.get("flush_failures").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(run.get("snapshot_fallbacks").and_then(|v| v.as_u64()), Some(0));
        assert!(run.get("leases").and_then(|v| v.as_u64()).unwrap() > 0, "{js}");
        assert!(run.get("workers").is_some() && run.get("chunk").is_some(), "{js}");
        let setup = run.get("setup_seconds").and_then(|v| v.as_f64()).expect("setup_seconds");
        let elapsed = run.get("elapsed_seconds").and_then(|v| v.as_f64()).unwrap();
        assert!(setup <= elapsed, "set-up is part of the run: {js}");
        assert!(base.lines().next().unwrap().contains("setup "), "{base}");
    }

    #[test]
    fn verify_command() {
        let p = write_temp("verify.s", PROG);
        let out = cmd_verify(args(&[p.as_str()])).unwrap();
        assert!(out.contains("image verifies"), "{out}");
    }

    #[test]
    fn snapshot_save_info_restore_roundtrip() {
        let p = write_temp("snap.s", PROG);
        let snap_path = write_temp("snap.bin", "");

        let out = cmd_snapshot(args(&[
            "save",
            p.as_str(),
            "--out",
            snap_path.as_str(),
            "--at-cycle",
            "20",
        ]))
        .unwrap();
        assert!(out.contains("saved snapshot"), "{out}");

        let info = cmd_snapshot(args(&["info", snap_path.as_str()])).unwrap();
        assert!(info.contains("fingerprint"), "{info}");
        assert!(info.contains("halted false"), "{info}");

        // Resuming the snapshot must reach the same architectural result
        // as the uninterrupted run.
        let resumed =
            cmd_snapshot(args(&["restore", snap_path.as_str(), "--run", "--regs", "r3"])).unwrap();
        assert!(resumed.contains("halted=true"), "{resumed}");
        assert!(resumed.contains("r3 = 0x00000037"), "{resumed}");

        let direct = cmd_run(args(&[p.as_str(), "--regs", "r3"])).unwrap();
        assert!(direct.contains("r3 = 0x00000037"), "{direct}");
    }

    #[test]
    fn snapshot_rejects_bad_input() {
        let e = cmd_snapshot(args(&["frob"])).unwrap_err();
        assert!(e.to_string().contains("unknown snapshot verb"), "{e}");
        let garbage = write_temp("garbage.bin", "not a snapshot");
        let e = cmd_snapshot(args(&["info", garbage.as_str()])).unwrap_err();
        assert!(e.to_string().contains("bad magic"), "{e}");
        // A packed multi-snapshot store has no single point to resume from.
        let p = write_temp("pack.s", PROG);
        let packed = write_temp("pack.store", "");
        cmd_snapshot(args(&["pack", p.as_str(), "--out", packed.as_str(), "--every", "10"]))
            .unwrap();
        let e = cmd_snapshot(args(&["restore", packed.as_str()])).unwrap_err();
        assert!(e.to_string().contains("restore resumes one-snapshot files"), "{e}");
    }

    #[test]
    fn campaign_snapshot_every_matches_cold_boot() {
        let cold = cmd_campaign(args(&["-n", "30", "--seed", "11"])).unwrap();
        let forked =
            cmd_campaign(args(&["-n", "30", "--seed", "11", "--snapshot-every", "800"])).unwrap();
        assert_eq!(cold, forked, "snapshot forking changed serial campaign output");

        let human = cmd_campaign(args(&[
            "-n",
            "30",
            "--seed",
            "11",
            "--snapshot-every",
            "800",
            "--shards",
            "2",
            "--quiet",
        ]))
        .unwrap();
        assert!(human.contains("golden-run checkpoints every 800 cycles"), "{human}");

        let e = cmd_campaign(args(&["--snapshot-every", "0", "--quiet"])).unwrap_err();
        assert!(e.to_string().contains("bad --snapshot-every"), "{e}");
    }
}
