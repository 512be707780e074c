//! The three campaign workloads: back-to-back `run_sharded` jobs, and the
//! traced serial replay plus layer microbenchmarks they share with the
//! daemon workload.

use crate::host::HostSpeed;
use crate::layers::{self, Subject};
use crate::memory::Sampler;
use crate::stats::{self, ratio};
use crate::trace::Tracer;
use crate::{Ctx, WorkloadRun};
use argus_compiler::{compile, Mode};
use argus_faults::{
    prepare_campaign, run_injection_supervised_in, CampaignConfig, CampaignWorkspace, Outcome,
    PreparedCampaign, StoreKind, SupervisedOutcome,
};
use argus_orchestrator::{run_sharded, CampaignTally, OrchestratorConfig, Progress, ShardedReport};
use argus_sim::crc::Crc32;
use argus_sim::fault::FaultKind;
use argus_workloads::Workload;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Bytes per MiB.
pub const MIB: f64 = (1u64 << 20) as f64;

/// Injections of the traced run's replay campaign: enough for p99 to
/// have ten samples beyond it (see `stats::tail`).
const REPLAY_N: usize = 1000;

/// Scheduler lease cap (the `argus campaign` default); the serial replay
/// issues indices in chunks of this size, sorted by arm cycle, as the
/// engine does.
const CHUNK: usize = 32;

/// One campaign workload.
pub struct CampaignSpec {
    /// Benchmark workload name.
    pub name: &'static str,
    /// The simulated program.
    pub workload: fn() -> Workload,
    /// Fault kind injected.
    pub kind: FaultKind,
    /// Golden-run checkpoint interval (`None`: every injection cold-boots).
    pub snapshot_every: Option<u64>,
    /// Injections per job.
    pub job_n: usize,
    /// The paper's Table 1 unmasked-error coverage for this fault kind.
    pub table1_coverage: f64,
}

impl CampaignSpec {
    /// The campaign configuration of one job (mmap store, sampled
    /// invariants, every other knob at the `argus campaign` default).
    pub fn config(&self, w: &Workload, seed: u64, n: usize) -> CampaignConfig {
        CampaignConfig {
            injections: n,
            kind: self.kind,
            seed,
            snapshot_every: self.snapshot_every,
            store: StoreKind::Mapped,
            ..Default::default()
        }
        .sized_for(w)
    }

    /// Human-readable configuration for output rows.
    pub fn describe(&self, w: &Workload, n: usize, shards: usize) -> String {
        let fork = match self.snapshot_every {
            Some(every) => format!("snapshot_every={every} store=mmap"),
            None => "cold-boot".to_owned(),
        };
        let kind = match self.kind {
            FaultKind::Transient => "transient",
            FaultKind::Permanent => "permanent",
        };
        format!("{} {kind} {fork} n={n} shards={shards} chunk={CHUNK}", w.name)
    }

    /// Injections per job (a few dozen under `--quick`).
    pub fn job_n(&self, ctx: &Ctx) -> usize {
        if ctx.quick {
            40
        } else {
            self.job_n
        }
    }
}

/// Seed of job `j` of a run with seed `seed`: distinct jobs sample
/// distinct fault sites, and the same seed repeats every job exactly.
pub fn job_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(j)
}

/// One finished `run_sharded` call.
pub struct Job {
    /// The engine's report.
    pub report: ShardedReport,
    /// Wall time of the call, setup included.
    pub wall: f64,
    /// From the first completed injection to the end of the call.
    pub phase: f64,
}

/// Runs one campaign through `run_sharded` and times it. The injection
/// phase starts when the first injection completes, which the calling
/// thread watches for on the engine's progress counter.
pub fn run_job(w: &Workload, cfg: &CampaignConfig, ctx: &Ctx) -> Result<Job, String> {
    let ocfg = OrchestratorConfig { shards: ctx.shards, chunk: CHUNK, ..Default::default() };
    let progress = Progress::new(ctx.shards);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let t0 = Instant::now();
        let handle = scope.spawn(|| run_sharded(w, cfg, &ocfg, &stop, &progress));
        let mut first = None;
        while !handle.is_finished() {
            if progress.done() > 0 {
                first = Some(Instant::now());
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = handle.join().expect("campaign thread panicked").map_err(|e| e.to_string())?;
        let end = Instant::now();
        let phase = end - first.unwrap_or(t0);
        Ok(Job { report, wall: (end - t0).as_secs_f64(), phase: phase.as_secs_f64() })
    })
}

/// The report's deterministic payload (everything but `run`).
pub fn payload(report: &ShardedReport) -> String {
    report.to_json().without("run").to_string_compact()
}

/// CRC-32 of a payload, for diffing runs of the same seed.
pub fn crc32(text: &str) -> u32 {
    let mut c = Crc32::new();
    c.update(text.as_bytes());
    c.finish()
}

/// Checks one job's report of `n` injections and counts them into `out`.
/// A failed check is an output error. Hung and quarantined injections are
/// not: the report records them deterministically, so they are counted as
/// failed operations and noted.
pub fn check_job(what: &str, rep: &ShardedReport, n: usize, out: &mut WorkloadRun) {
    out.attempted += n as u64;
    if rep.completed != n || rep.interrupted {
        out.failures.push(format!("{what}: completed {} of {n}", rep.completed));
    }
    if rep.invariants.violations != 0 {
        out.failures.push(format!("{what}: {} invariant violations", rep.invariants.violations));
    }
    let failed = rep.hung + rep.quarantine.len() as u64;
    if failed != 0 {
        out.failed += failed;
        let first = rep.quarantine.first().map_or(String::new(), |q| {
            format!(" (first: seed {} index {}: {})", q.seed, q.index, q.panic_msg)
        });
        out.notes.push(format!(
            "failed operations: {what}: {} hung, {} quarantined{first}",
            rep.hung,
            rep.quarantine.len()
        ));
    }
}

/// A run's median setup time over several calls of `setup`. What a call
/// builds is dropped after its timing ends. Host-speed samples are taken
/// between calls, outside the timed part.
pub fn measure_setup<T>(
    ctx: &Ctx,
    host: &mut HostSpeed,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let (min, max, budget) = if ctx.quick { (1, 1, 0.0) } else { (3, 100, 1.5) };
    let t = Instant::now();
    let mut times = Vec::new();
    loop {
        host.sample_spaced(ctx.shards);
        let t0 = Instant::now();
        let built = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        drop(built);
        if times.len() >= max || (times.len() >= min && t.elapsed().as_secs_f64() >= budget) {
            return Ok(stats::median(&times));
        }
    }
}

/// Injections per second of injection phase over `jobs`.
fn inj_per_s(jobs: &[Job]) -> f64 {
    let n: usize = jobs.iter().map(|j| j.report.completed).sum();
    ratio(n as f64, jobs.iter().map(|j| j.phase).sum())
}

/// Runs jobs `j0, j0+1, ...` back to back (a closed loop of one client)
/// until `seconds` have passed; job `j` uses seed `job_seed(seed, j)`.
fn window(
    spec: &CampaignSpec,
    w: &Workload,
    ctx: &Ctx,
    j0: u64,
    seconds: f64,
    tracer: &Tracer,
    out: &mut WorkloadRun,
) -> Result<Vec<Job>, String> {
    let n = spec.job_n(ctx);
    let t = Instant::now();
    let mut jobs = Vec::new();
    for j in j0.. {
        out.host.sample_spaced(ctx.shards);
        let cfg = spec.config(w, job_seed(ctx.seed, j), n);
        let job =
            tracer.span(format!("run_sharded job {j}"), "orchestrator", spec.name, None, || {
                run_job(w, &cfg, ctx)
            })?;
        check_job(&format!("job {j}"), &job.report, n, out);
        jobs.push(job);
        if ctx.quick || t.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(jobs)
}

/// What a campaign workload measured before the traced extras.
struct Measured {
    setup_s: f64,
    /// Jobs of the untraced window.
    untraced: Vec<Job>,
    /// Jobs of the traced window (traced runs only).
    traced: Vec<Job>,
}

/// Set-up timing, then the untraced window, then (traced runs) a traced
/// window of the same length: each gets half of `ctx.seconds` when both
/// run.
fn measure(
    spec: &CampaignSpec,
    w: &Workload,
    cfg0: &CampaignConfig,
    ctx: &Ctx,
    out: &mut WorkloadRun,
) -> Result<Measured, String> {
    let setup_s = measure_setup(ctx, &mut out.host, || {
        Ok(ctx
            .tracer
            .span("prepare_campaign", "faults", spec.name, None, || prepare_campaign(w, cfg0)))
    })?;
    let seconds = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let untraced = window(spec, w, ctx, 0, seconds, &Tracer::new(false), out)?;
    let traced = match ctx.trace {
        true => window(spec, w, ctx, untraced.len() as u64, seconds, &ctx.tracer, out)?,
        false => Vec::new(),
    };
    Ok(Measured { setup_s, untraced, traced })
}

/// Runs one campaign workload and records its metrics.
pub fn run(spec: &CampaignSpec, ctx: &Ctx, out: &mut WorkloadRun) -> Result<(), String> {
    let w = (spec.workload)();
    let n = spec.job_n(ctx);
    out.config = spec.describe(&w, n, ctx.shards);
    let cfg0 = spec.config(&w, job_seed(ctx.seed, 0), n);
    let running = AtomicBool::new(true);
    let (measured, peaks) = std::thread::scope(|scope| {
        let sampler = Sampler::start(scope, &running);
        let measured = measure(spec, &w, &cfg0, ctx, out);
        (measured, sampler.finish())
    });
    let Measured { setup_s, untraced, traced } = measured?;
    out.host.sample(ctx.shards);

    // Scaled to the nominal host (see `host.rs`): set-up runs on one
    // thread, the injection phase on every shard.
    let (single, parallel) = (out.host.single(), out.host.parallel());
    let scaled_walls: Vec<f64> =
        untraced.iter().map(|j| (j.wall - j.phase) * single + j.phase * parallel).collect();
    let walls = stats::sorted(&scaled_walls);
    out.rec.set("setup_s", setup_s * single);
    out.rec.set("inj_per_s", inj_per_s(&untraced) / parallel);
    out.rec.set("job_p50_s", stats::percentile(&walls, 500));
    out.rec.set("job_p90_s", stats::percentile(&walls, 900));
    let raw_walls = stats::sorted(&untraced.iter().map(|j| j.wall).collect::<Vec<_>>());
    out.notes.push(format!(
        "as measured: setup_s {setup_s:.6} inj_per_s {:.1} job_p50_s {:.4} job_p90_s {:.4}; \
         host speed {single:.3} on one thread, {parallel:.3} on {} ({} samples)",
        inj_per_s(&untraced),
        stats::percentile(&raw_walls, 500),
        stats::percentile(&raw_walls, 900),
        ctx.shards,
        out.host.samples()
    ));
    out.rec.set("peak_anon_rss_mib", peaks.anon as f64 / MIB);
    out.notes.push(format!(
        "jobs {} of {n} injections ({} beyond p90)",
        walls.len(),
        stats::beyond(walls.len(), 900)
    ));

    let job0 = &untraced[0];
    let text = payload(&job0.report);
    out.notes.push(format!("payload_crc32 {:08x} (job 0, seed {})", crc32(&text), cfg0.seed));
    out.notes.push(format!(
        "unmasked_coverage {:.4} (job 0; Table 1 reference {:.3})",
        job0.report.unmasked_coverage(),
        spec.table1_coverage
    ));

    if ctx.trace {
        out.rec.set("bench.trace_overhead_frac", 1.0 - inj_per_s(&traced) / inj_per_s(&untraced));
        engine_metrics(&traced.iter().map(|j| &j.report).collect::<Vec<_>>(), out);
        out.rec.set("memory.anon_rss_growth_mib", peaks.anon_growth as f64 / MIB);
        for name in [
            "server.submit_ms_p50",
            "server.queue_wait_s_p50",
            "server.run_s_p50",
            "server.report_fetch_ms_p50",
            "server.preemptions",
            "remote.remote_chunk_frac",
            "remote.expired_leases",
            "remote.duplicate_completes",
            "remote.artifact_fetches_per_job",
            "bench.generator_late_ms_max",
        ] {
            out.rec.set(name, 0.0);
        }
        replay_campaign(spec.name, &w, &spec.config(&w, cfg0.seed, replay_n(ctx)), ctx, out)?;
    }
    Ok(())
}

/// Orchestrator and invariant metrics averaged over a window's jobs.
fn engine_metrics(reports: &[&ShardedReport], out: &mut WorkloadRun) {
    let k = reports.len() as f64;
    let mean = |f: &dyn Fn(&ShardedReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>() / k;
    let injections: usize = reports.iter().map(|r| r.completed).sum();
    let checks: u64 = reports.iter().map(|r| r.invariants.checks_run).sum();
    out.rec.set("invariants.checks_per_inj", ratio(checks as f64, injections as f64));
    out.rec.set("orchestrator.busy_pct", mean(&|r| r.busy_pct()));
    out.rec.set("orchestrator.leases", mean(&|r| r.leases as f64));
    out.rec.set("orchestrator.steals", mean(&|r| r.steals as f64));
    out.rec.set("orchestrator.tail_imbalance_s", mean(&|r| r.tail_imbalance.as_secs_f64()));
}

/// The tally a serial replay must reproduce.
fn tally_of(rep: &ShardedReport) -> CampaignTally {
    CampaignTally {
        outcomes: rep.outcomes,
        exercised: rep.exercised,
        attribution: rep.attribution.clone(),
        latency: rep.latency.clone(),
        hung: rep.hung,
        quarantine: rep.quarantine.clone(),
    }
}

/// Injections of the traced run's replay campaign (a few dozen under
/// `--quick`).
pub fn replay_n(ctx: &Ctx) -> usize {
    if ctx.quick {
        40
    } else {
        REPLAY_N
    }
}

/// The traced run's extras for one workload: prepares the campaign `cfg`
/// (recorded as `faults.prepare_s`), runs it through `run_sharded`, and
/// hands both to [`replay_and_layers`].
pub fn replay_campaign(
    name: &'static str,
    w: &Workload,
    cfg: &CampaignConfig,
    ctx: &Ctx,
    out: &mut WorkloadRun,
) -> Result<(), String> {
    let t = Instant::now();
    let prep =
        ctx.tracer.span("prepare_campaign", "faults", name, None, || prepare_campaign(w, cfg));
    out.rec.set("faults.prepare_s", t.elapsed().as_secs_f64());
    let sharded = ctx
        .tracer
        .span("run_sharded replay", "orchestrator", name, None, || run_job(w, cfg, ctx))?;
    check_job("replay campaign", &sharded.report, cfg.injections, out);
    replay_and_layers(name, w, cfg, &prep, &sharded, ctx, out);
    Ok(())
}

/// A serial replay of the sharded campaign `sharded` (same configuration)
/// on one workspace, a tally check against it, and the layer
/// microbenchmarks on the campaign's program and machine. Each injection
/// goes through `run_injection_supervised_in`, the call the engine makes:
/// `run_injection_in` plus the watchdog and panic isolation, so a hung or
/// panicking injection tallies as it does in `run_sharded`.
fn replay_and_layers(
    name: &'static str,
    w: &Workload,
    cfg: &CampaignConfig,
    prep: &PreparedCampaign,
    sharded: &Job,
    ctx: &Ctx,
    out: &mut WorkloadRun,
) {
    let n = cfg.injections;
    let tracer = &ctx.tracer;
    let mut ws = CampaignWorkspace::new();
    let mut tally = CampaignTally::empty();
    let mut ms = Vec::with_capacity(n);
    let mut by_outcome: [Vec<f64>; 4] = Default::default();
    let mut unexercised = 0usize;
    let parent = tracer.begin("serial_replay", "bench", name, None);
    for start in (0..n).step_by(CHUNK) {
        let mut order: Vec<usize> = (start..(start + CHUNK).min(n)).collect();
        order.sort_by_key(|&i| prep.arm_cycle_of(cfg, i));
        for i in order {
            let t0 = Instant::now();
            let sup = tracer.span("run_injection_supervised_in", "faults", name, parent, || {
                run_injection_supervised_in(prep, cfg, i, &mut ws)
            });
            let dt = 1e3 * t0.elapsed().as_secs_f64();
            ms.push(dt);
            match sup {
                SupervisedOutcome::Classified(r) => {
                    by_outcome[r.outcome.index()].push(dt);
                    unexercised += usize::from(!r.exercised);
                    tally.apply(&r);
                }
                SupervisedOutcome::Hung { .. } => tally.apply_hung(),
                SupervisedOutcome::Quarantined(q) => tally.apply_quarantined(q),
            }
        }
    }
    tracer.end(parent);
    out.attempted += n as u64;
    out.failed += tally.hung + tally.quarantine.len() as u64;
    if tally != tally_of(&sharded.report) {
        out.failures.push("serial replay tallies differ from run_sharded".to_owned());
    }

    let serial_s: f64 = ms.iter().sum::<f64>() / 1e3;
    let sorted = stats::sorted(&ms);
    let (tail_pm, tail_ms) = stats::tail(&sorted).unwrap_or((1000, sorted[sorted.len() - 1]));
    out.notes.push(format!(
        "serial replay {n} injections: tail p{:.1} over {n} samples",
        tail_pm as f64 / 10.0
    ));
    out.rec.set("faults.inj_ms_p50", stats::percentile(&sorted, 500));
    out.rec.set("faults.inj_ms_p99", tail_ms);
    out.rec.set("faults.inj_ms_mean", serial_s * 1e3 / n as f64);
    for o in Outcome::ALL {
        let xs = &by_outcome[o.index()];
        let mean = ratio(xs.iter().sum(), xs.len() as f64);
        out.rec.set(&format!("faults.inj_ms_mean.{}", o.label()), mean);
    }
    out.rec.set("faults.unexercised_frac", unexercised as f64 / n as f64);
    out.rec.set("faults.serial_inj_per_s", n as f64 / serial_s);
    out.rec.set("orchestrator.parallel_eff", serial_s / (ctx.shards as f64 * sharded.phase));

    let ex = ws.exec_stats();
    out.rec.set(
        "machine.plan_hit_ratio",
        ratio(ex.plan_hits as f64, (ex.plan_hits + ex.plan_misses) as f64),
    );
    out.rec.set(
        "machine.predecode_hit_ratio",
        ratio(ex.predecode_hits as f64, (ex.predecode_hits + ex.predecode_misses) as f64),
    );
    out.rec.set("machine.plan_fallbacks", ex.plan_fallbacks as f64);
    let wst = ws.stats();
    out.rec.set(
        "snapshot.pages_rewritten_per_restore",
        ratio(wst.pages_rewritten as f64, wst.restores as f64),
    );
    out.rec.set("snapshot.full_restore_frac", ratio(wst.full_restores as f64, wst.restores as f64));
    let pc = ws.page_cache();
    out.rec.set(
        "snapshot.page_cache_hit_ratio",
        ratio(pc.hits() as f64, (pc.hits() + pc.misses()) as f64),
    );

    let store = prep.snapshot_store();
    out.rec.set(
        "snapshot.dedup_ratio",
        store.map_or(0.0, |s| ratio(s.stats().dedup_hits as f64, s.stats().pages_total as f64)),
    );
    let prog = compile(&w.unit, Mode::Argus, &cfg.ecfg).expect("the workload compiled in prepare");
    let subject = Subject {
        workload: name,
        prog: &prog,
        mcfg: cfg.mcfg,
        acfg: cfg.acfg,
        kind: cfg.kind,
        store: store.and_then(|s| s.mapped()).map(|s| s.as_ref()),
    };
    let window = if ctx.quick { Duration::from_millis(5) } else { Duration::from_millis(500) };
    layers::run(&subject, window, tracer, &mut out.rec);
    let checked_rate = out.rec.get("core.checked_block_msteps_per_s").unwrap_or(0.0) * 1e6;
    let prepare_s = out.rec.get("faults.prepare_s").unwrap_or(0.0);
    out.rec.set("snapshot.capture_s", prepare_s - ratio(prep.golden_cycles() as f64, checked_rate));
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_faults::ChaosConfig;

    #[test]
    fn hung_and_quarantined_injections_count_as_failed_not_as_errors() {
        let w = argus_workloads::stress();
        let chaos = ChaosConfig { panic_at: vec![3], livelock_at: vec![5] };
        let cfg = CampaignConfig { injections: 40, chaos: Some(chaos), ..Default::default() }
            .sized_for(&w);
        let ctx = Ctx {
            seed: 1,
            seconds: 1.0,
            trace: true,
            quick: true,
            shards: 2,
            tmp: std::env::temp_dir(),
            tracer: Tracer::new(false),
        };
        let mut out = WorkloadRun::default();
        replay_campaign("table1_cold", &w, &cfg, &ctx, &mut out).unwrap();
        // The replay's tallies matched the sharded run's, anomalies included.
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!((out.attempted, out.failed), (80, 4));
        let note = out.notes.iter().find(|n| n.contains("1 hung, 1 quarantined"));
        assert!(note.is_some_and(|n| n.contains("index 3")), "{:?}", out.notes);
    }
}
