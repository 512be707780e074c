//! `daemon_mix`: an open-loop job stream into an in-process daemon with
//! one pool worker and one in-process remote worker.

use crate::campaign::{self, crc32, job_seed, measure_setup, run_job, MIB};
use crate::memory::Sampler;
use crate::stats::{self, ratio};
use crate::trace::Tracer;
use crate::{Ctx, WorkloadRun};
use argus_faults::CampaignConfig;
use argus_orchestrator::Json;
use argus_remote::{run_worker, WorkerConfig};
use argus_server::{http_request, Server, ServerConfig};
use std::collections::btree_map::{BTreeMap, Entry};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Injections per submitted job: small enough that a job finishes inside
/// one 200 ms progress-sampler interval of the daemon even when the host
/// runs at a third of its usual speed, so the stream never saturates the
/// single pool worker and latency measures the daemon's path, not a queue.
const JOB_N: usize = 100;
/// Open-loop submission interval.
const INTERVAL: Duration = Duration::from_millis(250);
/// Every this many jobs, one is submitted at high priority.
const PRIORITY_EVERY: u64 = 4;
/// How often the generator polls each unfinished job.
const POLL: Duration = Duration::from_millis(10);
/// Give up on jobs still unfinished this long after the last submission.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Distinct specs the stream cycles through (seeds `S .. S+3`).
const SPECS: u64 = 4;

fn job_n(ctx: &Ctx) -> usize {
    if ctx.quick {
        20
    } else {
        JOB_N
    }
}

/// The submission body of job `k`.
fn spec_body(ctx: &Ctx, k: u64) -> String {
    let seed = ctx.seed + k % SPECS;
    let mut body = format!("{{\"n\":{},\"seed\":{seed},\"distributed\":true", job_n(ctx));
    if k % PRIORITY_EVERY == PRIORITY_EVERY - 1 {
        body.push_str(",\"priority\":5");
    }
    body.push('}');
    body
}

fn start_server(dir: &Path) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(dir);
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: dir.to_path_buf(),
        ..ServerConfig::default()
    })
}

/// Polls `/healthz` until it answers 200.
fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let t = Instant::now();
    loop {
        if let Ok((200, _)) = http_request(addr, "GET", "/healthz", None) {
            return Ok(());
        }
        if t.elapsed() > Duration::from_secs(10) {
            return Err("daemon never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What the generator saw of one job.
struct Obs {
    k: u64,
    id: u64,
    scheduled: Instant,
    submitted: Instant,
    submit_ms: f64,
    late_ms: f64,
    running: Option<Instant>,
    done: Option<Instant>,
    failed: bool,
}

fn parse(resp: &str) -> Result<Json, String> {
    Json::parse(resp).map_err(|e| format!("daemon sent invalid JSON ({e}): {resp}"))
}

/// HTTP call inside a span; non-2xx statuses are errors.
fn call(
    tracer: &Tracer,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Json, String> {
    let (status, resp) = tracer
        .span(format!("{method} {path}"), "server", "daemon_mix", None, || {
            http_request(addr, method, path, body)
        })
        .map_err(|e| format!("{method} {path}: {e}"))?;
    if !(200..300).contains(&status) {
        return Err(format!("{method} {path}: HTTP {status}: {resp}"));
    }
    parse(&resp)
}

/// Submits `count` jobs (`k0..k0+count`) one `INTERVAL` apart from one
/// thread, polling every unfinished job each `POLL`, until all are done.
/// Latency runs from each job's *scheduled* submit time.
fn open_loop(
    ctx: &Ctx,
    addr: SocketAddr,
    k0: u64,
    count: u64,
    tracer: &Tracer,
) -> Result<Vec<Obs>, String> {
    let t0 = Instant::now();
    let mut jobs: Vec<Obs> = Vec::new();
    loop {
        let now = Instant::now();
        let sent = jobs.len() as u64;
        let due = t0 + INTERVAL * sent as u32;
        if sent < count && now >= due {
            let k = k0 + sent;
            let doc = call(tracer, addr, "POST", "/jobs", Some(&spec_body(ctx, k)))?;
            let submitted = Instant::now();
            let id = doc.get("id").and_then(Json::as_u64).ok_or("submit reply lacks an id")?;
            jobs.push(Obs {
                k,
                id,
                scheduled: due,
                submitted,
                submit_ms: 1e3 * (submitted - now).as_secs_f64(),
                late_ms: 1e3 * (now - due).as_secs_f64(),
                running: None,
                done: None,
                failed: false,
            });
            continue;
        }
        for j in jobs.iter_mut().filter(|j| j.done.is_none()) {
            let doc = call(tracer, addr, "GET", &format!("/jobs/{}", j.id), None)?;
            let seen = Instant::now();
            match doc.get("state").and_then(Json::as_str) {
                Some("queued") => {}
                Some("running" | "draining") => {
                    j.running.get_or_insert(seen);
                }
                Some("done") => {
                    j.running.get_or_insert(seen);
                    j.done = Some(seen);
                }
                _ => {
                    j.failed = true;
                    j.done = Some(seen);
                }
            }
        }
        if sent == count && jobs.iter().all(|j| j.done.is_some()) {
            return Ok(jobs);
        }
        if now > t0 + INTERVAL * count as u32 + DRAIN_TIMEOUT {
            return Err("jobs still unfinished a minute after the last submission".into());
        }
        let next_due = if sent < count { due } else { now + POLL };
        std::thread::sleep(next_due.min(now + POLL).saturating_duration_since(Instant::now()));
    }
}

/// Job latencies (scheduled submit to observed done), ascending.
fn latencies(jobs: &[Obs]) -> Vec<f64> {
    let lat: Vec<f64> =
        jobs.iter().filter_map(|j| j.done.map(|d| (d - j.scheduled).as_secs_f64())).collect();
    stats::sorted(&lat)
}

/// All injections over first scheduled submit to last observed done.
fn inj_per_s(jobs: &[Obs], n: usize) -> f64 {
    let first = jobs.iter().map(|j| j.scheduled).min();
    let last = jobs.iter().filter_map(|j| j.done).max();
    match (first, last) {
        (Some(a), Some(b)) => ratio((n * jobs.len()) as f64, (b - a).as_secs_f64()),
        _ => 0.0,
    }
}

/// One open-loop window of `seconds` (4 jobs under `--quick`).
fn window(
    ctx: &Ctx,
    addr: SocketAddr,
    k0: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Result<Vec<Obs>, String> {
    let count = if ctx.quick { 4 } else { (seconds / INTERVAL.as_secs_f64()).floor() as u64 };
    open_loop(ctx, addr, k0, count.max(1), tracer)
}

/// Report fields the traced run aggregates, as (name, path under the
/// report root).
const REPORT_FIELDS: [(&str, &[&str]); 10] = [
    ("checks_run", &["run", "invariants", "checks_run"]),
    ("busy_pct", &["run", "busy_pct"]),
    ("leases", &["run", "leases"]),
    ("steals", &["run", "steals"]),
    ("tail_imbalance_seconds", &["run", "tail_imbalance_seconds"]),
    ("remote_chunks", &["run", "remote", "remote_chunks"]),
    ("local_chunks", &["run", "remote", "local_chunks"]),
    ("expired_leases", &["run", "remote", "expired_leases"]),
    ("duplicate_completes", &["run", "remote", "duplicate_completes"]),
    ("artifact_fetches", &["run", "remote", "artifact_fetches"]),
];

/// A stored report's fetch time and the numbers pulled from it.
struct ReportRun {
    fetch_ms: f64,
    nums: BTreeMap<&'static str, f64>,
}

/// Runs `f` while one in-process remote worker (one executor thread)
/// serves the daemon at `addr`; stops and joins the worker afterwards.
fn with_remote_worker<T>(
    addr: SocketAddr,
    out: &mut WorkloadRun,
    f: impl FnOnce(&mut WorkloadRun) -> Result<T, String>,
) -> Result<T, String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let wcfg = WorkerConfig {
                connect: addr,
                workers: 1,
                poll: Duration::from_millis(20),
                job: None,
                name: "perf-remote".into(),
                cache_dir: None,
            };
            run_worker(&wcfg, &stop)
        });
        let result = f(out);
        stop.store(true, Ordering::Relaxed);
        if let Err(e) = worker.join().expect("remote worker thread panicked") {
            out.failures.push(format!("remote worker failed: {e}"));
        }
        result
    })
}

/// What `daemon_mix` measured before the traced extras.
struct Measured {
    setup_s: f64,
    untraced: Vec<Obs>,
    traced: Vec<Obs>,
    reports: Vec<ReportRun>,
}

/// Set-up timing, then the untraced window, then (traced runs) a traced
/// window; each gets half of `ctx.seconds` when both run.
fn measure(ctx: &Ctx, out: &mut WorkloadRun) -> Result<Measured, String> {
    let setup_dir = ctx.tmp.join("serve-setup");
    let setup_s = measure_setup(ctx, &mut out.host, || {
        let mut server = ctx
            .tracer
            .span("Server::start", "server", "daemon_mix", None, || start_server(&setup_dir))?;
        let healthy = wait_healthy(server.addr());
        server.drain();
        healthy
    })?;
    let _ = std::fs::remove_dir_all(&setup_dir);

    let dir = ctx.tmp.join("serve");
    let mut server = start_server(&dir)?;
    let addr = server.addr();
    let served = wait_healthy(addr).and_then(|()| {
        with_remote_worker(addr, out, |out| {
            let seconds = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
            let untraced = window(ctx, addr, 0, seconds, &Tracer::new(false))?;
            let traced = match ctx.trace {
                true => window(ctx, addr, untraced.len() as u64, seconds, &ctx.tracer)?,
                false => Vec::new(),
            };
            let reports = fetch_reports(ctx, addr, &untraced, &traced, out)?;
            Ok((untraced, traced, reports))
        })
    });
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
    let (untraced, traced, reports) = served?;
    Ok(Measured { setup_s, untraced, traced, reports })
}

/// Runs `daemon_mix` and records its metrics.
pub fn run(ctx: &Ctx, out: &mut WorkloadRun) -> Result<(), String> {
    let n = job_n(ctx);
    out.config = format!(
        "stress transient n={n}/job every {}ms, daemon workers=1 + 1 remote worker, distributed",
        INTERVAL.as_millis()
    );
    let running = AtomicBool::new(true);
    let (measured, peaks) = std::thread::scope(|scope| {
        let sampler = Sampler::start(scope, &running);
        let measured = measure(ctx, out);
        (measured, sampler.finish())
    });
    let Measured { setup_s, untraced, traced, reports } = measured?;

    // Starting the daemon is host compute, so it is scaled to the nominal
    // host (see `host.rs`); job latency and throughput are set by the
    // daemon's 200 ms sampling interval and the submission schedule, so
    // they are reported as measured.
    let single = out.host.single();
    out.rec.set("setup_s", setup_s * single);
    out.notes.push(format!(
        "as measured: setup_s {setup_s:.6}; host speed {single:.3} on one thread ({} samples)",
        out.host.samples()
    ));
    out.rec.set("inj_per_s", inj_per_s(&untraced, n));
    let lat = latencies(&untraced);
    out.rec.set("job_p50_s", stats::percentile(&lat, 500));
    out.rec.set("job_p90_s", stats::percentile(&lat, 900));
    out.rec.set("peak_anon_rss_mib", peaks.anon as f64 / MIB);
    out.notes.push(format!(
        "jobs {} (open loop, {} beyond p90)",
        lat.len(),
        stats::beyond(lat.len(), 900)
    ));

    if ctx.trace {
        out.rec.set("memory.anon_rss_growth_mib", peaks.anon_growth as f64 / MIB);
        layer_metrics(ctx, n, &untraced, &traced, &reports, out)?;
    }
    Ok(())
}

/// Fetches every job's report, checks it against a direct `run_sharded`
/// of the same spec, and (traced) counts preemption events.
fn fetch_reports(
    ctx: &Ctx,
    addr: SocketAddr,
    untraced: &[Obs],
    traced: &[Obs],
    out: &mut WorkloadRun,
) -> Result<Vec<ReportRun>, String> {
    let n = job_n(ctx);
    let jobs: Vec<&Obs> = untraced.iter().chain(traced).collect();
    // The four distinct specs, run directly after the timed window.
    let mut direct: BTreeMap<u64, String> = BTreeMap::new();
    for j in &jobs {
        let seed = ctx.seed + j.k % SPECS;
        if let Entry::Vacant(slot) = direct.entry(seed) {
            let cfg = CampaignConfig { injections: n, seed, ..Default::default() };
            let job = run_job(&argus_workloads::stress(), &cfg, ctx)?;
            slot.insert(campaign::payload(&job.report));
        }
    }
    let mut runs = Vec::new();
    for j in &jobs {
        out.attempted += n as u64;
        if j.failed {
            out.failed += n as u64;
            out.failures.push(format!("job {} (id {}) failed or was refused", j.k, j.id));
            continue;
        }
        let t = Instant::now();
        let doc = call(&ctx.tracer, addr, "GET", &format!("/jobs/{}/report", j.id), None)?;
        let fetch_ms = 1e3 * t.elapsed().as_secs_f64();
        let payload = doc.clone().without("run").to_string_compact();
        let seed = ctx.seed + j.k % SPECS;
        if payload != direct[&seed] {
            out.failures.push(format!("job {} report differs from a direct run_sharded", j.k));
        }
        if j.k == 0 {
            out.notes.push(format!("payload_crc32 {:08x} (job 0, seed {seed})", crc32(&payload)));
            let cov = doc.get("unmasked_coverage").and_then(Json::as_f64).unwrap_or(0.0);
            out.notes.push(format!("unmasked_coverage {cov:.4} (job 0; Table 1 reference 0.980)"));
        }
        let num = |d: &Json, path: &[&str]| {
            path.iter().try_fold(d, |d, k| d.get(k)).and_then(Json::as_f64).unwrap_or(0.0)
        };
        let completed = num(&doc, &["completed"]) as usize;
        let hung = num(&doc, &["hung"]) as u64 + num(&doc, &["quarantined"]) as u64;
        let violations = num(&doc, &["run", "invariants", "violations"]);
        if completed != n || violations != 0.0 {
            out.failures.push(format!(
                "job {}: completed {completed} of {n}, {violations} violations",
                j.k
            ));
        }
        // Counted as failed operations, as `campaign::check_job` does.
        if hung != 0 {
            out.failed += hung;
            out.notes.push(format!("failed operations: job {}: {hung} hung or quarantined", j.k));
        }
        let mut nums: BTreeMap<&str, f64> =
            REPORT_FIELDS.iter().map(|&(name, path)| (name, num(&doc, path))).collect();
        if ctx.trace {
            let ev =
                call(&ctx.tracer, addr, "GET", &format!("/jobs/{}/events?since=0", j.id), None)?;
            let preempting = ev.get("events").and_then(Json::as_arr).map_or(0, |evs| {
                evs.iter()
                    .filter(|e| e.get("kind").and_then(Json::as_str) == Some("preempting"))
                    .count()
            });
            nums.insert("preemptions", preempting as f64);
        }
        runs.push(ReportRun { fetch_ms, nums });
    }
    Ok(runs)
}

/// Per-layer metrics of the traced run: server and remote numbers from
/// the generator's observations and the stored reports, then the replay
/// and microbenchmarks on the daemon's campaign configuration.
fn layer_metrics(
    ctx: &Ctx,
    n: usize,
    untraced: &[Obs],
    traced: &[Obs],
    reports: &[ReportRun],
    out: &mut WorkloadRun,
) -> Result<(), String> {
    out.rec.set("bench.trace_overhead_frac", 1.0 - inj_per_s(traced, n) / inj_per_s(untraced, n));
    let med = |f: &dyn Fn(&Obs) -> Option<f64>| {
        stats::median(&traced.iter().filter_map(f).collect::<Vec<_>>())
    };
    out.rec.set("server.submit_ms_p50", med(&|j| Some(j.submit_ms)));
    out.rec.set(
        "server.queue_wait_s_p50",
        med(&|j| j.running.map(|r| r.saturating_duration_since(j.submitted).as_secs_f64())),
    );
    out.rec.set("server.run_s_p50", med(&|j| Some((j.done? - j.running?).as_secs_f64())));
    out.rec.set(
        "bench.generator_late_ms_max",
        untraced.iter().chain(traced).map(|j| j.late_ms).fold(0.0, f64::max),
    );
    // Reports of the traced half only.
    let traced = &reports[reports.len().saturating_sub(traced.len())..];
    let k = traced.len() as f64;
    let sum =
        |key: &str| traced.iter().map(|r| r.nums.get(key).copied().unwrap_or(0.0)).sum::<f64>();
    let fetch_ms: Vec<f64> = traced.iter().map(|r| r.fetch_ms).collect();
    out.rec.set("server.report_fetch_ms_p50", stats::median(&fetch_ms));
    out.rec.set("server.preemptions", sum("preemptions"));
    out.rec.set("invariants.checks_per_inj", sum("checks_run") / (k * n as f64));
    out.rec.set("orchestrator.busy_pct", sum("busy_pct") / k);
    out.rec.set("orchestrator.leases", sum("leases") / k);
    out.rec.set("orchestrator.steals", sum("steals") / k);
    out.rec.set("orchestrator.tail_imbalance_s", sum("tail_imbalance_seconds") / k);
    let remote = sum("remote_chunks");
    out.rec.set("remote.remote_chunk_frac", ratio(remote, remote + sum("local_chunks")));
    out.rec.set("remote.expired_leases", sum("expired_leases"));
    out.rec.set("remote.duplicate_completes", sum("duplicate_completes"));
    out.rec.set("remote.artifact_fetches_per_job", sum("artifact_fetches") / k);

    // The daemon runs `stress` at the campaign defaults; replay that.
    let w = argus_workloads::stress();
    let cfg = CampaignConfig {
        injections: campaign::replay_n(ctx),
        seed: job_seed(ctx.seed, 0),
        ..Default::default()
    }
    .sized_for(&w);
    campaign::replay_campaign("daemon_mix", &w, &cfg, ctx, out)
}
