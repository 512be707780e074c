//! Daemon-overhead gate: campaign-as-a-service must cost (almost)
//! nothing over the bare engine.
//!
//! The `argus serve` daemon wraps the engine in a job queue, an HTTP
//! API, progress events published from the engine's ticks,
//! per-transition job-table persistence, and continuous checkpointing. All of that is bookkeeping around the same
//! injection loop, so a campaign submitted over HTTP must complete in at
//! most [`MAX_OVERHEAD`] more wall-clock time than the identical
//! campaign run directly on the engine — measured end to end, including
//! submission, scheduling, polling, and report fetch. Both sides
//! checkpoint at the daemon's interval: every daemon job checkpoints (it
//! is the durability contract behind crash resume), so the reference run
//! gets the same `--checkpoint` the one-shot CLI would use, and the gate
//! isolates the *service* overhead — queue, HTTP, events, persistence
//! — instead of charging the daemon for durability itself.
//!
//! The run also re-checks the identity guarantee while it is at it: the
//! report fetched over HTTP must match the direct run's deterministic
//! payload byte for byte (volatile `"run"` section removed).
//!
//! Results land in `BENCH_serve.json` at the repo root.
//! `ARGUS_BENCH_SMOKE=1` shrinks the campaign and skips the gate.
//! `ARGUS_INJECTIONS` overrides the campaign size.

use argus_faults::CampaignConfig;
use argus_orchestrator::{run_sharded, Json, OrchestratorConfig, Progress};
use argus_server::http::http_request;
use argus_server::{Server, ServerConfig};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Allowed daemon overhead over the bare engine (fraction of the direct
/// run's wall clock).
const MAX_OVERHEAD: f64 = 0.05;

/// Campaign seed: fixed so the identity check is meaningful.
const SEED: u64 = 0xBE7C;

fn smoke() -> bool {
    std::env::var_os("ARGUS_BENCH_SMOKE").is_some()
}

/// Direct engine run with the same worker count and checkpoint cadence
/// the daemon will use.
fn run_direct(n: usize, workers: usize, checkpoint_interval: Duration) -> (f64, String) {
    let ckpt = std::env::temp_dir().join(format!("argus-bench-direct-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let mut cfg = CampaignConfig { injections: n, ..Default::default() };
    cfg.seed = SEED;
    let ocfg = OrchestratorConfig {
        shards: workers,
        checkpoint_path: Some(ckpt.clone()),
        checkpoint_interval,
        ..Default::default()
    };
    let progress = Progress::new(workers);
    let t = Instant::now();
    let rep =
        run_sharded(&argus_workloads::stress(), &cfg, &ocfg, &AtomicBool::new(false), &progress)
            .expect("direct campaign");
    let secs = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(ckpt.with_extension("bak"));
    (secs, rep.to_json().without("run").to_string_compact())
}

/// Same campaign end-to-end through the daemon: start, submit over HTTP,
/// poll to completion, fetch the report, drain.
fn run_via_daemon(n: usize, workers: usize, checkpoint_interval: Duration) -> (f64, String) {
    let state_dir = std::env::temp_dir().join(format!("argus-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let t = Instant::now();
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        http_threads: 2,
        state_dir: state_dir.clone(),
        checkpoint_interval,
        lease_ttl: Duration::from_secs(10),
    })
    .expect("daemon start");
    let addr = server.addr();
    let body = format!("{{\"n\":{n},\"seed\":{SEED}}}");
    let (status, resp) = http_request(addr, "POST", "/jobs", Some(&body)).expect("submit");
    assert_eq!(status, 201, "{resp}");
    let id =
        Json::parse(&resp).ok().and_then(|d| d.get("id").and_then(Json::as_u64)).expect("job id");
    // Follow the job through the long-poll events endpoint rather than
    // busy-polling: parked connections cost the engine nothing, which
    // matters on small machines where a 20 ms poll loop would steal
    // worker CPU and show up as phantom service overhead.
    let mut since = 0u64;
    loop {
        let (status, resp) = http_request(
            addr,
            "GET",
            &format!("/jobs/{id}/events?since={since}&wait_ms=10000"),
            None,
        )
        .expect("events");
        assert_eq!(status, 200, "{resp}");
        let doc = Json::parse(&resp).expect("events payload");
        since = doc.get("next_since").and_then(Json::as_u64).expect("next_since");
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => break,
            Some("failed") | Some("cancelled") => panic!("job ended early: {resp}"),
            _ => {}
        }
    }
    let (status, report) =
        http_request(addr, "GET", &format!("/jobs/{id}/report"), None).expect("report");
    assert_eq!(status, 200, "{report}");
    server.drain();
    let secs = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&state_dir);
    let payload = Json::parse(&report).expect("report JSON").without("run").to_string_compact();
    (secs, payload)
}

fn main() {
    // The daemon's costs are almost all fixed (startup, job-table
    // persistence, the 20 ms poll quantum, drain — ~0.2 s total), so the
    // campaign must be long enough to amortize them: the gate measures
    // the *service* overhead on real campaigns, not daemon startup. 8k
    // injections ≈ 5 s direct on 2 workers, putting the fixed slice well
    // under the 5% budget.
    let injections: usize = std::env::var("ARGUS_INJECTIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke() { 20 } else { 8_000 });
    let workers = 2;
    println!("== serve overhead (daemon round-trip vs bare engine, {workers} workers) ==");
    if smoke() {
        println!("(smoke mode: {injections} injections, no overhead gate)");
    }

    // Interleave D-d-D-d to split any machine warmup drift across both
    // sides, keep the best of each: the gate compares steady-state costs,
    // not scheduler noise.
    let mut direct_secs = f64::INFINITY;
    let mut daemon_secs = f64::INFINITY;
    let mut direct_payload = String::new();
    let mut daemon_payload = String::new();
    let checkpoint_interval = Duration::from_millis(500);
    let rounds = if smoke() { 1 } else { 2 };
    for _ in 0..rounds {
        let (s, p) = run_direct(injections, workers, checkpoint_interval);
        direct_secs = direct_secs.min(s);
        direct_payload = p;
        let (s, p) = run_via_daemon(injections, workers, checkpoint_interval);
        daemon_secs = daemon_secs.min(s);
        daemon_payload = p;
    }

    assert_eq!(
        daemon_payload, direct_payload,
        "identity violated: HTTP-fetched report differs from the direct engine run"
    );

    let overhead = daemon_secs / direct_secs - 1.0;
    println!("direct engine : {direct_secs:>7.2}s");
    println!("via daemon    : {daemon_secs:>7.2}s  (overhead {:+.1}%)", overhead * 100.0);

    let json = Json::obj()
        .set("bench", "serve_overhead")
        .set("smoke", smoke())
        .set("workload", "stress")
        .set("injections", injections as u64)
        .set("workers", workers as u64)
        .set("direct_seconds", direct_secs)
        .set("daemon_seconds", daemon_secs)
        .set("overhead_fraction", overhead)
        .set("max_overhead_fraction", MAX_OVERHEAD)
        .set("identity_check", "passed");
    let text = json.to_string_compact();
    Json::parse(&text).expect("bench emitted invalid JSON");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(out, &text).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");

    if !smoke() {
        assert!(
            overhead <= MAX_OVERHEAD,
            "serve gate: daemon round-trip must cost <= {:.0}% over the bare engine, got {:+.1}%",
            MAX_OVERHEAD * 100.0,
            overhead * 100.0
        );
    }
}
