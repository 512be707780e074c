//! End-to-end daemon tests over real HTTP: submit → schedule → run →
//! report, plus the identity guarantee against one-shot runs, cancel,
//! preemption, and restart-resume.

use argus_faults::CampaignConfig;
use argus_orchestrator::{run_sharded, Json, OrchestratorConfig, Progress};
use argus_server::http::http_request;
use argus_server::{Server, ServerConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Fresh state dir per test.
fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("argus-serve-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(name: &str, workers: usize) -> (Server, SocketAddr, PathBuf) {
    start_with_ttl(name, workers, Duration::from_secs(2))
}

fn start_with_ttl(
    name: &str,
    workers: usize,
    lease_ttl: Duration,
) -> (Server, SocketAddr, PathBuf) {
    let dir = state_dir(name);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        http_threads: 2,
        state_dir: dir.clone(),
        checkpoint_interval: Duration::from_millis(100),
        lease_ttl,
    })
    .unwrap();
    let addr = server.addr();
    (server, addr, dir)
}

fn get(addr: SocketAddr, path: &str) -> (u16, Json) {
    let (status, body) = http_request(addr, "GET", path, None).unwrap();
    (status, Json::parse(&body).unwrap_or(Json::Null))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Json) {
    let (status, body) = http_request(addr, "POST", path, Some(body)).unwrap();
    (status, Json::parse(&body).unwrap_or(Json::Null))
}

fn submit(addr: SocketAddr, spec: &str) -> u64 {
    let (status, doc) = post(addr, "/jobs", spec);
    assert_eq!(status, 201, "{doc:?}");
    doc.get("id").and_then(Json::as_u64).unwrap()
}

fn job_state(addr: SocketAddr, id: u64) -> String {
    let (status, doc) = get(addr, &format!("/jobs/{id}"));
    assert_eq!(status, 200, "{doc:?}");
    doc.get("state").and_then(Json::as_str).unwrap().to_owned()
}

fn wait_for(addr: SocketAddr, id: u64, want: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let state = job_state(addr, id);
        if state == want {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in `{state}` waiting for `{want}`");
        std::thread::sleep(Duration::from_millis(30));
    }
}

/// The deterministic payload (report minus the volatile `"run"` section)
/// of a one-shot engine run with the given spec — what `argus campaign
/// --json` prints, scheduling noise removed.
fn one_shot_payload(n: usize, seed: u64) -> String {
    let mut cfg = CampaignConfig { injections: n, ..Default::default() };
    cfg.seed = seed;
    let ocfg = OrchestratorConfig { shards: 1, ..Default::default() };
    let progress = Progress::new(1);
    let rep =
        run_sharded(&argus_workloads::stress(), &cfg, &ocfg, &AtomicBool::new(false), &progress)
            .unwrap();
    rep.to_json().without("run").to_string_compact()
}

/// Strips the volatile section from fetched report bytes.
fn payload_of(report_body: &str) -> String {
    Json::parse(report_body).unwrap().without("run").to_string_compact()
}

fn fetch_report(addr: SocketAddr, id: u64) -> String {
    let (status, body) = http_request(addr, "GET", &format!("/jobs/{id}/report"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    body
}

/// Asserts that a progress event with `done == total == n` comes before
/// the terminal `done` state event (the job's final publish).
fn assert_final_progress_precedes_done(events: &[Json], n: u64) {
    let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_u64);
    let full = events.iter().position(|e| {
        e.get("kind").and_then(Json::as_str) == Some("progress")
            && field(e, "done") == Some(n)
            && field(e, "total") == Some(n)
    });
    let done = events.iter().position(|e| e.get("state").and_then(Json::as_str) == Some("done"));
    match (full, done) {
        (Some(p), Some(d)) => assert!(p < d, "final progress after the state event: {events:?}"),
        _ => panic!("no full progress event before `done`: {events:?}"),
    }
}

#[test]
fn submit_runs_to_done_and_report_matches_one_shot() {
    let (mut server, addr, dir) = start("basic", 2);

    let (status, doc) = get(addr, "/healthz");
    assert_eq!((status, doc.get("ok").and_then(Json::as_bool)), (200, Some(true)));

    let id = submit(addr, r#"{"n": 48, "seed": 11}"#);
    wait_for(addr, id, "done", Duration::from_secs(120));

    // Byte identity with a one-shot run of the same spec, volatile
    // section removed.
    let report = fetch_report(addr, id);
    assert_eq!(payload_of(&report), one_shot_payload(48, 11));

    // The stored report is complete and uninterrupted.
    let doc = Json::parse(&report).unwrap();
    assert_eq!(doc.get("completed").and_then(Json::as_u64), Some(48));
    assert_eq!(doc.get("interrupted").and_then(Json::as_bool), Some(false));

    // Detail carries the spec back and flags the report.
    let (_, detail) = get(addr, &format!("/jobs/{id}"));
    assert_eq!(detail.get("report_ready").and_then(Json::as_bool), Some(true));
    assert_eq!(detail.get("spec").and_then(|s| s.get("n")).and_then(Json::as_u64), Some(48));

    // Events tell the whole story: queued, running, done.
    let (status, ev) = get(addr, &format!("/jobs/{id}/events?since=0"));
    assert_eq!(status, 200);
    let states: Vec<&str> = ev
        .get("events")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|e| e.get("kind").and_then(Json::as_str) == Some("state"))
        .map(|e| e.get("state").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(states, vec!["queued", "running", "done"], "{ev:?}");
    assert_eq!(ev.get("truncated").and_then(Json::as_bool), Some(false));
    assert_final_progress_precedes_done(ev.get("events").and_then(Json::as_arr).unwrap(), 48);

    // A long-poll against a terminal job returns immediately.
    let t0 = Instant::now();
    let next = ev.get("next_since").and_then(Json::as_u64).unwrap();
    let (status, ev2) = get(addr, &format!("/jobs/{id}/events?since={next}&wait_ms=5000"));
    assert_eq!(status, 200);
    assert!(t0.elapsed() < Duration::from_secs(4), "terminal job must not block long-poll");
    assert_eq!(ev2.get("events").and_then(Json::as_arr).map(<[Json]>::len), Some(0));

    server.drain();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn api_rejects_nonsense() {
    let (mut server, addr, dir) = start("reject", 1);

    for (path, body, want) in [
        ("/jobs", "not json", 400),
        ("/jobs", r#"{"seed": 3}"#, 400),         // n missing
        ("/jobs", r#"{"n": 0}"#, 400),            // n out of range
        ("/jobs", r#"{"n": 5, "typo": 1}"#, 400), // unknown field
        ("/jobs/7/cancel", "", 404),              // unknown job
        ("/nope", "", 404),
    ] {
        let (status, doc) = post(addr, path, body);
        assert_eq!(status, want, "{path}: {doc:?}");
        assert_eq!(doc.get("code").and_then(Json::as_u64), Some(u64::from(want)));
    }
    let (status, _) = get(addr, "/jobs/xyz");
    assert_eq!(status, 400, "non-numeric id");
    let (status, _) = get(addr, "/jobs/99");
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/jobs/99/report");
    assert_eq!(status, 404);
    let (status, doc) = post(addr, "/status", "");
    assert_eq!(status, 405, "{doc:?}");

    server.drain();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn concurrent_priorities_complete_with_correct_tallies() {
    let (mut server, addr, dir) = start("concurrent", 2);

    // Two jobs with different seeds, priorities, and budgets share the
    // pool; each must produce exactly the tallies of its own one-shot
    // run (no cross-talk between concurrently-running campaigns).
    let low = submit(addr, r#"{"n": 40, "seed": 21, "priority": 1, "budget": 1}"#);
    let high = submit(addr, r#"{"n": 40, "seed": 22, "priority": 8, "budget": 1}"#);
    wait_for(addr, low, "done", Duration::from_secs(120));
    wait_for(addr, high, "done", Duration::from_secs(120));

    assert_eq!(payload_of(&fetch_report(addr, low)), one_shot_payload(40, 21));
    assert_eq!(payload_of(&fetch_report(addr, high)), one_shot_payload(40, 22));

    let (_, status_doc) = get(addr, "/status");
    assert_eq!(
        status_doc.get("jobs").and_then(|j| j.get("done")).and_then(Json::as_u64),
        Some(2),
        "{status_doc:?}"
    );

    server.drain();
    let _ = std::fs::remove_dir_all(dir);
}

/// The `state` values of a job's `state` events, in order, and whether
/// a `preempting` event was published.
fn state_history(addr: SocketAddr, id: u64) -> (Vec<String>, bool) {
    let (status, ev) = get(addr, &format!("/jobs/{id}/events?since=0"));
    assert_eq!(status, 200, "{ev:?}");
    let events = ev.get("events").and_then(Json::as_arr).unwrap();
    let kind = |e: &Json| e.get("kind").and_then(Json::as_str).map(str::to_owned);
    let states = events
        .iter()
        .filter(|e| kind(e).as_deref() == Some("state"))
        .map(|e| e.get("state").and_then(Json::as_str).unwrap().to_owned())
        .collect();
    (states, events.iter().any(|e| kind(e).as_deref() == Some("preempting")))
}

#[test]
fn high_priority_preempts_and_both_finish_correct() {
    const N: u64 = 1500;
    // One pool worker, held by a low-priority job that is also open to
    // remote leases. A zombie leases one chunk and never reports (the
    // long TTL keeps it from reissuing), so the job cannot finish: once
    // the local worker has run every other chunk it sits running at a
    // fixed completion count however fast the host is, and a
    // high-priority arrival can only run if the scheduler preempts it.
    let (mut server, addr, dir) = start_with_ttl("preempt", 1, Duration::from_secs(600));
    let big = submit(
        addr,
        &format!(
            r#"{{"n": {N}, "seed": 31, "chunk": 4, "priority": 1, "distributed": true, "budget": 1}}"#
        ),
    );
    let deadline = Instant::now() + Duration::from_secs(120);
    let held = loop {
        let (status, grant) = post(addr, &format!("/jobs/{big}/lease"), r#"{"worker":"zombie"}"#);
        let field = |k| grant.get(k).and_then(Json::as_u64);
        if let (200, Some(start), Some(end)) = (status, field("start"), field("end")) {
            break end - start;
        }
        // The lease pool is not open yet.
        assert!(Instant::now() < deadline, "job {big} never became leasable: {grant:?}");
        std::thread::sleep(Duration::from_millis(1));
    };
    let deadline = Instant::now() + Duration::from_secs(600);
    while job_done(addr, big) < N - held {
        assert!(Instant::now() < deadline, "the local worker never finished the unheld chunks");
        std::thread::sleep(Duration::from_millis(30));
    }
    assert_eq!(job_done(addr, big), N - held);
    assert_eq!(job_state(addr, big), "running");

    let urgent = submit(addr, r#"{"n": 10, "seed": 32, "priority": 9}"#);
    wait_for(addr, urgent, "done", Duration::from_secs(120));

    // The big job was preempted, not killed: it went back to the queue,
    // ran again once the urgent job was done, and resumed from its
    // checkpoint. The zombie's lease died with the preempted run, so the
    // resumed run completes exactly the held chunk, and the report is
    // the exact one-shot payload despite the round trip.
    wait_for(addr, big, "done", Duration::from_secs(600));
    let (states, preempted) = state_history(addr, big);
    assert!(preempted, "no `preempting` event: {states:?}");
    assert_eq!(states, ["queued", "running", "queued", "running", "done"]);
    let (urgent_states, _) = state_history(addr, urgent);
    assert_eq!(urgent_states, ["queued", "running", "done"]);
    assert_eq!(payload_of(&fetch_report(addr, urgent)), one_shot_payload(10, 32));
    let report = fetch_report(addr, big);
    assert_eq!(payload_of(&report), one_shot_payload(N as usize, 31));
    let doc = Json::parse(&report).unwrap();
    let this_run =
        doc.get("run").and_then(|r| r.get("completed_this_run")).and_then(Json::as_u64).unwrap();
    assert_eq!(this_run, held, "expected a resumed run, got completed_this_run={this_run}");

    server.drain();
    let _ = std::fs::remove_dir_all(dir);
}

/// A remote worker pinned to `job`, stopped by `stop`.
fn spawn_worker(
    addr: SocketAddr,
    job: u64,
    name: &str,
    stop: &'static AtomicBool,
) -> std::thread::JoinHandle<argus_remote::WorkerSummary> {
    let wcfg = argus_remote::WorkerConfig {
        connect: addr,
        workers: 1,
        poll: Duration::from_millis(25),
        job: Some(job),
        name: name.to_owned(),
        cache_dir: None,
    };
    std::thread::spawn(move || argus_remote::run_worker(&wcfg, stop).expect("worker run"))
}

/// The job's committed injection count, as its latest progress event
/// reports it (0 before the first one).
fn job_done(addr: SocketAddr, id: u64) -> u64 {
    let (status, doc) = get(addr, &format!("/jobs/{id}"));
    assert_eq!(status, 200, "{doc:?}");
    doc.get("progress").and_then(|p| p.get("done")).and_then(Json::as_u64).unwrap_or(0)
}

#[test]
fn drain_persists_and_restart_resumes_to_identical_report() {
    static STOP: AtomicBool = AtomicBool::new(false);
    static STOP_AFTER_RESTART: AtomicBool = AtomicBool::new(false);
    const N: u64 = 900;
    const HELD: u64 = 300;
    // The job is remote-only (`budget: 0`): it moves only when a worker
    // completes a chunk, so the drain below finds it running at a fixed
    // completion count however fast the host is. A zombie leases the
    // first HELD injections and never reports (the long TTL keeps its
    // leases from reissuing); a real worker runs the rest.
    let (mut server, addr, dir) = start_with_ttl("resume", 2, Duration::from_secs(600));
    let id = submit(
        addr,
        &format!(r#"{{"n": {N}, "seed": 41, "chunk": 4, "distributed": true, "budget": 0}}"#),
    );
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut held = 0;
    while held < HELD {
        let (status, grant) = post(addr, &format!("/jobs/{id}/lease"), r#"{"worker":"zombie"}"#);
        match (status, grant.get("start").and_then(Json::as_u64)) {
            (200, Some(start)) => {
                assert_eq!(start, held, "leases carve the lowest indices first: {grant:?}");
                held = grant.get("end").and_then(Json::as_u64).unwrap();
            }
            // The lease pool is not open yet.
            _ => {
                assert!(Instant::now() < deadline, "job {id} never became leasable: {grant:?}");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    let worker = spawn_worker(addr, id, "runner", &STOP);
    let deadline = Instant::now() + Duration::from_secs(600);
    while job_done(addr, id) < N - held {
        assert!(Instant::now() < deadline, "the worker never finished the unheld chunks");
        std::thread::sleep(Duration::from_millis(30));
    }
    STOP.store(true, std::sync::atomic::Ordering::Relaxed);
    worker.join().unwrap();
    assert_eq!(job_done(addr, id), N - held);
    assert_eq!(job_state(addr, id), "running");

    // Graceful drain: stop leasing, checkpoint, persist, exit.
    let (status, doc) = post(addr, "/drain", "");
    assert_eq!(status, 200, "{doc:?}");
    // Draining daemons refuse new work.
    let (status, _) = post(addr, "/jobs", r#"{"n": 5}"#);
    assert_eq!(status, 503);
    server.drain();

    // Restart on the same state dir: the job resumes from its checkpoint
    // and completes; the final report is byte-identical to a clean
    // one-shot run.
    let server2 = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        http_threads: 2,
        state_dir: dir.clone(),
        checkpoint_interval: Duration::from_millis(100),
        lease_ttl: Duration::from_secs(2),
    })
    .unwrap();
    let addr2 = server2.addr();
    let worker = spawn_worker(addr2, id, "finisher", &STOP_AFTER_RESTART);
    wait_for(addr2, id, "done", Duration::from_secs(600));
    worker.join().unwrap();
    let report = fetch_report(addr2, id);
    assert_eq!(payload_of(&report), one_shot_payload(N as usize, 41));
    // And it genuinely resumed rather than restarting from scratch: the
    // final run completed exactly the injections the zombie held.
    let doc = Json::parse(&report).unwrap();
    let this_run =
        doc.get("run").and_then(|r| r.get("completed_this_run")).and_then(Json::as_u64).unwrap();
    assert_eq!(this_run, held, "expected a resumed run, got completed_this_run={this_run}");

    drop(server2);
    let _ = std::fs::remove_dir_all(dir);
}
