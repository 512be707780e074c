//! Distributed-execution end-to-end tests over real HTTP: remote
//! workers cold-start from a URL, lease chunks, and post tallies back —
//! and the merged report is byte-identical to a one-shot run no matter
//! how many workers join, crash, or repeat themselves.

use argus_faults::CampaignConfig;
use argus_orchestrator::{
    run_sharded, tally_to_json, CampaignTally, Json, OrchestratorConfig, Progress,
};
use argus_server::http::http_request;
use argus_server::{Server, ServerConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("argus-dist-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Short lease TTL so a zombie worker's chunks reissue within the test.
fn start(name: &str, workers: usize) -> (Server, SocketAddr, PathBuf) {
    start_with_ttl(name, workers, Duration::from_millis(500))
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
        http_threads: 4,
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

fn wait_for_state(addr: SocketAddr, id: u64, want: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, doc) = get(addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200, "{doc:?}");
        let state = doc.get("state").and_then(Json::as_str).unwrap().to_owned();
        if state == want {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in `{state}` waiting for `{want}`");
        std::thread::sleep(Duration::from_millis(30));
    }
}

/// Blocks until the job's lease pool is open (listed under `/work`).
fn wait_leasable(addr: SocketAddr, id: u64, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, doc) = get(addr, "/work");
        assert_eq!(status, 200, "{doc:?}");
        let listed = doc
            .get("jobs")
            .and_then(Json::as_arr)
            .map(|js| js.iter().any(|j| j.as_u64() == Some(id)))
            .unwrap_or(false);
        if listed {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} never became leasable");
        // Poll tightly: the daemon's own worker starts draining the pool
        // the moment it opens.
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn one_shot_payload(n: usize, seed: u64, snapshot_every: Option<u64>) -> String {
    let mut cfg = CampaignConfig { injections: n, snapshot_every, ..Default::default() };
    cfg.seed = seed;
    let ocfg = OrchestratorConfig { shards: 1, ..Default::default() };
    let progress = Progress::new(1);
    let rep =
        run_sharded(&argus_workloads::stress(), &cfg, &ocfg, &AtomicBool::new(false), &progress)
            .unwrap();
    rep.to_json().without("run").to_string_compact()
}

fn fetch_report(addr: SocketAddr, id: u64) -> String {
    let (status, body) = http_request(addr, "GET", &format!("/jobs/{id}/report"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    body
}

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

/// The `kind` of every event, in order.
fn kinds(events: &[Json]) -> Vec<&str> {
    events.iter().map(|e| e.get("kind").and_then(Json::as_str).unwrap()).collect()
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

/// The tentpole identity bar: a hybrid run (1 daemon worker + 2 remote
/// workers over loopback, plus one zombie worker that leases chunks and
/// vanishes) stores a report byte-identical to a one-shot `argus
/// campaign --json`, modulo the volatile `run` section — and the `run`
/// section accounts for the zombie's expired leases.
#[test]
fn hybrid_run_with_zombie_worker_matches_one_shot() {
    static STOP: AtomicBool = AtomicBool::new(false);
    // Enough injections that the daemon's own worker cannot drain the
    // pool in the moment between the pool opening and the zombie's first
    // lease (a cold-boot stress injection takes well under 0.1 ms).
    let (n, seed) = (600usize, 7u64);
    // The zombie's leases outlive the remote workers' cold start, so they
    // are leasing by the time its chunks reissue; with a short TTL the
    // daemon's own worker could drain the whole pool first.
    let (mut server, addr, dir) = start_with_ttl("zombie", 1, Duration::from_secs(3));
    let id = submit(
        addr,
        &format!(r#"{{"n": {n}, "seed": {seed}, "distributed": true, "budget": 1, "chunk": 4}}"#),
    );
    wait_leasable(addr, id, Duration::from_secs(120));

    // A zombie worker grabs every chunk it can and is never heard from
    // again — the campaign cannot finish until its leases expire and
    // reissue.
    let (status, grant) = post(addr, &format!("/jobs/{id}/lease"), r#"{"worker":"zombie"}"#);
    assert_eq!(status, 200, "{grant:?}");
    assert!(grant.get("chunk").and_then(Json::as_u64).is_some(), "pool drained early: {grant:?}");
    loop {
        let (status, grant) = post(addr, &format!("/jobs/{id}/lease"), r#"{"worker":"zombie"}"#);
        if status != 200 || grant.get("chunk").and_then(Json::as_u64).is_none() {
            break;
        }
    }

    let w1 = spawn_worker(addr, id, "alpha", &STOP);
    let w2 = spawn_worker(addr, id, "beta", &STOP);
    wait_for_state(addr, id, "done", Duration::from_secs(300));
    let (s1, s2) = (w1.join().unwrap(), w2.join().unwrap());
    assert!(s1.chunks + s2.chunks >= 1, "no remote chunk landed: {s1:?} {s2:?}");

    let report = fetch_report(addr, id);
    let doc = Json::parse(&report).unwrap();
    assert_eq!(doc.clone().without("run").to_string_compact(), one_shot_payload(n, seed, None));

    // The volatile section carries the distributed accounting.
    let remote = doc.get("run").and_then(|r| r.get("remote")).expect("run.remote present");
    let stat = |k: &str| remote.get(k).and_then(Json::as_u64).unwrap();
    assert!(stat("workers_seen") >= 3, "alpha, beta, zombie: {remote:?}");
    assert!(stat("expired_leases") >= 1, "zombie lease must expire: {remote:?}");
    assert!(stat("remote_chunks") >= 1, "{remote:?}");
    // Both live workers cold-start from the manifest alone.
    assert!(stat("manifest_fetches") >= 2, "both live workers cold-start: {remote:?}");

    // The event stream, published from the engine's ticks, tells the
    // whole story.
    let (status, ev) = get(addr, &format!("/jobs/{id}/events?since=0"));
    assert_eq!(status, 200);
    let events = ev.get("events").and_then(Json::as_arr).unwrap();
    let kinds = kinds(events);
    for kind in ["distributed_open", "worker_connected", "lease_expired"] {
        assert!(kinds.contains(&kind), "no `{kind}` event: {kinds:?}");
    }
    let states: Vec<&str> =
        events.iter().filter_map(|e| e.get("state").and_then(Json::as_str)).collect();
    assert_eq!(states, vec!["queued", "running", "done"], "{kinds:?}");
    assert_final_progress_precedes_done(events, n as u64);

    server.drain();
    let _ = std::fs::remove_dir_all(dir);
}

/// Remote-only mode: `budget: 0` holds no pool workers; a single remote
/// worker does all the work and the report still matches one-shot.
#[test]
fn remote_only_job_runs_with_zero_local_workers() {
    static STOP: AtomicBool = AtomicBool::new(false);
    let (n, seed) = (24usize, 3u64);
    let (mut server, addr, dir) = start("remote-only", 1);
    let id =
        submit(addr, &format!(r#"{{"n": {n}, "seed": {seed}, "distributed": true, "budget": 0}}"#));
    wait_leasable(addr, id, Duration::from_secs(120));

    let w = spawn_worker(addr, id, "solo", &STOP);
    wait_for_state(addr, id, "done", Duration::from_secs(300));
    let summary = w.join().unwrap();
    assert!(summary.injections >= n as u64, "solo worker ran everything: {summary:?}");

    let doc = Json::parse(&fetch_report(addr, id)).unwrap();
    assert_eq!(doc.clone().without("run").to_string_compact(), one_shot_payload(n, seed, None));
    let remote = doc.get("run").and_then(|r| r.get("remote")).expect("run.remote present");
    assert_eq!(remote.get("local_chunks").and_then(Json::as_u64), Some(0));

    server.drain();
    let _ = std::fs::remove_dir_all(dir);
}

/// A remote-only snapshot campaign: the worker captures its own store
/// from the manifest (no state crosses the wire) and every injection
/// forks from it, so the report still matches a one-shot run with the
/// same snapshot interval.
#[test]
fn remote_snapshot_job_matches_one_shot() {
    static STOP: AtomicBool = AtomicBool::new(false);
    let (n, seed, every) = (40usize, 11u64, 500u64);
    let (mut server, addr, dir) = start("remote-snapshot", 1);
    let spec = Json::obj()
        .set("n", n)
        .set("seed", seed)
        .set("distributed", true)
        .set("budget", 0u64)
        .set("snapshot_every", every);
    let id = submit(addr, &spec.to_string_compact());
    wait_leasable(addr, id, Duration::from_secs(120));
    let (status, man) = get(addr, &format!("/jobs/{id}/manifest"));
    assert_eq!(status, 200, "{man:?}");
    assert_eq!(man.get("snapshot_every").and_then(Json::as_u64), Some(every));

    let w = spawn_worker(addr, id, "snap", &STOP);
    wait_for_state(addr, id, "done", Duration::from_secs(300));
    let summary = w.join().unwrap();
    assert!(summary.injections >= n as u64, "the worker ran everything: {summary:?}");

    let doc = Json::parse(&fetch_report(addr, id)).unwrap();
    assert_eq!(
        doc.clone().without("run").to_string_compact(),
        one_shot_payload(n, seed, Some(every))
    );
    let remote = doc.get("run").and_then(|r| r.get("remote")).expect("run.remote present");
    assert_eq!(remote.get("local_chunks").and_then(Json::as_u64), Some(0));

    server.drain();
    let _ = std::fs::remove_dir_all(dir);
}

/// Wire surface: the manifest carries the spec and the entry-state
/// fingerprint and nothing else to fetch; unknown jobs 404, non-distributed
/// jobs 409.
#[test]
fn manifest_endpoint() {
    static STOP: AtomicBool = AtomicBool::new(false);
    let (mut server, addr, dir) = start("wire", 1);
    let id = submit(addr, r#"{"n": 16, "seed": 5, "distributed": true, "budget": 0}"#);
    wait_leasable(addr, id, Duration::from_secs(120));

    let (status, man) = get(addr, &format!("/jobs/{id}/manifest"));
    assert_eq!(status, 200, "{man:?}");
    assert_eq!(man.get("version").and_then(Json::as_u64), Some(argus_remote::PROTOCOL_VERSION));
    assert_eq!(man.get("workload").and_then(Json::as_str), Some("stress"));
    assert_eq!(man.get("n").and_then(Json::as_u64), Some(16));

    // The entry state travels as its fingerprint, 16 hex digits, and no
    // campaign state is served at all.
    let fp = man.get("entry_fingerprint").and_then(Json::as_str).unwrap();
    assert!(fp.len() == 16 && u64::from_str_radix(fp, 16).is_ok(), "{man:?}");
    assert!(man.get("artifacts").is_none(), "{man:?}");
    let (status, _) = get(addr, &format!("/jobs/{id}/artifacts/00000000"));
    assert_eq!(status, 404);

    // Unknown job vs. known-but-not-leasable job.
    let (status, _) = get(addr, "/jobs/999/manifest");
    assert_eq!(status, 404);
    let plain = submit(addr, r#"{"n": 4, "seed": 1}"#);
    let (status, _) = post(addr, &format!("/jobs/{plain}/lease"), r#"{"worker":"w"}"#);
    assert_eq!(status, 409);

    // Local-pool impersonation is rejected before touching the ledger.
    let (status, _) = post(addr, &format!("/jobs/{id}/lease"), r#"{"worker":"local:9"}"#);
    assert_eq!(status, 400);

    // Drain the distributed job so shutdown is clean.
    let w = spawn_worker(addr, id, "finisher", &STOP);
    wait_for_state(addr, id, "done", Duration::from_secs(300));
    w.join().unwrap();
    server.drain();
    let _ = std::fs::remove_dir_all(dir);
}

/// A verbatim re-posted completion (lost-reply retry) is acknowledged as
/// a duplicate and merges nothing.
#[test]
fn duplicate_complete_is_idempotent_over_the_wire() {
    static STOP: AtomicBool = AtomicBool::new(false);
    let (mut server, addr, dir) = start("dup", 1);
    let id = submit(addr, r#"{"n": 20, "seed": 9, "distributed": true, "budget": 0, "chunk": 2}"#);
    wait_leasable(addr, id, Duration::from_secs(120));

    let (status, grant) = post(addr, &format!("/jobs/{id}/lease"), r#"{"worker":"dup"}"#);
    assert_eq!(status, 200, "{grant:?}");
    let chunk = grant.get("chunk").and_then(Json::as_u64).unwrap();
    let start_i = grant.get("start").and_then(Json::as_u64).unwrap();
    let end_i = grant.get("end").and_then(Json::as_u64).unwrap();

    // A synthetic-but-accounting-correct tally: this test checks the
    // dedup gate, not result identity (the job never runs to done here).
    let mut tally = CampaignTally::empty();
    for _ in start_i..end_i {
        tally.apply_hung();
    }
    let body = Json::obj()
        .set("worker", "dup")
        .set("chunk", chunk)
        .set("start", start_i)
        .set("end", end_i)
        .set("tally", tally_to_json(&tally))
        .to_string_compact();

    let (status, first) = post(addr, &format!("/jobs/{id}/complete"), &body);
    assert_eq!(status, 200, "{first:?}");
    assert_eq!(first.get("accepted").and_then(Json::as_bool), Some(true));
    assert_eq!(first.get("duplicate").and_then(Json::as_bool), Some(false));

    let (status, second) = post(addr, &format!("/jobs/{id}/complete"), &body);
    assert_eq!(status, 200, "{second:?}");
    assert_eq!(second.get("accepted").and_then(Json::as_bool), Some(false));
    assert_eq!(second.get("duplicate").and_then(Json::as_bool), Some(true));

    // Heartbeat on a completed chunk renews nothing but answers 200.
    let hb = Json::obj()
        .set("worker", "dup")
        .set("chunks", Json::Arr(vec![Json::from(chunk)]))
        .to_string_compact();
    let (status, renew) = post(addr, &format!("/jobs/{id}/heartbeat"), &hb);
    assert_eq!(status, 200, "{renew:?}");
    assert_eq!(renew.get("renewed").and_then(Json::as_u64), Some(0));

    // Finish the job so drain does not have to cancel it.
    let w = spawn_worker(addr, id, "finisher", &STOP);
    wait_for_state(addr, id, "done", Duration::from_secs(300));
    w.join().unwrap();
    server.drain();
    let _ = std::fs::remove_dir_all(dir);
}

/// A worker pinned to a job that finished before it ever reached a lease
/// must exit: the manifest's 409 reads the same before the pool opens and
/// after it closes, so the worker has to ask for the job's state. Bounded
/// by `recv_timeout` so a regression fails here instead of hanging the
/// suite.
#[test]
fn pinned_worker_exits_when_its_job_already_finished() {
    static STOP: AtomicBool = AtomicBool::new(false);
    let (mut server, addr, dir) = start("pinned-late", 1);
    let id = submit(addr, r#"{"n": 8, "seed": 2, "distributed": true, "budget": 1}"#);
    wait_for_state(addr, id, "done", Duration::from_secs(300));
    let (status, _) = get(addr, &format!("/jobs/{id}/manifest"));
    assert_eq!(status, 409, "a finished job has no open lease pool");

    let (tx, rx) = std::sync::mpsc::channel();
    let worker = spawn_worker(addr, id, "late", &STOP);
    std::thread::spawn(move || {
        let _ = tx.send(worker.join());
    });
    let summary = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a worker pinned to a finished job must exit")
        .expect("worker thread");
    assert_eq!(summary.chunks, 0, "{summary:?}");

    server.drain();
    let _ = std::fs::remove_dir_all(dir);
}
