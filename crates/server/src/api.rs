//! HTTP API: routes and JSON shapes.
//!
//! Every response is JSON. Errors are `{"error": "...", "code": N}` with
//! a matching HTTP status. See `EXPERIMENTS.md` for the full reference.
//!
//! | Method | Path                      | What                                   |
//! |--------|---------------------------|----------------------------------------|
//! | GET    | `/healthz`                | liveness probe                         |
//! | GET    | `/status`                 | pool + queue summary                   |
//! | POST   | `/jobs`                   | submit a campaign (`201 {"id": N}`)    |
//! | GET    | `/jobs`                   | list all jobs                          |
//! | GET    | `/jobs/<id>`              | one job: state, spec, latest progress  |
//! | GET    | `/jobs/<id>/events`       | incremental events (`since`, `wait_ms`)|
//! | GET    | `/jobs/<id>/report`       | stored report bytes (done jobs only)   |
//! | POST   | `/jobs/<id>/cancel`       | cancel queued or running job           |
//! | POST   | `/drain`                  | graceful shutdown request              |
//!
//! Distributed-worker endpoints (see `argus_remote::protocol`):
//!
//! | Method | Path                          | What                                |
//! |--------|-------------------------------|-------------------------------------|
//! | GET    | `/work`                       | leasable distributed job ids        |
//! | GET    | `/jobs/<id>/manifest`         | campaign manifest for cold start    |
//! | POST   | `/jobs/<id>/lease`            | lease one injection chunk           |
//! | POST   | `/jobs/<id>/complete`         | post a chunk's merged tally         |
//! | POST   | `/jobs/<id>/heartbeat`        | renew held leases                   |

use crate::daemon::{CancelError, Daemon, SubmitError};
use crate::http::{Handler, Request, Response};
use crate::jobs::{report_path, JobId, JobSpec, JobState};
use argus_orchestrator::{CompleteVerdict, Json, LOCAL_PREFIX};
use argus_remote::{CampaignShare, CompleteRequest};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The last segment of every `/jobs/<id>/<leaf>` route.
const JOB_LEAVES: [&str; 7] =
    ["events", "report", "cancel", "manifest", "lease", "complete", "heartbeat"];

/// Longest long-poll wait the server honours, however large `wait_ms` is.
const MAX_WAIT: Duration = Duration::from_secs(10);

/// JSON error envelope + status code.
fn error(status: u16, msg: &str) -> Response {
    let doc = Json::obj().set("error", msg).set("code", u64::from(status));
    Response::json(status, doc.to_string_compact())
}

fn ok(doc: Json) -> Response {
    Response::json(200, doc.to_string_compact())
}

/// Builds the request handler closure over the shared daemon core.
pub fn router(daemon: Arc<Daemon>) -> Handler {
    Arc::new(move |req: &Request| route(&daemon, req))
}

fn route(daemon: &Arc<Daemon>, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => ok(Json::obj().set("ok", true)),
        ("GET", ["status"]) => status(daemon),
        ("POST", ["jobs"]) => submit(daemon, req),
        ("GET", ["jobs"]) => list(daemon),
        ("GET", ["jobs", id]) => with_id(id, |id| detail(daemon, id)),
        ("GET", ["jobs", id, "events"]) => with_id(id, |id| events(daemon, id, req)),
        ("GET", ["jobs", id, "report"]) => with_id(id, |id| report(daemon, id)),
        ("POST", ["jobs", id, "cancel"]) => with_id(id, |id| cancel(daemon, id)),
        ("POST", ["drain"]) => drain(daemon),
        ("GET", ["work"]) => work(daemon),
        ("GET", ["jobs", id, "manifest"]) => with_id(id, |id| manifest(daemon, id)),
        ("POST", ["jobs", id, "lease"]) => with_id(id, |id| lease(daemon, id, req)),
        ("POST", ["jobs", id, "complete"]) => with_id(id, |id| complete(daemon, id, req)),
        ("POST", ["jobs", id, "heartbeat"]) => with_id(id, |id| heartbeat(daemon, id, req)),
        // Known paths with the wrong verb are 405, everything else 404.
        (_, ["healthz" | "status" | "jobs" | "drain" | "work"] | ["jobs", _]) => {
            error(405, "method not allowed for this path")
        }
        (_, ["jobs", _, leaf]) if JOB_LEAVES.contains(leaf) => {
            error(405, "method not allowed for this path")
        }
        _ => error(404, "no such endpoint"),
    }
}

fn with_id(raw: &str, f: impl FnOnce(JobId) -> Response) -> Response {
    match raw.parse::<JobId>() {
        Ok(id) => f(id),
        Err(_) => error(400, "job id must be an integer"),
    }
}

fn submit(daemon: &Arc<Daemon>, req: &Request) -> Response {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return error(400, "body must be UTF-8 JSON"),
    };
    let doc = match Json::parse(text) {
        Ok(d) => d,
        Err(e) => return error(400, &format!("body is not valid JSON: {e}")),
    };
    let spec = match JobSpec::from_json(&doc, daemon.cfg.workers) {
        Ok(s) => s,
        Err(e) => return error(400, &e),
    };
    match daemon.submit(spec) {
        Ok(id) => Response::json(201, Json::obj().set("id", id).to_string_compact()),
        Err(SubmitError::Draining) => error(503, "daemon is draining; not accepting jobs"),
    }
}

fn status(daemon: &Arc<Daemon>) -> Response {
    let st = daemon.state.lock().unwrap();
    let mut by_state = Json::obj();
    for s in [
        JobState::Queued,
        JobState::Running,
        JobState::Draining,
        JobState::Done,
        JobState::Failed,
        JobState::Cancelled,
    ] {
        let n = st.jobs.iter().filter(|j| j.row.state == s).count();
        by_state = by_state.set(s.label(), n);
    }
    let queue: Vec<Json> = st.queue.iter().map(|e| Json::from(e.id)).collect();
    ok(Json::obj()
        .set("workers", daemon.cfg.workers)
        .set("free_workers", st.free)
        .set("draining", st.draining)
        .set("jobs", by_state)
        .set("queue", Json::Arr(queue)))
}

/// Summary row shared by the list and detail endpoints.
fn job_summary(job: &crate::daemon::LiveJob) -> Json {
    let mut doc = Json::obj()
        .set("id", job.row.id)
        .set("state", job.row.state.label())
        .set("priority", u64::from(job.row.spec.priority))
        .set("seq", job.row.seq);
    if job.alloc > 0 {
        doc = doc.set("workers", job.alloc);
    }
    if let Some(e) = &job.row.error {
        doc = doc.set("error", e.as_str());
    }
    doc
}

fn list(daemon: &Arc<Daemon>) -> Response {
    let st = daemon.state.lock().unwrap();
    let jobs: Vec<Json> = st.jobs.iter().map(job_summary).collect();
    ok(Json::obj().set("jobs", Json::Arr(jobs)))
}

fn detail(daemon: &Arc<Daemon>, id: JobId) -> Response {
    let st = daemon.state.lock().unwrap();
    let Some(job) = st.job(id) else {
        return error(404, "no such job");
    };
    let mut doc = job_summary(job)
        .set("spec", job.row.spec.to_json())
        .set("next_since", job.next_event_seq)
        .set("report_ready", job.row.state == JobState::Done);
    if let Some(p) = &job.last_progress {
        doc = doc.set("progress", p.clone());
    }
    ok(doc)
}

/// Incremental event fetch with optional long-poll: returns all events
/// with `seq >= since`; when there are none yet, waits up to
/// `min(wait_ms, 10s)` for one to arrive. `truncated` signals that the
/// ring dropped events the cursor never saw.
fn events(daemon: &Arc<Daemon>, id: JobId, req: &Request) -> Response {
    let since = req.query_u64("since").unwrap_or(0);
    let wait = Duration::from_millis(req.query_u64("wait_ms").unwrap_or(0)).min(MAX_WAIT);
    let deadline = Instant::now() + wait;

    let mut st = daemon.state.lock().unwrap();
    loop {
        let Some(job) = st.job(id) else {
            return error(404, "no such job");
        };
        let fresh = job.next_event_seq > since;
        let terminal = job.row.state.is_terminal();
        if fresh || terminal || Instant::now() >= deadline {
            let events: Vec<Json> = job
                .events
                .iter()
                .filter(|(seq, _)| *seq >= since)
                .map(|(_, ev)| ev.clone())
                .collect();
            let truncated = since < job.first_retained_seq();
            return ok(Json::obj()
                .set("events", Json::Arr(events))
                .set("next_since", job.next_event_seq)
                .set("truncated", truncated)
                .set("state", job.row.state.label()));
        }
        let timeout = deadline.saturating_duration_since(Instant::now());
        let (guard, _) = daemon.wake.wait_timeout(st, timeout).unwrap();
        st = guard;
    }
}

fn report(daemon: &Arc<Daemon>, id: JobId) -> Response {
    let state = {
        let st = daemon.state.lock().unwrap();
        match st.job(id) {
            None => return error(404, "no such job"),
            Some(job) => job.row.state,
        }
    };
    if state != JobState::Done {
        return error(409, &format!("job is {}, report only exists once done", state.label()));
    }
    match std::fs::read(report_path(&daemon.cfg.state_dir, id)) {
        Ok(bytes) => Response::bytes(200, "application/json", bytes),
        Err(e) => error(500, &format!("report missing from state dir: {e}")),
    }
}

fn cancel(daemon: &Arc<Daemon>, id: JobId) -> Response {
    match daemon.cancel(id) {
        Ok(state) => ok(Json::obj().set("id", id).set("state", state.label())),
        Err(CancelError::NotFound) => error(404, "no such job"),
        Err(CancelError::Terminal(s)) => error(409, &format!("job is already {}", s.label())),
    }
}

fn drain(daemon: &Arc<Daemon>) -> Response {
    daemon.request_drain();
    ok(Json::obj().set("draining", true))
}

// ---------------------------------------------------------------- remote

fn work(daemon: &Arc<Daemon>) -> Response {
    let jobs: Vec<Json> = daemon.leasable_jobs().into_iter().map(Json::from).collect();
    ok(Json::obj().set("jobs", Json::Arr(jobs)))
}

/// The open lease pool for a distributed job, or the error that explains
/// its absence: 404 for an unknown id, 409 for a job that exists but is
/// not currently leasable (not distributed, queued, or already settled).
fn open_share(daemon: &Arc<Daemon>, id: JobId) -> Result<Arc<CampaignShare>, Response> {
    if let Some(share) = daemon.share(id) {
        return Ok(share);
    }
    let st = daemon.state.lock().unwrap();
    Err(match st.job(id) {
        None => error(404, "no such job"),
        Some(_) => error(409, "job has no open lease pool"),
    })
}

fn body_json(req: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&req.body).map_err(|_| error(400, "body must be UTF-8 JSON"))?;
    Json::parse(text).map_err(|e| error(400, &format!("body is not valid JSON: {e}")))
}

/// The worker name from a lease/heartbeat body. The `local:` namespace
/// belongs to the coordinator's own pool threads; a remote worker
/// claiming it would skew the remote/local accounting split.
fn worker_name(doc: &Json) -> Result<String, Response> {
    let name = doc
        .get("worker")
        .and_then(Json::as_str)
        .ok_or_else(|| error(400, "body must carry a `worker` name"))?;
    if name.is_empty() || name.starts_with(LOCAL_PREFIX) {
        return Err(error(400, "worker name must be non-empty and not use the `local:` prefix"));
    }
    Ok(name.to_owned())
}

fn manifest(daemon: &Arc<Daemon>, id: JobId) -> Response {
    match open_share(daemon, id) {
        Ok(share) => ok(share.serve_manifest()),
        Err(resp) => resp,
    }
}

fn lease(daemon: &Arc<Daemon>, id: JobId, req: &Request) -> Response {
    let share = match open_share(daemon, id) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let worker = match body_json(req).and_then(|doc| worker_name(&doc)) {
        Ok(w) => w,
        Err(resp) => return resp,
    };
    let reply = share.lease(&worker, Instant::now());
    daemon.wake.notify_all();
    ok(reply.to_json())
}

fn complete(daemon: &Arc<Daemon>, id: JobId, req: &Request) -> Response {
    let share = match open_share(daemon, id) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let doc = match body_json(req) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    let post = match CompleteRequest::from_json(&doc) {
        Ok(p) => p,
        Err(e) => return error(400, &e),
    };
    if post.worker.starts_with(LOCAL_PREFIX) {
        return error(400, "worker name must not use the `local:` prefix");
    }
    let verdict = share.ledger.complete(&post.worker, post.chunk, &post.range, &post.tally);
    // Absorb the worker's invariant delta only for fresh work — a
    // duplicate post's checks already counted when it first landed.
    if matches!(verdict, CompleteVerdict::Accepted { .. }) {
        share.ledger.absorb_invariants(&post.invariants);
    }
    daemon.wake.notify_all();
    match CampaignShare::reply_for(&verdict) {
        Ok(reply) => ok(reply.to_json()),
        Err(msg) => error(409, &format!("completion conflicts with the lease ledger: {msg}")),
    }
}

fn heartbeat(daemon: &Arc<Daemon>, id: JobId, req: &Request) -> Response {
    let share = match open_share(daemon, id) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let doc = match body_json(req) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    let worker = match worker_name(&doc) {
        Ok(w) => w,
        Err(resp) => return resp,
    };
    let mut chunks = Vec::new();
    if let Some(arr) = doc.get("chunks").and_then(Json::as_arr) {
        for c in arr {
            match c.as_u64() {
                Some(v) => chunks.push(v),
                None => return error(400, "`chunks` must be an array of chunk ids"),
            }
        }
    }
    let renewed = share.ledger.heartbeat(&worker, &chunks, Instant::now());
    ok(Json::obj().set("renewed", renewed as u64).set("ttl_ms", share.manifest.lease_ttl_ms))
}
