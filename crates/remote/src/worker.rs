//! The remote worker runtime behind `argus worker`.
//!
//! A worker cold-starts from nothing but a daemon address: it polls
//! `/work` for running distributed jobs, fetches the job manifest,
//! rebuilds the campaign locally (workloads are compiled into every
//! binary; the manifest names one), and *proves* its reconstruction
//! matches the coordinator's: its golden run must take the manifest's
//! `golden_cycles` and its entry state must hash to the manifest's
//! `entry_fingerprint`. Only then does it start leasing chunks. A
//! mismatch — skewed binary, different config defaults — is a hard error
//! before a single injection runs against the wrong campaign.
//!
//! Fault model: the daemon may restart, the network may drop, this
//! process may be SIGKILLed. The first two are handled by
//! reconnect-with-backoff and idempotent completion retries; the last
//! needs no handling at all — the worker's leases expire at the daemon
//! and its chunks re-run elsewhere. SIGTERM is the graceful path: stop
//! taking new leases, finish and post the chunks in flight, exit.

use crate::client::{fetch, fetch_text};
use crate::protocol::{CompleteRequest, LeaseReply, Manifest};
use argus_faults::campaign::{
    prepare_campaign, prepare_campaign_with_store, run_injection_supervised_in, CampaignConfig,
    CampaignWorkspace, PreparedCampaign, SupervisedOutcome,
};
use argus_invariants::InvariantStats;
use argus_orchestrator::{CampaignTally, Json, LOCAL_PREFIX};
use argus_sim::crc::crc32;
use argus_snapshot::MappedStore;
use std::collections::HashSet;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Worker process configuration (`argus worker` flags).
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Daemon address.
    pub connect: SocketAddr,
    /// Concurrent lease/execute threads.
    pub workers: usize,
    /// Idle poll interval (no distributed jobs available).
    pub poll: Duration,
    /// Serve only this job id; exit once it completes.
    pub job: Option<u64>,
    /// Wire identity. Must be process-unique or lease renewal
    /// misattributes chunks; the CLI defaults it to `w<pid>`.
    pub name: String,
    /// On-disk artifact cache keyed by CRC-32. Artifacts are
    /// content-addressed, so a cached body that still passes its
    /// length + CRC check is served locally instead of re-fetched —
    /// reconnect after a drop costs no artifact bytes. `None`
    /// disables caching.
    pub cache_dir: Option<PathBuf>,
}

/// What a worker run accomplished (printed on exit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Jobs this worker leased at least one chunk of.
    pub jobs: u64,
    /// Chunks completed and accepted.
    pub chunks: u64,
    /// Completions the daemon classified duplicate (lost replies,
    /// expiry races) — work done, tally unchanged, harmless.
    pub duplicates: u64,
    /// Injections executed.
    pub injections: u64,
    /// Artifacts served from the on-disk cache instead of the wire.
    pub cache_hits: u64,
}

fn err_other(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// Upper bound for reconnect backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Sleeps in short slices so a stop request interrupts a backoff.
fn sleep_interruptible(total: Duration, stop: &AtomicBool) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(20).min(total));
    }
}

/// Runs the worker until `stop` is set (graceful drain) or — with a
/// pinned `job` — until that job completes.
pub fn run_worker(wcfg: &WorkerConfig, stop: &AtomicBool) -> io::Result<WorkerSummary> {
    assert!(wcfg.workers >= 1, "need at least one worker thread");
    assert!(
        !wcfg.name.starts_with(LOCAL_PREFIX),
        "worker names must not impersonate the coordinator's local pool"
    );
    let mut summary = WorkerSummary::default();
    let mut backoff = wcfg.poll;
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(summary);
        }
        let job = match find_job(wcfg) {
            Ok(Some(id)) => id,
            Ok(None) => {
                // Daemon reachable, nothing distributed running.
                sleep_interruptible(wcfg.poll, stop);
                continue;
            }
            Err(_) => {
                // Daemon unreachable: reconnect with capped backoff.
                sleep_interruptible(backoff, stop);
                backoff = (backoff * 2).min(BACKOFF_CAP);
                continue;
            }
        };
        backoff = wcfg.poll;
        match serve_job(wcfg, job, stop, &mut summary) {
            Ok(served_to_completion) => {
                if wcfg.job.is_some() && served_to_completion {
                    return Ok(summary);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
            Err(_) => {
                // Transient wire failure mid-job: leases will expire and
                // reissue; rejoin after backoff.
                sleep_interruptible(backoff, stop);
                backoff = (backoff * 2).min(BACKOFF_CAP);
            }
        }
    }
}

/// Picks a job: the pinned one, or the first the daemon advertises.
fn find_job(wcfg: &WorkerConfig) -> io::Result<Option<u64>> {
    if let Some(id) = wcfg.job {
        return Ok(Some(id));
    }
    let (status, body) = fetch_text(wcfg.connect, "GET", "/work", None)?;
    if status != 200 {
        return Ok(None);
    }
    let doc = Json::parse(&body).map_err(|e| err_other(format!("bad /work reply: {e}")))?;
    Ok(doc.get("jobs").and_then(Json::as_arr).and_then(|jobs| jobs.first()).and_then(Json::as_u64))
}

/// Serves one job to completion (or stop). Returns `true` when the
/// job's pool drained while we watched, or — for a pinned worker — when
/// the job had already ended.
fn serve_job(
    wcfg: &WorkerConfig,
    job: u64,
    stop: &AtomicBool,
    summary: &mut WorkerSummary,
) -> io::Result<bool> {
    let (status, body) = fetch_text(wcfg.connect, "GET", &format!("/jobs/{job}/manifest"), None)?;
    if status != 200 {
        // Job not leasable right now: queued, finished, or not
        // distributed. The manifest reply cannot tell "not open yet" from
        // "already over", so a pinned worker asks for the job's state and
        // ends once it is terminal; otherwise the caller keeps polling.
        if wcfg.job.is_some() && job_is_over(wcfg, job)? {
            return Ok(true);
        }
        sleep_interruptible(wcfg.poll, stop);
        return Ok(false);
    }
    let doc = Json::parse(&body).map_err(|e| err_other(format!("bad manifest: {e}")))?;
    let manifest =
        Manifest::from_json(&doc).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;

    // Rebuild the campaign exactly as the daemon does (same defaults,
    // same overrides) and prove it.
    let workload = resolve_workload(&manifest.workload).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "manifest names workload `{}`, which this binary does not carry",
                manifest.workload
            ),
        )
    })?;
    let mut cfg = CampaignConfig {
        injections: manifest.injections,
        kind: manifest.kind,
        snapshot_every: manifest.snapshot_every,
        ..Default::default()
    };
    cfg.seed = manifest.seed;
    cfg.invariants = manifest.invariants;
    let cfg = cfg.sized_for(&workload);
    // Artifacts come first: they are content-addressed, so integrity
    // needs no campaign state, and a fetched snapshot store lets the
    // campaign rebuild skip its capture half entirely.
    let fetched = fetch_artifacts(wcfg, job, &manifest)?;
    summary.cache_hits += fetched.cache_hits;
    let prep = match adopt_store(&fetched) {
        Some(store) => prepare_campaign_with_store(&workload, &cfg, store)
            // Any adoption failure (stale cache entry from an older
            // format, skewed capture cadence) falls back to the local
            // rebuild, which is bit-identical by construction.
            .unwrap_or_else(|_| prepare_campaign(&workload, &cfg)),
        None => prepare_campaign(&workload, &cfg),
    };
    if prep.golden_cycles() != manifest.golden_cycles {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "golden run disagrees with coordinator: {} cycles here, {} there — \
                 version or config skew",
                prep.golden_cycles(),
                manifest.golden_cycles
            ),
        ));
    }
    check_entry_fingerprint(&prep, &cfg, manifest.entry_fingerprint)?;
    let cache_hits_unreported = AtomicU64::new(fetched.cache_hits);
    drop(fetched);

    // The lease/execute pool, plus a heartbeat thread renewing every
    // held chunk at a third of the TTL.
    let ttl = Duration::from_millis(manifest.lease_ttl_ms.max(1));
    let held: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
    let job_over = AtomicBool::new(false);
    let drained = AtomicBool::new(false);
    let chunks = AtomicU64::new(0);
    let duplicates = AtomicU64::new(0);
    let injections = AtomicU64::new(0);
    let wire_error: Mutex<Option<io::Error>> = Mutex::new(None);
    // Last invariant-stats snapshot already posted. Each completion
    // carries only the delta since then (computed under this lock so
    // concurrent executor threads never double-report a check).
    let inv_sent: Mutex<InvariantStats> = Mutex::new(InvariantStats::default());

    std::thread::scope(|scope| {
        for _ in 0..wcfg.workers {
            let prep = &prep;
            let cfg = &cfg;
            let held = &held;
            let job_over = &job_over;
            let drained = &drained;
            let chunks = &chunks;
            let duplicates = &duplicates;
            let injections = &injections;
            let wire_error = &wire_error;
            let inv_sent = &inv_sent;
            let cache_hits_unreported = &cache_hits_unreported;
            scope.spawn(move || {
                let mut ws = CampaignWorkspace::new();
                loop {
                    // Graceful drain: stop leasing, in-flight chunks
                    // below already completed and posted.
                    if stop.load(Ordering::Relaxed) || job_over.load(Ordering::Relaxed) {
                        break;
                    }
                    let lease_body =
                        Json::obj().set("worker", wcfg.name.as_str()).to_string_compact();
                    let reply = fetch_text(
                        wcfg.connect,
                        "POST",
                        &format!("/jobs/{job}/lease"),
                        Some(&lease_body),
                    );
                    let (status, body) = match reply {
                        Ok(r) => r,
                        Err(e) => {
                            *wire_error.lock().unwrap_or_else(|p| p.into_inner()) = Some(e);
                            job_over.store(true, Ordering::Relaxed);
                            break;
                        }
                    };
                    if status != 200 {
                        // 404/409: the job finished or was cancelled.
                        job_over.store(true, Ordering::Relaxed);
                        break;
                    }
                    let lease =
                        Json::parse(&body).ok().and_then(|d| LeaseReply::from_json(&d).ok());
                    match lease {
                        Some(LeaseReply::Grant { chunk, range, .. }) => {
                            held.lock().unwrap_or_else(|p| p.into_inner()).insert(chunk);
                            let mut tally = CampaignTally::empty();
                            for index in prep.arm_order(cfg, range.clone()) {
                                match run_injection_supervised_in(prep, cfg, index, &mut ws) {
                                    SupervisedOutcome::Classified(r) => tally.apply(&r),
                                    SupervisedOutcome::Hung { .. } => tally.apply_hung(),
                                    SupervisedOutcome::Quarantined(q) => tally.apply_quarantined(q),
                                }
                            }
                            injections.fetch_add(range.len() as u64, Ordering::Relaxed);
                            let inv_delta = {
                                let mut sent = inv_sent.lock().unwrap_or_else(|p| p.into_inner());
                                let cur = prep.invariants().stats();
                                let delta = cur.delta_since(&sent);
                                *sent = cur;
                                delta
                            };
                            let req = CompleteRequest {
                                worker: wcfg.name.clone(),
                                chunk,
                                range: range.clone(),
                                tally,
                                invariants: inv_delta,
                                // Cache-hit accounting rides the first
                                // completion of the job (best effort: a
                                // post lost to a dying job drops it from
                                // the daemon's stats, never the local
                                // summary).
                                artifact_cache_hits: cache_hits_unreported
                                    .swap(0, Ordering::Relaxed),
                            };
                            match post_complete(wcfg, job, &req, stop) {
                                Ok(Some(reply)) => {
                                    if reply.duplicate {
                                        duplicates.fetch_add(1, Ordering::Relaxed);
                                    } else {
                                        chunks.fetch_add(1, Ordering::Relaxed);
                                    }
                                    if reply.done {
                                        drained.store(true, Ordering::Relaxed);
                                        job_over.store(true, Ordering::Relaxed);
                                    }
                                }
                                Ok(None) => {
                                    // Job vanished mid-post (finished and
                                    // deregistered): our work was either
                                    // merged or re-run elsewhere.
                                    job_over.store(true, Ordering::Relaxed);
                                }
                                Err(e) => {
                                    *wire_error.lock().unwrap_or_else(|p| p.into_inner()) = Some(e);
                                    job_over.store(true, Ordering::Relaxed);
                                }
                            }
                            held.lock().unwrap_or_else(|p| p.into_inner()).remove(&chunk);
                        }
                        Some(LeaseReply::Empty { done }) => {
                            if done {
                                drained.store(true, Ordering::Relaxed);
                                job_over.store(true, Ordering::Relaxed);
                                break;
                            }
                            // All remaining work is leased out; an expiry
                            // may hand us some shortly.
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        None => {
                            job_over.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            });
        }

        // Heartbeat loop on this thread: renew held chunks at ttl/3
        // until every executor exits.
        let beat = (ttl / 3).max(Duration::from_millis(10));
        let mut last_beat = Instant::now();
        while !job_over.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(10));
            if stop.load(Ordering::Relaxed)
                && held.lock().unwrap_or_else(|p| p.into_inner()).is_empty()
            {
                break;
            }
            if last_beat.elapsed() < beat {
                continue;
            }
            last_beat = Instant::now();
            let ids: Vec<u64> =
                held.lock().unwrap_or_else(|p| p.into_inner()).iter().copied().collect();
            if ids.is_empty() {
                continue;
            }
            let body = Json::obj()
                .set("worker", wcfg.name.as_str())
                .set("chunks", Json::Arr(ids.iter().map(|&c| Json::from(c)).collect()))
                .to_string_compact();
            // A failed heartbeat is not fatal: the next one may get
            // through before the TTL, and expiry is safe regardless.
            let _ =
                fetch_text(wcfg.connect, "POST", &format!("/jobs/{job}/heartbeat"), Some(&body));
        }
    });

    if let Some(e) = wire_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }
    let did_chunks = chunks.load(Ordering::Relaxed);
    if did_chunks > 0 || injections.load(Ordering::Relaxed) > 0 {
        summary.jobs += 1;
    }
    summary.chunks += did_chunks;
    summary.duplicates += duplicates.load(Ordering::Relaxed);
    summary.injections += injections.load(Ordering::Relaxed);
    Ok(drained.load(Ordering::Relaxed))
}

/// Whether the daemon reports `job` done, failed, or cancelled.
fn job_is_over(wcfg: &WorkerConfig, job: u64) -> io::Result<bool> {
    let (status, body) = fetch_text(wcfg.connect, "GET", &format!("/jobs/{job}"), None)?;
    if status != 200 {
        return Ok(false);
    }
    let doc = Json::parse(&body).map_err(|e| err_other(format!("bad job reply: {e}")))?;
    Ok(matches!(doc.get("state").and_then(Json::as_str), Some("done" | "failed" | "cancelled")))
}

/// Posts a completion, retrying transient failures — the daemon dedups,
/// so retrying a maybe-delivered post is always safe. `Ok(None)`: the
/// job is gone (404/410) and the post will never land.
fn post_complete(
    wcfg: &WorkerConfig,
    job: u64,
    req: &CompleteRequest,
    stop: &AtomicBool,
) -> io::Result<Option<crate::protocol::CompleteReply>> {
    let body = req.to_json().to_string_compact();
    let mut backoff = Duration::from_millis(50);
    for attempt in 0.. {
        match fetch_text(wcfg.connect, "POST", &format!("/jobs/{job}/complete"), Some(&body)) {
            Ok((200, reply)) => {
                let doc = Json::parse(&reply)
                    .map_err(|e| err_other(format!("bad complete reply: {e}")))?;
                let parsed = crate::protocol::CompleteReply::from_json(&doc).map_err(err_other)?;
                return Ok(Some(parsed));
            }
            Ok((404 | 409 | 410, _)) => return Ok(None),
            Ok((status, reply)) => {
                return Err(err_other(format!("complete rejected: HTTP {status}: {reply}")))
            }
            Err(e) => {
                // Connection-level failure: the post may or may not have
                // landed. Retry — idempotent by construction — a few
                // times before giving the job up.
                if attempt >= 5 || stop.load(Ordering::Relaxed) {
                    return Err(e);
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_CAP);
            }
        }
    }
    unreachable!("retry loop returns")
}

/// One CRC-verified manifest artifact, with the on-disk location it
/// was cached at (when a cache directory is configured).
struct FetchedArtifact {
    name: String,
    body: Vec<u8>,
    cached_path: Option<PathBuf>,
}

/// Every manifest artifact, fetched and envelope-checked.
struct FetchedArtifacts {
    artifacts: Vec<FetchedArtifact>,
    /// How many came from the disk cache instead of the wire.
    cache_hits: u64,
}

/// Resolves one artifact: disk cache first (re-verifying its length
/// and CRC — a corrupt cache entry is treated as a miss, re-fetched,
/// and overwritten), then the wire. Either way the returned body has
/// passed its content-address check.
fn fetch_one_artifact(
    wcfg: &WorkerConfig,
    job: u64,
    art: &crate::protocol::ArtifactRef,
) -> io::Result<(Vec<u8>, Option<PathBuf>, bool)> {
    let cached = wcfg.cache_dir.as_ref().map(|dir| dir.join(format!("{:08x}.bin", art.crc32)));
    if let Some(path) = &cached {
        if let Ok(body) = std::fs::read(path) {
            if body.len() == art.len && crc32(&body) == art.crc32 {
                return Ok((body, cached, true));
            }
        }
    }
    let path = format!("/jobs/{job}/artifacts/{:08x}", art.crc32);
    let (status, body) = fetch(wcfg.connect, "GET", &path, None)?;
    if status != 200 {
        return Err(err_other(format!("artifact {} fetch: HTTP {status}", art.name)));
    }
    if body.len() != art.len || crc32(&body) != art.crc32 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("artifact {} failed its content address check", art.name),
        ));
    }
    // Populate the cache atomically (temp + rename) so a concurrent
    // worker process never reads a half-written body. Cache writes are
    // best effort: a full disk degrades to re-fetching.
    let written = cached.filter(|path| write_cache_entry(path, &body, &wcfg.name).is_ok());
    Ok((body, written, false))
}

fn write_cache_entry(path: &Path, body: &[u8], name: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!("tmp-{}-{name}", std::process::id()));
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Fetches every manifest artifact and checks its CRC envelope.
fn fetch_artifacts(
    wcfg: &WorkerConfig,
    job: u64,
    manifest: &Manifest,
) -> io::Result<FetchedArtifacts> {
    let mut out = FetchedArtifacts { artifacts: Vec::new(), cache_hits: 0 };
    for art in &manifest.artifacts {
        let (body, cached_path, hit) = fetch_one_artifact(wcfg, job, art)?;
        out.cache_hits += u64::from(hit);
        out.artifacts.push(FetchedArtifact { name: art.name.clone(), body, cached_path });
    }
    Ok(out)
}

/// Maps the coordinator's snapshot store, if the manifest shipped one.
/// The mapping is backed by the cache file when one exists; otherwise
/// the body is spilled to a scratch file that is unlinked once mapped,
/// so the worker never holds the store in its heap either way. Any
/// failure returns `None` — the caller rebuilds the store locally.
fn adopt_store(fetched: &FetchedArtifacts) -> Option<Arc<MappedStore>> {
    let art = fetched.artifacts.iter().find(|a| a.name == "store")?;
    if let Some(path) = &art.cached_path {
        if let Ok(store) = MappedStore::open(path) {
            return Some(Arc::new(store));
        }
    }
    let scratch = std::env::temp_dir().join(format!(
        "argus-store-{}-{:08x}.bin",
        std::process::id(),
        crc32(&art.body)
    ));
    std::fs::write(&scratch, &art.body).ok()?;
    let store = MappedStore::open(&scratch);
    let _ = std::fs::remove_file(&scratch);
    store.ok().map(Arc::new)
}

/// Compares the fingerprint of the locally rebuilt entry state with the
/// coordinator's — the proof that this binary reconstructed the
/// coordinator's campaign exactly. A mismatch is `InvalidData`, which
/// makes the worker exit instead of injecting.
fn check_entry_fingerprint(
    prep: &PreparedCampaign,
    cfg: &CampaignConfig,
    theirs: u64,
) -> io::Result<()> {
    let ours = prep.entry_fingerprint(cfg);
    if ours != theirs {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "entry-state fingerprint mismatch (coordinator {theirs:016x}, local \
                 {ours:016x}) — refusing to inject against a skewed campaign"
            ),
        ));
    }
    Ok(())
}

/// Looks a workload up by manifest name in the compiled-in set.
fn resolve_workload(name: &str) -> Option<argus_workloads::Workload> {
    if name == "stress" {
        return Some(argus_workloads::stress());
    }
    if name == "stress_xl" {
        return Some(argus_workloads::stress_xl());
    }
    argus_workloads::suite().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_fingerprint_check_passes_a_match_and_refuses_skew() {
        let w = argus_workloads::stress();
        let cfg = CampaignConfig { injections: 4, ..Default::default() }.sized_for(&w);
        let prep = prepare_campaign(&w, &cfg);
        let fp = prep.entry_fingerprint(&cfg);
        check_entry_fingerprint(&prep, &cfg, fp).expect("own fingerprint matches");
        let err = check_entry_fingerprint(&prep, &cfg, fp ^ 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
