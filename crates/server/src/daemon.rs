//! The daemon: a shared worker pool multiplexed across checkpointed
//! campaign jobs.
//!
//! ## Scheduling
//!
//! One scheduler thread owns admission. The ready queue orders jobs by
//! (priority desc, submission seq asc). The head is dispatched as soon
//! as at least one pool worker is free, with `min(budget, free)`
//! workers — the sharded engine accepts any worker count for any
//! (possibly resumed) campaign, so allocation is a pure scheduling
//! decision that never affects results.
//!
//! When the pool is saturated and the head outranks a running job
//! *strictly*, the lowest-priority running job is preempted: its stop
//! flag is raised, the engine checkpoints and returns `interrupted`,
//! and the job re-enters the queue with its original submission seq
//! (keeping its FIFO position). Checkpoint v3 makes this cheap and
//! safe — resuming under a different worker count is the engine's
//! bread and butter. At most one preemption is in flight at a time.
//!
//! ## Durability
//!
//! Every state transition rewrites `<state-dir>/jobs.json` atomically.
//! Running jobs checkpoint continuously. A SIGKILL at any moment loses
//! at most one checkpoint interval of work: on restart, every
//! non-terminal job re-enters the queue and resumes from its
//! checkpoint, and finished reports are served from disk.
//!
//! ## Events
//!
//! A job's runner thread is the engine's caller thread, so the job's
//! `JobObserver` publishes its events from the engine's ticks: progress
//! (and, for distributed jobs, `worker_connected` / `lease_expired`, and
//! `invariant_violation` whenever those numbers move) at most every
//! `EVENT_INTERVAL`, plus one final publish once the run settles. The
//! job needs no thread of its own, and its last progress event comes
//! before its terminal state event.

use crate::http::{Handler, HttpServer};
use crate::jobs::{checkpoint_path, report_path, JobId, JobRow, JobSpec, JobState, JobTable};
use crate::queue::{JobQueue, QueueEntry};
use argus_faults::campaign::PreparedCampaign;
use argus_faults::CampaignConfig;
use argus_orchestrator::{
    run_campaign, Json, Ledger, Observer, OrchestratorConfig, Progress, RemoteRunStats,
};
use argus_remote::{open_share, CampaignShare, DistributedConfig};
use argus_workloads::Workload;
use std::cell::{OnceCell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Per-job event ring capacity. Events beyond this are dropped oldest
/// first; `events` responses flag the truncation.
const EVENT_CAP: usize = 4096;

/// Least time between two of a running job's published progress events
/// (the final one is always published).
const EVENT_INTERVAL: Duration = Duration::from_millis(200);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7700` (`:0` picks a free port).
    pub addr: String,
    /// Campaign worker pool size (shared by all jobs).
    pub workers: usize,
    /// HTTP handler threads.
    pub http_threads: usize,
    /// Where jobs.json, checkpoints, and reports live.
    pub state_dir: PathBuf,
    /// Per-job checkpoint flush interval. Shorter = less work lost to a
    /// crash; results are identical either way.
    pub checkpoint_interval: Duration,
    /// Remote chunk lease time-to-live for distributed jobs. A worker
    /// silent for this long forfeits its chunks (they reissue).
    pub lease_ttl: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1).max(1))
                .unwrap_or(1),
            http_threads: 4,
            state_dir: PathBuf::from("argus-serve-state"),
            checkpoint_interval: Duration::from_millis(500),
            lease_ttl: Duration::from_secs(10),
        }
    }
}

/// A job's live (non-durable) half: the durable row plus runtime
/// handles that die with the process.
pub(crate) struct LiveJob {
    /// The durable row (mirrored to jobs.json).
    pub row: JobRow,
    /// Engine stop flag for the current dispatch. Raised by cancel,
    /// preempt, and drain; the engine checkpoints and returns.
    pub stop: Arc<AtomicBool>,
    /// A client asked for cancellation (terminal; beats preempt/drain).
    pub cancel_requested: bool,
    /// The scheduler wants the workers back (job requeues afterwards).
    pub preempt_requested: bool,
    /// Pool workers currently held (0 unless running/draining).
    pub alloc: usize,
    /// Progress/state event ring: (seq, payload).
    pub events: VecDeque<(u64, Json)>,
    /// Next event sequence number to assign.
    pub next_event_seq: u64,
    /// Latest progress payload, for `GET /jobs/<id>`.
    pub last_progress: Option<Json>,
}

impl LiveJob {
    fn new(row: JobRow) -> Self {
        Self {
            row,
            stop: Arc::new(AtomicBool::new(false)),
            cancel_requested: false,
            preempt_requested: false,
            alloc: 0,
            events: VecDeque::new(),
            next_event_seq: 0,
            last_progress: None,
        }
    }

    /// First event seq still retained (older ones were dropped).
    pub fn first_retained_seq(&self) -> u64 {
        self.next_event_seq - self.events.len() as u64
    }

    fn push_event(&mut self, payload: Json) {
        let seq = self.next_event_seq;
        self.next_event_seq += 1;
        self.events.push_back((seq, payload.set("seq", seq)));
        while self.events.len() > EVENT_CAP {
            self.events.pop_front();
        }
    }

    fn push_state_event(&mut self) {
        let mut ev = Json::obj().set("kind", "state").set("state", self.row.state.label());
        if self.row.state == JobState::Running {
            ev = ev.set("workers", self.alloc);
        }
        if let Some(e) = &self.row.error {
            ev = ev.set("error", e.as_str());
        }
        self.push_event(ev);
    }
}

/// Everything behind the daemon's one state lock.
pub(crate) struct DaemonState {
    pub jobs: Vec<LiveJob>,
    pub queue: JobQueue,
    /// Free pool workers.
    pub free: usize,
    /// Drain requested: no more admissions, no more submissions.
    pub draining: bool,
    /// At most one checkpoint-backed preemption in flight.
    preempt_in_flight: bool,
    next_id: u64,
    next_seq: u64,
}

impl DaemonState {
    pub fn job(&self, id: JobId) -> Option<&LiveJob> {
        self.jobs.iter().find(|j| j.row.id == id)
    }

    fn job_mut(&mut self, id: JobId) -> Option<&mut LiveJob> {
        self.jobs.iter_mut().find(|j| j.row.id == id)
    }

    fn to_table(&self) -> JobTable {
        JobTable {
            rows: self.jobs.iter().map(|j| j.row.clone()).collect(),
            next_id: self.next_id,
            next_seq: self.next_seq,
        }
    }
}

/// Shared daemon core: state lock, wakeup condvar, config.
pub struct Daemon {
    pub(crate) cfg: ServerConfig,
    pub(crate) state: Mutex<DaemonState>,
    /// Notified on every state/event change (long-pollers) and on
    /// submissions/completions (scheduler).
    pub(crate) wake: Condvar,
    /// Daemon shutdown flag (scheduler exit).
    stop: AtomicBool,
    /// Runner thread handles, joined on drain.
    runners: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Live distributed campaigns, keyed by job id: the HTTP handlers
    /// route manifest/lease/complete/heartbeat calls through this. A
    /// job registers when its pool opens and deregisters when its run
    /// settles; a request for an absent id answers 409.
    remote: Mutex<HashMap<JobId, Arc<CampaignShare>>>,
}

/// Submission failure modes the API maps to status codes.
pub enum SubmitError {
    /// Daemon is draining; come back after restart.
    Draining,
}

/// Cancel failure modes.
pub enum CancelError {
    /// No such job.
    NotFound,
    /// Already done/failed/cancelled.
    Terminal(JobState),
}

impl Daemon {
    fn jobs_path(&self) -> PathBuf {
        self.cfg.state_dir.join("jobs.json")
    }

    /// The live share for a distributed job, if its pool is open.
    pub fn share(&self, id: JobId) -> Option<Arc<CampaignShare>> {
        self.remote.lock().unwrap_or_else(|p| p.into_inner()).get(&id).cloned()
    }

    /// Job ids currently leasable by remote workers (ascending — workers
    /// drain the oldest job first).
    pub fn leasable_jobs(&self) -> Vec<JobId> {
        let mut ids: Vec<JobId> =
            self.remote.lock().unwrap_or_else(|p| p.into_inner()).keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Persists the job table; failures are reported on stderr and do
    /// not take the daemon down (the next transition retries).
    pub(crate) fn persist(&self, st: &DaemonState) {
        if let Err(e) = st.to_table().save(&self.jobs_path()) {
            eprintln!("warning: cannot persist job table: {e}");
        }
    }

    /// Submits a validated spec; returns the new job id.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let mut st = self.state.lock().unwrap();
        if st.draining || self.stop.load(Ordering::Relaxed) {
            return Err(SubmitError::Draining);
        }
        let id = st.next_id;
        st.next_id += 1;
        let seq = st.next_seq;
        st.next_seq += 1;
        let priority = spec.priority;
        let row = JobRow { id, seq, spec, state: JobState::Queued, error: None };
        let mut job = LiveJob::new(row);
        job.push_state_event();
        st.jobs.push(job);
        st.queue.push(QueueEntry { id, seq, priority });
        self.persist(&st);
        self.wake.notify_all();
        Ok(id)
    }

    /// Requests cancellation. Queued jobs die immediately; running jobs
    /// stop at the next lease boundary and report `cancelled`.
    pub fn cancel(&self, id: JobId) -> Result<JobState, CancelError> {
        let mut st = self.state.lock().unwrap();
        let Some(job) = st.job_mut(id) else {
            return Err(CancelError::NotFound);
        };
        if job.row.state.is_terminal() {
            return Err(CancelError::Terminal(job.row.state));
        }
        job.cancel_requested = true;
        match job.row.state {
            JobState::Queued => {
                job.row.state = JobState::Cancelled;
                job.push_state_event();
                st.queue.remove(id);
                self.remove_job_files(id);
                self.persist(&st);
            }
            _ => {
                // Running or draining: raise the stop flag and let the
                // runner classify the interruption.
                let job = st.job_mut(id).unwrap();
                job.stop.store(true, Ordering::Relaxed);
                job.push_event(Json::obj().set("kind", "cancel_requested"));
            }
        }
        let state = st.job(id).unwrap().row.state;
        self.wake.notify_all();
        Ok(state)
    }

    /// Requests a graceful drain (same as SIGTERM): stop admitting,
    /// raise every running job's stop flag. The owner must still call
    /// [`Server::drain`] to join workers and persist.
    pub fn request_drain(&self) {
        let mut st = self.state.lock().unwrap();
        st.draining = true;
        for job in &mut st.jobs {
            if matches!(job.row.state, JobState::Running | JobState::Draining) {
                job.stop.store(true, Ordering::Relaxed);
            }
        }
        self.persist(&st);
        self.wake.notify_all();
    }

    /// Whether a drain has been requested (by HTTP or signal).
    pub fn drain_requested(&self) -> bool {
        self.state.lock().unwrap().draining
    }

    /// Whether all formerly-running jobs have settled (no worker held).
    pub fn quiesced(&self) -> bool {
        let st = self.state.lock().unwrap();
        st.free == self.cfg.workers.max(1) || st.jobs.iter().all(|j| j.alloc == 0)
    }

    fn remove_job_files(&self, id: JobId) {
        let ckpt = checkpoint_path(&self.cfg.state_dir, id);
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(ckpt.with_extension("bak"));
    }

    /// The scheduler: admission + preemption until `stop` is raised.
    fn scheduler(self: &Arc<Self>) {
        let mut st = self.state.lock().unwrap();
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            if !st.draining && self.try_dispatch(&mut st) {
                continue;
            }
            // Occasionally reap finished runner handles so a long-lived
            // daemon does not accumulate them (drop detaches).
            if let Ok(mut runners) = self.runners.try_lock() {
                runners.retain(|h| !h.is_finished());
            }
            st = self.wake.wait_timeout(st, Duration::from_millis(200)).unwrap().0;
        }
    }

    /// One admission step. Returns true when something was dispatched
    /// (caller loops to try more).
    fn try_dispatch(self: &Arc<Self>, st: &mut MutexGuard<'_, DaemonState>) -> bool {
        let Some(&head) = st.queue.peek() else {
            return false;
        };
        // Remote-only distributed jobs (budget 0) hold no pool workers,
        // so they dispatch even when the pool is saturated — their
        // execution capacity lives in `argus worker` processes.
        let remote_only = st
            .job(head.id)
            .map(|j| j.row.spec.distributed && j.row.spec.budget == 0)
            .unwrap_or(false);
        if st.free >= 1 || remote_only {
            let head = st.queue.pop_front().unwrap();
            let alloc = {
                let free = st.free;
                let job = st.job_mut(head.id).expect("queued job exists");
                let alloc = if remote_only { 0 } else { job.row.spec.budget.min(free).max(1) };
                job.alloc = alloc;
                job.stop = Arc::new(AtomicBool::new(false));
                job.row.state = JobState::Running;
                job.push_state_event();
                alloc
            };
            st.free -= alloc;
            self.persist(st);
            self.wake.notify_all();
            let daemon = Arc::clone(self);
            let handle = std::thread::spawn(move || daemon.run_job(head.id));
            self.runners.lock().unwrap().push(handle);
            return true;
        }
        // Saturated. Preempt the lowest-priority running job if the head
        // strictly outranks it; its workers come back at the next lease
        // boundary and the head dispatches then.
        if !st.preempt_in_flight {
            let victim = st
                .jobs
                .iter_mut()
                .filter(|j| j.row.state == JobState::Running && !j.preempt_requested)
                .min_by_key(|j| (j.row.spec.priority, std::cmp::Reverse(j.row.seq)));
            if let Some(victim) = victim {
                if victim.row.spec.priority < head.priority {
                    victim.preempt_requested = true;
                    victim.stop.store(true, Ordering::Relaxed);
                    victim.push_event(Json::obj().set("kind", "preempting"));
                    st.preempt_in_flight = true;
                }
            }
        }
        false
    }

    /// Runs one dispatched job to its next settle point (done, failed,
    /// cancelled, preempted, or drained) on the current thread.
    fn run_job(self: &Arc<Self>, id: JobId) {
        let (spec, stop, alloc) = {
            let st = self.state.lock().unwrap();
            let job = st.job(id).expect("dispatched job exists");
            (job.row.spec.clone(), Arc::clone(&job.stop), job.alloc)
        };
        let ckpt = checkpoint_path(&self.cfg.state_dir, id);

        // Mirror one-shot `argus campaign` exactly: same defaults, same
        // overrides — this is what makes the stored report byte-identical
        // (outside the volatile "run" section) to the CLI's.
        let mut cfg = CampaignConfig {
            injections: spec.injections,
            kind: spec.kind,
            snapshot_every: spec.snapshot_every,
            ..Default::default()
        };
        cfg.seed = spec.seed;
        cfg.invariants = spec.invariants;
        let mut ocfg = OrchestratorConfig {
            shards: alloc,
            checkpoint_path: Some(ckpt.clone()),
            resume: ckpt.exists() || ckpt.with_extension("bak").exists(),
            checkpoint_interval: self.cfg.checkpoint_interval,
            ..Default::default()
        };
        if let Some(c) = spec.chunk {
            ocfg.chunk = c;
        }

        // One engine call: `spec.distributed` only decides whether the
        // pool opens to remote workers. The progress tracker always has at
        // least one shard because remote completions are replayed into
        // shard 0 even when alloc == 0.
        let w = argus_workloads::stress();
        let progress = Progress::new(alloc.max(1));
        let observer = JobObserver {
            daemon: self,
            id,
            workload: &w,
            distributed: spec
                .distributed
                .then(|| DistributedConfig { job: id, lease_ttl: self.cfg.lease_ttl }),
            progress: &progress,
            share: OnceCell::new(),
            published: RefCell::new(Published {
                at: Instant::now(),
                done: u64::MAX,
                remote: None,
                violations: 0,
            }),
        };
        let lease_ttl = observer.distributed.as_ref().map(|d| d.lease_ttl);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_campaign(&w, &cfg, &ocfg, &stop, &progress, lease_ttl, Some(&observer))
        }));
        self.remote.lock().unwrap_or_else(|p| p.into_inner()).remove(&id);

        let mut st = self.state.lock().unwrap();
        st.free += alloc;
        let draining = st.draining || self.stop.load(Ordering::Relaxed);
        let job = st.job_mut(id).expect("job survives its run");
        job.alloc = 0;
        let was_preempt = std::mem::take(&mut job.preempt_requested);
        let mut requeue = None;
        match result {
            Err(panic) => {
                job.row.state = JobState::Failed;
                job.row.error = Some(panic_message(panic.as_ref()));
            }
            Ok(Err(e)) => {
                job.row.state = JobState::Failed;
                job.row.error = Some(e.to_string());
            }
            Ok(Ok(rep)) if rep.interrupted => {
                if job.cancel_requested {
                    job.row.state = JobState::Cancelled;
                    self.remove_job_files(id);
                } else if draining {
                    // Persisted as resumable work; restart requeues it.
                    job.row.state = JobState::Draining;
                } else {
                    // Preempted: back in line at its original position.
                    job.row.state = JobState::Queued;
                    requeue =
                        Some(QueueEntry { id, seq: job.row.seq, priority: job.row.spec.priority });
                }
            }
            Ok(Ok(rep)) => {
                let bytes = format!("{}\n", rep.to_json().to_string_compact());
                match std::fs::write(report_path(&self.cfg.state_dir, id), bytes) {
                    Ok(()) => {
                        job.row.state = JobState::Done;
                        self.remove_job_files(id);
                    }
                    Err(e) => {
                        job.row.state = JobState::Failed;
                        job.row.error = Some(format!("cannot store report: {e}"));
                    }
                }
            }
        }
        job.push_state_event();
        if let Some(entry) = requeue {
            st.queue.push(entry);
        }
        if was_preempt {
            st.preempt_in_flight = false;
        }
        self.persist(&st);
        self.wake.notify_all();
    }
}

/// What a job last published, for pacing and for turning counter deltas
/// into discrete events.
struct Published {
    at: Instant,
    done: u64,
    remote: Option<RemoteRunStats>,
    violations: u64,
}

/// Watches one job's campaign from its runner thread: registers a
/// distributed job's share with the router once its pool opens, and turns
/// engine ticks into the job's events.
struct JobObserver<'a> {
    daemon: &'a Daemon,
    id: JobId,
    workload: &'a Workload,
    /// Set for a distributed job: its pool opens to remote workers.
    distributed: Option<DistributedConfig>,
    progress: &'a Progress,
    /// The open share of a distributed job.
    share: OnceCell<Arc<CampaignShare>>,
    published: RefCell<Published>,
}

impl Observer for JobObserver<'_> {
    fn ready(&self, prep: &PreparedCampaign, cfg: &CampaignConfig, ledger: &Arc<Ledger>) {
        let Some(dcfg) = &self.distributed else {
            return;
        };
        let (daemon, id) = (self.daemon, self.id);
        let share = open_share(self.workload, prep, cfg, ledger, dcfg);
        daemon.remote.lock().unwrap_or_else(|p| p.into_inner()).insert(id, Arc::clone(&share));
        let _ = self.share.set(share);
        let mut st = daemon.state.lock().unwrap();
        if let Some(job) = st.job_mut(id) {
            job.push_event(
                Json::obj()
                    .set("kind", "distributed_open")
                    .set("lease_ttl_ms", daemon.cfg.lease_ttl.as_millis() as u64),
            );
        }
        daemon.wake.notify_all();
    }

    /// Publishes a progress event when the numbers moved and
    /// [`EVENT_INTERVAL`] has passed since the last one, and always on the
    /// `last` tick. For distributed jobs it also turns deltas in the
    /// share's remote accounting into discrete `worker_connected` /
    /// `lease_expired` events.
    fn tick(&self, last: bool) {
        let mut prev = self.published.borrow_mut();
        if !last && prev.at.elapsed() < EVENT_INTERVAL {
            return;
        }
        let snap = self.progress.snapshot();
        let remote = self.share.get().map(|s| (s.ledger.stats(), s.ledger.outstanding()));
        let remote_moved = remote.as_ref().map(|(s, _)| s) != prev.remote.as_ref();
        let violations_moved = snap.invariant_violations > prev.violations;
        if !last && snap.done == prev.done && !remote_moved && !violations_moved {
            return;
        }
        let mut payload = Json::obj()
            .set("kind", "progress")
            .set("done", snap.done)
            .set("total", snap.total)
            .set("rate", snap.rate)
            .set("leases", snap.leases)
            .set("steals", snap.steals)
            .set("busy_pct", snap.busy_pct)
            .set("elapsed_ms", snap.elapsed.as_millis() as u64);
        if snap.invariant_violations > 0 {
            payload = payload.set("invariant_violations", snap.invariant_violations);
        }
        let mut extra: Vec<Json> = Vec::new();
        // Violations become discrete events so a streaming client sees
        // them the moment they happen — identical for local, hybrid, and
        // remote execution, since remote workers' deltas funnel through
        // the same progress counter.
        if violations_moved {
            extra.push(
                Json::obj()
                    .set("kind", "invariant_violation")
                    .set("violations", snap.invariant_violations)
                    .set("new", snap.invariant_violations - prev.violations),
            );
        }
        if let Some((stats, outstanding)) = &remote {
            payload =
                payload.set("remote", stats.to_json().set("outstanding", *outstanding as u64));
            let seen = prev.remote.clone().unwrap_or_default();
            if stats.workers_seen > seen.workers_seen {
                extra.push(
                    Json::obj()
                        .set("kind", "worker_connected")
                        .set("workers_seen", stats.workers_seen),
                );
            }
            if stats.expired_leases > seen.expired_leases {
                extra.push(
                    Json::obj()
                        .set("kind", "lease_expired")
                        .set("expired_leases", stats.expired_leases),
                );
            }
        }
        *prev = Published {
            at: Instant::now(),
            done: snap.done,
            remote: remote.map(|(stats, _)| stats),
            violations: snap.invariant_violations.max(prev.violations),
        };
        let mut st = self.daemon.state.lock().unwrap();
        if let Some(job) = st.job_mut(self.id) {
            job.last_progress = Some(payload.clone());
            for ev in extra {
                job.push_event(ev);
            }
            job.push_event(payload);
        }
        self.daemon.wake.notify_all();
    }
}

/// Best-effort panic payload rendering.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "campaign panicked".to_string()
    }
}

/// A running daemon: HTTP front end + scheduler + worker pool.
pub struct Server {
    daemon: Arc<Daemon>,
    http: Option<HttpServer>,
    scheduler: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Loads (or creates) the state dir, resumes any unfinished jobs,
    /// binds the listener, and starts scheduling.
    pub fn start(cfg: ServerConfig) -> Result<Server, String> {
        if cfg.workers < 1 {
            return Err("workers must be >= 1".into());
        }
        if cfg.http_threads < 1 {
            return Err("http threads must be >= 1".into());
        }
        std::fs::create_dir_all(&cfg.state_dir)
            .map_err(|e| format!("cannot create state dir {}: {e}", cfg.state_dir.display()))?;
        let table =
            JobTable::load(&cfg.state_dir.join("jobs.json"), cfg.workers)?.unwrap_or_default();
        let mut queue = JobQueue::new();
        let mut jobs = Vec::with_capacity(table.rows.len());
        for row in table.rows {
            if row.state == JobState::Queued {
                queue.push(QueueEntry { id: row.id, seq: row.seq, priority: row.spec.priority });
            }
            jobs.push(LiveJob::new(row));
        }
        let resumed = queue.len();
        let daemon = Arc::new(Daemon {
            state: Mutex::new(DaemonState {
                jobs,
                queue,
                free: cfg.workers,
                draining: false,
                preempt_in_flight: false,
                next_id: table.next_id,
                next_seq: table.next_seq,
            }),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            runners: Mutex::new(Vec::new()),
            remote: Mutex::new(HashMap::new()),
            cfg,
        });
        if resumed > 0 {
            eprintln!("argus serve: resuming {resumed} unfinished job(s) from checkpoints");
        }
        let sched = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || daemon.scheduler())
        };
        let handler: Handler = crate::api::router(Arc::clone(&daemon));
        let http = HttpServer::start(&daemon.cfg.addr, daemon.cfg.http_threads, handler)
            .map_err(|e| format!("cannot bind {}: {e}", daemon.cfg.addr))?;
        Ok(Server { daemon, http: Some(http), scheduler: Some(sched) })
    }

    /// The bound listen address (useful with `:0`).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.http.as_ref().expect("server is live").local_addr()
    }

    /// Shared core, for embedding and tests.
    pub fn daemon(&self) -> &Arc<Daemon> {
        &self.daemon
    }

    /// Whether a drain was requested over HTTP or by signal.
    pub fn drain_requested(&self) -> bool {
        self.daemon.drain_requested()
    }

    /// Graceful shutdown: stop admitting, checkpoint and settle every
    /// running job, persist the table, close the listener. Queued and
    /// interrupted jobs resume on the next start.
    pub fn drain(&mut self) {
        self.daemon.request_drain();
        self.daemon.stop.store(true, Ordering::Relaxed);
        self.daemon.wake.notify_all();
        if let Some(sched) = self.scheduler.take() {
            let _ = sched.join();
        }
        loop {
            let handles: Vec<_> = self.daemon.runners.lock().unwrap().drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        let st = self.daemon.state.lock().unwrap();
        self.daemon.persist(&st);
        drop(st);
        if let Some(mut http) = self.http.take() {
            http.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.http.is_some() {
            self.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    //! Scheduling checks that need a pool worker held while jobs queue.
    //! They take the worker out of `free` under the state lock, as a
    //! running job would hold it, so what they see never depends on how
    //! fast a job runs.

    use super::*;
    use crate::http::http_request;
    use std::net::SocketAddr;

    fn start(name: &str) -> (Server, SocketAddr, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("argus-daemon-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            http_threads: 2,
            state_dir: dir.clone(),
            checkpoint_interval: Duration::from_millis(100),
            lease_ttl: Duration::from_secs(600),
        })
        .unwrap();
        let addr = server.addr();
        (server, addr, dir)
    }

    fn call(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, Json) {
        let (status, body) = http_request(addr, method, path, body).unwrap();
        (status, Json::parse(&body).unwrap_or(Json::Null))
    }

    fn submit(addr: SocketAddr, spec: &str) -> u64 {
        let (status, doc) = call(addr, "POST", "/jobs", Some(spec));
        assert_eq!(status, 201, "{doc:?}");
        doc.get("id").and_then(Json::as_u64).unwrap()
    }

    fn job_state(addr: SocketAddr, id: u64) -> String {
        let (status, doc) = call(addr, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(status, 200, "{doc:?}");
        doc.get("state").and_then(Json::as_str).unwrap().to_owned()
    }

    fn wait_for(addr: SocketAddr, id: u64, want: &str) {
        let deadline = Instant::now() + Duration::from_secs(240);
        loop {
            let state = job_state(addr, id);
            if state == want {
                return;
            }
            assert!(Instant::now() < deadline, "job {id} stuck in `{state}` waiting for `{want}`");
            std::thread::sleep(Duration::from_millis(30));
        }
    }

    /// Takes the only pool worker, as a running job would hold it.
    fn hold_worker(daemon: &Daemon) {
        let mut st = daemon.state.lock().unwrap();
        assert_eq!(st.free, 1, "the pool worker is free before the hold");
        st.free = 0;
    }

    /// Gives the held worker back and wakes the scheduler.
    fn release_worker(daemon: &Daemon) {
        daemon.state.lock().unwrap().free += 1;
        daemon.wake.notify_all();
    }

    #[test]
    fn queued_jobs_dispatch_by_priority_then_fifo() {
        let (mut server, addr, dir) = start("ordering");
        hold_worker(server.daemon());

        // With the only worker held, every job queues. The queue must
        // order them priority-first, FIFO within a priority.
        let low_a = submit(addr, r#"{"n": 5, "seed": 2, "priority": 1}"#);
        let low_b = submit(addr, r#"{"n": 5, "seed": 3, "priority": 1}"#);
        let mid = submit(addr, r#"{"n": 5, "seed": 4, "priority": 4}"#);
        let (_, status_doc) = call(addr, "GET", "/status", None);
        let queue: Vec<u64> = status_doc
            .get("queue")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(queue, vec![mid, low_a, low_b], "{status_doc:?}");

        // Everything completes once the worker is back: saturation is not
        // starvation.
        release_worker(server.daemon());
        for id in [mid, low_a, low_b] {
            wait_for(addr, id, "done");
        }

        server.drain();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cancel_works_on_queued_and_running_jobs() {
        let (mut server, addr, dir) = start("cancel");
        hold_worker(server.daemon());

        // A remote-only job holds no pool worker, so it dispatches; with no
        // remote worker attached it stays running until cancelled. The
        // local job behind the held worker stays queued.
        let running = submit(addr, r#"{"n": 50, "seed": 5, "distributed": true, "budget": 0}"#);
        let queued = submit(addr, r#"{"n": 50, "seed": 6}"#);
        wait_for(addr, running, "running");
        assert_eq!(job_state(addr, queued), "queued");

        // Cancelling a queued job is immediate.
        let (status, doc) = call(addr, "POST", &format!("/jobs/{queued}/cancel"), None);
        assert_eq!(status, 200, "{doc:?}");
        assert_eq!(doc.get("state").and_then(Json::as_str), Some("cancelled"));

        // Cancelling the running job stops it at the next lease boundary.
        let (status, _) = call(addr, "POST", &format!("/jobs/{running}/cancel"), None);
        assert_eq!(status, 200);
        wait_for(addr, running, "cancelled");

        // No report for a cancelled job.
        let (status, _) = call(addr, "GET", &format!("/jobs/{running}/report"), None);
        assert_eq!(status, 409);

        // Cancelling again conflicts.
        let (status, _) = call(addr, "POST", &format!("/jobs/{running}/cancel"), None);
        assert_eq!(status, 409);

        release_worker(server.daemon());
        server.drain();
        let _ = std::fs::remove_dir_all(dir);
    }
}
