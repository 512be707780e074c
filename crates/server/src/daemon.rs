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

use crate::http::{Handler, HttpServer};
use crate::jobs::{checkpoint_path, report_path, JobId, JobRow, JobSpec, JobState, JobTable};
use crate::queue::{JobQueue, QueueEntry};
use argus_faults::CampaignConfig;
use argus_orchestrator::{run_sharded, Json, OrchestratorConfig, Progress, RemoteRunStats};
use argus_remote::{run_distributed, CampaignShare, DistributedConfig};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Per-job event ring capacity. Events beyond this are dropped oldest
/// first; `events` responses flag the truncation.
const EVENT_CAP: usize = 4096;

/// How often the progress sampler looks for fresh numbers to publish.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(200);

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
    /// route lease/complete/heartbeat/artifact calls through this. A
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

        // Distributed jobs run the coordinator loop on this thread; the
        // progress tracker always has at least one shard because remote
        // deltas are replayed into shard 0 even when alloc == 0.
        let progress = Progress::new(if spec.distributed { alloc.max(1) } else { alloc });
        let sampler_stop = AtomicBool::new(false);
        let result = std::thread::scope(|scope| {
            scope.spawn(|| self.sample_progress(id, &progress, &sampler_stop));
            let result = catch_unwind(AssertUnwindSafe(|| {
                if spec.distributed {
                    let dcfg = DistributedConfig { job: id, lease_ttl: self.cfg.lease_ttl };
                    run_distributed(
                        &argus_workloads::stress(),
                        &cfg,
                        &ocfg,
                        &dcfg,
                        &stop,
                        &progress,
                        &|share: &Arc<CampaignShare>| {
                            self.remote
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .insert(id, Arc::clone(share));
                            let mut st = self.state.lock().unwrap();
                            if let Some(job) = st.job_mut(id) {
                                job.push_event(
                                    Json::obj()
                                        .set("kind", "distributed_open")
                                        .set("lease_ttl_ms", self.cfg.lease_ttl.as_millis() as u64),
                                );
                            }
                            self.wake.notify_all();
                        },
                    )
                } else {
                    run_sharded(&argus_workloads::stress(), &cfg, &ocfg, &stop, &progress)
                }
            }));
            sampler_stop.store(true, Ordering::Relaxed);
            result
        });
        if spec.distributed {
            self.remote.lock().unwrap_or_else(|p| p.into_inner()).remove(&id);
        }

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

    /// Publishes a progress event whenever the numbers move, until the
    /// runner raises `done`. For distributed jobs it also watches the
    /// share's remote accounting and turns deltas into discrete
    /// `worker_connected` / `lease_expired` events.
    fn sample_progress(&self, id: JobId, progress: &Progress, done: &AtomicBool) {
        let mut last_done = u64::MAX;
        let mut last_remote: Option<RemoteRunStats> = None;
        let mut last_violations = 0u64;
        while !done.load(Ordering::Relaxed) {
            std::thread::sleep(SAMPLE_INTERVAL);
            let snap = progress.snapshot();
            let remote = self.share(id).map(|s| (s.stats(), s.outstanding()));
            let remote_moved = remote.as_ref().map(|(s, _)| s) != last_remote.as_ref();
            let violations_moved = snap.invariant_violations > last_violations;
            if snap.done == last_done && !remote_moved && !violations_moved {
                continue;
            }
            last_done = snap.done;
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
            // Violations become discrete events so a streaming client
            // sees them the moment they happen — identical for local,
            // hybrid, and remote execution, since remote workers' deltas
            // funnel through the same progress counter.
            if violations_moved {
                extra.push(
                    Json::obj()
                        .set("kind", "invariant_violation")
                        .set("violations", snap.invariant_violations)
                        .set("new", snap.invariant_violations - last_violations),
                );
                last_violations = snap.invariant_violations;
            }
            if let Some((stats, outstanding)) = &remote {
                payload =
                    payload.set("remote", stats.to_json().set("outstanding", *outstanding as u64));
                let prev = last_remote.take().unwrap_or_default();
                if stats.workers_seen > prev.workers_seen {
                    extra.push(
                        Json::obj()
                            .set("kind", "worker_connected")
                            .set("workers_seen", stats.workers_seen),
                    );
                }
                if stats.expired_leases > prev.expired_leases {
                    extra.push(
                        Json::obj()
                            .set("kind", "lease_expired")
                            .set("expired_leases", stats.expired_leases),
                    );
                }
                last_remote = Some(stats.clone());
            }
            let mut st = self.state.lock().unwrap();
            if let Some(job) = st.job_mut(id) {
                job.last_progress = Some(payload.clone());
                for ev in extra {
                    job.push_event(ev);
                }
                job.push_event(payload);
            }
            self.wake.notify_all();
        }
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
