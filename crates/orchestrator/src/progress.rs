//! Live campaign observability.
//!
//! Worker threads publish per-injection updates through atomics only (no
//! locks on the hot path); any other thread may take a consistent-enough
//! [`ProgressSnapshot`] at any time to render a progress line, without
//! perturbing the workers.

use argus_faults::campaign::ExecStats;
use argus_faults::Outcome;
use argus_sim::supervise::Anomaly;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a shard may go without completing an injection before the
/// snapshot reports it as stalled (it may legitimately be inside one long
/// hung-run window).
const LIVENESS_WINDOW: Duration = Duration::from_secs(5);

/// Sentinel heartbeat meaning "shard finished its slice".
const BEAT_DONE: u64 = u64::MAX;

/// Shared, atomically-updated campaign progress.
pub struct Progress {
    started: Mutex<Instant>,
    total: AtomicU64,
    /// Injections already complete when this run began (resume).
    initial: AtomicU64,
    done: AtomicU64,
    outcomes: [AtomicU64; 4],
    /// Supervision anomalies: `[quarantined, hung]`, indexed by
    /// [`Anomaly`] order. Counted in `done` but not in `outcomes`.
    anomalies: [AtomicU64; 2],
    /// Set when checkpoint flushing is limping (retries were needed or a
    /// periodic flush failed outright).
    degraded: AtomicBool,
    /// Per-shard completed counts.
    shard_done: Vec<AtomicU64>,
    /// Per-shard heartbeat: millis since `started` of the last completion,
    /// or [`BEAT_DONE`] once the shard's slice is finished.
    shard_beat: Vec<AtomicU64>,
    /// Scheduler chunks leased out this run.
    leases: AtomicU64,
    /// Leases taken outside the leasing worker's home region.
    steals: AtomicU64,
    /// Microseconds workers have spent inside injections this run.
    busy_us: AtomicU64,
    /// Block-plan cache counters published by the workers:
    /// `[hits, armed hits, misses, evictions, fallbacks]`.
    plan: [AtomicU64; 5],
    /// Cumulative invariant violations observed by the campaign's
    /// invariant engine (published after each chunk; 0 on healthy runs).
    invariant_violations: AtomicU64,
    finished: AtomicBool,
}

/// Position of an [`Anomaly`] in the `anomalies` arrays.
fn anomaly_index(a: Anomaly) -> usize {
    match a {
        Anomaly::Quarantined => 0,
        Anomaly::Hung => 1,
    }
}

impl Progress {
    /// Creates progress state for `shards` worker shards.
    pub fn new(shards: usize) -> Self {
        Self {
            started: Mutex::new(Instant::now()),
            total: AtomicU64::new(0),
            initial: AtomicU64::new(0),
            done: AtomicU64::new(0),
            outcomes: [const { AtomicU64::new(0) }; 4],
            anomalies: [const { AtomicU64::new(0) }; 2],
            degraded: AtomicBool::new(false),
            shard_done: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            shard_beat: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            leases: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            busy_us: AtomicU64::new(0),
            plan: [const { AtomicU64::new(0) }; 5],
            invariant_violations: AtomicU64::new(0),
            finished: AtomicBool::new(false),
        }
    }

    /// Number of shards this progress state tracks.
    pub fn shards(&self) -> usize {
        self.shard_done.len()
    }

    /// (Re)starts the clock and seeds totals; called by the engine once it
    /// knows the campaign size and any resumed progress.
    pub fn begin(
        &self,
        total: u64,
        resumed: u64,
        resumed_outcomes: [u64; 4],
        resumed_anomalies: [u64; 2],
        per_shard: &[u64],
    ) {
        *self.started.lock().unwrap_or_else(|e| e.into_inner()) = Instant::now();
        self.total.store(total, Ordering::Relaxed);
        self.initial.store(resumed, Ordering::Relaxed);
        self.done.store(resumed, Ordering::Relaxed);
        for (slot, &v) in self.outcomes.iter().zip(resumed_outcomes.iter()) {
            slot.store(v, Ordering::Relaxed);
        }
        for (slot, &v) in self.anomalies.iter().zip(resumed_anomalies.iter()) {
            slot.store(v, Ordering::Relaxed);
        }
        for (slot, &v) in self.shard_done.iter().zip(per_shard.iter()) {
            slot.store(v, Ordering::Relaxed);
        }
        self.leases.store(0, Ordering::Relaxed);
        self.steals.store(0, Ordering::Relaxed);
        self.busy_us.store(0, Ordering::Relaxed);
        for slot in &self.plan {
            slot.store(0, Ordering::Relaxed);
        }
        self.invariant_violations.store(0, Ordering::Relaxed);
        self.degraded.store(false, Ordering::Relaxed);
        self.finished.store(false, Ordering::Relaxed);
    }

    /// Publishes the engine's cumulative invariant-violation count (a
    /// store, not an add — the engine already accumulates).
    pub fn set_invariant_violations(&self, total: u64) {
        self.invariant_violations.store(total, Ordering::Relaxed);
    }

    /// Records one scheduler lease; `stolen` when it came from outside the
    /// worker's home region.
    pub fn record_lease(&self, stolen: bool) {
        self.leases.fetch_add(1, Ordering::Relaxed);
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds time a worker spent inside an injection (utilization numerator).
    pub fn add_busy(&self, spent: Duration) {
        self.busy_us.fetch_add(spent.as_micros() as u64, Ordering::Relaxed);
    }

    /// Publishes a worker's drained predecode/plan-cache counters.
    pub fn add_exec(&self, e: &ExecStats) {
        let counters =
            [e.plan_hits, e.armed_plan_hits, e.plan_misses, e.plan_evictions, e.plan_fallbacks];
        for (slot, v) in self.plan.iter().zip(counters) {
            if v > 0 {
                slot.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    /// Records one completed injection on `shard`.
    pub fn record(&self, shard: usize, outcome: Outcome) {
        let ms = self.elapsed().as_millis() as u64;
        self.outcomes[outcome.index()].fetch_add(1, Ordering::Relaxed);
        self.shard_done[shard].fetch_add(1, Ordering::Relaxed);
        self.shard_beat[shard].store(ms, Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one injection on `shard` that ended in a supervision anomaly
    /// (quarantined panic or watchdog hang) instead of a classification.
    pub fn record_anomaly(&self, shard: usize, anomaly: Anomaly) {
        let ms = self.elapsed().as_millis() as u64;
        self.anomalies[anomaly_index(anomaly)].fetch_add(1, Ordering::Relaxed);
        self.shard_done[shard].fetch_add(1, Ordering::Relaxed);
        self.shard_beat[shard].store(ms, Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    /// Flags (or clears) degraded checkpoint-flush mode.
    pub fn set_degraded(&self, on: bool) {
        self.degraded.store(on, Ordering::Relaxed);
    }

    /// Whether checkpoint flushing has been limping.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Marks `shard` as having finished its slice.
    pub fn shard_finished(&self, shard: usize) {
        self.shard_beat[shard].store(BEAT_DONE, Ordering::Relaxed);
    }

    /// Marks the whole campaign as over (completed or cancelled).
    pub fn finish(&self) {
        self.finished.store(true, Ordering::Relaxed);
    }

    /// Whether the campaign is over.
    pub fn finished(&self) -> bool {
        self.finished.load(Ordering::Relaxed)
    }

    /// Injections completed so far (including resumed ones).
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    fn elapsed(&self) -> Duration {
        self.started.lock().unwrap_or_else(|e| e.into_inner()).elapsed()
    }

    /// Takes a point-in-time view for rendering. Counters are read without
    /// a barrier, so totals may be off by the few injections in flight —
    /// fine for observability.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let elapsed = self.elapsed();
        let done = self.done.load(Ordering::Relaxed);
        let initial = self.initial.load(Ordering::Relaxed);
        let fresh = done.saturating_sub(initial);
        let rate =
            if elapsed.as_secs_f64() > 1e-9 { fresh as f64 / elapsed.as_secs_f64() } else { 0.0 };
        let now_ms = elapsed.as_millis() as u64;
        let live_cutoff = now_ms.saturating_sub(LIVENESS_WINDOW.as_millis() as u64);
        let workers = self.shard_done.len().max(1) as f64;
        let busy = Duration::from_micros(self.busy_us.load(Ordering::Relaxed));
        let busy_pct = if elapsed.as_secs_f64() > 1e-9 {
            100.0 * busy.as_secs_f64() / (elapsed.as_secs_f64() * workers)
        } else {
            0.0
        };
        ProgressSnapshot {
            total: self.total.load(Ordering::Relaxed),
            done,
            outcomes: std::array::from_fn(|i| self.outcomes[i].load(Ordering::Relaxed)),
            anomalies: std::array::from_fn(|i| self.anomalies[i].load(Ordering::Relaxed)),
            degraded: self.degraded.load(Ordering::Relaxed),
            elapsed,
            rate,
            leases: self.leases.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            busy_pct,
            plan: std::array::from_fn(|i| self.plan[i].load(Ordering::Relaxed)),
            invariant_violations: self.invariant_violations.load(Ordering::Relaxed),
            shard_done: self.shard_done.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
            shard_live: self
                .shard_beat
                .iter()
                .map(|a| {
                    let beat = a.load(Ordering::Relaxed);
                    beat != BEAT_DONE && beat >= live_cutoff
                })
                .collect(),
        }
    }
}

/// One observed point in time of a running campaign.
#[derive(Debug, Clone)]
pub struct ProgressSnapshot {
    /// Planned injections.
    pub total: u64,
    /// Completed injections (including any resumed from a checkpoint).
    pub done: u64,
    /// Running per-outcome counts, indexed like [`Outcome::ALL`].
    pub outcomes: [u64; 4],
    /// Supervision anomaly counts: `[quarantined, hung]`.
    pub anomalies: [u64; 2],
    /// True when checkpoint flushing has needed retries or failed.
    pub degraded: bool,
    /// Wall-clock time since the engine started.
    pub elapsed: Duration,
    /// Injections per second completed by *this* run (resumed work
    /// excluded from the numerator).
    pub rate: f64,
    /// Scheduler chunks leased out so far.
    pub leases: u64,
    /// Leases taken outside the leasing worker's home region.
    pub steals: u64,
    /// Worker utilization so far: busy time over `elapsed * workers`, in
    /// percent.
    pub busy_pct: f64,
    /// Block-plan cache counters published by the workers:
    /// `[hits, armed hits, misses, evictions, fallbacks]`; armed hits are
    /// the hits taken while a fault was armed on a site the block cannot
    /// tap.
    pub plan: [u64; 5],
    /// Cumulative invariant violations observed so far (0 when healthy).
    pub invariant_violations: u64,
    /// Per-shard completed counts.
    pub shard_done: Vec<u64>,
    /// Per-shard liveness: finished shards and recently-active shards are
    /// distinguished from ones that have gone quiet.
    pub shard_live: Vec<bool>,
}

impl std::fmt::Display for ProgressSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pct =
            if self.total == 0 { 100.0 } else { 100.0 * self.done as f64 / self.total as f64 };
        let quiet = self.shard_live.iter().filter(|l| !**l).count();
        write!(
            f,
            "[{:6.1}s] {:>6}/{} ({pct:5.1}%) {:7.1} inj/s | sdc {} det {} benign {} dme {} | {} shards ({} idle/done)",
            self.elapsed.as_secs_f64(),
            self.done,
            self.total,
            self.rate,
            self.outcomes[0],
            self.outcomes[1],
            self.outcomes[2],
            self.outcomes[3],
            self.shard_done.len(),
            quiet,
        )?;
        if self.leases > 0 {
            write!(f, " | lease {} steal {} busy {:.0}%", self.leases, self.steals, self.busy_pct)?;
        }
        if self.plan.iter().any(|&v| v > 0) {
            write!(
                f,
                " | plan hit {} armed {} miss {} evict {} fb {}",
                self.plan[0], self.plan[1], self.plan[2], self.plan[3], self.plan[4]
            )?;
        }
        if self.anomalies.iter().any(|&a| a > 0) {
            write!(f, " | quar {} hung {}", self.anomalies[0], self.anomalies[1])?;
        }
        if self.invariant_violations > 0 {
            write!(f, " | INVARIANT VIOLATIONS {}", self.invariant_violations)?;
        }
        if self.degraded {
            write!(f, " [degraded: checkpoint I/O]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let p = Progress::new(2);
        p.begin(10, 0, [0; 4], [0; 2], &[0, 0]);
        p.record(0, Outcome::UnmaskedDetected);
        p.record(1, Outcome::UnmaskedDetected);
        p.record(1, Outcome::MaskedUndetected);
        let s = p.snapshot();
        assert_eq!(s.done, 3);
        assert_eq!(s.outcomes[Outcome::UnmaskedDetected.index()], 2);
        assert_eq!(s.shard_done, vec![1, 2]);
        assert!(s.shard_live.iter().all(|&l| l), "recent completions count as live");
        assert!(!p.finished());
        p.shard_finished(0);
        assert!(!p.snapshot().shard_live[0]);
        p.finish();
        assert!(p.finished());
        let line = p.snapshot().to_string();
        assert!(line.contains("3/10"), "{line}");
        assert!(!line.contains("quar"), "anomaly tail only renders when non-zero: {line}");
    }

    #[test]
    fn resume_seeds_counters_and_rate_excludes_resumed_work() {
        let p = Progress::new(1);
        p.begin(100, 40, [10, 20, 5, 5], [0; 2], &[40]);
        let s = p.snapshot();
        assert_eq!(s.done, 40);
        assert_eq!(s.outcomes, [10, 20, 5, 5]);
        // No fresh work yet → near-zero rate regardless of resumed count.
        assert!(s.rate < 1.0);
    }

    #[test]
    fn anomalies_count_as_done_and_render() {
        let p = Progress::new(1);
        p.begin(10, 0, [0; 4], [0; 2], &[0]);
        p.record(0, Outcome::MaskedUndetected);
        p.record_anomaly(0, Anomaly::Quarantined);
        p.record_anomaly(0, Anomaly::Hung);
        p.record_anomaly(0, Anomaly::Hung);
        let s = p.snapshot();
        assert_eq!(s.done, 4, "anomalies count toward done");
        assert_eq!(s.anomalies, [1, 2]);
        assert_eq!(s.outcomes.iter().sum::<u64>(), 1, "anomalies stay out of the quadrants");
        let line = s.to_string();
        assert!(line.contains("quar 1 hung 2"), "{line}");
        assert!(!s.degraded);
        p.set_degraded(true);
        assert!(p.degraded());
        assert!(p.snapshot().to_string().contains("degraded"), "degraded marker renders");
    }

    #[test]
    fn scheduler_stats_render_only_once_leased() {
        let p = Progress::new(2);
        p.begin(10, 0, [0; 4], [0; 2], &[0, 0]);
        assert!(!p.snapshot().to_string().contains("lease"), "no lease tail before any lease");
        p.record_lease(false);
        p.record_lease(true);
        p.add_busy(Duration::from_millis(3));
        let s = p.snapshot();
        assert_eq!(s.leases, 2);
        assert_eq!(s.steals, 1);
        assert!(s.busy_pct > 0.0);
        let line = s.to_string();
        assert!(line.contains("lease 2 steal 1"), "{line}");
        // begin() resets scheduler counters for the next run.
        p.begin(10, 0, [0; 4], [0; 2], &[0, 0]);
        assert_eq!(p.snapshot().leases, 0);
    }

    #[test]
    fn plan_counters_render_with_armed_hits() {
        let p = Progress::new(1);
        p.begin(10, 0, [0; 4], [0; 2], &[0]);
        assert!(!p.snapshot().to_string().contains("plan"), "no plan tail before any hit");
        p.add_exec(&ExecStats {
            plan_hits: 7,
            armed_plan_hits: 3,
            plan_misses: 2,
            ..ExecStats::default()
        });
        let s = p.snapshot();
        assert_eq!(s.plan, [7, 3, 2, 0, 0]);
        let line = s.to_string();
        assert!(line.contains("plan hit 7 armed 3 miss 2 evict 0 fb 0"), "{line}");
    }

    #[test]
    fn resume_seeds_anomaly_counters() {
        let p = Progress::new(1);
        p.begin(100, 40, [10, 20, 5, 2], [2, 1], &[40]);
        let s = p.snapshot();
        assert_eq!(s.done, 40);
        assert_eq!(s.anomalies, [2, 1]);
    }
}
