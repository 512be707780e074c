//! Host speed, sampled in the same run as the workload.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! tens of percent over minutes, far more than the changes it must
//! resolve. Between jobs the benchmark times a fixed kernel of its own
//! (nothing from the repository, so no change under test can move it),
//! once on one thread and once on as many threads as the campaign uses.
//! Each median per-thread rate, relative to a nominal host, scales the
//! end-to-end timings of work on that many threads, so they read as on
//! the nominal host: a run during a slow spell reports the same numbers
//! as one during a fast spell.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel updates per second and thread of the nominal host: one vCPU of
/// a 2-core virtual machine in a quiet period. Only sets the scale.
pub const NOMINAL_UPDATES_PER_S: f64 = 4e8;

/// Length of one timed slice.
const SLICE: Duration = Duration::from_millis(20);

/// Least time between two samples taken between jobs.
const SPACING: Duration = Duration::from_millis(500);

/// Words in each thread's buffer: 1 MiB, like a campaign machine's
/// memory, so the kernel stresses caches as the simulator does.
const WORDS: usize = 1 << 18;

/// Random read-modify-writes over a private buffer until `until`;
/// returns the updates done.
fn kernel(seed: u32, until: Instant) -> u64 {
    let mut buf = vec![0u32; WORDS];
    let mut x = 0x9E37_79B9 ^ seed;
    let mut updates = 0;
    while Instant::now() < until {
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let i = x as usize & (WORDS - 1);
            buf[i] = buf[i].wrapping_add(x).rotate_left(3);
        }
        updates += 2_000;
    }
    black_box(&buf);
    updates
}

/// Per-thread updates per second of one slice on `threads` threads.
fn slice(threads: usize) -> f64 {
    let t = Instant::now();
    let until = t + SLICE;
    let updates: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> =
            (0..threads).map(|k| scope.spawn(move || kernel(k as u32, until))).collect();
        workers.into_iter().map(|w| w.join().expect("host-speed kernel panicked")).sum()
    });
    updates as f64 / t.elapsed().as_secs_f64() / threads as f64
}

/// Median per-thread rate over the nominal one (1.0 with no samples).
fn factor(rates: &[f64]) -> f64 {
    match crate::stats::median(rates) {
        r if r > 0.0 => r / NOMINAL_UPDATES_PER_S,
        _ => 1.0,
    }
}

/// Host-speed samples of one workload run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    single: Vec<f64>,
    parallel: Vec<f64>,
    last: Option<Instant>,
}

impl HostSpeed {
    /// Times one slice on one thread and one on `threads` threads.
    pub fn sample(&mut self, threads: usize) {
        self.single.push(slice(1));
        self.parallel.push(slice(threads));
        self.last = Some(Instant::now());
    }

    /// [`HostSpeed::sample`], unless a sample was taken in the last 0.5 s.
    pub fn sample_spaced(&mut self, threads: usize) {
        if self.last.is_none_or(|l| l.elapsed() >= SPACING) {
            self.sample(threads);
        }
    }

    /// Speed of single-threaded work relative to the nominal host (below
    /// 1 on a slower host): scales set-up times.
    pub fn single(&self) -> f64 {
        factor(&self.single)
    }

    /// Speed of work spread over the campaign's threads relative to the
    /// nominal host: scales injection phases.
    pub fn parallel(&self) -> f64 {
        factor(&self.parallel)
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.single.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_median_rate_over_nominal() {
        assert_eq!(factor(&[]), 1.0);
        assert_eq!(factor(&[2e8, 4e8, 8e8]), 1.0);
        assert_eq!(factor(&[2e8, 2e8, 8e8]), 0.5);
    }

    #[test]
    fn spaced_sampling_skips_back_to_back_samples() {
        let mut h = HostSpeed::default();
        h.sample_spaced(2);
        h.sample_spaced(2);
        assert_eq!(h.samples(), 1);
        assert!(h.single() > 0.0 && h.parallel() > 0.0);
    }
}
