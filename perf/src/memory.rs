//! Resident-memory sampling from `/proc/self/status`.
//!
//! Every field comes from one read of the status file: the kernel keeps
//! `VmHWM >= VmRSS` only within a single read, so two reads around an
//! allocation can report a peak below the current size.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How often the sampler thread reads the status file.
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// One consistent reading of the process's resident memory, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStatus {
    /// Peak resident set (`VmHWM`).
    pub hwm: u64,
    /// Current resident set (`VmRSS`).
    pub rss: u64,
    /// Current anonymous resident set (`RssAnon`): heap and stacks.
    pub anon: u64,
}

/// Parses the three fields from one status text; `None` if any is absent.
pub fn parse_status(text: &str) -> Option<MemStatus> {
    let field = |key: &str| -> Option<u64> {
        let line = text.lines().find(|l| l.starts_with(key))?;
        let kib: u64 = line[key.len()..].split_whitespace().next()?.parse().ok()?;
        Some(kib * 1024)
    };
    Some(MemStatus { hwm: field("VmHWM:")?, rss: field("VmRSS:")?, anon: field("RssAnon:")? })
}

/// Reads the current status; all zeros where `/proc` is unavailable.
pub fn read_status() -> MemStatus {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_status(&t))
        .unwrap_or_default()
}

/// Peaks seen by a [`Sampler`] between its start and [`Sampler::finish`].
/// Anonymous memory (heap, stacks) is what the program itself holds;
/// file-backed pages of mapped snapshot stores are left out because the
/// kernel keeps or drops them as the host's page cache allows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Peaks {
    /// Highest sampled `RssAnon`, in bytes.
    pub anon: u64,
    /// Highest sampled `RssAnon` minus the value at the start, in bytes.
    pub anon_growth: u64,
}

/// Samples resident memory every 10 ms on a scoped thread.
pub struct Sampler<'scope> {
    running: &'scope AtomicBool,
    handle: std::thread::ScopedJoinHandle<'scope, Peaks>,
}

impl<'scope> Sampler<'scope> {
    /// Starts sampling; `running` must be `true` and outlive the scope.
    pub fn start<'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        running: &'scope AtomicBool,
    ) -> Self {
        let before = read_status().anon;
        let handle = scope.spawn(move || {
            let mut anon = before;
            loop {
                anon = anon.max(read_status().anon);
                if !running.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
            Peaks { anon, anon_growth: anon - before }
        });
        Self { running, handle }
    }

    /// Stops the sampler (after one final reading) and returns the peaks.
    pub fn finish(self) -> Peaks {
        self.running.store(false, Ordering::Relaxed);
        self.handle.join().expect("memory sampler thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\targus-perf\nVmPeak:\t  200000 kB\nVmSize:\t  190000 kB\n\
VmHWM:\t    5120 kB\nVmRSS:\t    4096 kB\nRssAnon:\t    1024 kB\nRssFile:\t    3072 kB\n";

    #[test]
    fn parses_all_three_fields_from_one_text() {
        let s = parse_status(STATUS).expect("fields present");
        assert_eq!(s, MemStatus { hwm: 5120 * 1024, rss: 4096 * 1024, anon: 1024 * 1024 });
    }

    #[test]
    fn missing_field_is_none() {
        assert_eq!(parse_status("VmHWM:\t1 kB\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_status("VmHWM:\tlots kB\nVmRSS:\t1 kB\nRssAnon:\t1 kB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn one_read_keeps_peak_at_or_above_current() {
        let s = read_status();
        assert!(s.hwm >= s.rss, "{s:?}");
        assert!(s.rss >= s.anon && s.anon > 0, "{s:?}");
    }
}
