//! # argus-bench — the experiment harness
//!
//! One bench target per table and figure of the paper's evaluation
//! (§4), plus ablations for the design choices DESIGN.md calls out:
//!
//! | target | reproduces |
//! |--------|------------|
//! | `table1` | §4.1 error-injection quadrants + §4.1.1 attribution |
//! | `table2` | §4.3 area overheads |
//! | `fig5` | Figure 5 — dynamic instruction overhead (and the static 7%) |
//! | `fig6` | Figure 6 — runtime overhead, direct-mapped I-cache |
//! | `fig7` | Figure 7 — runtime overhead, 2-way I-cache |
//! | `latency` | §4.2 — detection latency per checker |
//! | `ablation_checkers` | "a composition of all checkers is necessary" |
//! | `ablation_signature` | aliasing vs. signature width |
//! | `ablation_modulus` | residue-checker escape rate vs. M |
//! | `ablation_blocksize` | coverage/overhead vs. block split limit |
//! | `components` | Criterion microbenches of the library itself |
//!
//! Run everything with `cargo bench -p argus-bench`; each target prints
//! the paper-style rows.

use argus_compiler::{compile, EmbedConfig, Mode};
use argus_machine::MachineConfig;
use argus_mem::MemConfig;
use argus_sim::stats::OnlineStats;
use argus_workloads::Workload;

pub mod chart;

/// Per-benchmark overhead measurements (one Figure-5/6/7 bar).
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Static instructions, baseline / Argus.
    pub static_base: u64,
    /// Static instructions with signatures embedded.
    pub static_argus: u64,
    /// Dynamic instructions, baseline / Argus.
    pub dyn_base: u64,
    /// Dynamic instructions with signatures.
    pub dyn_argus: u64,
    /// Cycles, baseline / Argus.
    pub cycles_base: u64,
    /// Cycles with signatures.
    pub cycles_argus: u64,
}

impl OverheadRow {
    /// Static instruction-count overhead in percent.
    pub fn static_pct(&self) -> f64 {
        pct(self.static_base, self.static_argus)
    }

    /// Dynamic instruction-count overhead in percent (Figure 5).
    pub fn dynamic_pct(&self) -> f64 {
        pct(self.dyn_base, self.dyn_argus)
    }

    /// Runtime overhead in percent (Figures 6/7).
    pub fn runtime_pct(&self) -> f64 {
        pct(self.cycles_base, self.cycles_argus)
    }
}

fn pct(base: u64, argus: u64) -> f64 {
    100.0 * (argus as f64 - base as f64) / base as f64
}

/// Runs one workload in both modes on machines with `ways`-associative
/// 8KB caches, verifying self-checks, and returns the overhead row.
///
/// # Panics
///
/// Panics if the workload fails to compile, halt, or self-check, or if the
/// checker reports a false positive.
pub fn measure_workload(w: &Workload, ways: u32) -> OverheadRow {
    let mem = if ways == 2 { MemConfig::default().two_way() } else { MemConfig::default() };
    let ecfg = EmbedConfig::default();
    let base_prog =
        compile(&w.unit, Mode::Baseline, &ecfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let argus_prog =
        compile(&w.unit, Mode::Argus, &ecfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));

    let base = argus_compiler::verify::run_baseline(
        &base_prog,
        MachineConfig { argus_mode: false, mem, ..Default::default() },
        500_000_000,
    );
    let argus = argus_compiler::verify::run_checked(
        &argus_prog,
        MachineConfig { argus_mode: true, mem, ..Default::default() },
        argus_core::ArgusConfig::default(),
        &mut argus_sim::fault::FaultInjector::none(),
        500_000_000,
    );
    assert!(base.halted && argus.halted, "{} did not halt", w.name);
    assert!(argus.events.is_empty(), "{}: false positives {:?}", w.name, argus.events);
    w.check(&base.machine).unwrap_or_else(|e| panic!("baseline {e}"));
    w.check(&argus.machine).unwrap_or_else(|e| panic!("argus {e}"));

    OverheadRow {
        name: w.name,
        static_base: base_prog.stats.static_instrs as u64,
        static_argus: argus_prog.stats.static_instrs as u64,
        dyn_base: base.retired,
        dyn_argus: argus.retired,
        cycles_base: base.cycles,
        cycles_argus: argus.cycles,
    }
}

/// Runs the whole MediaBench-like suite.
pub fn measure_suite(ways: u32) -> Vec<OverheadRow> {
    argus_workloads::suite().iter().map(|w| measure_workload(w, ways)).collect()
}

/// Mean of a per-row metric.
pub fn mean_of(rows: &[OverheadRow], metric: impl Fn(&OverheadRow) -> f64) -> f64 {
    let mut s = OnlineStats::new();
    for r in rows {
        s.push(metric(r));
    }
    s.mean()
}

/// Reads `kB`-denominated fields of `/proc/self/status` into bytes, all
/// from one read of the file — so fields the kernel reports consistently
/// (`VmHWM >= VmRSS`) stay consistent with each other.
#[cfg(target_os = "linux")]
fn proc_status_bytes<const N: usize>(keys: [&str; N]) -> Option<[u64; N]> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |key: &str| {
        let line = status.lines().find(|l| l.starts_with(key))?;
        let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib * 1024)
    };
    let mut out = [0; N];
    for (slot, key) in out.iter_mut().zip(keys) {
        *slot = field(key)?;
    }
    Some(out)
}

#[cfg(not(target_os = "linux"))]
fn proc_status_bytes<const N: usize>(_keys: [&str; N]) -> Option<[u64; N]> {
    None
}

/// Peak resident set size (`VmHWM`) of this process, in bytes — the
/// self-sampler every bench row records as `peak_rss_bytes`, so memory
/// regressions show up in the benchmark trajectory alongside time.
/// `None` on platforms without `/proc/self/status`.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes(["VmHWM:"]).map(|[b]| b)
}

/// Current resident set size (`VmRSS`) of this process, in bytes.
pub fn current_rss_bytes() -> Option<u64> {
    proc_status_bytes(["VmRSS:"]).map(|[b]| b)
}

/// Current *anonymous* resident set (`RssAnon`) of this process, in
/// bytes: heap and stacks, excluding file-backed mappings. This is the
/// number an out-of-core store must keep bounded — pages resident via a
/// shared read-only `mmap` show up in `VmRSS` but are reclaimable by the
/// kernel at will, while anonymous pages are not. `None` off Linux.
pub fn anon_rss_bytes() -> Option<u64> {
    proc_status_bytes(["RssAnon:"]).map(|[b]| b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_sampler_reports_plausible_numbers() {
        assert!(peak_rss_bytes().is_some() && current_rss_bytes().is_some());
        // Both fields from one read: other test threads allocate between
        // two separate reads, so only a single snapshot orders them.
        let [peak, cur] =
            proc_status_bytes(["VmHWM:", "VmRSS:"]).expect("/proc/self/status has VmHWM, VmRSS");
        assert!(peak >= cur, "peak {peak} < current {cur}");
        assert!(cur > 1 << 20, "a running test process holds more than 1 MiB resident");
    }

    #[test]
    fn measure_one_workload() {
        let w = argus_workloads::suite().remove(0);
        let row = measure_workload(&w, 1);
        assert!(row.static_argus > row.static_base, "embedding adds instructions");
        assert!(row.dyn_argus >= row.dyn_base);
        assert!(row.dynamic_pct() >= 0.0);
        assert!(row.static_pct() > 0.0);
    }

    #[test]
    fn two_way_measurement_also_works() {
        let w = argus_workloads::suite().remove(2);
        let row = measure_workload(&w, 2);
        assert!(row.cycles_argus > 0);
    }

    #[test]
    fn mean_helper() {
        let rows = vec![
            OverheadRow {
                name: "a",
                static_base: 100,
                static_argus: 110,
                dyn_base: 100,
                dyn_argus: 102,
                cycles_base: 100,
                cycles_argus: 104,
            },
            OverheadRow {
                name: "b",
                static_base: 100,
                static_argus: 104,
                dyn_base: 100,
                dyn_argus: 106,
                cycles_base: 100,
                cycles_argus: 100,
            },
        ];
        assert!((mean_of(&rows, |r| r.dynamic_pct()) - 4.0).abs() < 1e-12);
        assert!((mean_of(&rows, |r| r.static_pct()) - 7.0).abs() < 1e-12);
    }
}
