//! Fork-overhead gate (injections/sec through the campaign engine).
//!
//! PR 4 forked every injection by building a fresh machine and copying
//! every page out of the snapshot store — O(machine state) per fork — and
//! replayed even injections whose fault provably never fires. This bench
//! pins the cost of forking down and gates the delta-restore engine: the
//! same snapshot-enabled pegwit campaign, run serially with the current
//! `CampaignConfig` defaults (delta restore into a reused workspace +
//! golden short-cuts), must clear [`REQUIRED_SPEEDUP`]x the pre-PR
//! throughput recorded in [`PRE_PR_INJ_PER_SEC`].
//!
//! The sweep isolates where the win comes from, coldest to warmest:
//!
//! * `cold_boot` — no snapshots, every injection replays from cycle 0;
//! * `delta_fork` — reused workspace, only pages dirtied since the last
//!   fork rewritten;
//! * `delta_fork+shortcut` — defaults: delta restore plus the golden
//!   short-cuts (a fault with sensitization 0 can never fire, so its run
//!   is provably identical to the golden run and is classified without
//!   stepping; a spent transient stops once it reconverges with it).
//!
//! Every configuration must produce identical outcome tallies — snapshots
//! and the shortcut are perf knobs, never result knobs.
//!
//! Results land in `BENCH_fork.json` at the repo root.
//! `ARGUS_BENCH_SMOKE=1` shrinks the campaign and skips the gate (CI smoke
//! mode: proves the bench runs and emits valid JSON). `ARGUS_INJECTIONS`
//! overrides the campaign size.

use argus_faults::campaign::{run_campaign, CampaignConfig};
use argus_faults::Outcome;
use argus_orchestrator::Json;
use std::time::Instant;

/// Serial snapshot-enabled pegwit throughput (150 injections, 1k-cycle
/// snapshot interval, default seed) of the pre-PR tree, measured at commit
/// c6bdf4f on the build machine with the same release profile. The
/// delta-restore fork engine is gated against this.
const PRE_PR_INJ_PER_SEC: f64 = 90.3;

/// Speedup the delta-restore defaults must reach over the pre-PR engine.
const REQUIRED_SPEEDUP: f64 = 2.0;

fn smoke() -> bool {
    std::env::var_os("ARGUS_BENCH_SMOKE").is_some()
}

struct Scenario {
    config: &'static str,
    snapshots: bool,
    golden_shortcuts: bool,
}

const SCENARIOS: &[Scenario] = &[
    Scenario { config: "cold_boot", snapshots: false, golden_shortcuts: false },
    Scenario { config: "delta_fork", snapshots: true, golden_shortcuts: false },
    Scenario { config: "delta_fork+shortcut", snapshots: true, golden_shortcuts: true },
];

struct Row {
    config: &'static str,
    secs: f64,
    rate: f64,
    peak_rss: u64,
}

fn main() {
    let injections: usize = std::env::var("ARGUS_INJECTIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke() { 10 } else { 150 });
    println!("== fork overhead (serial snapshot-enabled pegwit campaign) ==");
    if smoke() {
        println!("(smoke mode: {injections} injections, no speedup gate)");
    }
    println!("{:>20} | {:>7} | throughput", "config", "time");

    let pegwit = argus_workloads::pegwit::pegwit();
    let mut rows = Vec::new();
    let mut reference: Vec<u64> = Vec::new();
    for sc in SCENARIOS {
        let cfg = CampaignConfig {
            injections,
            snapshot_every: sc.snapshots.then_some(1_000),
            golden_shortcuts: sc.golden_shortcuts,
            ..Default::default()
        };
        let t = Instant::now();
        let rep = run_campaign(&pegwit, &cfg);
        let secs = t.elapsed().as_secs_f64();
        let counts: Vec<u64> = Outcome::ALL.iter().map(|&o| rep.count(o) as u64).collect();
        if reference.is_empty() {
            reference = counts;
        } else {
            assert_eq!(counts, reference, "{}: forking changed campaign results", sc.config);
        }
        let rate = injections as f64 / secs;
        let peak_rss = argus_bench::peak_rss_bytes().unwrap_or(0);
        println!("{:>20} | {:>6.2}s | {:>8.1} inj/s", sc.config, secs, rate);
        rows.push(Row { config: sc.config, secs, rate, peak_rss });
    }

    let headline = rows.last().expect("scenarios ran").rate;
    let speedup = headline / PRE_PR_INJ_PER_SEC;
    println!("\ndefaults: {headline:.1} inj/s = {speedup:.2}x vs pre-PR full-fork engine");

    let json = Json::obj()
        .set("bench", "fork_overhead")
        .set("smoke", smoke())
        .set("workload", "pegwit")
        .set("injections", injections as u64)
        .set("snapshot_every", 1_000u64)
        .set("pre_pr_inj_per_sec", PRE_PR_INJ_PER_SEC)
        .set(
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj()
                            .set("config", r.config)
                            .set("seconds", r.secs)
                            .set("injections_per_second", r.rate)
                            .set("peak_rss_bytes", r.peak_rss)
                    })
                    .collect(),
            ),
        )
        .set("default_inj_per_sec", headline)
        .set("speedup_vs_pre_pr", speedup);
    let text = json.to_string_compact();
    Json::parse(&text).expect("bench emitted invalid JSON");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fork.json");
    std::fs::write(out, &text).expect("write BENCH_fork.json");
    println!("wrote BENCH_fork.json");

    if !smoke() {
        assert!(
            speedup >= REQUIRED_SPEEDUP,
            "fork gate: the delta-restore defaults must clear {REQUIRED_SPEEDUP}x the pre-PR \
             engine ({PRE_PR_INJ_PER_SEC} inj/s), got {speedup:.2}x"
        );
    }
}
