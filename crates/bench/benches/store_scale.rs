//! Out-of-core store scale gate (the ARGSTORE tentpole's headline run).
//!
//! Drives a million-injection sharded campaign on `stress_xl` — the XL
//! workload tier with a 16 MiB machine image, ~10× the default tier —
//! forking every injection from the memory-mapped ARGSTORE, and proves
//! the two claims the out-of-core store makes:
//!
//! * **Heap stays bounded by the working set, not the snapshot count.**
//!   Campaign-phase growth of the *anonymous* resident set (`RssAnon`,
//!   sampled across the run — file-backed pages the store maps are
//!   kernel-reclaimable and deliberately excluded) must stay within
//!   [`RSS_FACTOR`]× the single-snapshot working set per campaign
//!   actor: one workspace image per shard, plus the golden-run/prepare
//!   context and the inert-fork template. Snapshot count must not
//!   appear in that budget — that is the out-of-core claim.
//! * **Out-of-core costs no throughput.** Aggregate injections/s must be
//!   at least the serial `delta_fork+shortcut` rate recorded in
//!   `BENCH_fork.json` (`default_inj_per_sec`) — the store must not
//!   regress the fork engine it feeds.
//!
//! Results land in `BENCH_store.json` at the repo root.
//! `ARGUS_BENCH_SMOKE=1` shrinks the campaign and skips the throughput
//! gate but keeps the RSS ceiling (CI runs this as `store-scale-smoke`).
//! `ARGUS_INJECTIONS` / `ARGUS_SHARDS` override the campaign shape.

use argus_faults::campaign::CampaignConfig;
use argus_orchestrator::{run_sharded, Json, OrchestratorConfig, Progress};
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// Campaign-phase RSS growth allowed per shard, in units of the
/// single-snapshot working set (the 16 MiB `stress_xl` memory image).
const RSS_FACTOR: u64 = 2;

/// Fallback throughput floor when `BENCH_fork.json` is absent: the
/// serial delta-fork default rate recorded there at commit fc95aeb.
const FALLBACK_FORK_INJ_PER_SEC: f64 = 246.09264152568383;

fn smoke() -> bool {
    std::env::var_os("ARGUS_BENCH_SMOKE").is_some()
}

/// `default_inj_per_sec` from the repo-root `BENCH_fork.json`.
fn fork_baseline() -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fork.json");
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| Json::parse(&s).ok())
        .and_then(|doc| doc.get("default_inj_per_sec").and_then(Json::as_f64))
        .unwrap_or(FALLBACK_FORK_INJ_PER_SEC)
}

fn main() {
    let injections: usize = std::env::var("ARGUS_INJECTIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke() { 2_000 } else { 1_000_000 });
    let shards: usize = std::env::var("ARGUS_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1));

    // Tuned default: stress_xl runs ~100k golden cycles, so 8_000 yields
    // ~13 checkpoints — dense enough to bound replay, sparse enough that
    // snapshot transitions (the expensive cross-snapshot page rewrites)
    // stay rare under arm-cycle-sorted leases.
    let snapshot_every: u64 = std::env::var("ARGUS_SNAPSHOT_EVERY")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(8_000);

    let w = argus_workloads::stress_xl();
    let working_set = u64::from(w.min_mem_bytes);
    assert!(working_set >= 1 << 24, "stress_xl is the XL tier");
    let cfg = CampaignConfig {
        injections,
        seed: 0x5CA1E,
        snapshot_every: Some(snapshot_every),
        ..Default::default()
    };
    // Large leases let the arm-cycle sort group many injections per
    // snapshot (results are lease-size-invariant; this is pure locality).
    let ocfg = OrchestratorConfig { shards, chunk: 4096, ..Default::default() };

    println!(
        "== out-of-core store scale ({} injections, {shards} shards, stress_xl) ==",
        injections
    );
    if smoke() {
        println!("(smoke mode: shrunk campaign, RSS ceiling only, no throughput gate)");
    }

    // RssAnon before the campaign is the process baseline (binary,
    // runtime, bench harness); everything the campaign adds on top —
    // golden run, store build, per-shard workspaces, page caches — is
    // the growth under test. A sampler thread tracks the peak, since
    // /proc/self/status has no high-water mark for RssAnon.
    let rss_before = argus_bench::anon_rss_bytes().unwrap_or(0);
    let sampling = AtomicBool::new(true);
    let stop = AtomicBool::new(false);
    let progress = Progress::new(shards);
    let (rep, secs, rss_anon_peak) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0u64;
            while sampling.load(std::sync::atomic::Ordering::Relaxed) {
                peak = peak.max(argus_bench::anon_rss_bytes().unwrap_or(0));
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            peak.max(argus_bench::anon_rss_bytes().unwrap_or(0))
        });
        let t = Instant::now();
        let rep =
            run_sharded(&w, &cfg, &ocfg, &stop, &progress).expect("store-scale campaign runs");
        let secs = t.elapsed().as_secs_f64();
        sampling.store(false, std::sync::atomic::Ordering::Relaxed);
        (rep, secs, sampler.join().expect("sampler thread"))
    });
    let rss_growth = rss_anon_peak.saturating_sub(rss_before);
    // One working-set-sized actor per shard (the reused workspace), plus
    // the golden-run/prepare context and the inert-fork template; 2x per
    // actor covers allocator slack and non-image state. No snapshot term.
    let rss_budget = (shards as u64 + 2) * RSS_FACTOR * working_set;

    assert_eq!(rep.completed, injections, "campaign must complete");
    assert!(rep.snapshots > 1, "expected golden-run checkpoints, got {}", rep.snapshots);
    let rate = injections as f64 / secs;
    let baseline = fork_baseline();
    println!(
        "{injections} injections in {secs:.1}s = {rate:.1} inj/s ({} snapshot checkpoints)",
        rep.snapshots
    );
    println!(
        "campaign anon-RSS growth {:.1} MiB (budget {:.1} MiB = {} actors x {RSS_FACTOR}x {:.0} MiB working set)",
        rss_growth as f64 / (1 << 20) as f64,
        rss_budget as f64 / (1 << 20) as f64,
        shards + 2,
        working_set as f64 / (1 << 20) as f64,
    );

    let json = Json::obj()
        .set("bench", "store_scale")
        .set("smoke", smoke())
        .set("workload", "stress_xl")
        .set("injections", injections as u64)
        .set("shards", shards as u64)
        .set("snapshot_every", snapshot_every)
        .set("snapshots", rep.snapshots)
        .set("seconds", secs)
        .set("injections_per_second", rate)
        .set("fork_baseline_inj_per_sec", baseline)
        .set("working_set_bytes", working_set)
        .set("anon_rss_before_bytes", rss_before)
        .set("anon_rss_peak_bytes", rss_anon_peak)
        .set("anon_rss_growth_bytes", rss_growth)
        .set("anon_rss_budget_bytes", rss_budget)
        .set("peak_rss_bytes", argus_bench::peak_rss_bytes().unwrap_or(0));
    let text = json.to_string_compact();
    Json::parse(&text).expect("bench emitted invalid JSON");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    std::fs::write(out, &text).expect("write BENCH_store.json");
    println!("wrote BENCH_store.json");

    // The RSS ceiling holds in smoke mode too (it is the CI job's whole
    // point); only the absolute throughput gate needs the full campaign.
    assert!(
        rss_growth <= rss_budget,
        "RSS gate: campaign anon-RSS growth {rss_growth} B exceeds {rss_budget} B \
         ({} actors x {RSS_FACTOR}x {working_set} B working set) — the store is not out of core",
        shards + 2,
    );
    if !smoke() {
        assert!(
            rate >= baseline,
            "throughput gate: {rate:.1} inj/s on the XL tier fell below the serial \
             delta-fork baseline {baseline:.1} inj/s from BENCH_fork.json"
        );
    }
}
