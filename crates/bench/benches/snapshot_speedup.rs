//! Snapshot-forking throughput check.
//!
//! Runs the same serial campaign with snapshots off and at 1k/10k-cycle
//! intervals, asserts every configuration produces identical outcome
//! tallies (forking never changes results), and reports injections/sec
//! plus the speedup over cold boot. Results land in `BENCH_snapshot.json`
//! at the repo root, written before the speedup gate is checked so a
//! failing run is recorded too.
//!
//! The expected win scales with golden-run length: each cold-boot
//! injection replays ~3/8 of the golden run on average (arm cycles are
//! uniform over the first 3/4), which snapshots cut to at most the
//! interval. On `stress` (~7k cycles) a 10k interval leaves only the
//! cycle-0 checkpoint and buys nothing; on `pegwit` (~92k cycles) it
//! should clear 1.3x comfortably.

use argus_faults::campaign::{run_campaign, CampaignConfig};
use argus_faults::Outcome;
use argus_orchestrator::Json;
use argus_workloads::Workload;
use std::time::Instant;

struct Row {
    workload: &'static str,
    interval: Option<u64>,
    secs: f64,
    rate: f64,
    speedup: f64,
}

fn bench_workload(w: &Workload, name: &'static str, injections: usize, rows: &mut Vec<Row>) {
    let base_cfg = CampaignConfig { injections, ..Default::default() };
    let mut cold_rate = 0.0;
    let mut cold_counts: Vec<u64> = Vec::new();
    for interval in [None, Some(1_000u64), Some(10_000)] {
        let cfg = CampaignConfig { snapshot_every: interval, ..base_cfg.clone() };
        let t = Instant::now();
        let rep = run_campaign(w, &cfg);
        let secs = t.elapsed().as_secs_f64();
        let counts: Vec<u64> = Outcome::ALL.iter().map(|&o| rep.count(o) as u64).collect();
        match interval {
            None => {
                cold_counts = counts;
                cold_rate = injections as f64 / secs;
            }
            Some(every) => assert_eq!(
                counts, cold_counts,
                "{name}: snapshot-every={every} changed campaign results"
            ),
        }
        let rate = injections as f64 / secs;
        let speedup = if interval.is_some() { rate / cold_rate } else { 1.0 };
        println!(
            "{:>8} | {:>9} | {:>7.2}s | {:>8.1} inj/s | {:>5.2}x",
            name,
            interval.map_or("off".to_owned(), |e| format!("every {e}")),
            secs,
            rate,
            speedup,
        );
        rows.push(Row { workload: name, interval, secs, rate, speedup });
    }
}

fn main() {
    let injections =
        std::env::var("ARGUS_INJECTIONS").ok().and_then(|s| s.parse().ok()).unwrap_or(300);
    println!("== snapshot forking speedup ({injections} injections/config, serial engine) ==");
    println!("(ARGUS_INJECTIONS overrides the campaign size)\n");
    println!(
        "{:>8} | {:>9} | {:>8} | {:>14} | speedup",
        "workload", "snapshots", "time", "throughput"
    );

    let mut rows = Vec::new();
    bench_workload(&argus_workloads::stress(), "stress", injections, &mut rows);
    let pegwit = argus_workloads::pegwit::pegwit();
    bench_workload(&pegwit, "pegwit", injections, &mut rows);

    let best = rows
        .iter()
        .filter(|r| r.interval == Some(10_000))
        .map(|r| r.speedup)
        .fold(0.0f64, f64::max);
    println!("\nbest 10k-interval speedup: {best:.2}x (identical tallies everywhere)");

    let json = Json::obj()
        .set("injections", injections as u64)
        .set(
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj()
                            .set("workload", r.workload)
                            .set("snapshot_every", r.interval.map_or(Json::Null, Json::from))
                            .set("seconds", r.secs)
                            .set("injections_per_second", r.rate)
                            .set("speedup_vs_cold", r.speedup)
                    })
                    .collect(),
            ),
        )
        .set("best_10k_speedup", best);
    let text = json.to_string_compact();
    Json::parse(&text).expect("bench emitted invalid JSON");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_snapshot.json");
    std::fs::write(out, &text).expect("write BENCH_snapshot.json");
    println!("wrote BENCH_snapshot.json");
    assert!(
        best >= 1.3,
        "expected >= 1.3x from 10k-cycle snapshots on at least one workload, got {best:.2}x"
    );
}
