//! `argus-perf`: the repository benchmark.
//!
//! Runs named workloads end to end through the campaign engine and the
//! daemon, prints every metric with its unit, checks that the outputs are
//! correct, and ends with one JSON line. `--trace` adds the per-layer
//! numbers (serial replay, layer microbenchmarks, client-side spans) and
//! writes the spans to the output file. See `README.md` beside this crate.

mod campaign;
mod daemon;
mod host;
mod layers;
mod memory;
mod metrics;
mod stats;
mod trace;

use argus_orchestrator::Json;
use argus_sim::fault::FaultKind;
use campaign::CampaignSpec;
use host::HostSpeed;
use metrics::{MetricDef, Recorder, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use trace::Tracer;

const USAGE: &str = "usage: argus-perf [--seed S] [--workload W] [--seconds T] \
[--trace [0|1]] [--quick] [--out FILE]
  workloads (all, in this order, when --workload is absent):
    table1_cold pegwit_permanent xl_transient daemon_mix";

/// Measured window per workload when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 20.0;

/// The benchmark workloads, in run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Table 1 campaign as `argus campaign` runs it: every injection
    /// cold-boots.
    Table1Cold,
    /// Permanent faults on pegwit, forked from mapped snapshots.
    PegwitPermanent,
    /// Transient faults on the 16 MiB XL tier, forked from mapped
    /// snapshots.
    XlTransient,
    /// Open-loop job stream into the daemon with a remote worker.
    DaemonMix,
}

/// Every workload, in the fixed run order.
pub const WORKLOADS: [WorkloadId; 4] = [
    WorkloadId::Table1Cold,
    WorkloadId::PegwitPermanent,
    WorkloadId::XlTransient,
    WorkloadId::DaemonMix,
];

impl WorkloadId {
    /// The workload's name on the command line and in output.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Table1Cold => "table1_cold",
            WorkloadId::PegwitPermanent => "pegwit_permanent",
            WorkloadId::XlTransient => "xl_transient",
            WorkloadId::DaemonMix => "daemon_mix",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// The campaign a campaign workload runs; `None` for the daemon.
    fn campaign(self) -> Option<CampaignSpec> {
        let spec = |workload, kind, snapshot_every, job_n, table1_coverage| CampaignSpec {
            name: self.name(),
            workload,
            kind,
            snapshot_every,
            job_n,
            table1_coverage,
        };
        match self {
            WorkloadId::Table1Cold => {
                Some(spec(argus_workloads::stress, FaultKind::Transient, None, 1000, 0.980))
            }
            WorkloadId::PegwitPermanent => Some(spec(
                argus_workloads::pegwit::pegwit,
                FaultKind::Permanent,
                Some(1000),
                250,
                0.988,
            )),
            WorkloadId::XlTransient => Some(spec(
                argus_workloads::stress_xl,
                FaultKind::Transient,
                Some(8000),
                1000,
                0.980,
            )),
            WorkloadId::DaemonMix => None,
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Opts {
    seed: u64,
    workloads: Vec<WorkloadId>,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 1,
        workloads: WORKLOADS.to_vec(),
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut args = args.into_iter().peekable();
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .ok()
                    .filter(|&s: &u64| s < 1 << 40)
                    .ok_or("--seed must be an integer below 2^40")?;
            }
            "--workload" => {
                let w = value("--workload")?;
                o.workloads = vec![WorkloadId::parse(&w).ok_or(format!("unknown workload `{w}`"))?];
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s > 0.0 && s <= 600.0)
                    .ok_or("--seconds must be a number in (0, 600]")?;
            }
            "--out" => o.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => o.quick = true,
            "--trace" => match args.peek().map(String::as_str) {
                Some("0" | "1") => o.trace = args.next().as_deref() == Some("1"),
                _ => o.trace = true,
            },
            _ => return Err(format!("unknown argument `{a}`")),
        }
    }
    Ok(o)
}

/// Shared run settings.
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured window per workload.
    pub seconds: f64,
    /// Traced run (per-layer metrics).
    pub trace: bool,
    /// Tiny sizes for a smoke run.
    pub quick: bool,
    /// Campaign worker threads, `min(2, cores)`.
    pub shards: usize,
    /// Scratch directory for daemon state.
    pub tmp: PathBuf,
    /// Span recorder (records only when tracing).
    pub tracer: Tracer,
}

/// Everything one workload produced.
#[derive(Default)]
pub struct WorkloadRun {
    /// Metric values.
    pub rec: Recorder,
    /// Injections attempted.
    pub attempted: u64,
    /// Injections that failed (hung, quarantined, or in a failed job).
    pub failed: u64,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Informational lines (payload CRC, coverage, sample counts).
    pub notes: Vec<String>,
    /// Configuration summary for output rows.
    pub config: String,
    /// Host-speed samples taken during the run.
    pub host: HostSpeed,
}

/// The metrics a run reports: per-layer when traced, else end-to-end.
fn wanted(opts: &Opts) -> &'static [MetricDef] {
    if opts.trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the selected workloads; returns each one's results.
pub fn run(opts: &Opts, tmp: &Path) -> Vec<(WorkloadId, WorkloadRun)> {
    let ctx = Ctx {
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        quick: opts.quick,
        shards: host_cores().min(2),
        tmp: tmp.to_path_buf(),
        tracer: Tracer::new(opts.trace),
    };
    let mut results = Vec::new();
    for &id in &opts.workloads {
        eprintln!("argus-perf: {} (seed {}, {}s)", id.name(), opts.seed, opts.seconds);
        let mut out = WorkloadRun::default();
        for _ in 0..3 {
            out.host.sample(ctx.shards);
        }
        let res = match id.campaign() {
            Some(spec) => campaign::run(&spec, &ctx, &mut out),
            None => daemon::run(&ctx, &mut out),
        };
        if opts.trace {
            out.rec.set("bench.host_speed_single", out.host.single());
            out.rec.set("bench.host_speed_parallel", out.host.parallel());
        }
        match res {
            Err(e) => out.failures.push(e),
            Ok(()) => {
                for name in out.rec.missing(wanted(opts)) {
                    out.failures.push(format!("metric `{name}` was not measured"));
                }
            }
        }
        print_workload(id, &out);
        results.push((id, out));
    }
    if opts.trace {
        for ((workload, layer), s) in trace::self_seconds_by_layer(&ctx.tracer.spans()) {
            println!("# {workload} trace self time {layer} {s} s");
        }
    }
    let out_path = opts.out.clone().unwrap_or_else(|| default_out(opts));
    if let Err(e) = write_out(&out_path, &results, &ctx.tracer) {
        eprintln!("argus-perf: cannot write {}: {e}", out_path.display());
    }
    results
}

fn print_workload(id: WorkloadId, out: &WorkloadRun) {
    for (def, v) in out.rec.select(END_TO_END).into_iter().chain(out.rec.select(PER_LAYER)) {
        println!("{} {} {v} {}", id.name(), def.name, def.unit);
    }
    for note in &out.notes {
        println!("# {} {note}", id.name());
    }
    for f in &out.failures {
        println!("# {} CHECK FAILED: {f}", id.name());
        eprintln!("argus-perf: {} check failed: {f}", id.name());
    }
}

/// The final line: `correct`, `attempted`, `failed`, and the mode's
/// metrics (keyed `<workload>/<metric>` when several workloads ran).
fn result_line(opts: &Opts, results: &[(WorkloadId, WorkloadRun)]) -> Json {
    let mut metrics = Json::obj();
    for (id, out) in results {
        for (def, v) in out.rec.select(wanted(opts)) {
            let key = match results.len() {
                1 => def.name.to_owned(),
                _ => format!("{}/{}", id.name(), def.name),
            };
            metrics = metrics.set(&key, Json::obj().set("value", v).set("unit", def.unit));
        }
    }
    Json::obj()
        .set("correct", results.iter().all(|(_, o)| o.failures.is_empty()))
        .set("attempted", results.iter().map(|(_, o)| o.attempted).sum::<u64>())
        .set("failed", results.iter().map(|(_, o)| o.failed).sum::<u64>())
        .set("metrics", metrics)
}

/// Where build output lives: `$CARGO_TARGET_DIR`, else `target`.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn default_out(opts: &Opts) -> PathBuf {
    let which = match opts.workloads.as_slice() {
        [one] => one.name(),
        _ => "all",
    };
    let trace = if opts.trace { "-trace" } else { "" };
    target_dir().join("perf").join(format!("{which}-seed{}{trace}.json", opts.seed))
}

/// The commit being measured, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else { return head.to_owned() };
    read(name)
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            let packed = read("packed-refs")?;
            let line = packed.lines().find(|l| l.split_whitespace().nth(1) == Some(name))?;
            line.split_whitespace().next().map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Writes `{"rows": [...], "spans": [...]}`: one row per metric in the
/// `{layer, workload, config, unit, value, peak_rss_bytes, host_cores,
/// git_rev}` schema (plus the metric name), `layer` being `e2e` for
/// end-to-end metrics.
fn write_out(
    path: &Path,
    results: &[(WorkloadId, WorkloadRun)],
    tracer: &Tracer,
) -> std::io::Result<()> {
    let rev = git_rev();
    let peak = memory::read_status().hwm;
    let mut rows = Vec::new();
    for (id, out) in results {
        let e2e = out.rec.select(END_TO_END).into_iter().map(|(d, v)| ("e2e", d, v));
        let layer = out
            .rec
            .select(PER_LAYER)
            .into_iter()
            .map(|(d, v)| (d.name.split('.').next().unwrap_or(d.name), d, v));
        for (layer, def, v) in e2e.chain(layer) {
            rows.push(
                Json::obj()
                    .set("layer", layer)
                    .set("metric", def.name)
                    .set("workload", id.name())
                    .set("config", out.config.as_str())
                    .set("unit", def.unit)
                    .set("value", v)
                    .set("peak_rss_bytes", peak)
                    .set("host_cores", host_cores())
                    .set("git_rev", rev.as_str()),
            );
        }
    }
    let spans = tracer.spans().iter().map(trace::span_json).collect();
    let doc = Json::obj().set("rows", Json::Arr(rows)).set("spans", Json::Arr(spans));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.to_string_compact() + "\n")
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("argus-perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Campaigns write their mapped snapshot stores under the system temp
    // directory; point it into the build directory so every file the run
    // creates stays in the checkout, and remove it afterwards. Set before
    // any thread starts.
    let tmp = target_dir().join("perf").join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("argus-perf: cannot create {}: {e}", tmp.display());
        std::process::exit(2);
    }
    std::env::set_var("TMPDIR", &tmp);
    let results = run(&opts, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let line = result_line(&opts, &results);
    println!("{}", line.to_string_compact());
    let correct = line.get("correct").and_then(Json::as_bool) == Some(true);
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(xs: &[&str]) -> Result<Opts, String> {
        parse_args(xs.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_both_command_line_forms() {
        let o =
            args(&["--workload", "xl_transient", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(o.workloads, vec![WorkloadId::XlTransient]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        let o = args(&["--trace", "0", "--quick"]).unwrap();
        assert!(!o.trace && o.quick && o.workloads.len() == 4);
        let o = args(&["--seed", "3", "--trace"]).unwrap();
        assert!(o.trace);
        let o = args(&["--trace", "--out", "x.json"]).unwrap();
        assert!(o.trace && o.out == Some(PathBuf::from("x.json")));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    fn smoke(workload: WorkloadId, trace: bool) {
        let tmp = std::env::temp_dir().join(format!(
            "argus-perf-smoke-{}-{}-{trace}",
            std::process::id(),
            workload.name()
        ));
        let out = tmp.join("out.json");
        let opts = Opts {
            seed: 1,
            workloads: vec![workload],
            seconds: 1.0,
            trace,
            quick: true,
            out: Some(out.clone()),
        };
        let results = run(&opts, &tmp);
        let line = result_line(&opts, &results);
        let _ = std::fs::remove_dir_all(&tmp);
        let (_, run) = &results[0];
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let wanted = if trace { PER_LAYER } else { END_TO_END };
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, wanted.iter().map(|d| d.name).collect::<Vec<_>>());
        assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    }

    #[test]
    fn quick_table1_cold_traced() {
        smoke(WorkloadId::Table1Cold, true);
    }

    #[test]
    fn quick_daemon_mix() {
        smoke(WorkloadId::DaemonMix, false);
    }
}
