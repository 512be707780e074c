//! Every metric the benchmark can emit, with its unit.
//!
//! `BENCHMARK.json` at the repository root declares exactly these two
//! lists (a unit test keeps them in step). End-to-end metrics are measured
//! with tracing off; per-layer metrics come from the traced run.

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics: what a user of the campaign engine or the daemon
/// sees. Every workload reports all of them; compute timings are scaled
/// to the nominal host (see `host.rs`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("inj_per_s", "1/s"),
    m("job_p50_s", "s"),
    m("job_p90_s", "s"),
    m("peak_anon_rss_mib", "MiB"),
];

/// Per-layer metrics, named `<layer>.<quantity>`. A layer a workload does
/// not exercise reports 0 (no daemon on the campaign workloads, no
/// snapshot store without `snapshot_every`).
pub const PER_LAYER: &[MetricDef] = &[
    m("faults.prepare_s", "s"),
    m("snapshot.capture_s", "s"),
    m("snapshot.dedup_ratio", "fraction"),
    m("faults.inj_ms_p50", "ms"),
    m("faults.inj_ms_p99", "ms"),
    m("faults.inj_ms_mean", "ms"),
    m("faults.inj_ms_mean.unmasked_undetected", "ms"),
    m("faults.inj_ms_mean.unmasked_detected", "ms"),
    m("faults.inj_ms_mean.masked_undetected", "ms"),
    m("faults.inj_ms_mean.masked_detected", "ms"),
    m("faults.unexercised_frac", "fraction"),
    m("faults.serial_inj_per_s", "1/s"),
    m("machine.new_load_ms", "ms"),
    m("machine.digest_full_ms", "ms"),
    m("core.scrub_full_ms", "ms"),
    m("machine.armed_msteps_per_s", "Msteps/s"),
    m("core.checked_interp_msteps_per_s", "Msteps/s"),
    m("machine.block_msteps_per_s", "Msteps/s"),
    m("machine.interp_msteps_per_s", "Msteps/s"),
    m("core.checked_block_msteps_per_s", "Msteps/s"),
    m("machine.plan_hit_ratio", "fraction"),
    m("machine.predecode_hit_ratio", "fraction"),
    m("machine.plan_fallbacks", "count"),
    m("snapshot.restore_delta_ms", "ms"),
    m("snapshot.pages_rewritten_per_restore", "pages"),
    m("snapshot.full_restore_frac", "fraction"),
    m("snapshot.page_cache_hit_ratio", "fraction"),
    m("invariants.checks_per_inj", "count"),
    m("orchestrator.busy_pct", "%"),
    m("orchestrator.leases", "count"),
    m("orchestrator.steals", "count"),
    m("orchestrator.tail_imbalance_s", "s"),
    m("orchestrator.parallel_eff", "fraction"),
    m("server.submit_ms_p50", "ms"),
    m("server.queue_wait_s_p50", "s"),
    m("server.run_s_p50", "s"),
    m("server.report_fetch_ms_p50", "ms"),
    m("server.preemptions", "count"),
    m("remote.remote_chunk_frac", "fraction"),
    m("remote.expired_leases", "count"),
    m("remote.duplicate_completes", "count"),
    m("remote.artifact_fetches_per_job", "count"),
    m("memory.anon_rss_growth_mib", "MiB"),
    m("bench.generator_late_ms_max", "ms"),
    m("bench.trace_overhead_frac", "fraction"),
    m("bench.host_speed_single", "ratio"),
    m("bench.host_speed_parallel", "ratio"),
];

fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Metric values collected for one workload, in recording order.
#[derive(Debug, Default)]
pub struct Recorder {
    values: Vec<(&'static MetricDef, f64)>,
}

impl Recorder {
    /// Records `name`. Non-finite values (a ratio over no work) become 0.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared or already recorded name: both are bugs in
    /// the benchmark, caught by the smoke test.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        assert!(self.get(name).is_none(), "metric `{name}` recorded twice");
        self.values.push((def, if value.is_finite() { value } else { 0.0 }));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(d, _)| d.name == name).map(|&(_, v)| v)
    }

    /// `(definition, value)` for each declared metric of `defs` (missing
    /// ones are reported by [`Recorder::missing`]).
    pub fn select(&self, defs: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        defs.iter().filter_map(|d| self.get(d.name).map(|v| (d, v))).collect()
    }

    /// Declared metrics of `defs` that were never recorded.
    pub fn missing(&self, defs: &'static [MetricDef]) -> Vec<&'static str> {
        defs.iter().filter(|d| self.get(d.name).is_none()).map(|d| d.name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_orchestrator::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .iter()
            .map(|m| {
                let field =
                    |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn ours(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter().map(|d| (d.name.to_owned(), d.unit.to_owned())).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let names: Vec<&str> = crate::WORKLOADS.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate metric name");
        assert!(!valid_name("bad name") && !valid_name(".dot") && !valid_name(""));
    }

    #[test]
    fn recorder_rejects_duplicates_and_cleans_non_finite() {
        let mut r = Recorder::default();
        r.set("setup_s", f64::NAN);
        assert_eq!(r.get("setup_s"), Some(0.0));
        assert_eq!(
            r.missing(END_TO_END),
            vec!["inj_per_s", "job_p50_s", "job_p90_s", "peak_anon_rss_mib"]
        );
        let dup = std::panic::catch_unwind(move || r.set("setup_s", 1.0));
        assert!(dup.is_err());
    }
}
