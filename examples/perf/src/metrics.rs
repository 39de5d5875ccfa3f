//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` at the
//! repository root is generated from these tables (`perf benchmark-json`)
//! and a unit test keeps the two equal.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::workloads::WORKLOADS;

/// One measured value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

pub type Metrics = BTreeMap<String, Metric>;

/// An end-to-end metric: something a user of `cbft`/`cbftd` sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of one layer; no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 15;

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The bounds are about three times the widest quartile spread seen over
/// ten seeds on the 2-core sandbox while its speed moved by 20% (times
/// 2–9%, memory under 1%; three studies of 50 runs each), not what a quiet
/// host would allow: a tighter bound there rejects the same code measured
/// twice.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("verified_s", "s", "lower", 0.25),
    e2e("records_per_s", "rec/s", "higher", 0.25),
    e2e("cpu_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
    e2e("jobs_per_s", "jobs/s", "higher", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 68] = [
    // cli
    layer("cli.read_parse_s", "s", "lower"),
    layer("cli.parse_mrec_per_s", "Mrec/s", "higher"),
    layer("cli.render_s", "s", "lower"),
    layer("cli.run_inproc_s", "s", "lower"),
    layer("cli.unattributed_s", "s", "lower"),
    layer("cli.process_overhead_s", "s", "lower"),
    // dataflow
    layer("dataflow.parse_plan_compile_us", "us", "lower"),
    layer("dataflow.mr_jobs", "count", "lower"),
    layer("dataflow.interpret_s", "s", "lower"),
    layer("dataflow.batch_from_records_mrec_per_s", "Mrec/s", "higher"),
    layer("dataflow.batch_to_records_mrec_per_s", "Mrec/s", "higher"),
    layer("dataflow.group_rows_mrec_per_s", "Mrec/s", "higher"),
    layer("dataflow.group_batch_mrec_per_s", "Mrec/s", "higher"),
    layer("dataflow.order_rows_mrec_per_s", "Mrec/s", "higher"),
    layer("dataflow.order_batch_mrec_per_s", "Mrec/s", "higher"),
    layer("dataflow.filter_batch_mrec_per_s", "Mrec/s", "higher"),
    // digest
    layer("digest.sha256_mb_per_s", "MB/s", "higher"),
    layer("digest.row_stream_mrec_per_s", "Mrec/s", "higher"),
    layer("digest.batch_stream_mrec_per_s", "Mrec/s", "higher"),
    layer("digest.merkle_build_us", "us", "lower"),
    layer("digest.hardware_accelerated", "bool", "higher"),
    // sim
    layer("sim.event_queue_mops", "Mop/s", "higher"),
    // mapreduce
    layer("mapreduce.single_job_s", "s", "lower"),
    layer("mapreduce.single_job_rows_s", "s", "lower"),
    layer("mapreduce.map_only_s", "s", "lower"),
    layer("mapreduce.shuffle_reduce_s", "s", "lower"),
    layer("mapreduce.records_cloned", "count", "lower"),
    layer("mapreduce.bytes_encoded", "bytes", "lower"),
    layer("mapreduce.digest_bytes_hashed", "bytes", "lower"),
    layer("mapreduce.tasks_dispatched", "count", "lower"),
    layer("mapreduce.tasks_stolen", "count", "higher"),
    layer("mapreduce.pool_queue_peak", "count", "lower"),
    layer("mapreduce.clones_per_input_record", "ratio", "lower"),
    layer("mapreduce.pool_dispatch_ns", "ns", "lower"),
    // core
    layer("core.load_input_s", "s", "lower"),
    layer("core.run_s", "s", "lower"),
    layer("core.replica_s", "s", "lower"),
    layer("core.replica_rows_s", "s", "lower"),
    layer("core.vs_reference_x", "x", "lower"),
    layer("core.replication_tax_x", "x", "lower"),
    layer("core.replicas_run", "count", "lower"),
    layer("core.rounds", "count", "lower"),
    layer("core.digest_reports", "count", "lower"),
    layer("core.verifier_ingest_us", "us", "lower"),
    layer("core.spotcheck_sampled", "count", "lower"),
    layer("core.spotcheck_reexecuted", "count", "lower"),
    layer("core.spotcheck_records", "count", "lower"),
    layer("core.sim_latency_s", "s", "lower"),
    // server
    layer("server.job_exec_ms_p50", "ms", "lower"),
    layer("server.job_exec_ms_p95", "ms", "lower"),
    layer("server.queue_ms_p50", "ms", "lower"),
    layer("server.queue_ms_p95", "ms", "lower"),
    layer("server.queue_full_retries", "count", "lower"),
    layer("server.min_job_ms", "ms", "lower"),
    layer("server.fairqueue_push_pop_ns", "ns", "lower"),
    layer("server.open_r60_latency_ms_p50", "ms", "lower"),
    layer("server.open_r60_latency_ms_p95", "ms", "lower"),
    layer("server.open_r90_latency_ms_p50", "ms", "lower"),
    layer("server.open_r90_latency_ms_p95", "ms", "lower"),
    layer("server.open_r60_gen_late_ms_max", "ms", "lower"),
    layer("server.open_r90_backlog_end", "count", "lower"),
    layer("server.open_rejected_share", "ratio", "lower"),
    // trace, metrics, and the benchmark's own spans
    layer("trace.capture_overhead_share", "ratio", "lower"),
    layer("metrics.enabled_overhead_share", "ratio", "lower"),
    layer("perf.trace_overhead_share", "ratio", "lower"),
    // the traced run's own check of the path it replays
    layer("perf.failed_share", "ratio", "lower"),
    layer("perf.child_verified_s", "s", "lower"),
    layer("perf.host_ref_s", "s", "lower"),
];

/// Every per-layer metric at zero: a workload that does not exercise a
/// layer still reports the layer's names.
pub fn per_layer_zeroed() -> Metrics {
    PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name.to_owned(),
                Metric {
                    value: 0.0,
                    unit: m.unit.to_owned(),
                },
            )
        })
        .collect()
}

/// Sets a per-layer metric declared in [`PER_LAYER`].
pub fn set(metrics: &mut Metrics, name: &str, value: f64) {
    let slot = metrics
        .get_mut(name)
        .unwrap_or_else(|| panic!("metric '{name}' is not declared in PER_LAYER"));
    slot.value = value;
}

/// An end-to-end metric declared in [`END_TO_END`].
pub fn end_to_end(name: &str, value: f64) -> (String, Metric) {
    let def = END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not declared in END_TO_END"));
    (
        name.to_owned(),
        Metric {
            value,
            unit: def.unit.to_owned(),
        },
    )
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"examples/perf/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"examples/perf\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let total = names.len();
        for n in &names {
            assert!(
                n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_at_the_repository_root_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `perf benchmark-json > BENCHMARK.json`"
        );
    }
}
