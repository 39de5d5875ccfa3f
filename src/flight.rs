//! Anomaly detection and forensic bundles for the flight recorder.
//!
//! The recorder itself ([`crate::trace::FlightRecorder`]) lives in
//! `cbft-trace`; this module is the policy layer that sits above it in
//! the CLI and the `cbftd` server: it inspects a finished run for the
//! anomaly signals the system already computes — digest mismatches and
//! divergence localization, escalation, spot-check mismatches, withheld
//! outputs, lost workers, suspicion-band crossings, admission rejection
//! bursts — and, when any fire, writes a self-contained **forensic
//! bundle** under `--flight-dir`. Detection runs on every run; the
//! recorder, whose rings a bundle is written from, is attached only
//! under `--flight-dir`.
//!
//! Bundle layout (one directory per anomalous run):
//!
//! ```text
//! <flight-dir>/<bundle-name>/
//!   manifest.json      anomalies, seed, run context, repro command
//!   repro.sh           one-shot re-execution against the bundled copies
//!   script.pig         the exact script source
//!   input_<name>.csv   the exact input data
//!   sim/events.log     canonical flight-recorder events (deterministic)
//!   sim/metrics.prom   sim-domain metrics, Prometheus exposition
//!   sim/metrics.json   the same snapshot as JSON
//!   sim/health.txt     the fault-forensics health report
//! ```
//!
//! Everything under `sim/`, plus the script and input copies, is a pure
//! function of the simulation and therefore byte-identical across
//! `--threads` / `--compute-threads` settings; host-dependent fields
//! (thread counts, the repro command) live only in `manifest.json` and
//! `repro.sh`.

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::core::{Behavior, ParallelOutcome, Replication, ScriptOutcome, VerifyMode};
use crate::metrics::{json_snapshot, names, prometheus_text, HealthReport, SampleValue, Snapshot};
use crate::trace::{canonical_dump, TraceEvent};

/// The anomaly classes the detector recognizes. Names are stable: they
/// appear in manifests, metrics labels and test assertions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnomalyKind {
    /// A replica's digests contradicted an established quorum.
    DigestMismatch,
    /// A replica wedged before completing every job.
    ReplicaOmission,
    /// A digest conflict at a key that never reached a quorum.
    DigestConflict,
    /// Chunk/record-level divergence localization fired.
    Divergence,
    /// The run escalated past its first verification round.
    Escalation,
    /// A trusted spot-check contradicted a recorded digest.
    SpotCheckMismatch,
    /// The run finished without publishing a verified output.
    OutputWithheld,
    /// A server slot worker died mid-job.
    WorkerLost,
    /// A node's suspicion level crossed into the Med band or above.
    SuspicionCrossing,
    /// A sustained burst of `QueueFull`/`QuotaExceeded` rejections.
    RejectionBurst,
}

impl AnomalyKind {
    /// Stable snake_case name (manifest / metrics label / assertions).
    pub fn name(self) -> &'static str {
        match self {
            AnomalyKind::DigestMismatch => "digest_mismatch",
            AnomalyKind::ReplicaOmission => "replica_omission",
            AnomalyKind::DigestConflict => "digest_conflict",
            AnomalyKind::Divergence => "divergence",
            AnomalyKind::Escalation => "escalation",
            AnomalyKind::SpotCheckMismatch => "spot_check_mismatch",
            AnomalyKind::OutputWithheld => "output_withheld",
            AnomalyKind::WorkerLost => "worker_lost",
            AnomalyKind::SuspicionCrossing => "suspicion_crossing",
            AnomalyKind::RejectionBurst => "rejection_burst",
        }
    }
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One detected anomaly: a class plus a human-readable detail line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Anomaly {
    /// The anomaly class.
    pub kind: AnomalyKind,
    /// What exactly fired, e.g. `deviant replicas {0}`.
    pub detail: String,
}

impl Anomaly {
    fn new(kind: AnomalyKind, detail: impl Into<String>) -> Self {
        Anomaly {
            kind,
            detail: detail.into(),
        }
    }
}

/// Inspects a `--threads`-path outcome (plus the sim-domain metrics
/// snapshot, when metrics ran) for anomaly signals. Deterministic: every
/// input is itself identical across thread counts.
pub fn detect_parallel_anomalies(
    outcome: &ParallelOutcome,
    snapshot: Option<&Snapshot>,
) -> Vec<Anomaly> {
    let mut out = Vec::new();
    if !outcome.deviant_replicas().is_empty() {
        out.push(Anomaly::new(
            AnomalyKind::DigestMismatch,
            format!("deviant replicas {:?}", outcome.deviant_replicas()),
        ));
    }
    if !outcome.omitted_replicas().is_empty() {
        out.push(Anomaly::new(
            AnomalyKind::ReplicaOmission,
            format!("omitted replicas {:?}", outcome.omitted_replicas()),
        ));
    }
    if !outcome.conflict_replicas().is_empty() {
        out.push(Anomaly::new(
            AnomalyKind::DigestConflict,
            format!("conflict replicas {:?}", outcome.conflict_replicas()),
        ));
    }
    if outcome.replicas_per_round().len() > 1 || outcome.reexec().escalated {
        out.push(Anomaly::new(
            AnomalyKind::Escalation,
            format!("replicas per round {:?}", outcome.replicas_per_round()),
        ));
    }
    if outcome.reexec().mismatched > 0 {
        out.push(Anomaly::new(
            AnomalyKind::SpotCheckMismatch,
            format!(
                "{} of {} re-executed spot checks mismatched",
                outcome.reexec().mismatched,
                outcome.reexec().reexecuted
            ),
        ));
    }
    if !outcome.verified() {
        out.push(Anomaly::new(
            AnomalyKind::OutputWithheld,
            format!(
                "run not verified under {} mode",
                outcome.verify_mode().name()
            ),
        ));
    }
    if let Some(snap) = snapshot {
        out.extend(snapshot_anomalies(snap));
    }
    out
}

/// Inspects a sequential-pipeline outcome for the same signals.
pub fn detect_sequential_anomalies(outcome: &ScriptOutcome) -> Vec<Anomaly> {
    let mut out = Vec::new();
    if outcome.deviant_replica_runs() > 0 {
        out.push(Anomaly::new(
            AnomalyKind::DigestMismatch,
            format!("{} deviant replica runs", outcome.deviant_replica_runs()),
        ));
    }
    if outcome.omitted_replica_runs() > 0 {
        out.push(Anomaly::new(
            AnomalyKind::ReplicaOmission,
            format!("{} omitted replica runs", outcome.omitted_replica_runs()),
        ));
    }
    if outcome.attempts() > 1 {
        out.push(Anomaly::new(
            AnomalyKind::Escalation,
            format!("{} attempts", outcome.attempts()),
        ));
    }
    if !outcome.verified() {
        out.push(Anomaly::new(
            AnomalyKind::OutputWithheld,
            "run not verified".to_owned(),
        ));
    }
    out
}

/// Anomalies visible only in the metrics snapshot: divergence
/// localization gauges and suspicion-band crossings. Sim-domain gauges,
/// so detection is thread-count independent.
fn snapshot_anomalies(snap: &Snapshot) -> Vec<Anomaly> {
    let mut out = Vec::new();
    let mut diverged: Vec<String> = Vec::new();
    let mut crossed: Vec<String> = Vec::new();
    for s in &snap.samples {
        match s.name {
            n if n == names::DIVERGENCE_FIRST_RECORD => {
                if let Some((_, key)) = s.labels.iter().find(|(k, _)| *k == "key") {
                    diverged.push(key.clone());
                }
            }
            n if n == names::SUSPICION_BAND => {
                // Band rank 2 = Med: the hybrid tier's escalation line.
                if matches!(s.value, SampleValue::Gauge(v) if v >= 2) {
                    let node = s
                        .labels
                        .iter()
                        .find(|(k, _)| *k == "node")
                        .map(|(_, v)| v.clone())
                        .unwrap_or_default();
                    crossed.push(node);
                }
            }
            _ => {}
        }
    }
    diverged.sort();
    crossed.sort();
    if !diverged.is_empty() {
        out.push(Anomaly::new(
            AnomalyKind::Divergence,
            format!("divergence localized at keys [{}]", diverged.join(", ")),
        ));
    }
    if !crossed.is_empty() {
        out.push(Anomaly::new(
            AnomalyKind::SuspicionCrossing,
            format!("suspicion band >= med on nodes [{}]", crossed.join(", ")),
        ));
    }
    out
}

/// Detects sustained admission-rejection bursts on the server submit
/// path: `threshold` consecutive `QueueFull`/`QuotaExceeded` rejections
/// trip the anomaly; any acceptance resets the streak.
#[derive(Debug)]
pub struct RejectionBurstDetector {
    threshold: u64,
    streak: u64,
    bursts: u64,
}

impl RejectionBurstDetector {
    /// A detector tripping after `threshold` consecutive rejections.
    pub fn new(threshold: u64) -> Self {
        RejectionBurstDetector {
            threshold: threshold.max(1),
            streak: 0,
            bursts: 0,
        }
    }

    /// Records one backpressure rejection; returns an anomaly the moment
    /// a streak reaches the threshold (once per burst).
    pub fn rejected(&mut self) -> Option<Anomaly> {
        self.streak += 1;
        if self.streak == self.threshold {
            self.bursts += 1;
            return Some(Anomaly::new(
                AnomalyKind::RejectionBurst,
                format!("{} consecutive admission rejections", self.streak),
            ));
        }
        None
    }

    /// Records a successful admission, ending any streak.
    pub fn admitted(&mut self) {
        self.streak = 0;
    }

    /// Bursts tripped so far.
    pub fn bursts(&self) -> u64 {
        self.bursts
    }
}

/// The inputs to one forensic bundle, gathered by the CLI or server
/// after an anomalous run.
pub struct BundleSpec<'a> {
    /// Detected anomalies (non-empty).
    pub anomalies: &'a [Anomaly],
    /// The exact script source.
    pub script: &'a str,
    /// `(name, raw file contents)` for every input.
    pub inputs: &'a [(String, String)],
    /// The resolved simulation seed.
    pub seed: u64,
    /// Flight-recorder events drained after the run.
    pub events: &'a [TraceEvent],
    /// The run's metrics snapshot, if metrics ran. Only its sim-domain
    /// slice is written (the wall slice is host noise).
    pub snapshot: Option<&'a Snapshot>,
    /// The one-shot repro command, with paths as the user typed them.
    pub repro: String,
    /// Host-side context for the manifest: `(key, value)` pairs such as
    /// threads, verify mode, tenant or job id.
    pub context: Vec<(String, String)>,
}

/// Writes one forensic bundle directory named `name` under `flight_dir`,
/// creating parents as needed. Returns the bundle path.
///
/// # Errors
///
/// Any IO error, wrapped with the offending path.
pub fn write_bundle(
    flight_dir: &Path,
    name: &str,
    spec: &BundleSpec<'_>,
) -> Result<PathBuf, Box<dyn Error>> {
    let dir = flight_dir.join(name);
    let sim = dir.join("sim");
    std::fs::create_dir_all(&sim)
        .map_err(|e| format!("cannot create flight bundle dir '{}': {e}", sim.display()))?;

    write_file(&dir.join("script.pig"), spec.script)?;
    for (input_name, contents) in spec.inputs {
        write_file(&dir.join(format!("input_{input_name}.csv")), contents)?;
    }
    write_file(&sim.join("events.log"), &canonical_dump(spec.events))?;
    if let Some(snap) = spec.snapshot {
        let sim_snap = snap.sim_only();
        write_file(&sim.join("metrics.prom"), &prometheus_text(&sim_snap))?;
        write_file(&sim.join("metrics.json"), &json_snapshot(&sim_snap))?;
        write_file(
            &sim.join("health.txt"),
            &HealthReport::from_snapshot(&sim_snap).render(),
        )?;
    }
    write_file(&dir.join("repro.sh"), &render_repro_sh(spec))?;
    write_file(&dir.join("manifest.json"), &render_manifest(name, spec))?;
    Ok(dir)
}

/// `repro.sh`: re-executes against the bundled copies, so the bundle
/// reproduces the verdict even after the original files move.
fn render_repro_sh(spec: &BundleSpec<'_>) -> String {
    let mut cmd = vec!["cbft".to_owned(), "script.pig".to_owned()];
    for (name, _) in spec.inputs {
        cmd.push("--input".to_owned());
        cmd.push(format!("{name}=input_{name}.csv"));
    }
    cmd.extend(repro_flags_from(&spec.repro));
    format!(
        "#!/bin/sh\n\
         # One-shot repro of the anomalous run, against the bundled\n\
         # script/input copies. The original invocation is recorded in\n\
         # manifest.json.\n\
         cd \"$(dirname \"$0\")\"\n\
         exec {}\n",
        cmd.join(" ")
    )
}

/// Extracts the flag tail (everything after script and `--input` pairs)
/// from a rendered repro command, so `repro.sh` reuses the exact flags
/// while substituting the bundled file copies.
fn repro_flags_from(repro: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut it = repro.split_whitespace().skip(2); // "cbft <script>"
    while let Some(tok) = it.next() {
        if tok == "--input" {
            let _ = it.next();
            continue;
        }
        out.push(tok.to_owned());
    }
    out
}

fn render_manifest(name: &str, spec: &BundleSpec<'_>) -> String {
    use std::fmt::Write as _;

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bundle\": \"{}\",", esc(name));
    let _ = writeln!(out, "  \"seed\": {},", spec.seed);
    out.push_str("  \"anomalies\": [\n");
    for (i, a) in spec.anomalies.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"kind\": \"{}\", \"detail\": \"{}\"}}",
            a.kind.name(),
            esc(&a.detail)
        );
        out.push_str(if i + 1 < spec.anomalies.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"context\": {\n");
    for (i, (k, v)) in spec.context.iter().enumerate() {
        let _ = write!(out, "    \"{}\": \"{}\"", esc(k), esc(v));
        out.push_str(if i + 1 < spec.context.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  },\n");
    let inputs: Vec<String> = spec
        .inputs
        .iter()
        .map(|(n, _)| format!("\"{}\"", esc(n)))
        .collect();
    let _ = writeln!(out, "  \"inputs\": [{}],", inputs.join(", "));
    let _ = writeln!(out, "  \"repro\": \"{}\"", esc(&spec.repro));
    out.push_str("}\n");
    out
}

fn esc(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes `contents` to `path` with a path-context error.
fn write_file(path: &Path, contents: &str) -> Result<(), Box<dyn Error>> {
    std::fs::write(path, contents)
        .map_err(|e| format!("cannot write flight bundle file '{}': {e}", path.display()).into())
}

/// Writes a CLI output file (`--metrics`, `--metrics-json`, `--trace`),
/// creating missing parent directories first. Errors carry the path and
/// the flag that asked for it.
pub fn write_output(flag: &str, path: &str, contents: &str) -> Result<(), Box<dyn Error>> {
    let p = Path::new(path);
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| {
                format!(
                    "cannot create {flag} parent directory '{}': {e}",
                    parent.display()
                )
            })?;
        }
    }
    std::fs::write(p, contents)
        .map_err(|e| format!("cannot write {flag} output '{}': {e}", p.display()).into())
}

/// Renders a fault spec the way `--fault` parses it.
pub fn render_fault(node: usize, behavior: Behavior) -> String {
    match behavior {
        Behavior::Commission { probability } if probability >= 1.0 => {
            format!("{node}:commission")
        }
        Behavior::Commission { probability } => format!("{node}:commission:{probability}"),
        Behavior::Omission { probability } if probability >= 1.0 => format!("{node}:omission"),
        Behavior::Omission { probability } => format!("{node}:omission:{probability}"),
        Behavior::Crashed => format!("{node}:crash"),
        Behavior::Honest => format!("{node}:honest"),
    }
}

fn render_replication(r: Replication) -> &'static str {
    match r {
        Replication::Optimistic => "optimistic",
        Replication::Quorum => "quorum",
        Replication::Full => "full",
        Replication::Exact(_) => "",
    }
}

/// Builds the exact one-shot `cbft` command reproducing a run: script
/// and input paths as the user typed them, plus every determinism-
/// relevant flag (seed, fault plan, verification tier, thread counts).
pub fn repro_command(opts: &crate::cli::CliOptions) -> String {
    let mut cmd = vec!["cbft".to_owned(), opts.script.clone()];
    for (name, path) in &opts.inputs {
        cmd.push("--input".to_owned());
        cmd.push(format!("{name}={path}"));
    }
    cmd.push("--seed".to_owned());
    cmd.push(opts.seed.to_string());
    cmd.push("--f".to_owned());
    cmd.push(opts.f.to_string());
    match opts.replication {
        Replication::Exact(n) => {
            cmd.push("--replication".to_owned());
            cmd.push(n.to_string());
        }
        r => {
            cmd.push("--replication".to_owned());
            cmd.push(render_replication(r).to_owned());
        }
    }
    cmd.push("--nodes".to_owned());
    cmd.push(opts.nodes.to_string());
    cmd.push("--slots".to_owned());
    cmd.push(opts.slots.to_string());
    cmd.push("--points".to_owned());
    cmd.push(opts.points.to_string());
    if opts.granularity != usize::MAX {
        cmd.push("--granularity".to_owned());
        cmd.push(opts.granularity.to_string());
    }
    for &(node, behavior) in &opts.faults {
        cmd.push("--fault".to_owned());
        cmd.push(render_fault(node, behavior));
    }
    if opts.combiners {
        cmd.push("--combiners".to_owned());
    }
    if opts.optimize {
        cmd.push("--optimize".to_owned());
    }
    if let Some(threads) = opts.threads {
        cmd.push("--threads".to_owned());
        cmd.push(threads.to_string());
    }
    if let Some(n) = opts.compute_threads {
        cmd.push("--compute-threads".to_owned());
        cmd.push(n.to_string());
    }
    if opts.verify_mode != VerifyMode::Replicate {
        cmd.push("--verify-mode".to_owned());
        cmd.push(opts.verify_mode.name().to_owned());
    }
    if let Some(rate) = opts.sample_rate {
        cmd.push("--sample-rate".to_owned());
        cmd.push(rate.to_string());
    }
    cmd.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejection_burst_trips_once_per_streak() {
        let mut det = RejectionBurstDetector::new(3);
        assert!(det.rejected().is_none());
        assert!(det.rejected().is_none());
        let anomaly = det.rejected().expect("third consecutive rejection trips");
        assert_eq!(anomaly.kind, AnomalyKind::RejectionBurst);
        assert!(det.rejected().is_none(), "same burst does not re-trip");
        det.admitted();
        assert!(det.rejected().is_none(), "streak reset by admission");
        assert_eq!(det.bursts(), 1);
    }

    #[test]
    fn fault_specs_round_trip_through_the_parser() {
        for (node, behavior) in [
            (0, Behavior::Commission { probability: 1.0 }),
            (3, Behavior::Commission { probability: 0.5 }),
            (2, Behavior::Omission { probability: 1.0 }),
            (7, Behavior::Crashed),
        ] {
            let spec = render_fault(node, behavior);
            let parsed = crate::cli::parse_fault(&spec).expect("rendered spec parses");
            assert_eq!(parsed, (node, behavior));
        }
    }

    #[test]
    fn repro_command_round_trips_through_parse_args() {
        let opts = crate::cli::parse_args(
            [
                "job.pig",
                "--input",
                "edges=/tmp/edges.csv",
                "--seed",
                "42",
                "--threads",
                "2",
                "--verify-mode",
                "hybrid",
                "--sample-rate",
                "0.5",
                "--fault",
                "0:commission",
                "--granularity",
                "8",
            ]
            .iter()
            .map(|s| (*s).to_owned()),
        )
        .unwrap();
        let cmd = repro_command(&opts);
        let reparsed =
            crate::cli::parse_args(cmd.split_whitespace().skip(1).map(|s| s.to_owned())).unwrap();
        assert_eq!(reparsed, opts, "repro command is an exact round trip");
    }

    #[test]
    fn manifest_and_repro_sh_render() {
        let anomalies = vec![Anomaly::new(AnomalyKind::DigestMismatch, "deviant {0}")];
        let spec = BundleSpec {
            anomalies: &anomalies,
            script: "a = LOAD 'x' AS (u);",
            inputs: &[("edges".to_owned(), "1,2\n".to_owned())],
            seed: 7,
            events: &[],
            snapshot: None,
            repro: "cbft job.pig --input edges=/tmp/e.csv --seed 7 --threads 2".to_owned(),
            context: vec![("threads".to_owned(), "2".to_owned())],
        };
        let manifest = render_manifest("bundle-seed7", &spec);
        assert!(manifest.contains("\"digest_mismatch\""));
        assert!(manifest.contains("\"seed\": 7"));
        let sh = render_repro_sh(&spec);
        assert!(sh.contains("--input edges=input_edges.csv"), "{sh}");
        assert!(sh.contains("--seed 7 --threads 2"), "{sh}");
        assert!(!sh.contains("/tmp/e.csv"), "bundled copy substituted");
    }
}
