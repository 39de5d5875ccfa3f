//! End-of-run fault-forensics health report.
//!
//! [`HealthReport`] is assembled from a metrics [`Snapshot`] by scanning
//! the conventional ClusterBFT metric names (see [`names`]): per-replica
//! digest mismatch / omission counters, per-node suspicion band
//! transitions, per-verification-point lag histograms, and per-round
//! escalation cost. Rendering is purely a function of the (sorted)
//! snapshot, so the report is byte-stable for a deterministic run.

use crate::histogram::Histogram;
use crate::registry::{SampleValue, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Conventional metric names shared by the instrumented crates and the
/// health-report scanner. Keeping them here (the bottom of the crate
/// graph) lets cbft-core, cbft-mapreduce and the CLI agree without a
/// dependency cycle.
pub mod names {
    /// Counter, labels `{replica}`: digest reports streamed per replica.
    pub const REPLICA_REPORTS: &str = "cbft_replica_reports_total";
    /// Counter, labels `{replica}`: verification points where the
    /// replica's digest diverged from the quorum.
    pub const REPLICA_MISMATCHES: &str = "cbft_replica_mismatches_total";
    /// Counter, labels `{replica}`: verification points the replica
    /// never reported (omission faults).
    pub const REPLICA_OMISSIONS: &str = "cbft_replica_omissions_total";
    /// Counter, labels `{replica}`: verification points where the
    /// replica is party to an *unresolved* digest conflict — the key
    /// never reached a quorum, so blame cannot be assigned to one side,
    /// but the conflict set provably contains a faulty replica (the
    /// paper's §4.2 fault sets).
    pub const REPLICA_CONFLICTS: &str = "cbft_replica_conflicts_total";
    /// Histogram, labels `{key}`: report→quorum lag per verification
    /// point, in sim µs.
    pub const VERIFICATION_LAG_US: &str = "cbft_verification_lag_us";
    /// Gauge, labels `{key}`: first chunk implicated by Merkle mismatch
    /// localization at a diverging verification point.
    pub const DIVERGENCE_FIRST_CHUNK: &str = "cbft_divergence_first_chunk";
    /// Gauge, labels `{key}`: last implicated chunk (inclusive).
    pub const DIVERGENCE_LAST_CHUNK: &str = "cbft_divergence_last_chunk";
    /// Gauge, labels `{key}`: first record index implicated by Merkle
    /// mismatch localization — the recomputation window's start.
    pub const DIVERGENCE_FIRST_RECORD: &str = "cbft_divergence_first_record";
    /// Gauge, labels `{key}`: last implicated record index (inclusive).
    pub const DIVERGENCE_LAST_RECORD: &str = "cbft_divergence_last_record";
    /// Counter, labels `{node, from, to}`: suspicion band transitions.
    pub const SUSPICION_TRANSITIONS: &str = "cbft_suspicion_transitions_total";
    /// Gauge, labels `{node}`: final suspicion band rank (0=None..3=High).
    pub const SUSPICION_BAND: &str = "cbft_suspicion_band";
    /// Gauge, labels `{round}`: replicas launched in an escalation round.
    pub const ROUND_REPLICAS: &str = "cbft_round_replicas";
    /// Counter, labels `{round}`: output records produced in a round.
    pub const ROUND_RECORDS: &str = "cbft_round_records_total";
    /// Gauge, labels `{round}`: 1 if the round reached a verified quorum.
    pub const ROUND_VERIFIED: &str = "cbft_round_verified";
    /// Histogram, labels `{replica, kind}`: per-task sim latency, µs.
    pub const TASK_SIM_US: &str = "cbft_task_sim_us";
    /// Counter, labels `{replica}`: bytes written into the shuffle.
    pub const SHUFFLE_BYTES: &str = "cbft_shuffle_bytes_total";
    /// Counter, labels `{replica}`: heartbeats processed by the engine.
    pub const HEARTBEATS: &str = "cbft_heartbeats_total";
    /// Counter (wall): compute-pool payload dispatches. Wall-domain
    /// because the inline pool elides chunk-sort dispatches.
    pub const POOL_DISPATCHED: &str = "cbft_pool_tasks_dispatched_total";
    /// Counter (wall): compute-pool sibling steals.
    pub const POOL_STOLEN: &str = "cbft_pool_tasks_stolen_total";
    /// Gauge (wall): peak compute-pool queue depth.
    pub const POOL_QUEUE_PEAK: &str = "cbft_pool_queue_peak";

    // --- job server (cbft-server / cbftd) -------------------------------

    /// Counter (wall): jobs admitted into the server's bounded queue.
    pub const SERVER_ADMITTED: &str = "cbft_server_jobs_admitted_total";
    /// Counter (wall): submissions refused with an explicit queue-full
    /// backpressure response. Never a silent drop.
    pub const SERVER_REJECTED: &str = "cbft_server_jobs_rejected_total";
    /// Counter (wall), labels `{tenant}`: jobs that ran to completion
    /// (verified or not).
    pub const SERVER_COMPLETED: &str = "cbft_server_jobs_completed_total";
    /// Counter (wall), labels `{tenant}`: completed jobs whose every
    /// output reached a digest quorum.
    pub const SERVER_VERIFIED: &str = "cbft_server_jobs_verified_total";
    /// Counter (wall), labels `{tenant}`: jobs that errored before an
    /// outcome (parse failure, missing input).
    pub const SERVER_FAILED: &str = "cbft_server_jobs_failed_total";
    /// Gauge (wall): peak admission-queue depth observed.
    pub const SERVER_QUEUE_PEAK: &str = "cbft_server_queue_depth_peak";
    /// Histogram (wall), labels `{tenant}`: submit→completion latency,
    /// µs.
    pub const SERVER_JOB_LATENCY_US: &str = "cbft_server_job_latency_us";
    /// Histogram (wall), labels `{tenant}`: time waiting in the
    /// admission queue, µs.
    pub const SERVER_JOB_QUEUE_US: &str = "cbft_server_job_queue_us";
    /// Counter (wall): queued jobs cancelled before dispatch.
    pub const SERVER_CANCELLED: &str = "cbft_server_jobs_cancelled_total";

    // --- sampled partial re-execution (spot-check tier) -----------------

    /// Gauge: the executor's operating verification tier
    /// (0=replicate, 1=sample, 2=hybrid). Only present for sampled runs.
    pub const VERIFY_MODE: &str = "cbft_verify_mode";
    /// Counter: tasks the probe replica completed (what `sampled` is a
    /// sample of).
    pub const REEXEC_TASKS: &str = "cbft_reexec_tasks_total";
    /// Counter: completed tasks the seeded plan selected for checking.
    pub const REEXEC_SAMPLED: &str = "cbft_reexec_tasks_sampled_total";
    /// Counter: tasks re-executed by the trusted spot-checker.
    pub const REEXEC_RERUN: &str = "cbft_reexec_tasks_rerun_total";
    /// Counter: re-executions that reproduced the recorded digest.
    pub const REEXEC_CONFIRMED: &str = "cbft_reexec_tasks_confirmed_total";
    /// Counter: re-executions that contradicted the recorded digest.
    pub const REEXEC_MISMATCHED: &str = "cbft_reexec_tasks_mismatched_total";
    /// Counter: input records processed by spot-check re-runs.
    pub const REEXEC_RECORDS: &str = "cbft_reexec_records_total";
    /// Counter: hybrid runs escalated to the replication ladder.
    pub const REEXEC_ESCALATIONS: &str = "cbft_reexec_escalations_total";

    // --- campaign aggregation (cbft-campaign) ---------------------------

    /// Counter: scenarios executed by a campaign run.
    pub const CAMPAIGN_SCENARIOS: &str = "cbft_campaign_scenarios_total";
    /// Counter: scenarios whose run ended verified.
    pub const CAMPAIGN_VERIFIED: &str = "cbft_campaign_verified_total";
    /// Counter, labels `{rule}`: oracle divergences by rule name.
    pub const CAMPAIGN_DIVERGENCES: &str = "cbft_campaign_divergences_total";
    /// Counter: scenarios where an honest replica was named suspect.
    pub const CAMPAIGN_FALSE_SUSPICIONS: &str = "cbft_campaign_false_suspicions_total";
    /// Histogram: per-key report→quorum detection lag, merged across
    /// every scenario, in sim µs.
    pub const CAMPAIGN_DETECTION_LAG_US: &str = "cbft_campaign_detection_lag_us";
    /// Counter, labels `{rounds}`: scenarios by escalation rounds used.
    pub const CAMPAIGN_ESCALATION_ROUNDS: &str = "cbft_campaign_escalation_rounds_total";
    /// Counter, labels `{rounds}`: scenarios whose named-suspect set
    /// converged exactly to the injected manifest fault set, by rounds.
    pub const CAMPAIGN_CONVERGED: &str = "cbft_campaign_converged_total";
    /// Counter, labels `{band}`: replica slots by final campaign-level
    /// suspicion band.
    pub const CAMPAIGN_SUSPICION_BAND: &str = "cbft_campaign_suspicion_band_total";
    /// Counter: faults injected across all scenarios.
    pub const CAMPAIGN_FAULTS_INJECTED: &str = "cbft_campaign_faults_injected_total";

    // --- flight recorder (cbft-trace / clusterbft-repro) ----------------

    /// Counter: trace events captured by the flight recorder (wall
    /// domain — event arrival order is host-scheduling dependent).
    /// Exported only when the recorder runs, i.e. under `--flight-dir`.
    pub const FLIGHT_EVENTS: &str = "cbft_flight_events_total";
    /// Counter: events evicted from full flight-recorder rings. Exported
    /// only under `--flight-dir`, like [`FLIGHT_EVENTS`].
    pub const FLIGHT_EVICTED: &str = "cbft_flight_evicted_total";
    /// Counter, labels `{kind}`: anomalies detected by the flight
    /// recorder's detector (mismatch, escalation, withheld, ...).
    pub const FLIGHT_ANOMALIES: &str = "cbft_flight_anomalies_total";
    /// Counter: forensic bundles written to `--flight-dir`.
    pub const FLIGHT_BUNDLES: &str = "cbft_flight_bundles_total";
}

/// Ordered suspicion band names, rank 0..=3.
pub const BAND_NAMES: [&str; 4] = ["none", "low", "med", "high"];

/// Ordered verification-tier names, rank 0..=2 (the `cbft_verify_mode`
/// gauge value).
pub const VERIFY_MODE_NAMES: [&str; 3] = ["replicate", "sample", "hybrid"];

fn band_rank(name: &str) -> usize {
    BAND_NAMES.iter().position(|b| *b == name).unwrap_or(0)
}

#[derive(Clone, Debug, Default)]
struct ReplicaHealth {
    reports: u64,
    mismatches: u64,
    omissions: u64,
    conflicts: u64,
}

#[derive(Clone, Debug, Default)]
struct NodeHealth {
    /// `(from_rank, to_rank, count)` transitions, sorted by rank.
    transitions: Vec<(usize, usize, u64)>,
    final_band: usize,
}

#[derive(Clone, Debug, Default)]
struct RoundHealth {
    replicas: u64,
    records: u64,
    verified: bool,
}

#[derive(Clone, Debug, Default)]
struct TenantHealth {
    completed: u64,
    verified: u64,
    failed: u64,
    latency: Histogram,
    queue: Histogram,
}

#[derive(Clone, Debug, Default)]
struct ServerHealth {
    admitted: u64,
    rejected: u64,
    queue_peak: u64,
    tenants: BTreeMap<String, TenantHealth>,
}

impl ServerHealth {
    fn is_empty(&self) -> bool {
        self.admitted == 0 && self.rejected == 0 && self.tenants.is_empty()
    }
}

#[derive(Clone, Debug, Default)]
struct ReexecHealth {
    /// The `cbft_verify_mode` gauge: present only for sampled runs, so
    /// its absence suppresses the whole section.
    mode: Option<u64>,
    tasks: u64,
    sampled: u64,
    rerun: u64,
    confirmed: u64,
    mismatched: u64,
    records: u64,
    escalations: u64,
}

impl ReexecHealth {
    fn is_empty(&self) -> bool {
        self.mode.is_none()
    }
}

/// The chunk/record window implicated by Merkle mismatch localization at
/// one diverging verification point (see the `DIVERGENCE_*` gauges).
/// Replicas' streams provably agree on everything before `first_record`
/// and after `last_record`, so re-execution can be confined to the span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DivergenceSpan {
    /// First implicated digest chunk.
    pub first_chunk: u64,
    /// Last implicated digest chunk (inclusive).
    pub last_chunk: u64,
    /// First implicated record index.
    pub first_record: u64,
    /// Last implicated record index (inclusive).
    pub last_record: u64,
}

/// Fault-forensics summary assembled from a metrics snapshot.
#[derive(Clone, Debug, Default)]
pub struct HealthReport {
    replicas: BTreeMap<u64, ReplicaHealth>,
    nodes: BTreeMap<u64, NodeHealth>,
    points: BTreeMap<String, Histogram>,
    rounds: BTreeMap<u64, RoundHealth>,
    divergences: BTreeMap<String, DivergenceSpan>,
    server: ServerHealth,
    reexec: ReexecHealth,
}

fn label<'a>(sample_labels: &'a [(&'static str, String)], name: &str) -> Option<&'a str> {
    sample_labels
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.as_str())
}

fn label_u64(sample_labels: &[(&'static str, String)], name: &str) -> Option<u64> {
    label(sample_labels, name)?.parse().ok()
}

impl HealthReport {
    /// Scan a snapshot for the conventional ClusterBFT metrics.
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let mut report = HealthReport::default();
        for s in &snap.samples {
            let scalar = match &s.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => *v,
                SampleValue::Histogram(_) => 0,
            };
            match s.name {
                names::REPLICA_REPORTS => {
                    if let Some(r) = label_u64(&s.labels, "replica") {
                        report.replicas.entry(r).or_default().reports = scalar;
                    }
                }
                names::REPLICA_MISMATCHES => {
                    if let Some(r) = label_u64(&s.labels, "replica") {
                        report.replicas.entry(r).or_default().mismatches = scalar;
                    }
                }
                names::REPLICA_OMISSIONS => {
                    if let Some(r) = label_u64(&s.labels, "replica") {
                        report.replicas.entry(r).or_default().omissions = scalar;
                    }
                }
                names::REPLICA_CONFLICTS => {
                    if let Some(r) = label_u64(&s.labels, "replica") {
                        report.replicas.entry(r).or_default().conflicts = scalar;
                    }
                }
                names::VERIFICATION_LAG_US => {
                    if let (Some(key), SampleValue::Histogram(h)) =
                        (label(&s.labels, "key"), &s.value)
                    {
                        report.points.entry(key.to_string()).or_default().merge(h);
                    }
                }
                names::DIVERGENCE_FIRST_CHUNK => {
                    if let Some(key) = label(&s.labels, "key") {
                        report
                            .divergences
                            .entry(key.to_string())
                            .or_default()
                            .first_chunk = scalar;
                    }
                }
                names::DIVERGENCE_LAST_CHUNK => {
                    if let Some(key) = label(&s.labels, "key") {
                        report
                            .divergences
                            .entry(key.to_string())
                            .or_default()
                            .last_chunk = scalar;
                    }
                }
                names::DIVERGENCE_FIRST_RECORD => {
                    if let Some(key) = label(&s.labels, "key") {
                        report
                            .divergences
                            .entry(key.to_string())
                            .or_default()
                            .first_record = scalar;
                    }
                }
                names::DIVERGENCE_LAST_RECORD => {
                    if let Some(key) = label(&s.labels, "key") {
                        report
                            .divergences
                            .entry(key.to_string())
                            .or_default()
                            .last_record = scalar;
                    }
                }
                names::SUSPICION_TRANSITIONS => {
                    if let (Some(node), Some(from), Some(to)) = (
                        label_u64(&s.labels, "node"),
                        label(&s.labels, "from"),
                        label(&s.labels, "to"),
                    ) {
                        report.nodes.entry(node).or_default().transitions.push((
                            band_rank(from),
                            band_rank(to),
                            scalar,
                        ));
                    }
                }
                names::SUSPICION_BAND => {
                    if let Some(node) = label_u64(&s.labels, "node") {
                        report.nodes.entry(node).or_default().final_band = scalar as usize;
                    }
                }
                names::ROUND_REPLICAS => {
                    if let Some(r) = label_u64(&s.labels, "round") {
                        report.rounds.entry(r).or_default().replicas = scalar;
                    }
                }
                names::ROUND_RECORDS => {
                    if let Some(r) = label_u64(&s.labels, "round") {
                        report.rounds.entry(r).or_default().records = scalar;
                    }
                }
                names::ROUND_VERIFIED => {
                    if let Some(r) = label_u64(&s.labels, "round") {
                        report.rounds.entry(r).or_default().verified = scalar != 0;
                    }
                }
                names::VERIFY_MODE => report.reexec.mode = Some(scalar),
                names::REEXEC_TASKS => report.reexec.tasks = scalar,
                names::REEXEC_SAMPLED => report.reexec.sampled = scalar,
                names::REEXEC_RERUN => report.reexec.rerun = scalar,
                names::REEXEC_CONFIRMED => report.reexec.confirmed = scalar,
                names::REEXEC_MISMATCHED => report.reexec.mismatched = scalar,
                names::REEXEC_RECORDS => report.reexec.records = scalar,
                names::REEXEC_ESCALATIONS => report.reexec.escalations = scalar,
                names::SERVER_ADMITTED => report.server.admitted = scalar,
                names::SERVER_REJECTED => report.server.rejected = scalar,
                names::SERVER_QUEUE_PEAK => report.server.queue_peak = scalar,
                names::SERVER_COMPLETED => {
                    if let Some(t) = label(&s.labels, "tenant") {
                        report
                            .server
                            .tenants
                            .entry(t.to_string())
                            .or_default()
                            .completed = scalar;
                    }
                }
                names::SERVER_VERIFIED => {
                    if let Some(t) = label(&s.labels, "tenant") {
                        report
                            .server
                            .tenants
                            .entry(t.to_string())
                            .or_default()
                            .verified = scalar;
                    }
                }
                names::SERVER_FAILED => {
                    if let Some(t) = label(&s.labels, "tenant") {
                        report
                            .server
                            .tenants
                            .entry(t.to_string())
                            .or_default()
                            .failed = scalar;
                    }
                }
                names::SERVER_JOB_LATENCY_US => {
                    if let (Some(t), SampleValue::Histogram(h)) =
                        (label(&s.labels, "tenant"), &s.value)
                    {
                        report
                            .server
                            .tenants
                            .entry(t.to_string())
                            .or_default()
                            .latency
                            .merge(h);
                    }
                }
                names::SERVER_JOB_QUEUE_US => {
                    if let (Some(t), SampleValue::Histogram(h)) =
                        (label(&s.labels, "tenant"), &s.value)
                    {
                        report
                            .server
                            .tenants
                            .entry(t.to_string())
                            .or_default()
                            .queue
                            .merge(h);
                    }
                }
                _ => {}
            }
        }
        for node in report.nodes.values_mut() {
            node.transitions.sort_unstable();
        }
        report
    }

    /// Replicas with at least one digest mismatch or omission, ascending.
    /// These contradicted an *established* quorum (or went silent), so
    /// every member is individually implicated.
    pub fn suspect_replicas(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .filter(|(_, h)| h.mismatches > 0 || h.omissions > 0)
            .map(|(r, _)| *r)
            .collect()
    }

    /// Replicas party to an unresolved digest conflict, ascending: the
    /// key never formed a quorum, so no single side can be blamed, but
    /// each conflict provably contains a faulty replica (§4.2 fault
    /// sets). Disjoint evidence from [`HealthReport::suspect_replicas`];
    /// a replica can appear in both.
    pub fn conflict_replicas(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .filter(|(_, h)| h.conflicts > 0)
            .map(|(r, _)| *r)
            .collect()
    }

    /// Every replica the forensics implicate at all: the union of
    /// [`HealthReport::suspect_replicas`] and
    /// [`HealthReport::conflict_replicas`], ascending. A chaos run that
    /// injects ≥ 2 faults of any kind names *all* of them here (plus,
    /// for unresolved conflicts, their honest counterparties — which
    /// only the fault analyzer's set intersection can exonerate).
    pub fn named_replicas(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .filter(|(_, h)| h.mismatches > 0 || h.omissions > 0 || h.conflicts > 0)
            .map(|(r, _)| *r)
            .collect()
    }

    /// Per-verification-point Merkle mismatch localization: the narrowed
    /// chunk/record window replicas provably disagree inside, keyed by the
    /// verifier's key label. Empty when every key agreed (or the run was
    /// recorded before localization gauges existed).
    pub fn divergence_spans(&self) -> &BTreeMap<String, DivergenceSpan> {
        &self.divergences
    }

    /// Whether the snapshot contained any of the conventional metrics.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
            && self.nodes.is_empty()
            && self.points.is_empty()
            && self.rounds.is_empty()
            && self.divergences.is_empty()
            && self.server.is_empty()
            && self.reexec.is_empty()
    }

    /// Render the report as terminal text.
    pub fn render(&self) -> String {
        let mut out = String::from("=== ClusterBFT health report ===\n");

        if !self.server.is_empty() {
            let s = &self.server;
            out.push_str("\njob server:\n");
            let _ = writeln!(
                out,
                "  admitted={}  rejected={}  queue depth peak={}",
                s.admitted, s.rejected, s.queue_peak
            );
            for (tenant, t) in &s.tenants {
                let (p50, p90, p99) = t.latency.p50_p90_p99();
                let _ = writeln!(
                    out,
                    "  tenant {tenant}: completed={}  verified={}  failed={}  \
                     latency_us p50={p50} p90={p90} p99={p99}  queue_us p99={}",
                    t.completed,
                    t.verified,
                    t.failed,
                    t.queue.p50_p90_p99().2,
                );
            }
        }

        if let Some(mode) = self.reexec.mode {
            let r = &self.reexec;
            out.push_str("\nverification tier (sampled partial re-execution):\n");
            let _ = writeln!(
                out,
                "  mode={}  sampled={} of {} tasks  rerun={}  confirmed={}  mismatched={}",
                VERIFY_MODE_NAMES[(mode as usize).min(VERIFY_MODE_NAMES.len() - 1)],
                r.sampled,
                r.tasks,
                r.rerun,
                r.confirmed,
                r.mismatched,
            );
            let _ = writeln!(
                out,
                "  re-executed records={}  escalations to replication={}",
                r.records, r.escalations
            );
        }

        if !self.replicas.is_empty() {
            out.push_str("\nreplica forensics:\n");
            for (r, h) in &self.replicas {
                let verdict = if h.mismatches > 0 || h.omissions > 0 {
                    "SUSPECT"
                } else if h.conflicts > 0 {
                    "CONFLICT"
                } else {
                    "clean"
                };
                let _ = writeln!(
                    out,
                    "  replica {r}: reports={}  mismatches={}  omissions={}  conflicts={}  [{verdict}]",
                    h.reports, h.mismatches, h.omissions, h.conflicts
                );
            }
            let suspects = self.suspect_replicas();
            if suspects.is_empty() {
                out.push_str("  suspected faulty replicas: none\n");
            } else {
                let list: Vec<String> = suspects.iter().map(u64::to_string).collect();
                let _ = writeln!(out, "  suspected faulty replicas: {{{}}}", list.join(", "));
            }
            let conflicts = self.conflict_replicas();
            if !conflicts.is_empty() {
                let list: Vec<String> = conflicts.iter().map(u64::to_string).collect();
                let _ = writeln!(
                    out,
                    "  unresolved digest conflicts: {{{}}} (one of these is faulty)",
                    list.join(", ")
                );
            }
        }

        if !self.nodes.is_empty() {
            out.push_str("\nsuspicion bands:\n");
            for (node, h) in &self.nodes {
                let mut trajectory = String::new();
                // Transitions are sorted by (from, to) rank; bands only
                // move along that order within a run, so this re-reads
                // as the visit sequence.
                let mut current = usize::MAX;
                for (from, to, n) in &h.transitions {
                    if *from != current {
                        if !trajectory.is_empty() {
                            trajectory.push_str(" -> ");
                        }
                        trajectory.push_str(BAND_NAMES[*from]);
                    }
                    trajectory.push_str(" -> ");
                    trajectory.push_str(BAND_NAMES[*to]);
                    if *n > 1 {
                        let _ = write!(trajectory, " (x{n})");
                    }
                    current = *to;
                }
                if trajectory.is_empty() {
                    trajectory = BAND_NAMES[h.final_band].to_string();
                }
                let _ = writeln!(
                    out,
                    "  node {node}: {trajectory}  [final: {}]",
                    BAND_NAMES[h.final_band.min(3)]
                );
            }
        }

        if !self.divergences.is_empty() {
            out.push_str("\nmismatch localization (merkle descent):\n");
            for (key, d) in &self.divergences {
                let _ = writeln!(
                    out,
                    "  {key}: chunks {}..={}  records {}..={}",
                    d.first_chunk, d.last_chunk, d.first_record, d.last_record
                );
            }
        }

        if !self.points.is_empty() {
            out.push_str("\nverification lag quantiles (sim us):\n");
            for (key, h) in &self.points {
                let (p50, p90, p99) = h.p50_p90_p99();
                let _ = writeln!(
                    out,
                    "  {key}: n={}  p50={p50}  p90={p90}  p99={p99}  max={}",
                    h.count(),
                    h.max()
                );
            }
        }

        if !self.rounds.is_empty() {
            out.push_str("\nescalation rounds:\n");
            for (round, h) in &self.rounds {
                let _ = writeln!(
                    out,
                    "  round {round}: replicas={}  output records={}  verified={}",
                    h.replicas,
                    h.records,
                    if h.verified { "yes" } else { "no" }
                );
            }
            let escalations = self.rounds.len().saturating_sub(1);
            let _ = writeln!(out, "  escalations: {escalations}");
        }

        if self.is_empty() {
            out.push_str("(no health metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Domain, Metrics};

    #[test]
    fn report_names_suspect_replicas() {
        let m = Metrics::new();
        for r in 0..3u64 {
            m.add(
                Domain::Sim,
                names::REPLICA_REPORTS,
                &[("replica", r.into())],
                6,
            );
        }
        m.add(
            Domain::Sim,
            names::REPLICA_MISMATCHES,
            &[("replica", 1u64.into())],
            2,
        );
        m.add(
            Domain::Sim,
            names::REPLICA_OMISSIONS,
            &[("replica", 2u64.into())],
            1,
        );
        let report = HealthReport::from_snapshot(&m.snapshot());
        assert_eq!(report.suspect_replicas(), vec![1, 2]);
        let text = report.render();
        assert!(text
            .contains("replica 1: reports=6  mismatches=2  omissions=0  conflicts=0  [SUSPECT]"));
        assert!(
            text.contains("replica 0: reports=6  mismatches=0  omissions=0  conflicts=0  [clean]")
        );
        assert!(text.contains("suspected faulty replicas: {1, 2}"));
    }

    /// The ≥2-fault naming regression: before conflict forensics were
    /// charged, a Byzantine replica whose keys never reached a quorum
    /// vanished from the report while its crash/omission siblings were
    /// named — `named_replicas` must cover every implicated replica.
    #[test]
    fn report_names_every_implicated_replica() {
        let m = Metrics::new();
        // Replica 0: party to unresolved conflicts only (no quorum ever
        // formed at its keys). Replicas 1 and 2: classic omission.
        m.add(
            Domain::Sim,
            names::REPLICA_REPORTS,
            &[("replica", 0u64.into())],
            5,
        );
        m.add(
            Domain::Sim,
            names::REPLICA_CONFLICTS,
            &[("replica", 0u64.into())],
            5,
        );
        m.add(
            Domain::Sim,
            names::REPLICA_CONFLICTS,
            &[("replica", 3u64.into())],
            5,
        );
        for r in 1..3u64 {
            m.add(
                Domain::Sim,
                names::REPLICA_OMISSIONS,
                &[("replica", r.into())],
                4,
            );
        }
        let report = HealthReport::from_snapshot(&m.snapshot());
        assert_eq!(report.suspect_replicas(), vec![1, 2]);
        assert_eq!(report.conflict_replicas(), vec![0, 3]);
        assert_eq!(report.named_replicas(), vec![0, 1, 2, 3]);
        let text = report.render();
        assert!(text
            .contains("replica 0: reports=5  mismatches=0  omissions=0  conflicts=5  [CONFLICT]"));
        assert!(text.contains("unresolved digest conflicts: {0, 3}"));
    }

    #[test]
    fn report_renders_bands_points_rounds() {
        let m = Metrics::new();
        m.add(
            Domain::Sim,
            names::SUSPICION_TRANSITIONS,
            &[
                ("node", 3u64.into()),
                ("from", "none".into()),
                ("to", "low".into()),
            ],
            1,
        );
        m.gauge_set(
            Domain::Sim,
            names::SUSPICION_BAND,
            &[("node", 3u64.into())],
            1,
        );
        m.observe(
            Domain::Sim,
            names::VERIFICATION_LAG_US,
            &[("key", "v2/s0".into())],
            40,
        );
        m.gauge_set(
            Domain::Sim,
            names::ROUND_REPLICAS,
            &[("round", 1u64.into())],
            2,
        );
        m.add(
            Domain::Sim,
            names::ROUND_RECORDS,
            &[("round", 1u64.into())],
            900,
        );
        m.gauge_set(
            Domain::Sim,
            names::ROUND_VERIFIED,
            &[("round", 1u64.into())],
            0,
        );
        m.gauge_set(
            Domain::Sim,
            names::ROUND_REPLICAS,
            &[("round", 2u64.into())],
            3,
        );
        m.gauge_set(
            Domain::Sim,
            names::ROUND_VERIFIED,
            &[("round", 2u64.into())],
            1,
        );
        let report = HealthReport::from_snapshot(&m.snapshot());
        let text = report.render();
        assert!(text.contains("node 3: none -> low  [final: low]"));
        assert!(text.contains("v2/s0: n=1"));
        assert!(text.contains("round 1: replicas=2  output records=900  verified=no"));
        assert!(text.contains("round 2: replicas=3  output records=0  verified=yes"));
        assert!(text.contains("escalations: 1"));
    }

    #[test]
    fn report_renders_divergence_spans() {
        let m = Metrics::new();
        let labels = [("key", "v1/Shuffle { job: JobId(0) }/Reduce/0".into())];
        m.gauge_set(Domain::Sim, names::DIVERGENCE_FIRST_CHUNK, &labels, 2);
        m.gauge_set(Domain::Sim, names::DIVERGENCE_LAST_CHUNK, &labels, 2);
        m.gauge_set(Domain::Sim, names::DIVERGENCE_FIRST_RECORD, &labels, 4);
        m.gauge_set(Domain::Sim, names::DIVERGENCE_LAST_RECORD, &labels, 5);
        let report = HealthReport::from_snapshot(&m.snapshot());
        assert!(!report.is_empty());
        let spans = report.divergence_spans();
        assert_eq!(spans.len(), 1);
        let span = spans.values().next().unwrap();
        assert_eq!(
            *span,
            DivergenceSpan {
                first_chunk: 2,
                last_chunk: 2,
                first_record: 4,
                last_record: 5,
            }
        );
        let text = report.render();
        assert!(text.contains("mismatch localization (merkle descent):"));
        assert!(text.contains("v1/Shuffle { job: JobId(0) }/Reduce/0: chunks 2..=2  records 4..=5"));
    }

    /// Regression for the zero-divergence rendering path: a clean run
    /// records replica forensics but no `cbft_divergence_*` gauges, and
    /// the mismatch-localization section must be *omitted entirely* —
    /// not rendered as an empty or garbled header.
    #[test]
    fn clean_run_omits_mismatch_localization_section() {
        let m = Metrics::new();
        for r in 0..2u64 {
            m.add(
                Domain::Sim,
                names::REPLICA_REPORTS,
                &[("replica", r.into())],
                4,
            );
        }
        m.observe(
            Domain::Sim,
            names::VERIFICATION_LAG_US,
            &[("key", "v1/s0".into())],
            25,
        );
        let report = HealthReport::from_snapshot(&m.snapshot());
        assert!(report.divergence_spans().is_empty());
        let text = report.render();
        assert!(
            !text.contains("mismatch localization"),
            "clean run must omit the section, got:\n{text}"
        );
        assert!(
            !text.contains("chunks"),
            "no divergence rows on a clean run:\n{text}"
        );
        assert!(text.contains("replica 0"), "forensics still render: {text}");
    }

    #[test]
    fn report_renders_job_server_section() {
        let m = Metrics::new();
        m.add(Domain::Wall, names::SERVER_ADMITTED, &[], 50);
        m.add(Domain::Wall, names::SERVER_REJECTED, &[], 3);
        m.gauge_max(Domain::Wall, names::SERVER_QUEUE_PEAK, &[], 17);
        for (tenant, n) in [("acme", 30u64), ("beta", 20u64)] {
            let labels = [("tenant", tenant.into())];
            m.add(Domain::Wall, names::SERVER_COMPLETED, &labels, n);
            m.add(Domain::Wall, names::SERVER_VERIFIED, &labels, n);
            for i in 0..n {
                m.observe(Domain::Wall, names::SERVER_JOB_LATENCY_US, &labels, 100 + i);
                m.observe(Domain::Wall, names::SERVER_JOB_QUEUE_US, &labels, 10);
            }
        }
        let report = HealthReport::from_snapshot(&m.snapshot());
        assert!(!report.is_empty());
        let text = report.render();
        assert!(text.contains("job server:"), "{text}");
        assert!(
            text.contains("admitted=50  rejected=3  queue depth peak=17"),
            "{text}"
        );
        assert!(
            text.contains("tenant acme: completed=30  verified=30"),
            "{text}"
        );
        assert!(text.contains("tenant beta: completed=20"), "{text}");
        assert!(text.contains("latency_us p50="), "{text}");
    }

    #[test]
    fn report_renders_verification_tier_section() {
        let m = Metrics::new();
        m.gauge_set(Domain::Sim, names::VERIFY_MODE, &[], 2);
        m.add(Domain::Sim, names::REEXEC_TASKS, &[], 31);
        m.add(Domain::Sim, names::REEXEC_SAMPLED, &[], 7);
        m.add(Domain::Sim, names::REEXEC_RERUN, &[], 7);
        m.add(Domain::Sim, names::REEXEC_CONFIRMED, &[], 6);
        m.add(Domain::Sim, names::REEXEC_MISMATCHED, &[], 1);
        m.add(Domain::Sim, names::REEXEC_RECORDS, &[], 420);
        m.add(Domain::Sim, names::REEXEC_ESCALATIONS, &[], 1);
        let report = HealthReport::from_snapshot(&m.snapshot());
        assert!(!report.is_empty());
        let text = report.render();
        assert!(
            text.contains("verification tier (sampled partial re-execution):"),
            "{text}"
        );
        assert!(
            text.contains("mode=hybrid  sampled=7 of 31 tasks  rerun=7  confirmed=6  mismatched=1"),
            "{text}"
        );
        assert!(
            text.contains("re-executed records=420  escalations to replication=1"),
            "{text}"
        );
    }

    #[test]
    fn replicated_runs_omit_the_verification_tier_section() {
        // Replicated runs never set the cbft_verify_mode gauge, so the
        // section must vanish rather than render a zero row.
        let m = Metrics::new();
        m.add(
            Domain::Sim,
            names::REPLICA_REPORTS,
            &[("replica", 0u64.into())],
            4,
        );
        let report = HealthReport::from_snapshot(&m.snapshot());
        let text = report.render();
        assert!(!text.contains("verification tier"), "{text}");
    }

    #[test]
    fn empty_snapshot_yields_empty_report() {
        let report = HealthReport::from_snapshot(&Snapshot::default());
        assert!(report.is_empty());
        assert!(report.render().contains("no health metrics recorded"));
    }
}
