//! Benchmark harness regenerating every table and figure of the
//! ClusterBFT evaluation (§6).
//!
//! One binary per paper artefact or substrate check (run with
//! `cargo run -p cbft-bench --release --bin <name>`):
//!
//! | binary         | artefact | what it reproduces |
//! |----------------|----------|--------------------|
//! | `fig9`         | Fig. 9         | Twitter Follower Analysis latency: Pure Pig vs Single vs BFT execution, 1–3 verification points |
//! | `fig10`        | Fig. 10        | Two Hop Analysis digest overhead at Join / Project / Filter / J&F / J,P&F |
//! | `table3`       | Table 3        | multipliers under a commission-faulty node for C (ClusterBFT) vs P (final-output-only), r ∈ {2, 3, 4} |
//! | `fig11`        | Fig. 11        | jobs until `\|D\| = f` vs commission probability (250-node simulator) |
//! | `fig12`        | Fig. 12        | suspicion-band time series |
//! | `fig13`        | Fig. 13        | suspicion spike from overlapping large faulty clusters |
//! | `fig14`        | Fig. 14        | weather analysis latency vs digest granularity, BFT-replicated control tier |
//! | `ablation_nxm` | Fig. 1 / §3.2  | naive per-job BFT (n×m) vs clustered replication |
//! | `ablation_marker` | §4.1 | verification-point placement: marker vs earliest vs final-only |
//! | `ablation_overlap` | §4.2 | overlap vs FIFO scheduling for isolation speed |
//! | `ablation_combiner` | substrate | map-side combiners: shuffle volume & digest equivalence |
//! | `verification_lag` | §6 | per-key first-report-to-quorum lag from the trace subsystem |
//! | `reexec_frontier` | §3.3 / perf | sampled partial re-execution: verified throughput per core vs the 3f+1 replication tax, and hybrid fault capture |
//! | `parallel_speedup` | substrate | replica clusters on worker threads: wall-clock speedup and the span bound |
//! | `task_parallelism` | substrate | the intra-replica compute pool: wall-clock speedup and the payload parallelism exposed |
//! | `data_plane` | substrate | zero-copy and columnar data plane: digest, group, ingest and map-side throughput, clone counters |
//! | `mismatch_localization` | §6.4 | Merkle descent to the mismatching chunk vs a linear scan |
//! | `metrics_overhead` | observability | disabled- and enabled-path cost of the metrics layer |
//! | `flight_overhead` | observability | cost of the flight recorder on one pipeline and a server drain |
//! | `chaos_campaign` | substrate | seeded fault campaign: verdicts checked against the injected plan |
//! | `load_gen` | substrate | the `cbft-server` job server under sustained multi-tenant load (`server_load.json`) |
//! | `experiments_md` | — | regenerates `EXPERIMENTS.md` from the recorded results |
//!
//! Every other binary prints a paper-vs-measured table and writes a JSON
//! record under `bench_results/` from which `EXPERIMENTS.md` is assembled.
//! The sequential figures run through [`RunSpec`]; the binaries on the
//! parallel path through [`ParallelSpec`] and its presets, and
//! every wall-clock one times with [`best_of`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use cbft_mapreduce::{Behavior, Cluster};
use cbft_server::JobSpec;
use cbft_sim::CostModel;
use cbft_workloads::{twitter, Workload};
use clusterbft::{
    Adversary, ClusterBft, ExecutorConfig, JobConfig, Obs, ParallelExecutor, ParallelOutcome,
    ScriptOutcome, SubmitError, VertexId, VpPolicy,
};
use serde::{Deserialize, Serialize};

pub use cbft_dataflow::Script;

/// A cost model calibrated to Pig-on-Hadoop per-tuple costs (~10 µs of
/// JVM work per record per operator) so that computation, not task
/// startup, dominates job latency — the regime the paper's multi-minute
/// jobs run in. Used by the latency-sensitive figures (9, 10, 14).
pub fn pig_like_cost() -> CostModel {
    CostModel {
        cpu_ns_per_record: 10_000,
        ..CostModel::default()
    }
}

/// One labelled measurement, optionally paired with the paper's value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Row label ("r=2 C latency", "p=0.6 f=1 r1", ...).
    pub label: String,
    /// Unit ("x", "%", "s", "jobs", "messages").
    pub unit: String,
    /// The paper's reported value, when one exists.
    pub paper: Option<f64>,
    /// Our measured value.
    pub measured: f64,
}

/// A full experiment: id, context and rows.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Short id ("fig9", "table3").
    pub id: String,
    /// Human title.
    pub title: String,
    /// Free-form notes (workload scale, substitutions).
    pub notes: String,
    /// Named boolean facts about the run environment (e.g. `cpu_bound`),
    /// so downstream readers can filter records without parsing notes.
    /// `None` for records written before flags existed.
    pub flags: Option<BTreeMap<String, bool>>,
    /// The measurements.
    pub rows: Vec<Row>,
}

impl ExperimentRecord {
    /// Creates an empty record.
    pub fn new(id: &str, title: &str, notes: &str) -> Self {
        ExperimentRecord {
            id: id.to_owned(),
            title: title.to_owned(),
            notes: notes.to_owned(),
            flags: None,
            rows: Vec::new(),
        }
    }

    /// Sets a named boolean flag on the record.
    pub fn set_flag(&mut self, name: &str, value: bool) {
        self.flags
            .get_or_insert_with(BTreeMap::new)
            .insert(name.to_owned(), value);
    }

    /// Stamps the host facts a wall-clock speedup depends on: the
    /// `cpu_bound` flag, true when the host has fewer than `pool` cores so
    /// that a `pool`-thread measurement is capped by the hardware rather
    /// than the algorithm, and the `host cores` row.
    pub fn push_host(&mut self, cores: usize, pool: usize) {
        self.set_flag("cpu_bound", cores < pool);
        self.push("host cores", "", None, cores as f64);
    }

    /// Appends a row.
    pub fn push(
        &mut self,
        label: impl Into<String>,
        unit: &str,
        paper: Option<f64>,
        measured: f64,
    ) {
        self.rows.push(Row {
            label: label.into(),
            unit: unit.to_owned(),
            paper,
            measured,
        });
    }

    /// Renders an aligned paper-vs-measured table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        if !self.notes.is_empty() {
            let _ = writeln!(out, "   {}", self.notes);
        }
        if let Some(flags) = &self.flags {
            let rendered: Vec<String> = flags.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(out, "   flags: {}", rendered.join(" "));
        }
        let width = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(10)
            .max(10);
        let _ = writeln!(
            out,
            "   {:<width$}  {:>12}  {:>12}  unit",
            "row", "paper", "measured"
        );
        for r in &self.rows {
            let paper = r
                .paper
                .map(|p| format!("{p:.3}"))
                .unwrap_or_else(|| "-".to_owned());
            let _ = writeln!(
                out,
                "   {:<width$}  {:>12}  {:>12.3}  {}",
                r.label, paper, r.measured, r.unit
            );
        }
        out
    }

    /// Prints the table to stdout and saves the JSON record.
    ///
    /// # Panics
    ///
    /// Panics if the results directory cannot be written — a bench harness
    /// that silently loses results is worse than one that aborts.
    pub fn finish(&self) {
        println!("{}", self.render());
        let dir = results_dir();
        std::fs::create_dir_all(&dir).expect("create bench_results dir");
        let path = dir.join(format!("{}.json", self.id));
        let json = serde_json::to_string_pretty(self).expect("serialize record");
        std::fs::write(&path, json).expect("write record");
        println!("   [saved {}]", path.display());
    }
}

/// The directory bench records are written to (`bench_results/` under the
/// workspace root, overridable via `CBFT_BENCH_DIR`).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CBFT_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("bench_results");
    p
}

/// Everything needed to run one ClusterBFT configuration on a fresh
/// simulated cluster.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Untrusted-tier size.
    pub nodes: usize,
    /// Slots per node.
    pub slots: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Faulty nodes: `(node index, behaviour)`.
    pub faulty: Vec<(usize, Behavior)>,
    /// Cost model override (default: [`CostModel::default`]).
    pub cost: Option<CostModel>,
    /// The ClusterBFT configuration.
    pub config: JobConfig,
    /// The workload.
    pub workload: Workload,
}

impl RunSpec {
    /// A 32-node cluster (the paper's Vicci tier: 12-core Xeons, so ~9
    /// task slots per node at the paper's 3-4 slots per 4 cores).
    pub fn vicci(workload: Workload, config: JobConfig) -> Self {
        RunSpec {
            nodes: 32,
            slots: 9,
            seed: 1,
            faulty: Vec::new(),
            cost: None,
            config,
            workload,
        }
    }

    /// Adds a faulty node.
    pub fn with_fault(mut self, node: usize, behavior: Behavior) -> Self {
        self.faulty.push((node, behavior));
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Builds the cluster, loads the workload and executes the script.
    ///
    /// # Errors
    ///
    /// Propagates parse/plan/storage/engine errors from the core crate.
    pub fn execute(self) -> Result<ScriptOutcome, SubmitError> {
        let mut builder = Cluster::builder()
            .nodes(self.nodes)
            .slots_per_node(self.slots)
            .seed(self.seed);
        if let Some(cost) = self.cost {
            builder = builder.cost_model(cost);
        }
        for (node, behavior) in self.faulty {
            builder = builder.node_behavior(node, behavior);
        }
        let mut cbft = ClusterBft::new(builder.build(), self.config);
        cbft.load_input(self.workload.input_name, self.workload.records)?;
        cbft.submit_script(self.workload.script)
    }
}

/// One small `JobServer` job: `tenant`'s follower analysis of `edges`
/// edges, 2 worker threads with payloads inline, f = 1 on a 2-replica
/// ladder, 8 nodes x 3 slots, all seeded by `seed`.
pub fn server_job(tenant: &str, seed: u64, edges: usize) -> JobSpec {
    let workload = twitter::follower_analysis(seed, edges);
    JobSpec::new(tenant, workload.script)
        .input(workload.input_name, workload.records)
        .exec(ExecutorConfig {
            threads: 2,
            compute_threads: 1,
            expected_failures: 1,
            escalation: vec![2],
            vp_policy: VpPolicy::Marked(2),
            master_seed: seed,
            nodes: 8,
            slots_per_node: 3,
            ..ExecutorConfig::default()
        })
}

/// The parallel twin of [`RunSpec`]: one [`ParallelExecutor`] run of a
/// workload, with replica faults and an observability context.
#[derive(Clone, Debug)]
pub struct ParallelSpec {
    /// The executor configuration.
    pub config: ExecutorConfig,
    /// The workload.
    pub workload: Workload,
    /// Faulty replicas: `(replica uid, behaviour)`.
    pub faults: Vec<(usize, Behavior)>,
    /// What the run records into (default: nothing).
    pub obs: Obs,
}

impl ParallelSpec {
    /// A fault-free, unobserved run of `workload` under `config`.
    pub fn new(workload: Workload, config: ExecutorConfig) -> Self {
        ParallelSpec {
            config,
            workload,
            faults: Vec::new(),
            obs: Obs::disabled(),
        }
    }

    /// The 8-node pipeline the overhead benches price: the follower
    /// analysis of `edges` edges from seed 3 on 2 worker threads, f = 1 on
    /// a 2-replica ladder, one marked verification point, 8 nodes x 3
    /// slots, 5,000-record splits, seed 5 and [`pig_like_cost`].
    pub fn pipeline(edges: usize) -> Self {
        let config = ExecutorConfig {
            threads: 2,
            expected_failures: 1,
            escalation: vec![2],
            vp_policy: VpPolicy::Marked(1),
            adversary: Adversary::Weak,
            map_split_records: 5_000,
            nodes: 8,
            slots_per_node: 3,
            master_seed: 5,
            cost: pig_like_cost(),
            ..ExecutorConfig::default()
        };
        ParallelSpec::new(twitter::follower_analysis(3, edges), config)
    }

    /// [`RunSpec::vicci`]'s 32 nodes x 9 slots per replica on the parallel
    /// path: `threads` worker threads, `f` expected failures and the
    /// `escalation` ladder, two marked verification points, 25,000-record
    /// splits, seed 9 and [`pig_like_cost`].
    pub fn vicci(workload: Workload, threads: usize, f: usize, escalation: Vec<usize>) -> Self {
        let config = ExecutorConfig {
            threads,
            expected_failures: f,
            escalation,
            vp_policy: VpPolicy::Marked(2),
            adversary: Adversary::Weak,
            map_split_records: 25_000,
            nodes: 32,
            slots_per_node: 9,
            master_seed: 9,
            cost: pig_like_cost(),
            ..ExecutorConfig::default()
        };
        ParallelSpec::new(workload, config)
    }

    /// Builds the executor, loads the workload, injects the faults and
    /// runs the script; returns the outcome and the wall seconds of the
    /// run alone.
    ///
    /// # Panics
    ///
    /// Panics when the script does not run; bench inputs are static.
    pub fn execute(self) -> (ParallelOutcome, f64) {
        let mut exec = ParallelExecutor::observed(self.config, self.obs);
        exec.load_input(self.workload.input_name, self.workload.records)
            .expect("fresh storage");
        for (replica, behavior) in self.faults {
            exec.inject_fault(replica, behavior);
        }
        let (outcome, wall) = timed(|| exec.run_script(self.workload.script));
        (outcome.expect("bench script runs"), wall)
    }

    /// The best (minimum) run wall of `passes` runs, with the last run's
    /// outcome.
    ///
    /// # Panics
    ///
    /// Panics when a run does not verify: its time would price the wrong
    /// work.
    pub fn best_of(&self, passes: usize) -> (ParallelOutcome, f64) {
        let [best] = best_of(passes, |_| {
            let (outcome, wall) = self.clone().execute();
            assert!(outcome.verified(), "a timed run must verify");
            (outcome, wall)
        });
        best
    }
}

/// `f`'s output and its wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `K` variants alternately, `run(0)` to `run(K - 1)`, for `passes`
/// rounds (at least one), and returns each variant's last output and best
/// (minimum) wall seconds. Each run reports its own wall, so it can time
/// less than the call ([`timed`] times all of it).
pub fn best_of<T, const K: usize>(
    passes: usize,
    mut run: impl FnMut(usize) -> (T, f64),
) -> [(T, f64); K] {
    let mut best: [(Option<T>, f64); K] = std::array::from_fn(|_| (None, f64::INFINITY));
    for _ in 0..passes {
        for (k, (out, wall)) in best.iter_mut().enumerate() {
            let (value, w) = run(k);
            *out = Some(value);
            *wall = wall.min(w);
        }
    }
    best.map(|(out, wall)| (out.expect("at least one pass"), wall))
}

/// Runs a base, `run(0)`, and a variant, `run(1)`, in `pairs` adjacent
/// pairs (at least one), the base first in even pairs and second in odd
/// ones, and returns each side's last output and best (minimum) wall
/// seconds with the median over pairs of the variant's overhead on the
/// base, `(variant / base - 1) × 100` percent. A pair's two runs share the
/// host's phase, so its ratio cancels what moves both; one best wall per
/// side compares two runs that may be minutes and phases apart.
pub fn paired_overhead<T>(
    pairs: usize,
    mut run: impl FnMut(usize) -> (T, f64),
) -> ([(T, f64); 2], f64) {
    let mut best: [(Option<T>, f64); 2] = [(None, f64::INFINITY), (None, f64::INFINITY)];
    let mut overheads = Vec::with_capacity(pairs);
    for pair in 0..pairs.max(1) {
        let mut walls = [0.0; 2];
        for k in [pair % 2, 1 - pair % 2] {
            let (value, wall) = run(k);
            best[k] = (Some(value), best[k].1.min(wall));
            walls[k] = wall;
        }
        overheads.push((walls[1] / walls[0] - 1.0) * 100.0);
    }
    overheads.sort_by(f64::total_cmp);
    let mid = overheads.len() / 2;
    let median = match overheads.len() % 2 {
        1 => overheads[mid],
        _ => (overheads[mid - 1] + overheads[mid]) / 2.0,
    };
    let sides = best.map(|(out, wall)| (out.expect("at least one pair"), wall));
    (sides, median)
}

/// Cores the host grants this process (1 when it cannot tell).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Finds every vertex of `script` whose operator name is in `names`
/// (e.g. `["Join", "Filter"]`) — used to place explicit verification
/// points the way §6.1 does.
///
/// # Panics
///
/// Panics when the script does not parse; bench inputs are static.
pub fn vertices_by_op(script: &str, names: &[&str]) -> Vec<VertexId> {
    let plan = Script::parse(script)
        .expect("bench script parses")
        .into_plan();
    plan.vertices()
        .iter()
        .filter(|v| names.contains(&v.op().name()))
        .map(|v| v.id())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clusterbft::{Replication, VpPolicy};

    #[test]
    fn record_render_and_rows() {
        let mut r = ExperimentRecord::new("t", "title", "notes");
        r.push("a", "x", Some(1.5), 1.4);
        r.push("b", "s", None, 2.0);
        let s = r.render();
        assert!(s.contains("title"));
        assert!(s.contains("1.500"));
        assert!(s.contains('-'));
    }

    #[test]
    fn vertices_by_op_finds_operators() {
        let vs = vertices_by_op(cbft_workloads::twitter::TWO_HOP_SCRIPT, &["Filter"]);
        assert_eq!(vs.len(), 2, "two filters in the two-hop script");
        let js = vertices_by_op(cbft_workloads::twitter::TWO_HOP_SCRIPT, &["Join"]);
        assert_eq!(js.len(), 1);
    }

    #[test]
    fn runspec_executes_end_to_end() {
        let spec = RunSpec::vicci(
            cbft_workloads::twitter::follower_analysis(3, 300),
            JobConfig::builder()
                .expected_failures(1)
                .replication(Replication::Full)
                .vp_policy(VpPolicy::Marked(1))
                .map_split_records(64)
                .build(),
        );
        let outcome = spec.execute().expect("runs");
        assert!(outcome.verified());
    }

    #[test]
    fn parallel_spec_is_thread_count_blind_and_names_a_deviant() {
        let follower = |threads| {
            let mut spec = ParallelSpec::pipeline(600);
            spec.config.threads = threads;
            spec.config.escalation = vec![2, 3];
            spec.config.map_split_records = 100;
            spec
        };
        let (one, _) = follower(1).execute();
        let (two, _) = follower(2).best_of(2);
        assert!(one.verified());
        assert_eq!(one, two, "worker threads must not change the outcome");

        let mut faulty = follower(2);
        faulty
            .faults
            .push((0, Behavior::Commission { probability: 1.0 }));
        let (faulty, _) = faulty.execute();
        assert!(faulty.verified(), "escalation recovers the quorum");
        assert!(faulty.deviant_replicas().contains(&0), "{faulty:?}");
    }

    #[test]
    fn best_of_alternates_variants_and_keeps_each_minimum() {
        let mut order = Vec::new();
        let walls = [[3.0, 1.0, 2.0], [5.0, 6.0, 4.0]];
        let mut pass = [0, 0];
        let best: [(usize, f64); 2] = best_of(3, |k| {
            order.push(k);
            pass[k] += 1;
            (pass[k], walls[k][pass[k] - 1])
        });
        assert_eq!(order, [0, 1, 0, 1, 0, 1]);
        assert_eq!(best, [(3, 1.0), (3, 4.0)], "last output, minimum wall");
    }

    #[test]
    fn paired_overhead_alternates_sides_and_takes_the_median_pair() {
        let mut order = Vec::new();
        // Per pair (base, variant): +10%, +100% (a slow phase the base
        // missed), +2%, -5%.
        let walls = [[1.0, 4.0, 1.0, 2.0], [1.1, 8.0, 1.02, 1.9]];
        let mut pass = [0, 0];
        let (sides, median) = paired_overhead(4, |k| {
            order.push(k);
            pass[k] += 1;
            (pass[k], walls[k][pass[k] - 1])
        });
        assert_eq!(order, [0, 1, 1, 0, 0, 1, 1, 0]);
        assert_eq!(sides, [(4, 1.0), (4, 1.02)], "last output, minimum wall");
        assert!((median - 6.0).abs() < 1e-9, "{median}");
    }
}
