//! Scenario execution, the verdict oracle, and the campaign driver.
//!
//! [`run_scenario`] executes one [`Scenario`] on the real
//! [`ParallelExecutor`] / verifier / suspicion stack and checks the
//! outcome against [`oracle::check`]. [`run_campaign`] fans a whole
//! campaign across a [`ComputePool`] via `par_map`, whose join order is
//! a function of the scenario count only — so the fold into the
//! aggregate [`CampaignReport`](crate::CampaignReport) is deterministic
//! at every pool size.

use std::collections::{BTreeSet, HashMap};

use cbft_dataflow::interp::interpret;
use cbft_dataflow::Script;
use cbft_mapreduce::ComputePool;
use cbft_metrics::{names, HealthReport, Histogram, Metrics, SampleValue, Snapshot};
use clusterbft::{Behavior, ExecutorConfig, Obs, ParallelExecutor, ParallelOutcome, VpPolicy};
use serde::Serialize;

use crate::report::CampaignReport;
use crate::scenario::Scenario;

/// The campaign's script corpus: four shapes over one `(k, v)` input,
/// covering group/aggregate, filter/order/limit, self-join/distinct and
/// union — the operator mix of the paper's analysis scripts.
pub const SCRIPTS: [&str; 4] = [
    "a = LOAD 'in' AS (k, v);
     g = GROUP a BY k;
     c = FOREACH g GENERATE group, COUNT(a) AS n, SUM(a.v) AS s;
     STORE c INTO 'out';",
    "a = LOAD 'in' AS (k, v);
     f = FILTER a BY v % 3 == 0;
     g = GROUP f BY k;
     c = FOREACH g GENERATE group, MAX(f.v) AS m;
     o = ORDER c BY m DESC;
     t = LIMIT o 5;
     STORE t INTO 'out';",
    "a = LOAD 'in' AS (k, v);
     b = LOAD 'in' AS (k, v);
     j = JOIN a BY k, b BY k;
     p = FOREACH j GENERATE a::v AS x, b::v AS y;
     d = DISTINCT p;
     STORE d INTO 'out';",
    "a = LOAD 'in' AS (k, v);
     l = FOREACH a GENERATE k AS x;
     r = FOREACH a GENERATE v AS x;
     u = UNION l, r;
     g = GROUP u BY x;
     c = FOREACH g GENERATE group, COUNT(u) AS n;
     STORE c INTO 'out';",
];

/// A violation of the oracle: the run's verdict is inconsistent with
/// the injected fault plan.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Divergence {
    /// Stable rule name (see [`oracle`]).
    pub rule: &'static str,
    /// Human-readable account of the violation.
    pub detail: String,
}

/// Per-run knobs that are not part of the scenario itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunOptions {
    /// Compute-pool threads inside the engine (task payloads).
    pub compute_threads: usize,
    /// Re-run each scenario on the inline pool and require the outcome
    /// and sim-domain metrics to serialize byte-identically.
    pub cross_check: bool,
    /// Fault injection *into the oracle path*: truncate the run's
    /// named-suspect set to its first element before checking, re-
    /// creating the pre-conflict-forensics bug class ("only the first
    /// injected replica is named"). Used to validate the shrinker and
    /// to pin counterexamples; never enabled in a real campaign.
    pub truncate_naming: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            compute_threads: 1,
            cross_check: false,
            truncate_naming: false,
        }
    }
}

/// Everything one scenario run produced, reduced to the deterministic
/// summary the aggregate report folds over.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Campaign index of the scenario.
    pub index: u64,
    /// The scenario itself.
    pub scenario: Scenario,
    /// Whether the run verified.
    pub verified: bool,
    /// Fresh replicas per escalation round.
    pub rounds: Vec<usize>,
    /// Replicas the forensics implicate (deviant ∪ omitted ∪ conflict),
    /// after any oracle fault injection.
    pub named: BTreeSet<usize>,
    /// Health-report suspects (mismatch/omission evidence only).
    pub suspects: Vec<u64>,
    /// Per-key report→quorum lags, merged over the run's keys (sim µs).
    pub detection_lag: Histogram,
    /// Oracle violations (empty on a conforming run).
    pub divergences: Vec<Divergence>,
}

impl ScenarioResult {
    /// Uids with an injected fault that were actually scheduled.
    pub fn injected_scheduled(&self) -> BTreeSet<usize> {
        let scheduled: usize = self.rounds.iter().sum();
        self.scenario
            .faults
            .iter()
            .map(|(uid, _)| *uid)
            .filter(|uid| *uid < scheduled)
            .collect()
    }
}

/// The oracle: what a run's verdict must look like, given its fault
/// plan. Each rule is conservative — it only claims what the protocol
/// guarantees, so a conforming build produces zero divergences over any
/// campaign.
pub mod oracle {
    use super::*;

    /// `suspects-not-injected`: with at most `f` commission faults no
    /// corrupt quorum can form, so every individually-implicated
    /// replica (digest mismatch or omission) must carry an injected
    /// fault. Honest replicas are never suspects.
    pub const FALSE_SUSPICION: &str = "suspects-not-injected";
    /// `crash-not-omitted`: a crashed replica that was scheduled never
    /// completes, so it must be in the omitted set.
    pub const MISSED_CRASH: &str = "crash-not-omitted";
    /// `fault-not-named`: a *deterministic* fault (crash, or commission
    /// with probability 1.0) on a scheduled replica must be named by
    /// the forensics — deviant, omitted or conflict party — whenever an
    /// honest replica was scheduled to contradict it and no corrupt
    /// quorum can exonerate it.
    pub const MISSED_NAMING: &str = "fault-not-named";
    /// `unverified-within-f`: with at most `f` injected faults the
    /// escalation ladder always reaches an honest `f+1` quorum.
    pub const UNVERIFIED: &str = "unverified-within-f";
    /// `verified-wrong-output`: a verified run with at most `f`
    /// commission faults must publish exactly the reference
    /// interpreter's outputs.
    pub const WRONG_OUTPUT: &str = "verified-wrong-output";
    /// `pool-divergence`: the outcome serialized differently on the
    /// inline pool (only checked under `cross_check`).
    pub const POOL_DIVERGENCE: &str = "pool-divergence";

    /// The fault bound every scenario runs under.
    pub const F: usize = 1;

    /// Checks one outcome against the scenario's fault plan. `named` is
    /// the forensics set (possibly truncated by the oracle fault
    /// injection); `suspects` the health report's individually-blamed
    /// replicas.
    pub fn check(
        scenario: &Scenario,
        outcome: &ParallelOutcome,
        named: &BTreeSet<usize>,
        suspects: &[u64],
    ) -> Vec<Divergence> {
        let mut out = Vec::new();
        let scheduled: usize = outcome.replicas_per_round().iter().sum();
        let injected: BTreeSet<usize> = scenario.faults.iter().map(|(uid, _)| *uid).collect();
        let commissions = scenario.commission_faults();
        let honest_scheduled = (0..scheduled).filter(|uid| !injected.contains(uid)).count();

        if commissions <= F {
            for s in suspects {
                if !injected.contains(&(*s as usize)) {
                    out.push(Divergence {
                        rule: FALSE_SUSPICION,
                        detail: format!("honest replica {s} named suspect"),
                    });
                }
            }
        }

        for (uid, behavior) in &scenario.faults {
            if *uid >= scheduled {
                continue; // never launched, cannot manifest
            }
            if matches!(behavior, Behavior::Crashed) && !outcome.omitted_replicas().contains(uid) {
                out.push(Divergence {
                    rule: MISSED_CRASH,
                    detail: format!("crashed replica {uid} not in omitted set"),
                });
            }
            let deterministic = match behavior {
                Behavior::Crashed => true,
                Behavior::Commission { probability } => *probability >= 1.0,
                _ => false,
            };
            if deterministic && commissions <= F && honest_scheduled >= 1 && !named.contains(uid) {
                out.push(Divergence {
                    rule: MISSED_NAMING,
                    detail: format!("deterministic fault on replica {uid} not named"),
                });
            }
        }

        if scenario.faults.len() <= F && !outcome.verified() {
            out.push(Divergence {
                rule: UNVERIFIED,
                detail: format!("{} fault(s) ≤ f, yet unverified", scenario.faults.len()),
            });
        }

        if outcome.verified() && commissions <= F {
            let plan = Script::parse(SCRIPTS[scenario.script])
                .expect("corpus scripts parse")
                .into_plan();
            let inputs = HashMap::from([("in".to_owned(), scenario.input())]);
            let reference = interpret(&plan, &inputs).expect("reference interpretation");
            for (name, truth) in reference.outputs() {
                let mut ours = outcome.output(name).unwrap_or_default().to_vec();
                let mut truth = truth.clone();
                ours.sort();
                truth.sort();
                if ours != truth {
                    out.push(Divergence {
                        rule: WRONG_OUTPUT,
                        detail: format!("verified output '{name}' differs from reference"),
                    });
                }
            }
        }
        out
    }
}

/// Executes the scenario once at the given pool size.
fn execute(scenario: &Scenario, compute_threads: usize, metrics: &Metrics) -> ParallelOutcome {
    let obs = Obs {
        metrics: metrics.clone(),
        ..Obs::disabled()
    };
    let mut exec = ParallelExecutor::observed(
        ExecutorConfig {
            threads: 1,
            compute_threads,
            expected_failures: oracle::F,
            escalation: scenario.escalation.clone(),
            vp_policy: VpPolicy::Marked(scenario.points),
            digest_granularity: scenario.granularity,
            map_split_records: scenario.map_split_records,
            master_seed: scenario.seed,
            ..ExecutorConfig::default()
        },
        obs,
    );
    exec.load_input("in", scenario.input())
        .expect("scenario input loads");
    for &(uid, behavior) in &scenario.faults {
        exec.inject_fault(uid, behavior);
    }
    exec.run_script(SCRIPTS[scenario.script])
        .expect("corpus scripts execute")
}

/// Merges every per-key verification-lag histogram in `snap`.
fn detection_lags(snap: &Snapshot) -> Histogram {
    let mut lag = Histogram::new();
    for s in &snap.samples {
        if s.name == names::VERIFICATION_LAG_US {
            if let SampleValue::Histogram(h) = &s.value {
                lag.merge(h);
            }
        }
    }
    lag
}

/// Runs one scenario and checks it against the oracle.
pub fn run_scenario(index: u64, scenario: &Scenario, opts: &RunOptions) -> ScenarioResult {
    let metrics = Metrics::new();
    let outcome = execute(scenario, opts.compute_threads, &metrics);
    let snap = metrics.snapshot().sim_only();
    let report = HealthReport::from_snapshot(&snap);

    let mut named = outcome.named_replicas();
    if opts.truncate_naming {
        // Oracle fault injection: drop every name after the first, the
        // pre-conflict-forensics bug class.
        let first = named.iter().next().copied();
        named = first.into_iter().collect();
    }

    let mut divergences = oracle::check(scenario, &outcome, &named, &report.suspect_replicas());

    if opts.cross_check && opts.compute_threads != 1 {
        let inline_metrics = Metrics::new();
        let inline = execute(scenario, 1, &inline_metrics);
        let pooled_json = serde_json::to_string(&outcome).expect("outcome serializes");
        let inline_json = serde_json::to_string(&inline).expect("outcome serializes");
        if pooled_json != inline_json
            || cbft_metrics::prometheus_text(&snap)
                != cbft_metrics::prometheus_text(&inline_metrics.snapshot().sim_only())
        {
            divergences.push(Divergence {
                rule: oracle::POOL_DIVERGENCE,
                detail: format!(
                    "outcome differs between compute pools of 1 and {}",
                    opts.compute_threads
                ),
            });
        }
    }

    ScenarioResult {
        index,
        scenario: scenario.clone(),
        verified: outcome.verified(),
        rounds: outcome.replicas_per_round().to_vec(),
        named,
        suspects: report.suspect_replicas(),
        detection_lag: detection_lags(&snap),
        divergences,
    }
}

/// A whole campaign: how many scenarios, from which seed, on how many
/// worker threads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Campaign master seed (scenario `i` derives from it).
    pub seed: u64,
    /// Number of scenarios to run.
    pub scenarios: u64,
    /// Campaign worker threads (scenario fan-out; 0 = one per core).
    pub threads: usize,
    /// Per-run options.
    pub run: RunOptions,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 1,
            scenarios: 1000,
            threads: 1,
            run: RunOptions::default(),
        }
    }
}

/// Runs the campaign: generates scenario `0..scenarios`, executes them
/// across the pool, and folds the results — in index order — into the
/// aggregate report. The report (and every [`ScenarioResult`]) is
/// byte-identical for any `threads` / `compute_threads` combination.
pub fn run_campaign(config: &CampaignConfig) -> (CampaignReport, Vec<ScenarioResult>) {
    let pool = ComputePool::new(config.threads.max(1));
    let seed = config.seed;
    let run = config.run.clone();
    let results = pool.par_map(config.scenarios as usize, move |i| {
        let scenario = Scenario::generate(seed, i as u64);
        run_scenario(i as u64, &scenario, &run)
    });
    let report = CampaignReport::aggregate(config, &results);
    (report, results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_scenario_conforms_and_verifies() {
        let scenario = Scenario {
            seed: 11,
            script: 0,
            records: 60,
            key_mod: 7,
            escalation: vec![2, 3, 4],
            points: 1,
            granularity: usize::MAX,
            map_split_records: 40,
            faults: Vec::new(),
        };
        let result = run_scenario(0, &scenario, &RunOptions::default());
        assert!(result.verified);
        assert!(result.divergences.is_empty(), "{:?}", result.divergences);
        assert!(result.named.is_empty());
        assert!(result.detection_lag.count() > 0, "lag keys were recorded");
    }

    #[test]
    fn a_single_crash_is_detected_and_conforms() {
        let scenario = Scenario {
            seed: 11,
            script: 0,
            records: 60,
            key_mod: 7,
            escalation: vec![2, 3, 4],
            points: 1,
            granularity: usize::MAX,
            map_split_records: 40,
            faults: vec![(0, Behavior::Crashed)],
        };
        let result = run_scenario(0, &scenario, &RunOptions::default());
        assert!(result.verified, "escalation recovers");
        assert!(result.divergences.is_empty(), "{:?}", result.divergences);
        assert!(result.named.contains(&0));
        assert_eq!(result.suspects, vec![0]);
    }

    #[test]
    fn truncated_naming_diverges_on_a_two_fault_scenario() {
        let scenario = Scenario {
            seed: 11,
            script: 0,
            records: 60,
            key_mod: 7,
            escalation: vec![2, 3, 4],
            points: 1,
            granularity: usize::MAX,
            map_split_records: 40,
            faults: vec![(0, Behavior::Crashed), (1, Behavior::Crashed)],
        };
        let honest = run_scenario(0, &scenario, &RunOptions::default());
        assert!(honest.divergences.is_empty(), "{:?}", honest.divergences);
        let truncated = run_scenario(
            0,
            &scenario,
            &RunOptions {
                truncate_naming: true,
                ..RunOptions::default()
            },
        );
        assert!(
            truncated
                .divergences
                .iter()
                .any(|d| d.rule == oracle::MISSED_NAMING),
            "dropping the second name must violate the naming rule"
        );
    }

    #[test]
    fn results_are_identical_across_pool_sizes() {
        let config = CampaignConfig {
            seed: 5,
            scenarios: 12,
            threads: 1,
            run: RunOptions::default(),
        };
        let (report_a, results_a) = run_campaign(&config);
        let wide = CampaignConfig {
            threads: 8,
            run: RunOptions {
                compute_threads: 4,
                ..RunOptions::default()
            },
            ..config.clone()
        };
        let (report_b, results_b) = run_campaign(&wide);
        assert_eq!(report_a.render(), report_b.render());
        for (a, b) in results_a.iter().zip(&results_b) {
            assert_eq!(a.verified, b.verified, "scenario {}", a.index);
            assert_eq!(a.named, b.named, "scenario {}", a.index);
            assert_eq!(a.divergences, b.divergences, "scenario {}", a.index);
        }
    }
}
