//! `perf compare A B`: two sets of runs, metric by metric, against the
//! bounds the benchmark fixed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::END_TO_END;
use crate::record::Record;
use crate::stats::{quartiles, spread};
use crate::workloads::WORKLOADS;

/// Counts made by the program that are functions of the inputs and the
/// seed alone: two records of the same workload and seed must agree on
/// them exactly.
pub const EXACT_COUNTS: [&str; 7] = [
    "mapreduce.records_cloned",
    "mapreduce.bytes_encoded",
    "mapreduce.digest_bytes_hashed",
    "mapreduce.tasks_dispatched",
    "core.replicas_run",
    "core.digest_reports",
    "core.sim_latency_s",
];

/// How one metric of one workload compares.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// A side's run-to-run spread is wider than the bound: the runs
    /// cannot tell a change of that size from noise.
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Worse,
}

/// By what share of A's median B's median is worse (negative: better).
pub fn worse_by(a_median: f64, b_median: f64, higher_is_better: bool) -> f64 {
    if a_median == 0.0 {
        return 0.0;
    }
    let change = (b_median - a_median) / a_median.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let worse = worse_by(quartiles(a).1, quartiles(b).1, higher_is_better);
    if worse > bound {
        Verdict::Worse
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| !r.trace && r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).map(|m| m.value))
        .collect()
}

/// Renders the comparison; the flag says whether anything is out of
/// bounds (a worse median, a failed operation, a count that moved).
pub fn compare(a: &[Record], b: &[Record]) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    for (side, records) in [("A", a), ("B", b)] {
        if let Some(h) = records.first().map(|r| &r.host) {
            let _ = writeln!(
                out,
                "{side}: {} runs, commit {}, {} x {}, {}{}",
                records.len(),
                h.git_commit,
                h.nproc,
                h.cpu_model,
                h.rustc,
                if h.note.is_empty() {
                    String::new()
                } else {
                    format!(" [{}]", h.note)
                },
            );
        }
        for r in records.iter().filter(|r| r.failed > 0 || !r.correct) {
            bad = true;
            let _ = writeln!(
                out,
                "{side}: {} seed {} failed {}/{}: {}",
                r.workload, r.seed, r.failed, r.attempted, r.first_failure
            );
        }
    }

    let _ = writeln!(
        out,
        "\n{:<22} {:<14} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "worse",
        "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(a, w.name, m.name), values(b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let higher = m.better == "higher";
            let (a1, am, a3) = quartiles(&va);
            let (b1, bm, b3) = quartiles(&vb);
            let v = verdict(&va, &vb, higher, m.bound);
            bad |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<22} {:<14} {:>12.4} {:>25} {:>12.4} {:>25} {:>+7.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                am,
                format!("[{a1:.4} .. {a3:.4}] n={}", va.len()),
                bm,
                format!("[{b1:.4} .. {b3:.4}] n={}", vb.len()),
                worse_by(am, bm, higher) * 100.0,
                m.bound * 100.0,
                match v {
                    Verdict::Within => "ok",
                    Verdict::Unresolved => "unresolved (spread wider than bound)",
                    Verdict::Worse => "WORSE THAN BOUND",
                },
            );
        }
    }

    // Traced records of the same workload and seed must agree on counts.
    let keyed = |records: &[Record]| -> BTreeMap<(String, u64), Record> {
        records
            .iter()
            .filter(|r| r.trace)
            .map(|r| ((r.workload.clone(), r.seed), r.clone()))
            .collect()
    };
    let (ta, tb) = (keyed(a), keyed(b));
    let mut compared = 0;
    for (key, ra) in &ta {
        let Some(rb) = tb.get(key) else { continue };
        compared += 1;
        for name in EXACT_COUNTS {
            let (x, y) = (ra.metrics.get(name), rb.metrics.get(name));
            if x.map(|m| m.value) != y.map(|m| m.value) {
                bad = true;
                let _ = writeln!(
                    out,
                    "COUNT MOVED {} seed {}: {name} {x:?} vs {y:?}",
                    key.0, key.1
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "\n{compared} traced run pairs (same workload and seed) compared on {} exact counts",
        EXACT_COUNTS.len()
    );
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(1.0, 1.2, false) - 0.2).abs() < 1e-12);
        assert!((worse_by(1.0, 1.2, true) + 0.2).abs() < 1e-12);
        assert!((worse_by(100.0, 80.0, true) - 0.2).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn verdicts_separate_regression_noise_and_agreement() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        let slower = [1.20, 1.21, 1.19, 1.22, 1.20];
        let noisy = [0.7, 1.3, 1.0, 0.8, 1.25];
        assert_eq!(verdict(&steady, &steady, false, 0.10), Verdict::Within);
        assert_eq!(verdict(&steady, &slower, false, 0.10), Verdict::Worse);
        assert_eq!(
            verdict(&slower, &steady, false, 0.10),
            Verdict::Within,
            "faster is fine"
        );
        assert_eq!(
            verdict(&steady, &slower, true, 0.10),
            Verdict::Within,
            "higher is better"
        );
        assert_eq!(verdict(&steady, &noisy, false, 0.10), Verdict::Unresolved);
        assert_eq!(
            verdict(&[1.0], &[1.05], false, 0.10),
            Verdict::Within,
            "single runs"
        );
    }
}
