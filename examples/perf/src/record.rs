//! What one run leaves behind: the result line the driver reads, and the
//! full record (`--out FILE`, one JSON object per line) that `compare`
//! reads, which also names the host.

use std::io::Write as _;
use std::process::Command;

use serde::{Deserialize, Serialize};

use crate::metrics::Metrics;
use crate::procfs;

/// The last line of standard output, exactly as the driver expects it.
#[derive(Serialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// What either kind of run measured.
pub struct Measured {
    pub metrics: Metrics,
    pub attempted: u64,
    /// Failed = non-zero exit, not `VERIFIED`, rows unequal to the
    /// reference, or a workload-specific assertion.
    pub failed: u64,
    /// Timed repetitions behind the end-to-end figures (0: traced run).
    pub n: usize,
    pub first_failure: Option<String>,
    /// Fastest host-reference pass of the run (see `hostref`). The
    /// end-to-end times are the measured ones multiplied by
    /// `hostref::scale` of this; per-layer figures are not scaled.
    pub host_ref_s: f64,
}

/// Facts about the machine and toolchain a record was taken on.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub sha256_hardware_accelerated: bool,
    pub rustc: String,
    pub git_commit: String,
    /// Says so when the host has fewer cores than the workloads have
    /// busy threads, instead of silently oversubscribing.
    pub note: String,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

impl Host {
    pub fn detect(sha256_hardware_accelerated: bool) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Host {
            nproc,
            cpu_model: procfs::cpu_model(),
            sha256_hardware_accelerated,
            rustc: first_line_of("rustc", &["--version"]),
            git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
            note: if nproc < 2 {
                "fewer than 2 cores: the workloads' two worker threads share one core, \
                 so wall-clock figures are oversubscribed and not comparable with a 2-core record"
                    .to_owned()
            } else {
                String::new()
            },
        }
    }
}

/// One run, in full.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    /// `false`: end-to-end metrics, tracing off; `true`: per-layer.
    pub trace: bool,
    /// Timed repetitions behind the end-to-end medians.
    pub n: usize,
    /// The exact child command line.
    pub command: Vec<String>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: String,
    /// Fastest host-reference pass of the run, seconds; divide an
    /// end-to-end time by `hostref::NOMINAL_S / host_ref_s` to get the
    /// time as measured.
    pub host_ref_s: f64,
    pub metrics: Metrics,
    pub host: Host,
}

impl Record {
    /// Appends the record to `path` as one line of JSON.
    pub fn append_to(&self, path: &str) -> Result<(), String> {
        let line = serde_json::to_string(self).map_err(|e| e.to_string())?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        writeln!(file, "{line}").map_err(|e| format!("cannot write {path}: {e}"))
    }

    /// Reads every record of a file written by [`Record::append_to`].
    pub fn read_all(path: &str) -> Result<Vec<Record>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .enumerate()
            .map(|(i, l)| {
                serde_json::from_str(l).map_err(|e| format!("{path} line {}: {e}", i + 1))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;

    #[test]
    fn records_round_trip_through_a_file() {
        let path = std::env::temp_dir().join(format!("perf_record_{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let record = Record {
            workload: "w".to_owned(),
            seed: u64::MAX,
            seconds: 1.5,
            scale: 0.02,
            trace: false,
            n: 9,
            command: vec!["cbft".to_owned(), "a b".to_owned()],
            correct: true,
            attempted: 9,
            failed: 0,
            first_failure: String::new(),
            host_ref_s: 0.125,
            metrics: [(
                "verified_s".to_owned(),
                Metric {
                    value: 1.25,
                    unit: "s".to_owned(),
                },
            )]
            .into_iter()
            .collect(),
            host: Host::detect(false),
        };
        record.append_to(path).unwrap();
        record.append_to(path).unwrap();
        let back = Record::read_all(path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].seed, u64::MAX);
        assert_eq!(back[1].metrics["verified_s"].value, 1.25);
        assert_eq!(back[1].command[1], "a b");
        assert!(back[0].host.nproc >= 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics: Metrics = [(
            "setup_s".to_owned(),
            Metric {
                value: 0.5,
                unit: "s".to_owned(),
            },
        )]
        .into_iter()
        .collect();
        let line = serde_json::to_string(&ResultLine {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        })
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}
