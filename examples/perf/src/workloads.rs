//! The five workloads: what each generates, the command under test, and
//! how a repetition's output is checked against the oracle.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use crate::child::{Binaries, ChildRun};
use crate::report::{self, DaemonReport};
use crate::sut::{self, Data, Reference};

/// `--show` value that prints every row of every output.
const SHOW_ALL: &str = "100000000";

/// What a workload runs.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// One `cbft` process per repetition.
    OneShot {
        data: Data,
        /// Input records at `--scale 1`.
        records: usize,
        /// Flags after the script and `--input`.
        flags: &'static [&'static str],
        /// The report must also say `escalated to replication` and
        /// `deviant replicas: {0}`.
        expects_fault_report: bool,
        /// The traced run also times `--trace FILE` and
        /// `--metrics-json FILE` against the plain command.
        measures_observability: bool,
    },
    /// One `cbftd` drain of a jobs file per repetition.
    Daemon {
        /// Jobs at `--scale 1`.
        jobs: usize,
        records_per_job: usize,
        flags: &'static [&'static str],
    },
}

/// A named workload and the reason it exists.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

/// Sizes are chosen so that one repetition takes 0.5–1.5 s on two cores:
/// long enough that process start-up is a few percent, short enough that
/// a 15 s run holds ten or more repetitions for a steady median.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "par-follower-columnar",
        why: "data-plane bound: mapreduce map/shuffle/reduce and digest do the work on the default columnar plane",
        kind: Kind::OneShot {
            data: Data::Twitter,
            records: 400_000,
            flags: &["--threads", "2", "--replication", "optimistic"],
            expects_fault_report: false,
            measures_observability: true,
        },
    },
    Workload {
        name: "par-follower-rows",
        why: "same input through the row kernels (--batch-size 0): a gain for one plane that costs the other shows here",
        kind: Kind::OneShot {
            data: Data::Twitter,
            records: 400_000,
            flags: &["--threads", "2", "--replication", "optimistic", "--batch-size", "0"],
            expects_fault_report: false,
            measures_observability: false,
        },
    },
    Workload {
        name: "seq-airline-full",
        why: "default path: sequential pipeline, 4 replicas on one shared cluster, 6-job DAG; orchestration and sim scheduling carry the weight",
        kind: Kind::OneShot {
            data: Data::Airline,
            records: 60_000,
            flags: &[],
            expects_fault_report: false,
            measures_observability: false,
        },
    },
    Workload {
        name: "hybrid-weather-fault",
        why: "assurance path under a Byzantine replica: probe, spot-check, chunked-digest localisation, escalation, deviant naming",
        kind: Kind::OneShot {
            data: Data::Weather,
            records: 200_000,
            // The run has ~28 tasks, and about one corrupted task in
            // seven still reproduces its digest. The default rate of 0.1
            // samples two to four tasks; for some inputs none of them
            // mismatches and the faulty replica's output is published
            // unescalated. 0.5 samples about fourteen, so the workload has
            // no seed on which an operation fails.
            flags: &[
                "--threads", "2", "--verify-mode", "hybrid", "--sample-rate", "0.5",
                "--granularity", "256", "--fault", "0:commission",
            ],
            expects_fault_report: true,
            measures_observability: false,
        },
    },
    Workload {
        name: "daemon-mixed-drain",
        why: "240 small jobs through cbftd, closed loop: per-job fixed cost (parse/plan/compile, cluster build, sim heartbeats) and server queueing dominate",
        kind: Kind::Daemon {
            jobs: 240,
            records_per_job: 3_000,
            flags: &["--slots", "2", "--threads", "1"],
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One script over one generated input, with the oracle's answer.
pub struct Job {
    pub data: Data,
    pub tenant: &'static str,
    /// The simulation seed the program is given; see [`SIM_SEED`].
    pub sim_seed: u64,
    pub script_path: PathBuf,
    pub input_path: PathBuf,
    pub records: Vec<sut::Record>,
    pub reference: Reference,
}

/// Everything `setup` leaves behind for the measured part.
pub struct Prepared {
    /// The child command line, program first.
    pub command: Vec<String>,
    /// One job for a one-shot workload, all of them for the daemon.
    pub jobs: Vec<Job>,
    /// Input records one repetition processes.
    pub input_records: usize,
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(1)
}

fn write_csv(path: &Path, records: &[sut::Record]) -> Result<(), String> {
    let mut text = String::with_capacity(records.len() * 16);
    for r in records {
        text.push_str(&sut::render_record(r));
        text.push('\n');
    }
    fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn strings(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_owned()).collect()
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// The simulation seed of every one-shot child (daemon job `i` gets
/// `SIM_SEED + i`). The benchmark's `--seed` makes the inputs and nothing
/// else: the program receives only the generated files. The simulated
/// cluster's seed is not part of the input, and it changes the work: on
/// `seq-airline-full` about one seed in five waits out the 600 s verifier
/// timeout and cancels replicas earlier (0.62 s against 0.79 s, 87 MB
/// against 112 MB), and on the hybrid workload it picks which tasks are
/// spot-checked.
const SIM_SEED: u64 = 1;

/// Generates one job's input from `data_seed`, writes it next to its
/// script, and asks the reference interpreter for the expected outputs.
fn prepare_job(
    dir: &Path,
    data: Data,
    tenant: &'static str,
    data_seed: u64,
    sim_seed: u64,
    records: usize,
    file_stem: &str,
) -> Result<Job, String> {
    let script_path = dir.join(format!("{}.pig", data.stem()));
    if !script_path.exists() {
        fs::write(&script_path, data.script())
            .map_err(|e| format!("cannot write {}: {e}", script_path.display()))?;
    }
    let input_path = dir.join(format!("{file_stem}.csv"));
    let generated = data.generate(data_seed, records);
    write_csv(&input_path, &generated)?;
    let (reference, records) = sut::reference(data.script(), data.input_name(), generated)?;
    Ok(Job {
        data,
        tenant,
        sim_seed,
        script_path,
        input_path,
        records,
        reference,
    })
}

/// The `cbft` command line for one job: flags, then the fixed tail every
/// workload shares.
fn cbft_command(bins: &Binaries, job: &Job, flags: &[&str]) -> Vec<String> {
    let mut cmd = vec![
        path_str(&bins.cbft),
        path_str(&job.script_path),
        "--input".to_owned(),
        format!("{}={}", job.data.input_name(), path_str(&job.input_path)),
    ];
    cmd.extend(strings(flags));
    cmd.extend(strings(&[
        "--compute-threads",
        "1",
        "--show",
        SHOW_ALL,
        "--seed",
    ]));
    cmd.push(job.sim_seed.to_string());
    cmd
}

/// Set-up: generate records from `seed`, write the CSV, script and jobs
/// files under `dir`, compute the reference outputs.
pub fn setup(
    w: &Workload,
    seed: u64,
    scale: f64,
    dir: &Path,
    bins: &Binaries,
) -> Result<Prepared, String> {
    match w.kind {
        Kind::OneShot {
            data,
            records,
            flags,
            ..
        } => {
            let n = scaled(records, scale);
            let job = prepare_job(dir, data, "solo", seed, SIM_SEED, n, data.stem())?;
            Ok(Prepared {
                command: cbft_command(bins, &job, flags),
                jobs: vec![job],
                input_records: n,
            })
        }
        Kind::Daemon {
            jobs,
            records_per_job,
            flags,
        } => {
            const TENANTS: [&str; 3] = ["acme", "beta", "solo"];
            const DATA: [Data; 3] = [Data::Twitter, Data::Airline, Data::Weather];
            let count = scaled(jobs, scale).max(DATA.len());
            let mut prepared = Vec::with_capacity(count);
            let mut lines = String::new();
            for i in 0..count {
                let job = prepare_job(
                    dir,
                    DATA[i % DATA.len()],
                    TENANTS[i % TENANTS.len()],
                    seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
                    SIM_SEED + i as u64,
                    records_per_job,
                    &format!("job{i}"),
                )?;
                let _ = writeln!(
                    lines,
                    "{} {} {} {}={}",
                    job.tenant,
                    job.sim_seed,
                    path_str(&job.script_path),
                    job.data.input_name(),
                    path_str(&job.input_path),
                );
                prepared.push(job);
            }
            let jobs_file = dir.join("jobs.txt");
            fs::write(&jobs_file, lines)
                .map_err(|e| format!("cannot write {}: {e}", jobs_file.display()))?;
            let mut command = vec![path_str(&bins.cbftd), path_str(&jobs_file)];
            command.extend(strings(flags));
            command.extend(strings(&["--compute-threads", "1"]));
            Ok(Prepared {
                command,
                input_records: count * records_per_job,
                jobs: prepared,
            })
        }
    }
}

/// The self-test: poisons every expected output so that every
/// repetition must fail.
pub fn corrupt_reference(prepared: &mut Prepared) {
    for job in &mut prepared.jobs {
        for rows in job.reference.rows.values_mut() {
            rows.push("corrupted,by,self-test".to_owned());
            rows.sort_unstable();
        }
    }
}

/// Printed rows against the oracle: same outputs, equal as sorted
/// multisets, and `ORDER`ed outputs in key order as printed.
pub fn check_rows(
    reference: &Reference,
    printed: &BTreeMap<String, Vec<String>>,
) -> Result<(), String> {
    if !printed.keys().eq(reference.rows.keys()) {
        return Err(format!(
            "outputs {:?}, expected {:?}",
            printed.keys().collect::<Vec<_>>(),
            reference.rows.keys().collect::<Vec<_>>()
        ));
    }
    for (name, expected) in &reference.rows {
        let rows = &printed[name];
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        if &sorted != expected {
            return Err(format!(
                "output '{name}' differs from the reference ({} rows, expected {})",
                rows.len(),
                expected.len()
            ));
        }
        if let Some(&(col, descending)) = reference.ordered.get(name) {
            let keys: Option<Vec<i64>> = rows
                .iter()
                .map(|r| r.split(',').nth(col)?.parse().ok())
                .collect();
            let keys = keys.ok_or_else(|| format!("output '{name}' has a non-integer sort key"))?;
            let in_order = keys.windows(2).all(|w| {
                if descending {
                    w[0] >= w[1]
                } else {
                    w[0] <= w[1]
                }
            });
            if !in_order {
                return Err(format!("output '{name}' is not in key order"));
            }
        }
    }
    Ok(())
}

/// Checks one finished `cbft` child against its job's oracle.
pub fn check_cbft(child: &ChildRun, job: &Job, expects_fault_report: bool) -> Result<(), String> {
    if !child.success {
        return Err(format!(
            "cbft exited with an error: {}",
            child.stderr.trim()
        ));
    }
    let parsed = report::parse_cbft(&child.stdout);
    if !parsed.verified {
        return Err("report does not open with VERIFIED".to_owned());
    }
    if parsed.truncated {
        return Err("report truncated an output".to_owned());
    }
    if expects_fault_report {
        if !parsed.escalated {
            return Err("report lacks 'escalated to replication'".to_owned());
        }
        if parsed.deviant.as_deref() != Some("{0}") {
            return Err(format!(
                "deviant replicas {:?}, expected {{0}}",
                parsed.deviant
            ));
        }
    }
    check_rows(&job.reference, &parsed.outputs)
}

/// Checks one finished `cbftd` drain. A job fails when the daemon did not
/// drain and report, when its result line (lines are in admission, that
/// is file, order) is not `VERIFIED`, or when its script is one of
/// `wrong_rows` (see [`check_daemon_rows`]). Returns the parsed report and
/// the number of failed jobs.
pub fn check_cbftd(
    child: &ChildRun,
    prepared: &Prepared,
    wrong_rows: &[Data],
) -> (DaemonReport, usize) {
    let parsed = report::parse_cbftd(&child.stdout);
    if !child.success || !parsed.summarized {
        return (parsed, prepared.jobs.len());
    }
    let failed = prepared
        .jobs
        .iter()
        .enumerate()
        .filter(|(i, job)| {
            wrong_rows.contains(&job.data) || !parsed.jobs.get(*i).is_some_and(|line| line.verified)
        })
        .count();
    (parsed, failed)
}

/// `cbftd` prints verdicts, not rows. The rows are checked by running
/// the first job of each script through `cbft` with the settings `cbftd`
/// gives every job; a job is a function of its line, so the daemon's
/// output for that job is the same. Returns the scripts whose rows are
/// wrong.
pub fn check_daemon_rows(
    prepared: &Prepared,
    bins: &Binaries,
    scratch: &Path,
) -> Result<Vec<Data>, String> {
    let mut wrong = Vec::new();
    let mut seen: Vec<Data> = Vec::new();
    for job in &prepared.jobs {
        if seen.contains(&job.data) {
            continue;
        }
        seen.push(job.data);
        let flags = [
            "--threads",
            "1",
            "--replication",
            "optimistic",
            "--nodes",
            "8",
            "--slots",
            "3",
        ];
        let child = crate::child::run(&cbft_command(bins, job, &flags), scratch)
            .map_err(|e| format!("cannot run cbft: {e}"))?;
        if check_cbft(&child, job, false).is_err() {
            wrong.push(job.data);
        }
    }
    Ok(wrong)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(rows: &[(&str, &[&str])], ordered: &[(&str, (usize, bool))]) -> Reference {
        Reference {
            rows: rows
                .iter()
                .map(|(n, r)| ((*n).to_owned(), strings(r)))
                .collect(),
            ordered: ordered.iter().map(|(n, o)| ((*n).to_owned(), *o)).collect(),
        }
    }

    fn printed(rows: &[(&str, &[&str])]) -> BTreeMap<String, Vec<String>> {
        rows.iter()
            .map(|(n, r)| ((*n).to_owned(), strings(r)))
            .collect()
    }

    #[test]
    fn rows_compare_as_multisets_and_ordered_outputs_by_key() {
        let oracle = reference(&[("top", &["1,9", "2,9", "3,5"])], &[("top", (1, true))]);
        assert!(check_rows(&oracle, &printed(&[("top", &["2,9", "1,9", "3,5"])])).is_ok());
        let err = check_rows(&oracle, &printed(&[("top", &["3,5", "1,9", "2,9"])])).unwrap_err();
        assert!(err.contains("key order"), "{err}");
        let err = check_rows(&oracle, &printed(&[("top", &["1,9", "2,9"])])).unwrap_err();
        assert!(err.contains("differs"), "{err}");
        let err = check_rows(&oracle, &printed(&[("other", &["1,9"])])).unwrap_err();
        assert!(err.contains("expected"), "{err}");
        // Duplicates count: a multiset, not a set.
        let dup = reference(&[("o", &["1", "1", "2"])], &[]);
        assert!(check_rows(&dup, &printed(&[("o", &["1", "2", "1"])])).is_ok());
        assert!(check_rows(&dup, &printed(&[("o", &["1", "2", "2"])])).is_err());
    }

    #[test]
    fn workload_names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(w.why.len() <= 200, "{}", w.name);
        }
        assert!(find("nope").is_none());
    }
}
