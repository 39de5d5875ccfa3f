//! The end-to-end run: black box, tracing off, only through the shipped
//! `cbft` / `cbftd` binaries.

use std::path::Path;
use std::time::Instant;

use crate::child::{self, Binaries, ChildRun};
use crate::hostref;
use crate::metrics::end_to_end;
use crate::record::Measured;
use crate::report::DaemonReport;
use crate::stats::{fastest, median};
use crate::sut::Data;
use crate::workloads::{self, Kind, Prepared, Workload};

/// Timed repetitions a run makes at least, however short `--seconds` is.
const MIN_REPETITIONS: usize = 3;

/// One checked repetition (one child process from spawn to exit).
pub struct Repetition {
    pub child: ChildRun,
    /// Scripts the child was asked to verify: 1, or the jobs of a drain.
    pub attempted: u64,
    /// Of those, how many failed: non-zero exit, not `VERIFIED`, rows
    /// unequal to the reference, or a workload-specific assertion.
    pub failed: u64,
    pub why_failed: Option<String>,
    /// `cbftd`'s parsed report, for the daemon workload.
    pub daemon: Option<DaemonReport>,
}

/// The daemon workload's row check, made once outside the timed drains:
/// the scripts whose rows differ from the reference (none for a one-shot
/// workload, whose rows every repetition checks).
pub fn wrong_daemon_rows(
    w: &Workload,
    prepared: &Prepared,
    bins: &Binaries,
    scratch: &Path,
) -> Result<Vec<Data>, String> {
    match w.kind {
        Kind::Daemon { .. } => workloads::check_daemon_rows(prepared, bins, scratch),
        Kind::OneShot { .. } => Ok(Vec::new()),
    }
}

/// Runs the workload's command once and checks what it printed.
pub fn repetition(
    w: &Workload,
    prepared: &Prepared,
    wrong_rows: &[Data],
    scratch: &Path,
) -> Result<Repetition, String> {
    let child = child::run(&prepared.command, scratch)
        .map_err(|e| format!("cannot run {}: {e}", prepared.command[0]))?;
    Ok(match w.kind {
        Kind::OneShot {
            expects_fault_report,
            ..
        } => {
            let verdict = workloads::check_cbft(&child, &prepared.jobs[0], expects_fault_report);
            Repetition {
                attempted: 1,
                failed: u64::from(verdict.is_err()),
                why_failed: verdict.err(),
                daemon: None,
                child,
            }
        }
        Kind::Daemon { .. } => {
            let (parsed, failed) = workloads::check_cbftd(&child, prepared, wrong_rows);
            Repetition {
                attempted: prepared.jobs.len() as u64,
                failed: failed as u64,
                why_failed: (failed > 0).then(|| {
                    format!(
                        "{failed} jobs failed (rows wrong for {wrong_rows:?}); {}",
                        child.stderr.trim()
                    )
                }),
                daemon: Some(parsed),
                child,
            }
        }
    })
}

/// One untimed warm-up, then timed repetitions until the next one would
/// overrun `seconds` (at least [`MIN_REPETITIONS`]). Wall and CPU time are
/// those of the fastest repetition that passed every check (see
/// [`fastest`]), scaled by the host-speed reference taken before the first
/// and after every repetition (see [`hostref`]); peak memory is the
/// median. A failed repetition's figures are discarded, never averaged in.
pub fn run(
    w: &Workload,
    prepared: &Prepared,
    bins: &Binaries,
    scratch: &Path,
    seconds: f64,
    setup_s: f64,
) -> Result<Measured, String> {
    let wrong_rows = wrong_daemon_rows(w, prepared, bins, scratch)?;
    repetition(w, prepared, &wrong_rows, scratch)?;

    let (mut wall, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut all_wall, mut attempted, mut failed, mut n) = (Vec::new(), 0, 0, 0);
    let mut first_failure = None;
    let mut reference = vec![hostref::measure()?];
    let start = Instant::now();
    loop {
        let rep = repetition(w, prepared, &wrong_rows, scratch)?;
        reference.push(hostref::measure()?);
        n += 1;
        attempted += rep.attempted;
        failed += rep.failed;
        all_wall.push(rep.child.wall_s);
        if rep.failed == 0 {
            wall.push(rep.child.wall_s);
            cpu.push(rep.child.cpu_s);
            rss.push(rep.child.peak_rss_mb);
        } else if first_failure.is_none() {
            first_failure = rep.why_failed;
        }
        let next_would_end = start.elapsed().as_secs_f64() + median(&all_wall) + median(&reference);
        if n >= MIN_REPETITIONS && next_would_end > seconds {
            break;
        }
    }

    // With no passing repetition there is no timing to report; the run
    // is marked incorrect and the rates read zero.
    let host_ref_s = fastest(&reference);
    let scale = hostref::scale(host_ref_s);
    let verified_s = fastest(&wall) * scale;
    let per_second = |count: usize| {
        if verified_s > 0.0 {
            count as f64 / verified_s
        } else {
            0.0
        }
    };
    let metrics = [
        end_to_end("setup_s", setup_s * scale),
        end_to_end("verified_s", verified_s),
        end_to_end("records_per_s", per_second(prepared.input_records)),
        end_to_end("cpu_s", fastest(&cpu) * scale),
        end_to_end("peak_rss_mb", median(&rss)),
        end_to_end("jobs_per_s", per_second(prepared.jobs.len())),
    ]
    .into_iter()
    .collect();
    Ok(Measured {
        metrics,
        attempted,
        failed,
        n,
        first_failure,
        host_ref_s,
    })
}
