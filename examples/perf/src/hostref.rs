//! The host-speed reference: a frozen computation, run as a child
//! process between repetitions, that says how fast the host is *now*.
//!
//! The sandbox is a shared two-core VM whose effective speed moves by
//! 10–30% in phases that last from seconds to minutes, and new processes
//! that touch fresh memory (which is what `cbft` is) feel it most. No
//! estimator over repetitions removes a phase that outlasts the run. So
//! end-to-end times are reported as the fastest repetition scaled by
//! [`NOMINAL_S`] over the fastest reference pass of the same run: seconds
//! as they would read on the reference sandbox in a quiet phase. Measured
//! over 56 simulated runs of 16 repetitions (17 minutes, one slow phase),
//! ten-run quartile spreads were at most 5.5% raw, 3.2% scaled by an
//! in-process reference and 2.4% scaled by this one.
//!
//! The computation must never change with the system under test: it uses
//! the standard library only, and a change to it redefines every
//! end-to-end number.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The argument that makes `perf` run the reference computation and exit.
pub const SUBCOMMAND: &str = "host-reference";

/// Wall seconds of one reference pass on the 2-core sandbox the bounds
/// were set on, in a quiet phase. A constant, so that scaled times stay
/// in seconds and two records taken at different host speeds compare.
pub const NOMINAL_S: f64 = 0.120;

/// What the reference child does: shaped like the system's own work —
/// many small heap records built, sorted, grouped and byte-hashed, on
/// freshly mapped memory.
pub fn run_kernel() {
    let mut fresh = Vec::new();
    for pass in 0..2u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ pass;
        let mut records: Vec<Vec<i64>> = Vec::with_capacity(150_000);
        for i in 0..150_000i64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            records.push(vec![(x % 5000) as i64, i, (x >> 20) as i64 % 1000]);
        }
        records.sort_unstable();
        let mut groups: BTreeMap<i64, Vec<Vec<i64>>> = BTreeMap::new();
        for r in &records {
            groups.entry(r[0]).or_default().push(r.clone());
        }
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut bytes = Vec::new();
        for (key, group) in &groups {
            bytes.clear();
            bytes.extend_from_slice(&key.to_be_bytes());
            for v in group.iter().flatten() {
                bytes.extend_from_slice(&v.to_be_bytes());
            }
            for &b in &bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        black_box(hash);
        // 16 MB of pages the process has never touched.
        fresh.push(vec![pass as u8 + 1; 16 << 20]);
    }
    black_box(fresh);
}

/// Runs one reference pass as a child of this executable; wall seconds
/// from spawn to exit. One child, whatever the workload: two side by side
/// (for the workloads that keep two threads busy) were tried and their
/// fastest pass varied by 8% between runs where one child's varies by 2%.
pub fn measure() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no current executable: {e}"))?;
    let start = Instant::now();
    let status = Command::new(exe)
        .arg(SUBCOMMAND)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run the host reference: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    if status.success() {
        Ok(seconds)
    } else {
        Err(format!("the host reference failed ({status})"))
    }
}

/// The factor end-to-end times are multiplied by, given the fastest
/// reference pass of the run: below 1 when the host is slower than the
/// reference sandbox, above 1 when it is faster.
pub fn scale(fastest_reference_s: f64) -> f64 {
    if fastest_reference_s > 0.0 {
        NOMINAL_S / fastest_reference_s
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_measured() {
        assert_eq!(scale(NOMINAL_S), 1.0);
        assert!((scale(2.0 * NOMINAL_S) - 0.5).abs() < 1e-12);
        assert_eq!(scale(0.0), 1.0);
    }

    #[test]
    fn kernel_runs_in_process() {
        let start = Instant::now();
        run_kernel();
        assert!(start.elapsed().as_secs_f64() > 0.0);
    }
}
