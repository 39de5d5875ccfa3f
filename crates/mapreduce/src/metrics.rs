//! Per-job resource accounting.
//!
//! Table 3 of the paper reports latency, CPU time, local file read/write
//! bytes and HDFS write bytes as multipliers over an unreplicated run —
//! exactly the counters collected here.

use std::fmt;
use std::ops::{Add, AddAssign};

use cbft_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Resource usage of one job (or, summed, of a whole script execution).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Wall-clock (virtual) time from submission to completion.
    pub latency: SimDuration,
    /// Total CPU time across all tasks.
    pub cpu_time: SimDuration,
    /// Bytes read from node-local disks (map spill / shuffle fetch).
    pub local_read_bytes: u64,
    /// Bytes written to node-local disks.
    pub local_write_bytes: u64,
    /// Bytes read from the trusted storage layer.
    pub hdfs_read_bytes: u64,
    /// Bytes written to the trusted storage layer.
    pub hdfs_write_bytes: u64,
    /// Bytes moved across the network (shuffle + digest shipping).
    pub network_bytes: u64,
    /// Map tasks executed.
    pub map_tasks: u64,
    /// Map tasks that ran on their split's home node (data locality).
    pub data_local_tasks: u64,
    /// Reduce/collector tasks executed.
    pub reduce_tasks: u64,
}

impl JobMetrics {
    /// An all-zero metrics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Latency multiplier of `self` relative to `baseline` (Table 3's `x`
    /// notation). Returns `f64::NAN` when the baseline latency is zero.
    pub fn latency_multiplier(&self, baseline: &JobMetrics) -> f64 {
        ratio(
            self.latency.as_micros() as f64,
            baseline.latency.as_micros() as f64,
        )
    }

    /// CPU multiplier relative to `baseline`.
    pub fn cpu_multiplier(&self, baseline: &JobMetrics) -> f64 {
        ratio(
            self.cpu_time.as_micros() as f64,
            baseline.cpu_time.as_micros() as f64,
        )
    }

    /// Local file read multiplier relative to `baseline`.
    pub fn file_read_multiplier(&self, baseline: &JobMetrics) -> f64 {
        ratio(
            self.local_read_bytes as f64,
            baseline.local_read_bytes as f64,
        )
    }

    /// Local file write multiplier relative to `baseline`.
    pub fn file_write_multiplier(&self, baseline: &JobMetrics) -> f64 {
        ratio(
            self.local_write_bytes as f64,
            baseline.local_write_bytes as f64,
        )
    }

    /// HDFS write multiplier relative to `baseline`.
    pub fn hdfs_write_multiplier(&self, baseline: &JobMetrics) -> f64 {
        ratio(
            self.hdfs_write_bytes as f64,
            baseline.hdfs_write_bytes as f64,
        )
    }

    pub(crate) fn observe_span(&mut self, submitted: SimTime, completed: SimTime) {
        self.latency = completed.since(submitted);
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        f64::NAN
    } else {
        a / b
    }
}

impl Add for JobMetrics {
    type Output = JobMetrics;

    fn add(mut self, rhs: JobMetrics) -> JobMetrics {
        self += rhs;
        self
    }
}

impl AddAssign for JobMetrics {
    fn add_assign(&mut self, rhs: JobMetrics) {
        // Latencies of sequential stages add; callers combining parallel
        // jobs should track wall-clock separately.
        self.latency += rhs.latency;
        self.cpu_time += rhs.cpu_time;
        self.local_read_bytes += rhs.local_read_bytes;
        self.local_write_bytes += rhs.local_write_bytes;
        self.hdfs_read_bytes += rhs.hdfs_read_bytes;
        self.hdfs_write_bytes += rhs.hdfs_write_bytes;
        self.network_bytes += rhs.network_bytes;
        self.map_tasks += rhs.map_tasks;
        self.data_local_tasks += rhs.data_local_tasks;
        self.reduce_tasks += rhs.reduce_tasks;
    }
}

impl fmt::Display for JobMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "latency={} cpu={} local_r={}B local_w={}B hdfs_r={}B hdfs_w={}B net={}B tasks={}m/{}r",
            self.latency,
            self.cpu_time,
            self.local_read_bytes,
            self.local_write_bytes,
            self.hdfs_read_bytes,
            self.hdfs_write_bytes,
            self.network_bytes,
            self.map_tasks,
            self.reduce_tasks
        )
    }
}

impl std::iter::Sum for JobMetrics {
    fn sum<I: Iterator<Item = JobMetrics>>(iter: I) -> Self {
        iter.fold(JobMetrics::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multipliers() {
        let base = JobMetrics {
            latency: SimDuration::from_secs(10),
            cpu_time: SimDuration::from_secs(40),
            local_read_bytes: 100,
            local_write_bytes: 200,
            hdfs_write_bytes: 50,
            ..JobMetrics::default()
        };
        let four_x = JobMetrics {
            latency: SimDuration::from_secs(11),
            cpu_time: SimDuration::from_secs(160),
            local_read_bytes: 400,
            local_write_bytes: 800,
            hdfs_write_bytes: 200,
            ..JobMetrics::default()
        };
        assert!((four_x.latency_multiplier(&base) - 1.1).abs() < 1e-9);
        assert!((four_x.cpu_multiplier(&base) - 4.0).abs() < 1e-9);
        assert!((four_x.file_read_multiplier(&base) - 4.0).abs() < 1e-9);
        assert!((four_x.file_write_multiplier(&base) - 4.0).abs() < 1e-9);
        assert!((four_x.hdfs_write_multiplier(&base) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_baseline_is_nan_not_panic() {
        let z = JobMetrics::default();
        assert!(z.latency_multiplier(&z).is_nan());
    }

    #[test]
    fn sum_adds_componentwise() {
        let a = JobMetrics {
            map_tasks: 2,
            hdfs_write_bytes: 10,
            ..Default::default()
        };
        let b = JobMetrics {
            map_tasks: 3,
            hdfs_write_bytes: 5,
            ..Default::default()
        };
        let s: JobMetrics = [a, b].into_iter().sum();
        assert_eq!(s.map_tasks, 5);
        assert_eq!(s.hdfs_write_bytes, 15);
    }

    #[test]
    fn observe_span_sets_latency() {
        let mut m = JobMetrics::default();
        m.observe_span(SimTime::from_micros(100), SimTime::from_micros(350));
        assert_eq!(m.latency, SimDuration::from_micros(250));
    }
}
