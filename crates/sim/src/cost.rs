//! Cluster cost model.

use serde::{Deserialize, Serialize};

use crate::SimDuration;

/// Converts work performed by a simulated Hadoop worker into virtual time.
///
/// The constants are loosely calibrated to a 2013-era virtualized 12-core
/// Xeon (the paper's Vicci nodes): a few hundred nanoseconds of CPU per
/// record per operator, disk bandwidth in the ~100 MB/s range, slightly
/// slower replicated HDFS writes, and a gigabit-class network. Absolute
/// values are *not* meant to match the testbed — the evaluation reports
/// ratios — but relative magnitudes (network slower than disk, task startup
/// in seconds as in Hadoop 1.x) shape where overheads appear.
///
/// # Examples
///
/// ```
/// use cbft_sim::CostModel;
///
/// let cost = CostModel::default();
/// let t = cost.cpu_records(1_000_000);
/// assert!(t.as_secs_f64() > 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// CPU time per record per operator, in nanoseconds.
    pub cpu_ns_per_record: u64,
    /// Extra CPU time per byte hashed at a verification point, in
    /// nanoseconds (SHA-256 throughput ≈ a few hundred MB/s per core).
    pub digest_ns_per_byte: u64,
    /// Local (intermediate) disk throughput, bytes per second.
    pub disk_bytes_per_sec: u64,
    /// Trusted-storage (HDFS stand-in) throughput, bytes per second.
    pub hdfs_bytes_per_sec: u64,
    /// Network throughput between nodes, bytes per second.
    pub net_bytes_per_sec: u64,
    /// One-way network latency between any two nodes.
    pub net_latency: SimDuration,
    /// Fixed cost of launching a task in its slot (JVM spawn in Hadoop 1.x).
    pub task_startup: SimDuration,
    /// Interval between task-tracker heartbeats.
    pub heartbeat_interval: SimDuration,
}

impl CostModel {
    /// CPU time to process `records` records through one operator.
    pub fn cpu_records(&self, records: u64) -> SimDuration {
        SimDuration::from_micros(records.saturating_mul(self.cpu_ns_per_record) / 1_000)
    }

    /// CPU time to digest `bytes` bytes at a verification point.
    pub fn digest_bytes(&self, bytes: u64) -> SimDuration {
        SimDuration::from_micros(bytes.saturating_mul(self.digest_ns_per_byte) / 1_000)
    }

    /// Time to read or write `bytes` on local disk.
    pub fn disk(&self, bytes: u64) -> SimDuration {
        Self::throughput(bytes, self.disk_bytes_per_sec)
    }

    /// Time to read or write `bytes` on the trusted storage layer.
    pub fn hdfs(&self, bytes: u64) -> SimDuration {
        Self::throughput(bytes, self.hdfs_bytes_per_sec)
    }

    /// Time to transfer `bytes` across the network (bandwidth component
    /// only; add [`CostModel::net_latency`] per message for the propagation
    /// component).
    pub fn network(&self, bytes: u64) -> SimDuration {
        Self::throughput(bytes, self.net_bytes_per_sec)
    }

    fn throughput(bytes: u64, per_sec: u64) -> SimDuration {
        if per_sec == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(bytes.saturating_mul(1_000_000) / per_sec)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cpu_ns_per_record: 400,
            digest_ns_per_byte: 4,
            disk_bytes_per_sec: 120_000_000,
            hdfs_bytes_per_sec: 80_000_000,
            net_bytes_per_sec: 110_000_000,
            net_latency: SimDuration::from_micros(300),
            task_startup: SimDuration::from_millis(800),
            heartbeat_interval: SimDuration::from_millis(500),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_linearly() {
        let c = CostModel::default();
        assert_eq!(
            c.cpu_records(2_000).as_micros(),
            2 * c.cpu_records(1_000).as_micros()
        );
        assert_eq!(c.disk(0), SimDuration::ZERO);
        assert!(
            c.hdfs(1 << 20) > c.disk(1 << 20),
            "HDFS slower than local disk"
        );
    }

    #[test]
    fn zero_throughput_is_free_not_infinite() {
        let c = CostModel {
            disk_bytes_per_sec: 0,
            ..CostModel::default()
        };
        assert_eq!(c.disk(123), SimDuration::ZERO);
    }

    #[test]
    fn digest_cost_is_visible_but_small() {
        let c = CostModel::default();
        let data = 100 << 20; // 100 MB
        let digest = c.digest_bytes(data);
        let cpu = c.cpu_records(data / 100); // ~100-byte records
        assert!(digest.as_secs_f64() > 0.0);
        // Digesting should cost same order or less than processing.
        assert!(digest.as_secs_f64() < 2.0 * cpu.as_secs_f64());
    }
}
