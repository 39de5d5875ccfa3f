//! Script execution outcomes and errors.

use std::error::Error;
use std::fmt;

use cbft_dataflow::{ParseError, PlanError, VertexId};
use cbft_mapreduce::{JobMetrics, StorageError};
use cbft_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// The result of running a script through ClusterBFT.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScriptOutcome {
    pub(crate) verified: bool,
    pub(crate) attempts: u32,
    pub(crate) latency: SimDuration,
    pub(crate) total: JobMetrics,
    pub(crate) outputs: Vec<String>,
    pub(crate) verification_points: Vec<VertexId>,
    pub(crate) replicas_per_attempt: Vec<usize>,
    pub(crate) jobs_per_attempt: Vec<usize>,
    pub(crate) deviant_replica_runs: u32,
    pub(crate) omitted_replica_runs: u32,
    pub(crate) digest_reports: u64,
    pub(crate) digest_chunks: u64,
}

impl ScriptOutcome {
    /// Whether every final output reached an `f + 1` digest quorum.
    ///
    /// Unreplicated baseline configurations
    /// ([`VpPolicy::None`](crate::VpPolicy::None)) report `false`: nothing
    /// was verified, by construction.
    pub fn verified(&self) -> bool {
        self.verified
    }

    /// Number of execution attempts (1 = no re-execution was needed).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Wall-clock (virtual) time from submission to the verdict.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Total resources consumed across all replicas and attempts.
    pub fn metrics(&self) -> &JobMetrics {
        &self.total
    }

    /// Published output names (empty when unverified).
    pub fn outputs(&self) -> &[String] {
        &self.outputs
    }

    /// The verification points that were instrumented (marker output plus
    /// the implicit final-output points).
    pub fn verification_points(&self) -> &[VertexId] {
        &self.verification_points
    }

    /// Replica count used by each attempt.
    pub fn replicas_per_attempt(&self) -> &[usize] {
        &self.replicas_per_attempt
    }

    /// Number of jobs each attempt actually ran — shrinks as the verified
    /// frontier grows (the paper's partial re-execution in action).
    pub fn jobs_per_attempt(&self) -> &[usize] {
        &self.jobs_per_attempt
    }

    /// Replica runs whose digests contradicted an established quorum
    /// (commission faults observed).
    pub fn deviant_replica_runs(&self) -> u32 {
        self.deviant_replica_runs
    }

    /// Replica runs that failed to complete before the verifier timeout
    /// (omission faults observed).
    pub fn omitted_replica_runs(&self) -> u32 {
        self.omitted_replica_runs
    }

    /// Total digest reports the verifier received — the comparison traffic
    /// ClusterBFT pays instead of per-stage consensus.
    pub fn digest_reports(&self) -> u64 {
        self.digest_reports
    }

    /// Total digest *chunks* across all reports — grows as the granularity
    /// `d` shrinks (§6.4's approximation-accuracy knob).
    pub fn digest_chunks(&self) -> u64 {
        self.digest_chunks
    }
}

impl fmt::Display for ScriptOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} attempt(s), latency {}, {} output(s), {}",
            if self.verified {
                "VERIFIED"
            } else {
                "UNVERIFIED"
            },
            self.attempts,
            self.latency,
            self.outputs.len(),
            self.total
        )
    }
}

/// Errors from [`ClusterBft`](crate::ClusterBft) submissions.
#[derive(Debug)]
pub enum SubmitError {
    /// The script failed to parse.
    Parse(ParseError),
    /// The plan was structurally invalid.
    Plan(PlanError),
    /// A storage operation failed (missing input, output collision).
    Storage(StorageError),
    /// The execution engine reported an internal failure.
    Engine(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Parse(e) => write!(f, "{e}"),
            SubmitError::Plan(e) => write!(f, "{e}"),
            SubmitError::Storage(e) => write!(f, "{e}"),
            SubmitError::Engine(msg) => write!(f, "engine failure: {msg}"),
        }
    }
}

impl Error for SubmitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SubmitError::Parse(e) => Some(e),
            SubmitError::Plan(e) => Some(e),
            SubmitError::Storage(e) => Some(e),
            SubmitError::Engine(_) => None,
        }
    }
}

impl From<ParseError> for SubmitError {
    fn from(e: ParseError) -> Self {
        SubmitError::Parse(e)
    }
}

impl From<PlanError> for SubmitError {
    fn from(e: PlanError) -> Self {
        SubmitError::Plan(e)
    }
}

impl From<StorageError> for SubmitError {
    fn from(e: StorageError) -> Self {
        SubmitError::Storage(e)
    }
}
