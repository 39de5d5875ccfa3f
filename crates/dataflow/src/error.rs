//! Error types for script parsing and plan construction.

use std::error::Error;
use std::fmt;

/// An error produced while parsing a script.
///
/// Carries the (1-based) line on which the problem was found when known.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    message: String,
    line: Option<usize>,
}

impl ParseError {
    pub(crate) fn new(message: impl Into<String>, line: Option<usize>) -> Self {
        ParseError {
            message: message.into(),
            line,
        }
    }

    /// The 1-based source line of the error, when known.
    pub fn line(&self) -> Option<usize> {
        self.line
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(l) => write!(f, "parse error on line {l}: {}", self.message),
            None => write!(f, "parse error: {}", self.message),
        }
    }
}

impl Error for ParseError {}

/// An error produced while constructing or validating a [`LogicalPlan`].
///
/// [`LogicalPlan`]: crate::LogicalPlan
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// A vertex received the wrong number of inputs for its operator.
    BadArity {
        /// The offending operator, as a human-readable name.
        op: &'static str,
        /// Number of inputs the operator requires.
        expected: usize,
        /// Number of inputs actually supplied.
        actual: usize,
    },
    /// A referenced vertex id does not exist in the plan.
    UnknownVertex(usize),
    /// An expression referenced a column index outside the input schema.
    ColumnOutOfRange {
        /// The referenced index.
        index: usize,
        /// Width of the schema it was resolved against.
        width: usize,
    },
    /// Union inputs have differing arities.
    UnionArityMismatch {
        /// Arity of the first input.
        left: usize,
        /// Arity of the mismatching input.
        right: usize,
    },
    /// The plan has no STORE vertex, so it computes nothing observable.
    NoStore,
    /// Two STORE vertices write the same output; an output file is
    /// written once.
    DuplicateStore {
        /// The output both name.
        output: String,
        /// Id of the vertex that stores it first.
        first: usize,
        /// Id the rejected vertex would have had.
        second: usize,
    },
    /// A cycle was detected (should be unreachable via the builder API).
    Cyclic,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadArity {
                op,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "operator {op} requires {expected} input(s), got {actual}"
                )
            }
            PlanError::UnknownVertex(id) => write!(f, "unknown vertex id {id}"),
            PlanError::ColumnOutOfRange { index, width } => {
                write!(
                    f,
                    "column index {index} out of range for schema of width {width}"
                )
            }
            PlanError::UnionArityMismatch { left, right } => {
                write!(f, "union inputs have differing arities ({left} vs {right})")
            }
            PlanError::NoStore => write!(f, "plan has no STORE vertex"),
            PlanError::DuplicateStore {
                output,
                first,
                second,
            } => write!(
                f,
                "output '{output}' is stored twice, by vertex {first} and by vertex {second}: \
                 an output is written once"
            ),
            PlanError::Cyclic => write!(f, "plan contains a cycle"),
        }
    }
}

impl Error for PlanError {}
