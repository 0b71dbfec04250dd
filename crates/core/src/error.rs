//! The crate-wide error hierarchy.
//!
//! Every fallible entry point (`try_*` constructors, `*_budgeted` algorithm
//! runs, the consensus pipeline) returns [`AggResult`]. The variants are
//! deliberately coarse: they distinguish *what the caller can do about it*
//! (fix the input, fix the parameters, raise the budget, shrink the
//! instance) rather than enumerating every internal failure site.
//!
//! Budget interruptions are **not** errors for the anytime algorithms —
//! those return their best-so-far clustering tagged
//! [`crate::robust::RunStatus::BudgetExceeded`]. [`AggError::BudgetExceeded`]
//! appears only where no partial result exists (e.g. the budget tripping
//! while the distance matrix is still being materialized and no fallback is
//! possible).
//!
//! Hand-rolled (`Display` + `std::error::Error`), no external dependencies.

use std::fmt;

/// `Result` alias used by every fallible API in this workspace.
pub type AggResult<T> = Result<T, AggError>;

/// Structured error for clustering-aggregation operations.
#[derive(Clone, Debug, PartialEq)]
pub enum AggError {
    /// The instance itself is malformed: inconsistent object counts across
    /// input clusterings, a distance outside `[0, 1]`, or a NaN weight.
    InvalidInstance {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// An algorithm parameter is outside its domain (e.g. `alpha ∉ [0, 1]`,
    /// a cooling factor outside `(0, 1)`, a start clustering of the wrong
    /// length).
    InvalidParameter {
        /// Which parameter was rejected.
        what: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The input is structurally empty: no input clusterings, or all labels
    /// missing everywhere, so no consensus is defined.
    Degenerate {
        /// What was empty or uninformative.
        reason: String,
    },
    /// The instance exceeds a hard size limit of an exact solver.
    TooLarge {
        /// The operation that refused.
        what: String,
        /// Actual instance size.
        n: usize,
        /// Maximum supported size.
        max: usize,
    },
    /// A [`crate::robust::RunBudget`] was exhausted at a point where no
    /// best-so-far result exists (anytime algorithms report budget trips
    /// through [`crate::robust::RunStatus`] instead).
    BudgetExceeded {
        /// Which phase ran out of budget.
        context: String,
    },
    /// A [`crate::robust::CancelToken`] fired at a point where no
    /// best-so-far result exists.
    Cancelled {
        /// Which phase was cancelled.
        context: String,
    },
    /// The [`crate::robust::RunBudget`] memory cap refused an
    /// allocation and no smaller representation could take its place
    /// (the consensus pipeline degrades instead of raising this; it
    /// surfaces from paths with no fallback, e.g. `eval`'s dense matrix).
    MemoryExceeded {
        /// The operation that was refused.
        what: String,
        /// Bytes the refused allocation asked for.
        requested: u64,
        /// The configured memory ceiling in bytes.
        limit: u64,
    },
    /// Input text could not be parsed.
    Parse {
        /// 1-based line number in the source text.
        line: usize,
        /// 1-based column (field) number, when known.
        column: Option<usize>,
        /// What went wrong.
        reason: String,
    },
}

impl AggError {
    /// Convenience constructor for [`AggError::InvalidInstance`].
    pub fn invalid_instance(reason: impl Into<String>) -> Self {
        AggError::InvalidInstance {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`AggError::InvalidParameter`].
    pub fn invalid_parameter(what: impl Into<String>, reason: impl Into<String>) -> Self {
        AggError::InvalidParameter {
            what: what.into(),
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`AggError::Degenerate`].
    pub fn degenerate(reason: impl Into<String>) -> Self {
        AggError::Degenerate {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for AggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggError::InvalidInstance { reason } => write!(f, "invalid instance: {reason}"),
            AggError::InvalidParameter { what, reason } => {
                write!(f, "invalid parameter {what}: {reason}")
            }
            AggError::Degenerate { reason } => write!(f, "degenerate input: {reason}"),
            AggError::TooLarge { what, n, max } => {
                write!(f, "{what} limited to n <= {max}, got {n}")
            }
            AggError::BudgetExceeded { context } => {
                write!(f, "run budget exceeded during {context}")
            }
            AggError::Cancelled { context } => write!(f, "cancelled during {context}"),
            AggError::MemoryExceeded {
                what,
                requested,
                limit,
            } => write!(
                f,
                "memory budget exceeded: {what} needs {requested} bytes, limit is {limit}"
            ),
            AggError::Parse {
                line,
                column,
                reason,
            } => match column {
                Some(col) => write!(f, "line {line}, column {col}: {reason}"),
                None => write!(f, "line {line}: {reason}"),
            },
        }
    }
}

impl std::error::Error for AggError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = AggError::invalid_instance("distance 2.0 out of [0,1]");
        assert_eq!(e.to_string(), "invalid instance: distance 2.0 out of [0,1]");
        let e = AggError::invalid_parameter("alpha", "1.5 out of [0,1]");
        assert_eq!(e.to_string(), "invalid parameter alpha: 1.5 out of [0,1]");
        let e = AggError::TooLarge {
            what: "exact search".into(),
            n: 30,
            max: 24,
        };
        assert_eq!(e.to_string(), "exact search limited to n <= 24, got 30");
        let e = AggError::Parse {
            line: 3,
            column: Some(2),
            reason: "expected 4 columns, found 2".into(),
        };
        assert_eq!(
            e.to_string(),
            "line 3, column 2: expected 4 columns, found 2"
        );
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(AggError::degenerate("no inputs"));
        assert!(e.to_string().contains("no inputs"));
    }
}
