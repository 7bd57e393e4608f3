//! Error type for plan construction and execution.

use bqr_data::DataError;
use std::error::Error;
use std::fmt;

/// Errors produced while building or executing query plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// An underlying data-layer error.
    Data(DataError),
    /// A column index is out of range for a node's output arity.
    ColumnOutOfRange { column: usize, arity: usize },
    /// Two arities that must agree do not: a binary node's children, the
    /// arity a plan records for a view and its extent's, or a shape's
    /// constant slots and the constants an execution binds to them.
    ArityMismatch { left: usize, right: usize },
    /// A fetch node's key columns do not match its constraint's X attributes.
    FetchKeyMismatch { expected: usize, actual: usize },
    /// A view referenced by the plan is not materialised / not declared.
    UnknownView(String),
    /// A fetch refers to a constraint that is not part of the access schema
    /// the plan is being executed / checked against.
    ConstraintNotInSchema(String),
    /// A runtime guardrail fired during execution (see [`ExecError`]).
    Exec(ExecError),
}

/// Runtime guardrail failures raised by the executor: the query was valid
/// and the plan sound, but execution was stopped by a dynamic limit
/// (see [`crate::guard`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The execution's cancellation token was tripped.
    Cancelled,
    /// The wall-clock deadline elapsed mid-execution.
    DeadlineExceeded {
        /// The configured deadline, in milliseconds.
        deadline_ms: u64,
    },
    /// The intermediate-row (memory) budget was exhausted.
    MemoryBudgetExceeded {
        /// The configured budget, in rows.
        budget_rows: usize,
    },
    /// The runtime fetched-tuple cap was exhausted.
    FetchBudgetExceeded {
        /// The configured cap, in base tuples.
        budget_tuples: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Cancelled => write!(f, "execution was cancelled"),
            ExecError::DeadlineExceeded { deadline_ms } => {
                write!(f, "execution exceeded its {deadline_ms} ms deadline")
            }
            ExecError::MemoryBudgetExceeded { budget_rows } => write!(
                f,
                "execution exceeded its intermediate-row budget of {budget_rows} rows"
            ),
            ExecError::FetchBudgetExceeded { budget_tuples } => write!(
                f,
                "execution exceeded its runtime fetch cap of {budget_tuples} tuples"
            ),
        }
    }
}

impl Error for ExecError {}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Data(e) => write!(f, "{e}"),
            PlanError::ColumnOutOfRange { column, arity } => {
                write!(f, "column {column} is out of range for arity {arity}")
            }
            PlanError::ArityMismatch { left, right } => {
                write!(f, "arities {left} and {right} do not match")
            }
            PlanError::FetchKeyMismatch { expected, actual } => write!(
                f,
                "fetch key has {actual} columns but the constraint's X has {expected} attributes"
            ),
            PlanError::UnknownView(v) => write!(f, "view `{v}` is not available"),
            PlanError::ConstraintNotInSchema(c) => {
                write!(f, "fetch constraint {c} is not part of the access schema")
            }
            PlanError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl Error for PlanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlanError::Data(e) => Some(e),
            PlanError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExecError> for PlanError {
    fn from(e: ExecError) -> Self {
        PlanError::Exec(e)
    }
}

impl From<DataError> for PlanError {
    fn from(e: DataError) -> Self {
        PlanError::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = PlanError::ColumnOutOfRange {
            column: 3,
            arity: 2,
        };
        assert!(e.to_string().contains('3'));
        assert!(Error::source(&e).is_none());
        let e: PlanError = DataError::UnknownRelation("r".into()).into();
        assert!(Error::source(&e).is_some());
        assert!(PlanError::UnknownView("V".into()).to_string().contains('V'));
        assert!(PlanError::ArityMismatch { left: 1, right: 2 }
            .to_string()
            .contains('2'));
        assert!(PlanError::FetchKeyMismatch {
            expected: 2,
            actual: 1
        }
        .to_string()
        .contains('2'));
        assert!(PlanError::ConstraintNotInSchema("c".into())
            .to_string()
            .contains('c'));
    }

    #[test]
    fn exec_errors_display_their_limits_and_source_through_plan_error() {
        let cases: Vec<(ExecError, &str)> = vec![
            (ExecError::Cancelled, "cancelled"),
            (ExecError::DeadlineExceeded { deadline_ms: 50 }, "50 ms"),
            (
                ExecError::MemoryBudgetExceeded { budget_rows: 1024 },
                "1024 rows",
            ),
            (
                ExecError::FetchBudgetExceeded { budget_tuples: 99 },
                "99 tuples",
            ),
        ];
        for (e, needle) in cases {
            assert!(
                e.to_string().contains(needle),
                "{e} should mention {needle}"
            );
            let wrapped: PlanError = e.clone().into();
            assert!(wrapped.to_string().contains(needle));
            assert!(Error::source(&wrapped).is_some());
        }
    }
}
