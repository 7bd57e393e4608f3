//! The one error type of the serving facade.
//!
//! Every layer of the stack keeps its own precise error enum
//! ([`DataError`], [`QueryError`], [`PlanError`], [`CoreError`]); the facade
//! wraps them all into [`Error`], attaching the query or statement the
//! request was about, so a caller matches one type — and an error message
//! always says *which* request failed, not just *how*.

use bqr_core::CoreError;
use bqr_data::DataError;
use bqr_plan::PlanError;
use bqr_query::QueryError;
use std::error::Error as StdError;
use std::fmt;

/// Convenience result alias for the facade.
pub type Result<T> = std::result::Result<T, Error>;

/// Any error the serving facade can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A data-layer error (schemas, instances, indices).
    Data(DataError),
    /// A query-layer error (construction, static analysis).
    Query(QueryError),
    /// A plan-layer error (construction, compilation, execution).
    Plan(PlanError),
    /// A query string that did not parse.
    Parse {
        /// The offending input.
        input: String,
        /// The underlying parse error.
        source: QueryError,
    },
    /// The boundedness analysis of a query failed (as opposed to deciding
    /// "not bounded", which is a successful [`crate::Analysis`]).
    Analysis {
        /// The query under analysis.
        query: String,
        /// The underlying decision-layer error.
        source: CoreError,
    },
    /// A statement was prepared for a query that has no bounded rewriting in
    /// this engine's setting `(R, V, A, M)`.
    NoRewriting {
        /// The query that was to be prepared.
        query: String,
        /// The checker's rejection reason, when it produced one.
        reason: Option<String>,
    },
    /// Serving a plan — executing a named prepared statement, an ad-hoc
    /// query, or compiling a pipeline for `explain` — failed.
    Execution {
        /// The statement name, or the query text for ad-hoc / explain
        /// requests.
        statement: String,
        /// The underlying plan-layer error.
        source: PlanError,
    },
    /// No prepared statement is registered under this name.
    UnknownStatement(String),
    /// An attached database's schema differs from the engine's schema.
    SchemaMismatch(String),
    /// A [`crate::Engine::mutate`] closure panicked.  The panic was contained
    /// — nothing was published, the engine keeps serving the previous
    /// version, and the next mutate proceeds normally.
    MutationPanicked {
        /// The panic message, best-effort.
        message: String,
    },
}

impl Error {
    /// Wrap a parse failure with the input it was about.
    pub(crate) fn parse(input: &str, source: QueryError) -> Error {
        Error::Parse {
            input: input.to_string(),
            source,
        }
    }

    /// Wrap a decision-layer failure with the query it was about.
    pub(crate) fn analysis(query: impl fmt::Display, source: CoreError) -> Error {
        Error::Analysis {
            query: query.to_string(),
            source,
        }
    }

    /// Wrap an execution failure with the statement it was about.
    pub(crate) fn execution(statement: &str, source: PlanError) -> Error {
        Error::Execution {
            statement: statement.to_string(),
            source,
        }
    }

    /// The runtime-guardrail failure behind this error, when one fired
    /// (deadline, cancellation, row or fetch budget) — `None` for
    /// every other failure mode.  Lets callers match "the query was stopped
    /// by a guardrail" without unwrapping the layered error structure.
    pub fn exec_error(&self) -> Option<&bqr_plan::ExecError> {
        match self {
            Error::Plan(PlanError::Exec(e))
            | Error::Execution {
                source: PlanError::Exec(e),
                ..
            } => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Data(e) => write!(f, "{e}"),
            Error::Query(e) => write!(f, "{e}"),
            Error::Plan(e) => write!(f, "{e}"),
            Error::Parse { input, source } => {
                write!(f, "cannot parse query {input:?}: {source}")
            }
            Error::Analysis { query, source } => {
                write!(f, "analysis of `{query}` failed: {source}")
            }
            Error::NoRewriting { query, reason } => {
                write!(f, "`{query}` has no bounded rewriting in this setting")?;
                if let Some(reason) = reason {
                    write!(f, ": {reason}")?;
                }
                Ok(())
            }
            Error::Execution { statement, source } => {
                write!(f, "serving `{statement}` failed: {source}")
            }
            Error::UnknownStatement(name) => {
                write!(f, "no prepared statement is registered as `{name}`")
            }
            Error::SchemaMismatch(what) => {
                write!(
                    f,
                    "attached database does not match the engine schema: {what}"
                )
            }
            Error::MutationPanicked { message } => {
                write!(
                    f,
                    "a mutate closure panicked (nothing was published): {message}"
                )
            }
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Data(e) => Some(e),
            Error::Query(e) | Error::Parse { source: e, .. } => Some(e),
            Error::Plan(e) | Error::Execution { source: e, .. } => Some(e),
            Error::Analysis { source, .. } => Some(source),
            Error::NoRewriting { .. }
            | Error::UnknownStatement(_)
            | Error::SchemaMismatch(_)
            | Error::MutationPanicked { .. } => None,
        }
    }
}

impl From<DataError> for Error {
    fn from(e: DataError) -> Self {
        Error::Data(e)
    }
}

impl From<QueryError> for Error {
    fn from(e: QueryError) -> Self {
        Error::Query(e)
    }
}

impl From<PlanError> for Error {
    fn from(e: PlanError) -> Self {
        Error::Plan(e)
    }
}

impl From<CoreError> for Error {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::Plan(p) => Error::Plan(p),
            CoreError::Query(q) => Error::Query(q),
            // Context-free conversion path; the facade's own call sites use
            // `Error::analysis` to attach the actual query.
            other => Error::Analysis {
                query: "<unspecified>".to_string(),
                source: other,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_request_context() {
        let e = Error::parse("Q(x :-", QueryError::Parse("oops".into()));
        assert!(e.to_string().contains("Q(x :-"));
        assert!(StdError::source(&e).is_some());

        let e = Error::analysis("Q(x) :- r(x)", CoreError::Undecided("budget".into()));
        assert!(e.to_string().contains("Q(x) :- r(x)"));
        assert!(e.to_string().contains("budget"));

        let e = Error::NoRewriting {
            query: "Q(x) :- r(x)".into(),
            reason: Some("no constraint covers `r`".into()),
        };
        assert!(e.to_string().contains("no bounded rewriting"));
        assert!(e.to_string().contains("covers"));

        let e = Error::execution("top5", PlanError::UnknownView("V".into()));
        assert!(e.to_string().contains("top5"));

        assert!(Error::UnknownStatement("x".into())
            .to_string()
            .contains('x'));
        assert!(Error::SchemaMismatch("extra relation".into())
            .to_string()
            .contains("extra"));

        let e = Error::MutationPanicked {
            message: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
        assert!(e.to_string().contains("nothing was published"));
    }

    #[test]
    fn exec_errors_are_reachable_through_the_accessor() {
        use bqr_plan::ExecError;
        let e = Error::execution(
            "top5",
            PlanError::Exec(ExecError::DeadlineExceeded { deadline_ms: 50 }),
        );
        assert_eq!(
            e.exec_error(),
            Some(&ExecError::DeadlineExceeded { deadline_ms: 50 })
        );
        assert!(e.to_string().contains("top5"), "{e}");
        assert!(e.to_string().contains("50 ms"), "{e}");
        let e = Error::execution("top5", PlanError::UnknownView("V".into()));
        assert!(e.exec_error().is_none());
    }

    #[test]
    fn layer_errors_convert() {
        let e: Error = DataError::UnknownRelation("r".into()).into();
        assert!(matches!(e, Error::Data(_)));
        let e: Error = QueryError::UnknownRelation("r".into()).into();
        assert!(matches!(e, Error::Query(_)));
        let e: Error = PlanError::UnknownView("V".into()).into();
        assert!(matches!(e, Error::Plan(_)));
        let e: Error = CoreError::Plan(PlanError::UnknownView("V".into())).into();
        assert!(matches!(e, Error::Plan(_)), "core plan errors flatten");
        let e: Error = CoreError::Undecided("m".into()).into();
        assert!(matches!(e, Error::Analysis { .. }));
    }
}
