//! Error type for the decision procedures and the effective syntax.
//!
//! Until PR 5 this crate borrowed `bqr_plan::PlanError` as its error type,
//! which left no room for outcomes that are neither a plan-layer failure nor
//! a decision: a budget-exhausted or out-of-fragment analysis surfaced as a
//! `DecisionOutcome::Unknown` *value*, and the serving helpers of the time
//! flattened that into the same `None` as a genuine "no rewriting exists" —
//! the silent footgun [`CoreError::Undecided`] removes (the engine's
//! `decide` refuses an undecided outcome with it).

use bqr_data::DataError;
use bqr_plan::PlanError;
use bqr_query::QueryError;
use std::error::Error;
use std::fmt;

/// Errors produced by the rewriting-decision layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An underlying plan-layer error (which itself wraps the data-layer
    /// error).
    Plan(PlanError),
    /// An underlying query-layer error: from the static analyses, and from
    /// unfolding a plan into the query it expresses.
    Query(QueryError),
    /// The procedure could not reach a decision — the analysis budget was
    /// exhausted or the query is outside the decidable fragment.  Carried as
    /// an *error* by the serving facade (`Engine::decide`) so that "could not
    /// decide" is never mistaken for the decision "no rewriting exists".
    Undecided(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Plan(e) => write!(f, "{e}"),
            CoreError::Query(e) => write!(f, "{e}"),
            CoreError::Undecided(why) => write!(f, "the procedure could not decide: {why}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Plan(e) => Some(e),
            CoreError::Query(e) => Some(e),
            CoreError::Undecided(_) => None,
        }
    }
}

impl From<PlanError> for CoreError {
    fn from(e: PlanError) -> Self {
        CoreError::Plan(e)
    }
}

impl From<QueryError> for CoreError {
    fn from(e: QueryError) -> Self {
        CoreError::Query(e)
    }
}

impl From<DataError> for CoreError {
    fn from(e: DataError) -> Self {
        CoreError::Plan(PlanError::Data(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e: CoreError = PlanError::UnknownView("V".into()).into();
        assert!(e.to_string().contains('V'));
        assert!(Error::source(&e).is_some());
        let e = CoreError::Undecided("budget exceeded while enumerating".into());
        assert!(e.to_string().contains("could not decide"));
        assert!(Error::source(&e).is_none());
        let e: CoreError = QueryError::UnknownRelation("r".into()).into();
        assert!(matches!(e, CoreError::Query(_)));
        assert!(Error::source(&e).is_some());
        let e: CoreError = DataError::UnknownRelation("r".into()).into();
        assert!(matches!(e, CoreError::Plan(PlanError::Data(_))));
    }
}
