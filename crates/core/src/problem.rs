//! The bounded rewriting problem `VBRP(L)` (Section 3).
//!
//! An instance is a database schema `R`, a bound `M`, an access schema `A`, a
//! query `Q ∈ L` and a set `V` of `L`-definable views.  The question is
//! whether `Q` has an `M`-bounded rewriting in `L` using `V` under `A`, i.e.
//! an `M`-bounded query plan `ξ(Q, V, R)`.

use bqr_data::{AccessSchema, DatabaseSchema};
use bqr_query::{
    Budget, ConjunctiveQuery, FoQuery, PlannerConfig, QueryLanguage, UnionQuery, ViewSet,
};
use std::fmt;

/// A query in one of the paper's languages.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A conjunctive query.
    Cq(ConjunctiveQuery),
    /// A union of conjunctive queries.
    Ucq(UnionQuery),
    /// A first-order query.
    Fo(FoQuery),
}

impl Query {
    /// The language the query is (syntactically) in.
    pub fn language(&self) -> QueryLanguage {
        match self {
            Query::Cq(_) => QueryLanguage::Cq,
            Query::Ucq(_) => QueryLanguage::Ucq,
            Query::Fo(q) => q.language(),
        }
    }

    /// Output arity.
    pub fn arity(&self) -> usize {
        match self {
            Query::Cq(q) => q.arity(),
            Query::Ucq(q) => q.arity(),
            Query::Fo(q) => q.arity(),
        }
    }

    /// The query as an FO query (CQ and UCQ embed into FO).
    pub fn to_fo(&self) -> bqr_query::Result<FoQuery> {
        match self {
            Query::Cq(q) => Ok(FoQuery::from_cq(q)),
            Query::Ucq(q) => FoQuery::from_ucq(q),
            Query::Fo(q) => Ok(q.clone()),
        }
    }

    /// The query as a UCQ, if it is (syntactically) in `∃FO+`.
    pub fn to_ucq(&self, budget: &Budget) -> bqr_query::Result<Option<UnionQuery>> {
        match self {
            Query::Cq(q) => Ok(Some(UnionQuery::single(q.clone()))),
            Query::Ucq(q) => Ok(Some(q.clone())),
            Query::Fo(q) => q.to_ucq(budget),
        }
    }

    /// Constants mentioned by the query (bounded rewritings may only use
    /// these).
    pub fn constants(&self) -> std::collections::BTreeSet<bqr_data::Value> {
        match self {
            Query::Cq(q) => q.constants(),
            Query::Ucq(q) => q.constants(),
            Query::Fo(q) => {
                let mut c = q.body().constants();
                for t in q.head() {
                    if let bqr_query::Term::Const(v) = t {
                        c.insert(v.clone());
                    }
                }
                c
            }
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Cq(q) => write!(f, "{q}"),
            Query::Ucq(q) => write!(f, "{q}"),
            Query::Fo(q) => write!(f, "{q}"),
        }
    }
}

impl From<ConjunctiveQuery> for Query {
    fn from(q: ConjunctiveQuery) -> Self {
        Query::Cq(q)
    }
}
impl From<UnionQuery> for Query {
    fn from(q: UnionQuery) -> Self {
        Query::Ucq(q)
    }
}
impl From<FoQuery> for Query {
    fn from(q: FoQuery) -> Self {
        Query::Fo(q)
    }
}

/// The fixed part of a rewriting problem: everything except the query.
///
/// In practice (Section 4.2) `R`, `A`, `M` and `V` are determined up front —
/// the schema by the application, `M` by available resources, `A` by
/// constraint discovery, `V` by view selection — while queries vary.  The
/// setting is therefore a natural unit to share between many queries.
#[derive(Debug, Clone)]
pub struct RewritingSetting {
    /// The database schema `R`.
    pub schema: DatabaseSchema,
    /// The access schema `A`.
    pub access: AccessSchema,
    /// The views `V`.
    pub views: ViewSet,
    /// The plan-size bound `M`.
    pub bound_m: usize,
    /// Budgets for the worst-case-exponential analyses.
    pub budget: Budget,
    /// Nothing to configure: every homomorphism search runs the one
    /// cost-based atom order.  Kept only because the end-to-end benchmark
    /// under `benchmark/` still reads it.
    pub planner: PlannerConfig,
}

impl RewritingSetting {
    /// Create a setting.
    pub fn new(
        schema: DatabaseSchema,
        access: AccessSchema,
        views: ViewSet,
        bound_m: usize,
    ) -> Self {
        RewritingSetting {
            schema,
            access,
            views,
            bound_m,
            budget: Budget::generous(),
            planner: PlannerConfig,
        }
    }

    /// Replace the analysis budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Validate that access schema and views are well formed over the schema.
    pub fn validate(&self) -> crate::Result<()> {
        self.access
            .validate(&self.schema)
            .map_err(bqr_query::QueryError::from)?;
        self.views.validate(&self.schema)?;
        Ok(())
    }
}

/// A full `VBRP` instance: a setting plus a query.
#[derive(Debug, Clone)]
pub struct VbrpInstance {
    /// The fixed parameters.
    pub setting: RewritingSetting,
    /// The query `Q`.
    pub query: Query,
}

impl VbrpInstance {
    /// Create an instance.
    pub fn new(setting: RewritingSetting, query: impl Into<Query>) -> Self {
        VbrpInstance {
            setting,
            query: query.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqr_query::parser::parse_cq;
    use bqr_query::Term;

    fn schema() -> DatabaseSchema {
        DatabaseSchema::with_relations(&[("r", &["a", "b"]), ("s", &["a", "b"])]).unwrap()
    }

    #[test]
    fn query_language_and_conversions() {
        let cq = parse_cq("Q(x) :- r(x, y)").unwrap();
        let q = Query::from(cq.clone());
        assert_eq!(q.language(), QueryLanguage::Cq);
        assert_eq!(q.arity(), 1);
        assert!(q.to_fo().is_ok());
        assert_eq!(q.to_ucq(&Budget::generous()).unwrap().unwrap().len(), 1);
        assert!(q.to_string().contains("r(x, y)"));

        let ucq = bqr_query::UnionQuery::new(vec![
            parse_cq("Q(x) :- r(x, y)").unwrap(),
            parse_cq("Q(x) :- s(x, y)").unwrap(),
        ])
        .unwrap();
        let q = Query::from(ucq);
        assert_eq!(q.language(), QueryLanguage::Ucq);
        assert_eq!(q.to_ucq(&Budget::generous()).unwrap().unwrap().len(), 2);

        let fo = bqr_query::FoQuery::new(
            vec![Term::var("x")],
            bqr_query::Fo::not(bqr_query::Fo::Atom(bqr_query::Atom::new(
                "r",
                vec![Term::var("x"), Term::var("y")],
            ))),
        )
        .unwrap();
        let q = Query::from(fo);
        assert_eq!(q.language(), QueryLanguage::Fo);
        assert!(q.to_ucq(&Budget::generous()).is_err());
    }

    #[test]
    fn query_constants_collected() {
        let q = Query::from(parse_cq("Q(x) :- r(x, 5), s(x, 'a')").unwrap());
        let consts = q.constants();
        assert!(consts.contains(&bqr_data::Value::int(5)));
        assert!(consts.contains(&bqr_data::Value::str("a")));
    }

    #[test]
    fn setting_validation() {
        let setting = RewritingSetting::new(
            schema(),
            AccessSchema::new(vec![
                bqr_data::AccessConstraint::fd("r", &["a"], &["b"]).unwrap()
            ]),
            ViewSet::empty(),
            5,
        );
        assert!(setting.validate().is_ok());
        let bad = RewritingSetting::new(
            schema(),
            AccessSchema::new(vec![bqr_data::AccessConstraint::fd(
                "missing",
                &["a"],
                &["b"],
            )
            .unwrap()]),
            ViewSet::empty(),
            5,
        );
        assert!(bad.validate().is_err());
        let tiny = RewritingSetting::new(schema(), AccessSchema::empty(), ViewSet::empty(), 3)
            .with_budget(Budget::tiny());
        assert_eq!(tiny.budget, Budget::tiny());
        let inst = VbrpInstance::new(tiny, parse_cq("Q(x) :- r(x, y)").unwrap());
        assert_eq!(inst.query.arity(), 1);
    }
}
