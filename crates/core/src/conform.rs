//! Conformance of plans to an access schema (Section 2 / Lemma 3.8).
//!
//! A plan `ξ` *conforms to* `A` when
//!
//! 1. every `fetch(X ∈ S, R, Y)` is justified by a constraint
//!    `R(X → Y', N) ∈ A` with `Y ⊆ X ∪ Y'`, and
//! 2. there is a constant `N_ξ` such that `|D_ξ| ≤ N_ξ` on every `D |= A` —
//!    equivalently, the query expressed by every fetch's input sub-plan has
//!    bounded output under `A`.
//!
//! Condition 2 is the expensive one: it reduces to `BOP`, which is
//! coNP-complete for positive plans and undecidable once set difference is
//! involved (Theorem 3.4).  The checker therefore returns a three-valued
//! answer and takes a budget.

use crate::to_query::node_to_ucq;
use bqr_data::{AccessSchema, DatabaseSchema};
use bqr_plan::{PlanNode, QueryPlan};
use bqr_query::bounded_output::{ucq_output, OutputBound};
use bqr_query::{Budget, QueryError, Result, UnionQuery, ViewSet};

/// Outcome of a conformance check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Conformance {
    /// The plan conforms; `fetch_bound` is an upper bound on `|D_ξ|` over all
    /// instances satisfying the access schema.
    Conforms { fetch_bound: usize },
    /// The plan does not conform, with a human-readable reason.
    Violation(String),
    /// Conformance could not be decided within the supported fragment /
    /// budget (e.g. a fetch driven by a sub-plan with set difference).
    Unknown(String),
}

impl Conformance {
    /// Does the plan (provably) conform?
    pub fn is_conforming(&self) -> bool {
        matches!(self, Conformance::Conforms { .. })
    }
}

/// Check whether `plan` conforms to `access`.
///
/// `views` is needed to unfold view atoms inside fetch inputs before the
/// bounded-output analysis; CQ-definable views are unfolded exactly, other
/// views make the answer `Unknown`.
pub fn check_conformance(
    plan: &QueryPlan,
    access: &AccessSchema,
    schema: &DatabaseSchema,
    views: &ViewSet,
    budget: &Budget,
) -> Result<Conformance> {
    let mut total_bound: usize = 0;
    for fetch in plan.fetches() {
        let PlanNode::Fetch {
            input, constraint, ..
        } = fetch
        else {
            unreachable!("fetches() only returns fetch nodes")
        };
        // Condition (1): the constraint must belong to the access schema.
        if !access.constraints().any(|c| c == constraint) {
            return Ok(Conformance::Violation(format!(
                "fetch uses constraint {constraint} which is not in the access schema"
            )));
        }
        // Condition (2): the input sub-plan must have bounded output.
        match input_output_bound(input, access, schema, views, budget)? {
            BoundOutcome::Bounded(n) => {
                total_bound = total_bound.saturating_add(n.saturating_mul(constraint.n()));
            }
            BoundOutcome::Unbounded => {
                return Ok(Conformance::Violation(format!(
                    "the input of fetch[{constraint}] does not have bounded output under the access schema"
                )));
            }
            BoundOutcome::Unknown(reason) => return Ok(Conformance::Unknown(reason)),
        }
    }
    Ok(Conformance::Conforms {
        fetch_bound: total_bound,
    })
}

enum BoundOutcome {
    Bounded(usize),
    Unbounded,
    Unknown(String),
}

fn input_output_bound(
    input: &PlanNode,
    access: &AccessSchema,
    schema: &DatabaseSchema,
    views: &ViewSet,
    budget: &Budget,
) -> Result<BoundOutcome> {
    // Convert the sub-plan to the UCQ it expresses.  Plans with difference or
    // non-equality selections are outside the decidable fragment.
    let ucq = match node_to_ucq(input, schema, budget) {
        Ok(Some(ucq)) => ucq,
        Ok(None) => return Ok(BoundOutcome::Bounded(0)),
        Err(QueryError::UnsupportedFragment(msg)) => {
            return Ok(BoundOutcome::Unknown(format!(
                "cannot decide bounded output of a non-positive fetch input: {msg}"
            )))
        }
        Err(e) => return Err(e),
    };
    // Unfold CQ views; other view kinds leave us in Unknown territory.
    let mut unfolded = Vec::with_capacity(ucq.len());
    for d in ucq.disjuncts() {
        match views.unfold_cq(d) {
            Ok(q) => unfolded.push(q),
            Err(QueryError::UnsupportedFragment(msg)) => {
                return Ok(BoundOutcome::Unknown(format!(
                    "fetch input uses a non-CQ view: {msg}"
                )))
            }
            Err(e) => return Err(e),
        }
    }
    let ucq = UnionQuery::new(unfolded)?;
    match ucq_output(&ucq, access, schema, budget) {
        Ok(OutputBound::Bounded(n)) => Ok(BoundOutcome::Bounded(n)),
        Ok(OutputBound::Unbounded) => Ok(BoundOutcome::Unbounded),
        Err(QueryError::BudgetExceeded(what)) => Ok(BoundOutcome::Unknown(format!(
            "budget exceeded while {what}"
        ))),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqr_data::AccessConstraint;
    use bqr_plan::builder::{figure1_plan, Plan};
    use bqr_query::parser::parse_cq;

    fn movie_schema() -> DatabaseSchema {
        DatabaseSchema::with_relations(&[
            ("person", &["pid", "name", "affiliation"]),
            ("movie", &["mid", "mname", "studio", "release"]),
            ("rating", &["mid", "rank"]),
            ("like", &["pid", "id", "type"]),
        ])
        .unwrap()
    }

    fn phi1(n0: usize) -> AccessConstraint {
        AccessConstraint::new("movie", &["studio", "release"], &["mid"], n0).unwrap()
    }
    fn phi2() -> AccessConstraint {
        AccessConstraint::new("rating", &["mid"], &["rank"], 1).unwrap()
    }
    fn v1_views() -> ViewSet {
        let mut views = ViewSet::empty();
        views
            .add_cq(
                "V1",
                parse_cq(
                    "V1(mid) :- person(xp, xn, 'NASA'), movie(mid, ym, z1, z2), like(xp, mid, 'movie')",
                )
                .unwrap(),
            )
            .unwrap();
        views
    }

    #[test]
    fn figure1_plan_conforms_with_2n0_bound() {
        // Example 2.2: ξ0 accesses at most 2·N0 tuples.
        let n0 = 100;
        let access = AccessSchema::new(vec![phi1(n0), phi2()]);
        let plan = figure1_plan(&phi1(n0), &phi2()).unwrap();
        let result = check_conformance(
            &plan,
            &access,
            &movie_schema(),
            &v1_views(),
            &Budget::generous(),
        )
        .unwrap();
        match result {
            Conformance::Conforms { fetch_bound } => {
                assert_eq!(fetch_bound, 2 * n0, "1·N0 from φ1 plus N0·1 from φ2");
            }
            other => panic!("expected conformance, got {other:?}"),
        }
    }

    #[test]
    fn fetch_with_foreign_constraint_violates() {
        let access = AccessSchema::new(vec![phi2()]);
        let plan = figure1_plan(&phi1(10), &phi2()).unwrap();
        let result = check_conformance(
            &plan,
            &access,
            &movie_schema(),
            &v1_views(),
            &Budget::generous(),
        )
        .unwrap();
        assert!(matches!(result, Conformance::Violation(_)));
        assert!(!result.is_conforming());
        // A constant-driven fetch has bounded input, so only condition (1)
        // can reject it.
        let plan = Plan::constant(vec![42])
            .fetch(phi2(), vec![0])
            .build()
            .unwrap();
        let access = AccessSchema::new(vec![phi1(10)]);
        let result = check_conformance(
            &plan,
            &access,
            &movie_schema(),
            &ViewSet::empty(),
            &Budget::generous(),
        )
        .unwrap();
        assert!(matches!(result, Conformance::Violation(_)), "{result:?}");
    }

    #[test]
    fn fetch_driven_by_unbounded_view_violates() {
        // Feeding the whole (unbounded) V1 into a fetch breaks condition (2):
        // |V1(D)| is not bounded under A0 (Example 3.3).
        let access = AccessSchema::new(vec![phi1(10), phi2()]);
        let plan = Plan::view("V1", 1).fetch(phi2(), vec![0]).build().unwrap();
        let result = check_conformance(
            &plan,
            &access,
            &movie_schema(),
            &v1_views(),
            &Budget::generous(),
        )
        .unwrap();
        assert!(matches!(result, Conformance::Violation(_)), "{result:?}");
    }

    #[test]
    fn fetch_driven_by_constant_conforms() {
        let access = AccessSchema::new(vec![phi2()]);
        let plan = Plan::constant(vec![42])
            .fetch(phi2(), vec![0])
            .build()
            .unwrap();
        let result = check_conformance(
            &plan,
            &access,
            &movie_schema(),
            &ViewSet::empty(),
            &Budget::generous(),
        )
        .unwrap();
        assert_eq!(result, Conformance::Conforms { fetch_bound: 1 });
    }

    #[test]
    fn plan_without_fetches_trivially_conforms() {
        let access = AccessSchema::empty();
        let plan = Plan::view("V1", 1).project(vec![0]).build().unwrap();
        let result = check_conformance(
            &plan,
            &access,
            &movie_schema(),
            &v1_views(),
            &Budget::generous(),
        )
        .unwrap();
        assert_eq!(result, Conformance::Conforms { fetch_bound: 0 });
        assert!(result.is_conforming());
    }

    #[test]
    fn difference_inside_fetch_input_is_unknown() {
        let access = AccessSchema::new(vec![phi2()]);
        let input = Plan::constant(vec![1]).difference(Plan::constant(vec![2]));
        let plan = input.fetch(phi2(), vec![0]).build().unwrap();
        let result = check_conformance(
            &plan,
            &access,
            &movie_schema(),
            &ViewSet::empty(),
            &Budget::generous(),
        )
        .unwrap();
        assert!(matches!(result, Conformance::Unknown(_)), "{result:?}");
    }

    #[test]
    fn chained_fetches_accumulate_bounds() {
        // fetch movies for a constant key (≤ N0), then fetch their ratings
        // (≤ N0 · 1): total bound N0 + N0.
        let n0 = 7;
        let access = AccessSchema::new(vec![phi1(n0), phi2()]);
        let plan = Plan::constant(vec!["Universal", "2014"])
            .fetch(phi1(n0), vec![0, 1])
            .project(vec![2])
            .fetch(phi2(), vec![0])
            .build()
            .unwrap();
        let result = check_conformance(
            &plan,
            &access,
            &movie_schema(),
            &ViewSet::empty(),
            &Budget::generous(),
        )
        .unwrap();
        assert_eq!(
            result,
            Conformance::Conforms {
                fetch_bound: 2 * n0
            }
        );
    }
}
