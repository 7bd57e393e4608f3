//! `A`-containment and `A`-equivalence (Lemma 3.2).
//!
//! `Q1 ⊑_A Q2` holds when `Q1(D) ⊆ Q2(D)` for every instance `D |= A`; it is
//! strictly weaker than classical containment.  The decision procedure uses
//! element queries: `Q1 ≡_A ⋃ Q_e` over its element queries, each of which
//! has an `A`-satisfying tableau, and for such a query `Q_e ⊑_A Q2` coincides
//! with classical containment `Q_e ⊆ Q2` (the canonical instance of `Q_e`
//! itself satisfies `A`).  The problem is Πᵖ₂-complete, so everything is
//! budgeted.
//!
//! Every containment test here runs on the planned slot engine of
//! [`crate::hom`].  The one-shot functions below build a fresh
//! [`ContainmentChecker`]; pass one to the `*_with` variants to share its
//! memoised canonical instances and searches across a whole decision
//! procedure.

use crate::budget::Budget;
use crate::containment::ContainmentChecker;
use crate::cq::ConjunctiveQuery;
use crate::element::element_queries;
use crate::ucq::UnionQuery;
use crate::Result;
use bqr_data::{AccessSchema, DatabaseSchema};

/// Decide `q1 ⊑_A q2` for conjunctive queries.
pub fn cq_a_contained_in(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    access: &AccessSchema,
    schema: &DatabaseSchema,
    budget: &Budget,
) -> Result<bool> {
    ucq_a_contained_in(
        &UnionQuery::single(q1.clone()),
        &UnionQuery::single(q2.clone()),
        access,
        schema,
        budget,
    )
}

/// Decide `u1 ⊑_A u2` for unions of conjunctive queries.
pub fn ucq_a_contained_in(
    u1: &UnionQuery,
    u2: &UnionQuery,
    access: &AccessSchema,
    schema: &DatabaseSchema,
    budget: &Budget,
) -> Result<bool> {
    let checker = ContainmentChecker::new(schema);
    ucq_a_contained_in_with(&checker, u1, u2, access, budget)
}

/// [`ucq_a_contained_in`] against a caller-provided [`ContainmentChecker`],
/// so that a sequence of `A`-containment tests (the exact VBRP search checks
/// hundreds of candidate plans against the same query) shares canonical
/// instances and relation indexes.
pub fn ucq_a_contained_in_with(
    checker: &ContainmentChecker<'_>,
    u1: &UnionQuery,
    u2: &UnionQuery,
    access: &AccessSchema,
    budget: &Budget,
) -> Result<bool> {
    for d in u1.disjuncts() {
        for qe in element_queries(d, access, checker.schema(), budget)? {
            if !checker.cq_contained_in_ucq(&qe, u2)? {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Decide `q1 ≡_A q2` for conjunctive queries.
pub fn cq_a_equivalent(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    access: &AccessSchema,
    schema: &DatabaseSchema,
    budget: &Budget,
) -> Result<bool> {
    ucq_a_equivalent(
        &UnionQuery::single(q1.clone()),
        &UnionQuery::single(q2.clone()),
        access,
        schema,
        budget,
    )
}

/// Decide `u1 ≡_A u2` for unions of conjunctive queries.
pub fn ucq_a_equivalent(
    u1: &UnionQuery,
    u2: &UnionQuery,
    access: &AccessSchema,
    schema: &DatabaseSchema,
    budget: &Budget,
) -> Result<bool> {
    let checker = ContainmentChecker::new(schema);
    ucq_a_equivalent_with(&checker, u1, u2, access, budget)
}

/// [`ucq_a_equivalent`] against a caller-provided [`ContainmentChecker`].
pub fn ucq_a_equivalent_with(
    checker: &ContainmentChecker<'_>,
    u1: &UnionQuery,
    u2: &UnionQuery,
    access: &AccessSchema,
    budget: &Budget,
) -> Result<bool> {
    Ok(ucq_a_contained_in_with(checker, u1, u2, access, budget)?
        && ucq_a_contained_in_with(checker, u2, u1, access, budget)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, Term};
    use crate::containment::cq_contained_in;
    use crate::testutil::{movie_access, movie_schema, q0, v1, va};
    use crate::views::ViewSet;
    use bqr_data::{AccessConstraint, AccessSchema};

    fn simple_schema() -> DatabaseSchema {
        DatabaseSchema::with_relations(&[("r", &["a", "b"]), ("s", &["a", "b"])]).unwrap()
    }

    #[test]
    fn classical_containment_implies_a_containment() {
        let schema = simple_schema();
        let access =
            AccessSchema::new(vec![AccessConstraint::new("r", &["a"], &["b"], 2).unwrap()]);
        let specific = ConjunctiveQuery::new(
            vec![Term::var("x")],
            vec![Atom::new("r", vec![Term::var("x"), Term::cnst(1)])],
        )
        .unwrap();
        let general =
            ConjunctiveQuery::new(vec![Term::var("x")], vec![va("r", &["x", "y"])]).unwrap();
        assert!(
            cq_a_contained_in(&specific, &general, &access, &schema, &Budget::generous()).unwrap()
        );
        assert!(
            !cq_a_contained_in(&general, &specific, &access, &schema, &Budget::generous()).unwrap()
        );
        assert!(
            !cq_a_equivalent(&general, &specific, &access, &schema, &Budget::generous()).unwrap()
        );
        assert!(
            cq_a_equivalent(&general, &general, &access, &schema, &Budget::generous()).unwrap()
        );
    }

    #[test]
    fn a_containment_strictly_weaker_than_containment() {
        // Under r(a → b, 1): Q1() :- r(x, y1), r(x, y2), s(y1, y2) is
        // A-contained in Q2() :- r(x, y), s(y, y) (the FD forces y1 = y2),
        // but not classically contained.
        let schema = simple_schema();
        let access = AccessSchema::new(vec![AccessConstraint::fd("r", &["a"], &["b"]).unwrap()]);
        let q1 = ConjunctiveQuery::boolean(vec![
            va("r", &["x", "y1"]),
            va("r", &["x", "y2"]),
            va("s", &["y1", "y2"]),
        ])
        .unwrap();
        let q2 =
            ConjunctiveQuery::boolean(vec![va("r", &["x", "y"]), va("s", &["y", "y"])]).unwrap();
        assert!(
            !cq_contained_in(&q1, &q2, &schema).unwrap(),
            "not classically contained"
        );
        assert!(
            cq_a_contained_in(&q1, &q2, &access, &schema, &Budget::generous()).unwrap(),
            "but A-contained thanks to the FD"
        );
        // The converse direction holds classically (map q1 into q2's canonical
        // instance), hence also under A.
        assert!(cq_a_contained_in(&q2, &q1, &access, &schema, &Budget::generous()).unwrap());
        assert!(cq_a_equivalent(&q1, &q2, &access, &schema, &Budget::generous()).unwrap());
    }

    #[test]
    fn unsatisfiable_query_is_a_contained_in_everything() {
        let schema = simple_schema();
        let access = AccessSchema::new(vec![AccessConstraint::fd("r", &["a"], &["b"]).unwrap()]);
        let unsat = ConjunctiveQuery::boolean(vec![
            Atom::new("r", vec![Term::var("x"), Term::cnst(1)]),
            Atom::new("r", vec![Term::var("x"), Term::cnst(2)]),
        ])
        .unwrap();
        let anything = ConjunctiveQuery::boolean(vec![va("s", &["u", "v"])]).unwrap();
        assert!(
            cq_a_contained_in(&unsat, &anything, &access, &schema, &Budget::generous()).unwrap()
        );
        assert!(
            !cq_a_contained_in(&anything, &unsat, &access, &schema, &Budget::generous()).unwrap()
        );
    }

    #[test]
    fn example_2_3_rewriting_is_a_equivalent_to_q0() {
        // The unfolded rewriting Qξ (using V1) is A0-equivalent to Q0.
        let schema = movie_schema();
        let access = movie_access(100);
        let mut views = ViewSet::empty();
        views.add_cq("V1", v1()).unwrap();
        let q_xi = ConjunctiveQuery::new(
            vec![Term::var("mid")],
            vec![
                Atom::new(
                    "movie",
                    vec![
                        Term::var("mid"),
                        Term::var("ym"),
                        Term::cnst("Universal"),
                        Term::cnst("2014"),
                    ],
                ),
                Atom::new("V1", vec![Term::var("mid")]),
                Atom::new("rating", vec![Term::var("mid"), Term::cnst(5)]),
            ],
        )
        .unwrap();
        let unfolded = views.unfold_cq(&q_xi).unwrap();
        assert!(cq_a_equivalent(&unfolded, &q0(), &access, &schema, &Budget::generous()).unwrap());
    }

    #[test]
    fn ucq_a_containment_respects_disjuncts() {
        let schema = simple_schema();
        let access =
            AccessSchema::new(vec![AccessConstraint::new("r", &["a"], &["b"], 2).unwrap()]);
        let d1 = ConjunctiveQuery::new(
            vec![Term::var("x")],
            vec![Atom::new("r", vec![Term::var("x"), Term::cnst(1)])],
        )
        .unwrap();
        let d2 = ConjunctiveQuery::new(
            vec![Term::var("x")],
            vec![Atom::new("s", vec![Term::var("x"), Term::cnst(1)])],
        )
        .unwrap();
        let both = UnionQuery::new(vec![d1.clone(), d2.clone()]).unwrap();
        let just_r = UnionQuery::single(d1);
        assert!(ucq_a_contained_in(&just_r, &both, &access, &schema, &Budget::generous()).unwrap());
        assert!(
            !ucq_a_contained_in(&both, &just_r, &access, &schema, &Budget::generous()).unwrap()
        );
        assert!(ucq_a_equivalent(&both, &both, &access, &schema, &Budget::generous()).unwrap());
        assert!(!ucq_a_equivalent(&both, &just_r, &access, &schema, &Budget::generous()).unwrap());
    }
}
