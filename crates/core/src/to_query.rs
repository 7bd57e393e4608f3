//! The query `Q_ξ` expressed by a plan.
//!
//! Section 2 of the paper: for every plan `ξ` in a language `L` there is a
//! query `Q_ξ ∈ L` with `ξ(D) = Q_ξ(D)` on all instances (satisfying `A` or
//! not), of size linear in `|ξ|`.  This module performs that conversion into
//! the calculus ([`FoQuery`]), with view atoms kept symbolic (consumers
//! unfold them against a `ViewSet` when needed), and offers CQ / UCQ
//! specialisations for plans in those fragments.

use bqr_data::DatabaseSchema;
use bqr_plan::{PlanNode, QueryPlan, SelectCondition};
use bqr_query::{Atom, Budget, ConjunctiveQuery, Fo, FoQuery, Result, Term, UnionQuery};

/// Convert a plan into the FO query it expresses.  Output columns become the
/// head variables `o0, ..., o{k-1}`.
pub fn plan_to_fo(plan: &QueryPlan, schema: &DatabaseSchema) -> Result<FoQuery> {
    node_to_fo(plan.root(), schema)
}

/// Convert a plan node into the FO query it expresses.
pub fn node_to_fo(node: &PlanNode, schema: &DatabaseSchema) -> Result<FoQuery> {
    let arity = node.arity();
    let out_vars: Vec<String> = (0..arity).map(|i| format!("o{i}")).collect();
    let mut counter = 0usize;
    let body = formula(node, &out_vars, schema, &mut counter)?;
    let head: Vec<Term> = out_vars.into_iter().map(Term::var).collect();
    FoQuery::new(head, body)
}

/// Convert a CQ-shaped plan into a conjunctive query (view atoms kept).
pub fn plan_to_cq(plan: &QueryPlan, schema: &DatabaseSchema) -> Result<ConjunctiveQuery> {
    plan_to_fo(plan, schema)?.to_cq()
}

/// Convert a positive plan into the union of conjunctive queries it
/// expresses; `Ok(None)` means the plan is unsatisfiable (it always returns
/// the empty relation).
pub fn plan_to_ucq(
    plan: &QueryPlan,
    schema: &DatabaseSchema,
    budget: &Budget,
) -> Result<Option<UnionQuery>> {
    plan_to_fo(plan, schema)?.to_ucq(budget)
}

/// Convert a plan node (sub-plan) into the UCQ it expresses.
pub fn node_to_ucq(
    node: &PlanNode,
    schema: &DatabaseSchema,
    budget: &Budget,
) -> Result<Option<UnionQuery>> {
    node_to_fo(node, schema)?.to_ucq(budget)
}

fn fresh(counter: &mut usize) -> String {
    let name = format!("__p{counter}");
    *counter += 1;
    name
}

fn formula(
    node: &PlanNode,
    out_vars: &[String],
    schema: &DatabaseSchema,
    counter: &mut usize,
) -> Result<Fo> {
    match node {
        PlanNode::Const(t) => {
            let eqs: Vec<Fo> = out_vars
                .iter()
                .zip(t.iter())
                .map(|(v, c)| Fo::Eq(Term::var(v.clone()), Term::cnst(c.clone())))
                .collect();
            Ok(Fo::conjunction(eqs))
        }
        PlanNode::View { name, .. } => Ok(Fo::Atom(Atom::new(
            name.clone(),
            out_vars.iter().map(|v| Term::var(v.clone())).collect(),
        ))),
        PlanNode::Fetch {
            input,
            constraint,
            key_columns,
        } => {
            let rel_schema = schema
                .expect_relation(constraint.relation())
                .map_err(bqr_query::QueryError::from)?;
            let xy = constraint.xy();
            // Input variables.
            let in_vars: Vec<String> = (0..input.arity()).map(|_| fresh(counter)).collect();
            let input_formula = formula(input, &in_vars, schema, counter)?;
            // The relation atom: XY positions take the output variables, the
            // remaining positions take fresh existential variables.
            let mut atom_args = Vec::with_capacity(rel_schema.arity());
            let mut extra_vars = Vec::new();
            for attr in rel_schema.attributes() {
                match xy.iter().position(|a| a == attr) {
                    Some(j) => atom_args.push(Term::var(out_vars[j].clone())),
                    None => {
                        let v = fresh(counter);
                        extra_vars.push(v.clone());
                        atom_args.push(Term::var(v));
                    }
                }
            }
            let atom = Fo::Atom(Atom::new(constraint.relation(), atom_args));
            // The key equalities: the i-th X attribute equals the
            // key_columns[i]-th input column.  X attributes occupy the first
            // |X| positions of `xy`.
            let mut parts = vec![input_formula, atom];
            for (i, &col) in key_columns.iter().enumerate() {
                parts.push(Fo::Eq(
                    Term::var(out_vars[i].clone()),
                    Term::var(in_vars[col].clone()),
                ));
            }
            let mut bound = in_vars;
            bound.extend(extra_vars);
            Ok(Fo::exists(bound, Fo::conjunction(parts)))
        }
        PlanNode::Project { input, columns } => {
            let in_vars: Vec<String> = (0..input.arity()).map(|_| fresh(counter)).collect();
            let input_formula = formula(input, &in_vars, schema, counter)?;
            let mut parts = vec![input_formula];
            for (i, &col) in columns.iter().enumerate() {
                parts.push(Fo::Eq(
                    Term::var(out_vars[i].clone()),
                    Term::var(in_vars[col].clone()),
                ));
            }
            Ok(Fo::exists(in_vars, Fo::conjunction(parts)))
        }
        PlanNode::Select { input, conditions } => {
            let input_formula = formula(input, out_vars, schema, counter)?;
            let mut parts = vec![input_formula];
            for cond in conditions {
                parts.push(condition_to_fo(cond, out_vars));
            }
            Ok(Fo::conjunction(parts))
        }
        PlanNode::Rename { input } => formula(input, out_vars, schema, counter),
        PlanNode::Product(a, b) => {
            let left = formula(a, &out_vars[..a.arity()], schema, counter)?;
            let right = formula(b, &out_vars[a.arity()..], schema, counter)?;
            Ok(Fo::and(left, right))
        }
        PlanNode::Union(a, b) => {
            let left = formula(a, out_vars, schema, counter)?;
            let right = formula(b, out_vars, schema, counter)?;
            Ok(Fo::or(left, right))
        }
        PlanNode::Difference(a, b) => {
            let left = formula(a, out_vars, schema, counter)?;
            let right = formula(b, out_vars, schema, counter)?;
            Ok(Fo::and(left, Fo::not(right)))
        }
    }
}

fn condition_to_fo(cond: &SelectCondition, out_vars: &[String]) -> Fo {
    match cond {
        SelectCondition::ColEqConst(c, v) => {
            Fo::Eq(Term::var(out_vars[*c].clone()), Term::cnst(v.clone()))
        }
        SelectCondition::ColNeConst(c, v) => Fo::not(Fo::Eq(
            Term::var(out_vars[*c].clone()),
            Term::cnst(v.clone()),
        )),
        SelectCondition::ColEqCol(a, b) => Fo::Eq(
            Term::var(out_vars[*a].clone()),
            Term::var(out_vars[*b].clone()),
        ),
        SelectCondition::ColNeCol(a, b) => Fo::not(Fo::Eq(
            Term::var(out_vars[*a].clone()),
            Term::var(out_vars[*b].clone()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqr_data::{AccessConstraint, Value};
    use bqr_plan::builder::{figure1_plan, Plan};
    use bqr_query::eval::{eval_cq, eval_fo};
    use bqr_query::parser::parse_cq;
    use bqr_query::{QueryLanguage, ViewSet};

    fn movie_schema() -> DatabaseSchema {
        DatabaseSchema::with_relations(&[
            ("person", &["pid", "name", "affiliation"]),
            ("movie", &["mid", "mname", "studio", "release"]),
            ("rating", &["mid", "rank"]),
            ("like", &["pid", "id", "type"]),
        ])
        .unwrap()
    }

    fn phi1() -> AccessConstraint {
        AccessConstraint::new("movie", &["studio", "release"], &["mid"], 100).unwrap()
    }
    fn phi2() -> AccessConstraint {
        AccessConstraint::new("rating", &["mid"], &["rank"], 1).unwrap()
    }

    #[test]
    fn figure1_plan_expresses_example_2_3_rewriting() {
        let plan = figure1_plan(&phi1(), &phi2()).unwrap();
        let schema = movie_schema();
        let fo = plan_to_fo(&plan, &schema).unwrap();
        assert_eq!(fo.arity(), 1);
        assert_eq!(fo.language(), QueryLanguage::Cq);
        let cq = plan_to_cq(&plan, &schema).unwrap();
        // The expressed query mentions movie, rating and the view V1.
        assert!(cq.relation_names().contains("movie"));
        assert!(cq.relation_names().contains("rating"));
        assert!(cq.relation_names().contains("V1"));
        // After unfolding V1, the expressed query is classically equivalent to
        // the rewriting Qξ of Example 2.3.
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
        let unfolded = views.unfold_cq(&cq).unwrap();
        let q_xi = views
            .unfold_cq(
                &parse_cq("Q(mid) :- movie(mid, ym, 'Universal', '2014'), V1(mid), rating(mid, 5)")
                    .unwrap(),
            )
            .unwrap();
        assert!(bqr_query::containment::cq_equivalent(&unfolded, &q_xi, &schema).unwrap());
    }

    #[test]
    fn expressed_query_agrees_with_plan_execution() {
        // Check ξ(D) = Qξ(D) on a concrete instance, with the view unfolded.
        use bqr_data::{tuple, AccessSchema, Database, IndexedDatabase};
        let schema = movie_schema();
        let mut db = Database::empty(schema.clone());
        db.insert("person", tuple![1, "Ann", "NASA"]).unwrap();
        db.insert("movie", tuple![10, "Lucy", "Universal", "2014"])
            .unwrap();
        db.insert("movie", tuple![11, "Ouija", "Universal", "2014"])
            .unwrap();
        db.insert("rating", tuple![10, 5]).unwrap();
        db.insert("rating", tuple![11, 3]).unwrap();
        db.insert("like", tuple![1, 10, "movie"]).unwrap();

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
        let cache = views.materialize(&db).unwrap();
        let access = AccessSchema::new(vec![phi1(), phi2()]);
        let idb = IndexedDatabase::build(db.clone(), access).unwrap();

        let plan = figure1_plan(&phi1(), &phi2()).unwrap();
        let plan_answers = bqr_plan::execute(&plan, &idb, &cache).unwrap().tuples;

        let cq = plan_to_cq(&plan, &schema).unwrap();
        let query_answers = eval_cq(&cq, &db, Some(&cache)).unwrap();
        assert_eq!(plan_answers, query_answers);
        assert_eq!(plan_answers, vec![tuple![10]]);
    }

    #[test]
    fn const_and_view_conversions() {
        let schema = movie_schema();
        let plan = Plan::constant(vec![Value::int(7), Value::str("x")])
            .build()
            .unwrap();
        let fo = plan_to_fo(&plan, &schema).unwrap();
        assert_eq!(fo.arity(), 2);
        // Constants appear as equalities in the body.
        assert!(fo.body().constants().contains(&Value::int(7)));

        let plan = Plan::view("V9", 2).select_eq_cols(0, 1).build().unwrap();
        let cq = plan_to_cq(&plan, &schema).unwrap();
        assert!(cq.relation_names().contains("V9"));
        assert_eq!(cq.arity(), 2);
        // The selection equates the two head variables.
        assert_eq!(cq.head()[0], cq.head()[1]);
    }

    #[test]
    fn union_and_difference_classify_correctly() {
        let schema = movie_schema();
        let union = Plan::constant(vec![1])
            .union(Plan::constant(vec![2]))
            .build()
            .unwrap();
        let fo = plan_to_fo(&union, &schema).unwrap();
        assert_eq!(fo.language(), QueryLanguage::Ucq);
        let ucq = plan_to_ucq(&union, &schema, &Budget::generous())
            .unwrap()
            .unwrap();
        assert_eq!(ucq.len(), 2);

        let diff = Plan::constant(vec![1])
            .difference(Plan::constant(vec![1]))
            .build()
            .unwrap();
        let fo = plan_to_fo(&diff, &schema).unwrap();
        assert_eq!(fo.language(), QueryLanguage::Fo);
        assert!(plan_to_cq(&diff, &schema).is_err());
        assert!(plan_to_ucq(&diff, &schema, &Budget::generous()).is_err());
    }

    #[test]
    fn expressed_fo_query_evaluates_like_the_plan_with_negation() {
        use bqr_data::{tuple, AccessSchema, Database, IndexedDatabase};
        let schema = movie_schema();
        let mut db = Database::empty(schema.clone());
        db.insert("rating", tuple![10, 5]).unwrap();
        db.insert("rating", tuple![11, 3]).unwrap();
        let access = AccessSchema::new(vec![phi2()]);
        let idb = IndexedDatabase::build(db.clone(), access).unwrap();
        let cache = bqr_query::MaterializedViews::empty();

        // Fetch the rating of movie 10 and movie 11, keep those ≠ 5.
        let plan = Plan::constant(vec![10])
            .union(Plan::constant(vec![11]))
            .fetch(phi2(), vec![0])
            .select(vec![SelectCondition::ColNeConst(1, Value::int(5))])
            .project(vec![0])
            .build()
            .unwrap();
        let out = bqr_plan::execute(&plan, &idb, &cache).unwrap();
        assert_eq!(out.tuples, vec![tuple![11]]);

        let fo = plan_to_fo(&plan, &schema).unwrap();
        let answers = eval_fo(&fo, &db, None).unwrap();
        assert_eq!(answers, out.tuples);
    }

    #[test]
    fn fetch_with_empty_x_constraint() {
        let schema = DatabaseSchema::with_relations(&[("r01", &["a"])]).unwrap();
        let c = AccessConstraint::new("r01", &[], &["a"], 2).unwrap();
        let plan = Plan::constant(Vec::<Value>::new())
            .fetch(c, vec![])
            .build()
            .unwrap();
        let fo = node_to_fo(plan.root(), &schema).unwrap();
        assert_eq!(fo.arity(), 1);
        let ucq = node_to_ucq(plan.root(), &schema, &Budget::generous())
            .unwrap()
            .unwrap();
        assert_eq!(ucq.len(), 1);
        assert!(ucq.disjuncts()[0].relation_names().contains("r01"));
    }
}
