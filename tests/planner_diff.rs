//! Differential tests: the planned slot engine (cost-based atom order)
//! versus the retained `hom::reference` oracle, on randomized
//! query/instance pairs.
//!
//! Three procedures are exercised, each on well over 200 randomized cases:
//! CQ evaluation, classical containment, and `A`-containment.  The query
//! pools mix cyclic shapes (triangles, k-cycles, self-joins with constants)
//! with acyclic join trees, plus a few atoms that repeat a variable before
//! any other atom binds it (the search compares the repeated positions).

use bqr_bench::hom_bench::reference_cq_contained_in;
use bqr_data::{AccessConstraint, AccessSchema, Database, DatabaseSchema, Relation, Tuple};
use bqr_query::containment::ContainmentChecker;
use bqr_query::element::element_queries;
use bqr_query::eval::Evaluator;
use bqr_query::hom::{reference, Assignment, MatchLimit};
use bqr_query::parser::parse_cq;
use bqr_query::{Budget, ConjunctiveQuery, Term, UnionQuery, ViewDefinition, ViewSet};
use bqr_workload::random::{
    generate_cyclic_queries, generate_database, generate_queries, CyclicQueryConfig,
    RandomDatabaseConfig, RandomQueryConfig,
};
use std::collections::{BTreeMap, BTreeSet};

fn schema() -> DatabaseSchema {
    DatabaseSchema::with_relations(&[
        ("e", &["s", "d"]),
        ("r", &["a", "b", "c"]),
        ("s", &["u", "v"]),
    ])
    .unwrap()
}

fn access() -> AccessSchema {
    AccessSchema::new(vec![
        AccessConstraint::new("e", &["s"], &["d"], 3).unwrap(),
        AccessConstraint::new("r", &["a", "b"], &["c"], 2).unwrap(),
        AccessConstraint::new("s", &["u"], &["v"], 1).unwrap(),
    ])
}

/// A pool mixing cyclic and acyclic queries, all of arity 1, ending in
/// queries with an atom that repeats a variable, the head's or another.
fn query_pool(seed: u64, cyclic: usize, acyclic: usize) -> Vec<ConjunctiveQuery> {
    let schema = schema();
    let mut pool = Vec::new();
    for cycle_len in [3usize, 4] {
        pool.extend(generate_cyclic_queries(
            &schema,
            &CyclicQueryConfig {
                cycle_len,
                extra_atoms: 1,
                constant_probability: 0.25,
                constants: (0..6).map(bqr_data::Value::int).collect(),
                head_variables: 1,
                seed: seed + cycle_len as u64,
            },
            cyclic / 2,
        ));
    }
    pool.extend(generate_queries(
        &schema,
        &RandomQueryConfig {
            atoms: 3,
            constant_probability: 0.3,
            constants: (0..6).map(bqr_data::Value::int).collect(),
            head_variables: 1,
            seed: seed + 100,
        },
        acyclic,
    ));
    pool.retain(|q| q.arity() == 1);
    pool.extend(
        [
            "Q(x) :- e(x, x)",
            "Q(x) :- r(x, x, x)",
            "Q(y) :- s(y, y), e(x, y)",
            "Q(x) :- e(x, y), e(z, z)",
            "Q(x) :- e(x, y), e(y, z), e(z, x), e(z, z)",
        ]
        .map(|text| parse_cq(text).unwrap()),
    );
    pool
}

fn instances(count: usize) -> Vec<Database> {
    (0..count as u64)
        .map(|seed| {
            generate_database(
                &schema(),
                &RandomDatabaseConfig {
                    tuples_per_relation: 25,
                    domain_size: 6,
                    seed: 1000 + seed,
                },
            )
        })
        .collect()
}

/// Evaluate a CQ with the reference engine: enumerate homomorphisms naively
/// and project the head.
fn reference_eval(cq: &ConjunctiveQuery, db: &Database) -> BTreeSet<Tuple> {
    let relations: BTreeMap<String, &Relation> = cq
        .relation_names()
        .into_iter()
        .map(|n| {
            let rel = db.relation(&n).expect("pool queries use base relations");
            (n, rel)
        })
        .collect();
    let matches = reference::enumerate_homomorphisms(
        cq.atoms(),
        &relations,
        &Assignment::new(),
        MatchLimit::AtMost(1_000_000),
    )
    .unwrap();
    matches
        .into_iter()
        .map(|m| {
            cq.head()
                .iter()
                .map(|t| match t {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => m[v].clone(),
                })
                .collect::<Tuple>()
        })
        .collect()
}

#[test]
fn evaluation_agrees_with_reference_on_randomized_cases() {
    let pool = query_pool(1, 20, 15);
    let dbs = instances(4);
    let mut cases = 0usize;
    let evaluator = Evaluator::new();
    for db in &dbs {
        for q in &pool {
            let planned: BTreeSet<Tuple> = evaluator
                .eval_cq(q, db, None)
                .unwrap()
                .into_iter()
                .collect();
            let naive = reference_eval(q, db);
            assert_eq!(planned, naive, "eval mismatch on {q}");
            cases += 1;
        }
    }
    // The view path, which plans nothing: each pool query as a one-view
    // set, and each with its successor as a two-rule UCQ view, must
    // materialise to the reference.
    let materialized = |def: ViewDefinition, db: &Database| -> BTreeSet<Tuple> {
        let mut views = ViewSet::empty();
        views.add("V", def).unwrap();
        let extent = views.materialize(db).unwrap().extent("V").unwrap().clone();
        extent.iter().map(|t| t.to_tuple()).collect()
    };
    for db in &dbs {
        for (q, next) in pool.iter().zip(pool.iter().cycle().skip(1)) {
            let naive = reference_eval(q, db);
            let one = materialized(ViewDefinition::Cq(q.clone()), db);
            assert_eq!(one, naive, "materialised view {q}");
            let union = UnionQuery::new(vec![q.clone(), next.clone()]).unwrap();
            let both = naive.union(&reference_eval(next, db)).cloned().collect();
            let two = materialized(ViewDefinition::Ucq(union), db);
            assert_eq!(two, both, "materialised view {q} ∪ {next}");
            cases += 2;
        }
    }
    assert!(cases >= 200, "only {cases} evaluation cases ran");
}

#[test]
fn containment_agrees_with_reference_on_randomized_pairs() {
    let schema = schema();
    let pool = query_pool(2, 10, 6);
    let mut cases = 0usize;
    let checker = ContainmentChecker::new(&schema);
    for q1 in &pool {
        for q2 in &pool {
            let planned = checker.cq_contained_in(q1, q2).unwrap();
            let oracle = reference_cq_contained_in(q1, q2, &schema);
            assert_eq!(planned, oracle, "containment mismatch on {q1} ⊆ {q2}");
            cases += 1;
        }
    }
    assert!(cases >= 200, "only {cases} containment cases ran");
}

#[test]
fn a_containment_agrees_with_reference_on_randomized_pairs() {
    let schema = schema();
    let access = access();
    let budget = Budget::generous();
    let pool: Vec<_> = query_pool(3, 10, 8).into_iter().take(15).collect();
    assert!(pool.len() >= 15, "pool too small: {}", pool.len());
    let mut cases = 0usize;
    let checker = ContainmentChecker::new(&schema);
    for q1 in &pool {
        // Element queries of q1, shared across all q2.
        let elements = element_queries(q1, &access, &schema, &budget).unwrap();
        for q2 in &pool {
            let planned = bqr_query::aequiv::ucq_a_contained_in_with(
                &checker,
                &bqr_query::UnionQuery::single(q1.clone()),
                &bqr_query::UnionQuery::single(q2.clone()),
                &access,
                &budget,
            )
            .unwrap();
            let oracle = elements
                .iter()
                .all(|qe| reference_cq_contained_in(qe, q2, &schema));
            assert_eq!(planned, oracle, "A-containment mismatch on {q1} ⊑_A {q2}");
            cases += 1;
        }
    }
    assert!(cases >= 200, "only {cases} A-containment cases ran");
}
