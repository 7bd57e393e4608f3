//! Property-based tests on the core invariants.
//!
//! The deterministic-plan tests at the bottom guard against a failure mode
//! this suite used to be exposed to: with a fixed proptest seed, a plan or
//! result ordering that depended on hash-map iteration order could make the
//! same case pass and fail across runs.  Plans are now a pure function of
//! the query and the relation statistics, and every evaluation result is
//! sorted, so a fixed seed pins the whole execution.

use bqr_core::problem::RewritingSetting;
use bqr_core::topped::ToppedChecker;
use bqr_data::{tuple, AccessConstraint, AccessSchema, Database, DatabaseSchema, IndexedDatabase};
use bqr_plan::builder::Plan;
use bqr_plan::exec::{execute, execute_with, reference, ExecOptions};
use bqr_plan::{Pipeline, SelectCondition};
use bqr_query::aequiv::cq_a_contained_in;
use bqr_query::bounded_output::cq_output;
use bqr_query::containment::cq_contained_in;
use bqr_query::element::element_queries;
use bqr_query::eval::{eval_cq, eval_ucq};
use bqr_query::{Budget, UnionQuery, ViewSet};
use bqr_workload::random::{generate_queries, RandomQueryConfig};
use proptest::prelude::*;

fn small_schema() -> DatabaseSchema {
    DatabaseSchema::with_relations(&[("r", &["a", "b"]), ("s", &["a", "b"])]).unwrap()
}

fn small_access(n: usize) -> AccessSchema {
    AccessSchema::new(vec![
        AccessConstraint::new("r", &["a"], &["b"], n).unwrap(),
        AccessConstraint::new("s", &["a"], &["b"], 1).unwrap(),
    ])
}

/// Generate a small random database over `small_schema` that satisfies the
/// access schema by construction (at most `n` b-values per a-value in r, one
/// in s).
fn db_strategy(n: usize) -> impl Strategy<Value = Database> {
    let r_rows = prop::collection::vec((0i64..4, 0i64..3), 0..12);
    let s_rows = prop::collection::vec((0i64..4, 0i64..4), 0..8);
    (r_rows, s_rows).prop_map(move |(r, s)| {
        let mut db = Database::empty(small_schema());
        let mut per_key = std::collections::BTreeMap::new();
        for (a, b) in r {
            let set = per_key
                .entry(a)
                .or_insert_with(std::collections::BTreeSet::new);
            if set.len() < n || set.contains(&b) {
                set.insert(b);
                db.insert("r", tuple![a, b]).unwrap();
            }
        }
        let mut s_key = std::collections::BTreeSet::new();
        for (a, b) in s {
            if s_key.insert(a) {
                db.insert("s", tuple![a, b]).unwrap();
            }
        }
        db
    })
}

/// A small pool of random conjunctive queries over the schema.
fn query_pool() -> Vec<bqr_query::ConjunctiveQuery> {
    generate_queries(&small_schema(), &query_config(), 12)
}

fn query_config() -> RandomQueryConfig {
    RandomQueryConfig {
        atoms: 2,
        constant_probability: 0.4,
        constants: (0..4).map(bqr_data::Value::int).collect(),
        head_variables: 1,
        seed: 2024,
    }
}

/// Plans and result orderings are deterministic under a fixed seed: the
/// same query compiled repeatedly (against fresh caches and evaluators)
/// yields byte-identical plans and identically ordered results, for both
/// acyclic and cyclic pools.
#[test]
fn plans_and_result_orderings_are_deterministic_under_a_fixed_seed() {
    use bqr_query::hom::HomSearch;
    use bqr_workload::random::{
        generate_cyclic_queries, generate_database, CyclicQueryConfig, RandomDatabaseConfig,
    };

    let schema = small_schema();
    let db = generate_database(
        &schema,
        &RandomDatabaseConfig {
            tuples_per_relation: 25,
            domain_size: 5,
            seed: 42,
        },
    );
    let mut pool = query_pool();
    pool.extend(generate_cyclic_queries(
        &schema,
        &CyclicQueryConfig {
            cycle_len: 3,
            extra_atoms: 1,
            seed: 2024,
            ..CyclicQueryConfig::default()
        },
        6,
    ));
    for q in &pool {
        let relations: std::collections::BTreeMap<String, &bqr_data::Relation> = q
            .relation_names()
            .into_iter()
            .map(|n| {
                let rel = db.relation(&n).unwrap();
                (n, rel)
            })
            .collect();
        let reference_plan = {
            let cache = bqr_data::IndexCache::new();
            HomSearch::compile(q.atoms(), &relations, &Default::default(), &cache)
                .unwrap()
                .atom_order()
                .to_vec()
        };
        let reference_answers = eval_cq(q, &db, None).unwrap();
        for _ in 0..3 {
            let cache = bqr_data::IndexCache::new();
            let again = HomSearch::compile(q.atoms(), &relations, &Default::default(), &cache)
                .unwrap()
                .atom_order()
                .to_vec();
            assert_eq!(again, reference_plan, "plan drifted for {q}");
            assert_eq!(
                eval_cq(q, &db, None).unwrap(),
                reference_answers,
                "result ordering drifted for {q}"
            );
        }
        let mut sorted = reference_answers.clone();
        sorted.sort();
        assert_eq!(sorted, reference_answers, "results are emitted sorted");
    }
}

/// Build a one-view instance whose cached extent is exactly `rows` (with
/// whatever duplicates the generator produced collapsing in the view).
fn view_instance(rows: &[(i64, i64)]) -> (IndexedDatabase, bqr_query::MaterializedViews) {
    let schema = DatabaseSchema::with_relations(&[("e", &["x", "y"])]).unwrap();
    let mut db = Database::empty(schema);
    for &(x, y) in rows {
        db.insert("e", tuple![x, y]).unwrap();
    }
    let mut views = ViewSet::empty();
    views
        .add_cq(
            "V",
            bqr_query::parser::parse_cq("V(x, y) :- e(x, y)").unwrap(),
        )
        .unwrap();
    let cache = views.materialize(&db).unwrap();
    let idb = IndexedDatabase::build(db, AccessSchema::empty()).unwrap();
    (idb, cache)
}

fn cond_pool() -> Vec<Vec<SelectCondition>> {
    vec![
        vec![],
        vec![SelectCondition::ColEqConst(0, bqr_data::Value::int(3))],
        vec![SelectCondition::ColNeConst(1, bqr_data::Value::int(7))],
        vec![SelectCondition::ColEqCol(0, 1)],
        vec![SelectCondition::ColNeCol(0, 1)],
        // Conjunction: a row must pass both.
        vec![
            SelectCondition::ColNeCol(0, 1),
            SelectCondition::ColNeConst(0, bqr_data::Value::int(0)),
        ],
        // Contradiction: no row passes.
        vec![
            SelectCondition::ColEqConst(0, bqr_data::Value::int(1)),
            SelectCondition::ColNeConst(0, bqr_data::Value::int(1)),
        ],
    ]
}

/// An empty extent flows through the whole pipeline (no row to select,
/// nothing to dedup) to the reference's empty answer.
#[test]
fn pipeline_handles_empty_extents() {
    let (idb, cache) = view_instance(&[]);
    for conds in cond_pool() {
        let plan = Plan::view("V", 2)
            .select(conds)
            .project(vec![1])
            .build()
            .unwrap();
        let expected = reference::execute(&plan, &idb, &cache).unwrap();
        assert!(expected.tuples.is_empty());
        assert_eq!(execute(&plan, &idb, &cache).unwrap(), expected);
    }
}

/// A one-row intermediate budget trips on a 6 000-row plan with the typed
/// error, with or without a deadline beside it.
#[test]
fn row_budget_trips_mid_batch_with_or_without_a_deadline() {
    let rows: Vec<(i64, i64)> = (0..6_000).map(|i| (i % 13, i)).collect();
    let (idb, cache) = view_instance(&rows);
    let plan = Plan::view("V", 2).project(vec![0, 1]).build().unwrap();
    for options in [
        ExecOptions::default().with_row_budget(1),
        ExecOptions::default()
            .with_row_budget(1)
            .with_deadline_ms(60_000),
    ] {
        let err = execute_with(&plan, &idb, &cache, &options).unwrap_err();
        assert!(
            matches!(
                err,
                bqr_plan::PlanError::Exec(bqr_plan::ExecError::MemoryBudgetExceeded {
                    budget_rows: 1
                })
            ),
            "{options:?}: {err:?}"
        );
    }
}

/// One operator per plan node: no plan the checker makes for a random pool
/// of three-atom queries (the pool's generator, 200 queries) compiles to
/// more operators than the plan has nodes (a rename compiles to none, a
/// σ-over-× join to one).
#[test]
fn pipelines_have_at_most_one_operator_per_plan_node() {
    let access = small_access(2);
    let setting = RewritingSetting::new(small_schema(), access.clone(), ViewSet::empty(), 200);
    let checker = ToppedChecker::new(&setting);
    let idb = IndexedDatabase::build(Database::empty(small_schema()), access).unwrap();
    let views = bqr_query::MaterializedViews::empty();
    let pool = RandomQueryConfig {
        atoms: 3,
        ..query_config()
    };
    let mut plans = 0;
    for q in generate_queries(&small_schema(), &pool, 200) {
        let Some(plan) = checker.analyze_cq(&q).unwrap().plan else {
            continue;
        };
        let pipeline = Pipeline::compile(&plan, &idb, &views).unwrap();
        let text = pipeline.describe();
        assert!(pipeline.len() <= plan.size(), "{plan}\n{text}");
        plans += 1;
    }
    assert!(
        plans >= 30,
        "only {plans} of the pool's queries have a plan"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized select → project pipelines: duplicates land all over
    /// (and straddle) guard intervals, selections range from all-pass to
    /// all-fail, and inputs sometimes span several intervals — the pipeline
    /// must agree with the tree-walking reference on tuples *and*
    /// `FetchStats`.
    #[test]
    fn select_project_pipelines_agree_with_reference_on_random_tables(
        rows in prop::collection::vec((0i64..40, 0i64..40), 0..2_000),
        dense in 0usize..2,
        cidx in 0usize..7,
        keep_col in 0usize..2,
    ) {
        // `dense` repeats the generated rows past several guard intervals,
        // so selection and projection run over inputs the guard is checked
        // and charged in several times (and the projection's dedup sees
        // duplicates straddling intervals).
        let mut all = rows;
        if dense == 1 {
            while !all.is_empty() && all.len() < 5_000 {
                let chunk: Vec<(i64, i64)> = all.iter().take(1_000).copied().collect();
                all.extend(chunk);
            }
        }
        let (idb, cache) = view_instance(&all);
        let plan = Plan::view("V", 2)
            .select(cond_pool()[cidx].clone())
            .project(vec![keep_col])
            .build()
            .unwrap();
        let expected = reference::execute(&plan, &idb, &cache).unwrap();
        let got = execute(&plan, &idb, &cache).unwrap();
        prop_assert_eq!(&got.tuples, &expected.tuples);
        prop_assert_eq!(&got.stats, &expected.stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Q ≡_A ⋃ of its element queries: on every instance satisfying A, the
    /// query and the union of its (minimal) element queries agree.
    #[test]
    fn element_queries_partition_the_query(db in db_strategy(2), qidx in 0usize..12) {
        let access = small_access(2);
        prop_assume!(access.satisfied_by(&db).unwrap());
        let q = query_pool()[qidx].clone();
        let elements = element_queries(&q, &access, &small_schema(), &Budget::generous()).unwrap();
        let original = eval_cq(&q, &db, None).unwrap();
        if elements.is_empty() {
            prop_assert!(original.is_empty(), "unsatisfiable under A means empty on satisfying instances");
        } else {
            let union = UnionQuery::new(elements).unwrap();
            let via_elements = eval_ucq(&union, &db, None).unwrap();
            prop_assert_eq!(original, via_elements);
        }
    }

    /// A-containment is sound: if Q1 ⊑_A Q2 then Q1(D) ⊆ Q2(D) on satisfying
    /// instances; and classical containment implies A-containment.
    #[test]
    fn a_containment_soundness(db in db_strategy(2), i in 0usize..12, j in 0usize..12) {
        let access = small_access(2);
        prop_assume!(access.satisfied_by(&db).unwrap());
        let pool = query_pool();
        let (q1, q2) = (pool[i].clone(), pool[j].clone());
        prop_assume!(q1.arity() == q2.arity());
        let contained = cq_a_contained_in(&q1, &q2, &access, &small_schema(), &Budget::generous()).unwrap();
        if contained {
            let a1 = eval_cq(&q1, &db, None).unwrap();
            let a2: std::collections::BTreeSet<_> = eval_cq(&q2, &db, None).unwrap().into_iter().collect();
            for t in a1 {
                prop_assert!(a2.contains(&t), "{} ⊑_A {} but answer {t} missing", q1, q2);
            }
        }
        if cq_contained_in(&q1, &q2, &small_schema()).unwrap() {
            prop_assert!(contained, "classical containment must imply A-containment");
        }
    }

    /// Bounded-output soundness: when BOP says |Q(D)| ≤ N, no satisfying
    /// instance produces more answers than that.
    #[test]
    fn bounded_output_soundness(db in db_strategy(2), qidx in 0usize..12) {
        let access = small_access(2);
        prop_assume!(access.satisfied_by(&db).unwrap());
        let q = query_pool()[qidx].clone();
        if let bqr_query::bounded_output::OutputBound::Bounded(n) =
            cq_output(&q, &access, &small_schema(), &Budget::generous()).unwrap()
        {
            let answers = eval_cq(&q, &db, None).unwrap();
            prop_assert!(answers.len() <= n, "{}: {} answers > bound {}", q, answers.len(), n);
        }
    }

    /// Topped-query soundness: whenever the checker produces a plan, the plan
    /// computes exactly the query on every satisfying instance, without
    /// scanning base data.
    #[test]
    fn generated_plans_are_exact(db in db_strategy(2), qidx in 0usize..12) {
        let access = small_access(2);
        prop_assume!(access.satisfied_by(&db).unwrap());
        let q = query_pool()[qidx].clone();
        let setting = bqr_core::problem::RewritingSetting::new(
            small_schema(),
            access.clone(),
            ViewSet::empty(),
            200,
        );
        let checker = ToppedChecker::new(&setting);
        let analysis = checker.analyze_cq(&q).unwrap();
        if let (true, Some(plan)) = (analysis.topped, analysis.plan) {
            let idb = IndexedDatabase::build(db.clone(), access).unwrap();
            let out = bqr_plan::execute(&plan, &idb, &bqr_query::MaterializedViews::empty()).unwrap();
            let naive = eval_cq(&q, &db, None).unwrap();
            prop_assert_eq!(out.tuples, naive, "query {}", q);
            prop_assert_eq!(out.stats.scanned_tuples, 0usize);
            if let Some(bound) = analysis.fetch_bound {
                prop_assert!(out.stats.fetched_tuples <= bound,
                    "fetched {} > declared bound {}", out.stats.fetched_tuples, bound);
            }
        }
    }
}
