//! Tests that replay the paper's worked examples end to end.

use bqr_core::decide::decide_vbrp;
use bqr_core::problem::{RewritingSetting, VbrpInstance};
use bqr_core::topped::ToppedChecker;
use bqr_data::{AccessConstraint, AccessSchema, DatabaseSchema, IndexedDatabase};
use bqr_plan::builder::figure1_plan;
use bqr_plan::{check_conformance, Conformance, PlanLanguage};
use bqr_query::aequiv::cq_a_equivalent;
use bqr_query::bounded_output::{cq_output, OutputBound};
use bqr_query::parser::parse_cq;
use bqr_query::{Budget, ViewSet};
use bqr_workload::movies;

fn phi1(n0: usize) -> AccessConstraint {
    AccessConstraint::new("movie", &["studio", "release"], &["mid"], n0).unwrap()
}
fn phi2() -> AccessConstraint {
    AccessConstraint::new("rating", &["mid"], &["rank"], 1).unwrap()
}

/// Example 2.2: the Fig. 1 plan ξ0 is 11-bounded for Q0 using V1 under A0 and
/// fetches at most 2·N0 tuples.
#[test]
fn example_2_2_figure1_plan_is_11_bounded() {
    let n0 = 100;
    let plan = figure1_plan(&phi1(n0), &phi2()).unwrap();
    assert_eq!(plan.size(), 11);
    assert_eq!(plan.language(), PlanLanguage::Cq);

    let setting = movies::setting(n0, 11);
    let conf = check_conformance(
        &plan,
        &setting.access,
        &setting.schema,
        &setting.views,
        &setting.budget,
    )
    .unwrap();
    assert_eq!(
        conf,
        Conformance::Conforms {
            fetch_bound: 2 * n0
        }
    );

    // ξ0 answers Q0 on generated instances, touching ≤ 2·N0 base tuples.
    let db = movies::generate(movies::MovieScale {
        persons: 3_000,
        movies: 1_000,
        n0,
        seed: 4,
    });
    let cache = setting.views.materialize(&db).unwrap();
    let idb = IndexedDatabase::build(db.clone(), setting.access.clone()).unwrap();
    let out = bqr_plan::execute(&plan, &idb, &cache).unwrap();
    let naive = bqr_query::eval::eval_cq(&movies::q0(), &db, None).unwrap();
    assert_eq!(out.tuples, naive);
    assert!(out.stats.fetched_tuples <= 2 * n0);
}

/// Scale independence, stated for the view as Example 1.1 states it for the
/// base data: ξ0 asks `V1` only about the movies its first fetch returned, so
/// what it reads of `V1(D)` is bounded by `N0` — not by `|V1(D)|`, which
/// grows with the instance (40-fold more persons below).  A count, no timing.
#[test]
fn figure1_plan_reads_of_v1_what_it_fetched_not_the_extent() {
    let n0 = 250;
    let plan = figure1_plan(&phi1(n0), &phi2()).unwrap();
    let setting = movies::setting(n0, 11);
    let mut extents = Vec::new();
    for persons in [500, 20_000] {
        let db = movies::generate(movies::MovieScale {
            persons,
            movies: 5_000,
            n0,
            seed: 4,
        });
        let universal_2014 =
            |m: &bqr_data::TupleRef| m[2] == "Universal".into() && m[3] == "2014".into();
        let movies = db.relation("movie").unwrap().iter();
        let fetched_movies = movies.filter(universal_2014).count();
        let cache = setting.views.materialize(&db).unwrap();
        let extent = cache.extent("V1").unwrap().len();
        let idb = IndexedDatabase::build(db, setting.access.clone()).unwrap();
        let stats = bqr_plan::execute(&plan, &idb, &cache).unwrap().stats;
        assert!(stats.view_tuples > 0, "the instance exercises the probe");
        assert!(stats.view_tuples <= fetched_movies && fetched_movies <= n0);
        assert!(stats.view_tuples < extent, "{stats} of {extent}");
        extents.push(extent);
    }
    assert!(extents[1] > 10 * extents[0], "the extent grew: {extents:?}");
}

/// Example 2.3: the query expressed by ξ0 is the rewriting Qξ, and Qξ is
/// A0-equivalent to Q0 (after unfolding V1).
#[test]
fn example_2_3_expressed_query_is_a_equivalent_to_q0() {
    let n0 = 100;
    let setting = movies::setting(n0, 11);
    let plan = figure1_plan(&phi1(n0), &phi2()).unwrap();
    let expressed = bqr_plan::to_query::plan_to_cq(&plan, &setting.schema).unwrap();
    let unfolded = setting.views.unfold_cq(&expressed).unwrap();
    assert!(cq_a_equivalent(
        &unfolded,
        &movies::q0(),
        &setting.access,
        &setting.schema,
        &setting.budget
    )
    .unwrap());
}

/// Example 3.3: V2 (NASA employees) does not have bounded output under A1,
/// while the specialised movie lookup does; and the Example 3.3(b)-style
/// rewriting where the view only validates answers needs no bounded output.
#[test]
fn example_3_3_bounded_output_of_views() {
    let schema = movies::schema();
    let access = movies::access_schema(100);
    let v2 = parse_cq("V2(pid) :- person(pid, n, 'NASA')").unwrap();
    assert_eq!(
        cq_output(&v2, &access, &schema, &Budget::generous()).unwrap(),
        OutputBound::Unbounded
    );
    let by_studio = parse_cq("V(m) :- movie(m, n, 'Universal', '2014')").unwrap();
    assert_eq!(
        cq_output(&by_studio, &access, &schema, &Budget::generous()).unwrap(),
        OutputBound::Bounded(100)
    );

    // Example 3.3(b): Q(x) = Q3(x) ∧ V3(x) where Q3 is already bounded —
    // the view is only used for validation, so its (unbounded) output does
    // not matter.  Concretely: movies of Universal/2014 that are in V1.
    let setting = movies::setting(100, 40);
    let checker = ToppedChecker::new(&setting);
    let q = parse_cq("Q(m) :- movie(m, n, 'Universal', '2014'), V1(m)").unwrap();
    let analysis = checker.analyze_cq(&q).unwrap();
    assert!(analysis.topped, "{:?}", analysis.reason);
}

/// Theorem 3.4's Fig. 2 gadget, in miniature: the Boolean-domain constraints
/// force every element query to assign Boolean values, and the `R_o` bound
/// controls whether the output variable is bounded.
#[test]
fn figure_2_gadget_bounded_output() {
    let schema = DatabaseSchema::with_relations(&[("r01", &["a"]), ("ro", &["i", "x"])]).unwrap();
    let access = AccessSchema::new(vec![
        AccessConstraint::new("r01", &[], &["a"], 2).unwrap(),
        AccessConstraint::new("ro", &["i"], &["x"], 2).unwrap(),
    ]);
    // Q(w) :- r01(0), r01(1), r01(x), ro(k, 1), ro(k, 0), ro(k, w):
    // the ro-group of k already holds {0, 1}, so w is forced to one of them in
    // every element query — bounded output.
    let q = parse_cq("Q(w) :- r01(0), r01(1), r01(x), ro(k, 1), ro(k, 0), ro(k, w)").unwrap();
    let out = cq_output(&q, &access, &schema, &Budget::generous()).unwrap();
    assert!(out.is_bounded(), "{out:?}");

    // Dropping the two pinned ro-tuples leaves w unconstrained: unbounded.
    let q = parse_cq("Q(w) :- r01(0), r01(1), r01(x), ro(k, w)").unwrap();
    assert_eq!(
        cq_output(&q, &access, &schema, &Budget::generous()).unwrap(),
        OutputBound::Unbounded
    );
}

/// Golden test: the movie example pinned to exact answers on a fixed-seed
/// instance, under every planner strategy.  Planner changes that alter the
/// semantics of evaluation (rather than just its cost) fail here.
#[test]
fn golden_movie_example_answers_are_pinned() {
    use bqr_data::tuple;
    use bqr_query::eval::Evaluator;
    use bqr_query::{JoinStrategy, PlannerConfig};

    let db = bqr_workload::movies::generate(bqr_workload::movies::MovieScale {
        persons: 400,
        movies: 200,
        n0: 25,
        seed: 7,
    });
    assert_eq!(db.size(), 1992, "the seed-7 instance is pinned");
    for strategy in [
        JoinStrategy::Auto,
        JoinStrategy::Heuristic,
        JoinStrategy::CostBased,
        JoinStrategy::GenericJoin,
    ] {
        let evaluator = Evaluator::new().with_planner(PlannerConfig::with_strategy(strategy));
        let answers = evaluator
            .eval_cq(&bqr_workload::movies::q0(), &db, None)
            .unwrap();
        assert_eq!(
            answers,
            vec![tuple![108]],
            "Q0 answer drifted ({strategy:?})"
        );
    }
    let views = bqr_workload::movies::views().materialize(&db).unwrap();
    assert_eq!(
        views.extent("V1").unwrap().len(),
        152,
        "V1 extent cardinality is pinned"
    );
}

/// Golden test: the CDR workload pinned to exact answers and topped
/// decisions on a fixed-scale instance.  Guards both the evaluator and the
/// effective-syntax checker against silent semantic drift.
#[test]
fn golden_cdr_workload_answers_and_decisions_are_pinned() {
    use bqr_bench::checker_with_annotations;
    use bqr_data::{tuple, Tuple};
    use bqr_query::eval::eval_cq;
    use bqr_workload::cdr;

    let scale = cdr::CdrScale {
        customers: 300,
        days: 5,
        ..cdr::CdrScale::default()
    };
    let db = cdr::generate(scale);
    assert_eq!(db.size(), 11_633, "the fixed-scale CDR instance is pinned");
    let setting = cdr::setting(&scale, 120);
    let cache = setting.views.materialize(&db).unwrap();
    let checker = checker_with_annotations(&setting, &cdr::view_bounds());

    // (query name, answer count, topped?) for customer 17, day 3.
    let expected: &[(&str, usize, bool)] = &[
        ("callees_of_day", 0, true),
        ("callee_regions", 0, true),
        ("towers_visited", 5, true),
        ("regions_visited", 4, true),
        ("call_partners_plans", 0, true),
        ("premium_callees", 0, true),
        ("premium_callee_towers", 0, true),
        ("north_tower_visits", 1, true),
        ("second_hop_callees", 0, true),
        ("who_called_me", 8, false),
    ];
    let workload = cdr::workload(17, 3);
    assert_eq!(workload.len(), expected.len());
    for (q, &(name, count, topped)) in workload.iter().zip(expected) {
        assert_eq!(q.name, name);
        let answers = eval_cq(&q.query, &db, Some(&cache)).unwrap();
        assert_eq!(answers.len(), count, "{name} answer count drifted");
        let analysis = checker.analyze_cq(&q.query).unwrap();
        assert_eq!(analysis.topped, topped, "{name} topped decision drifted");
    }

    // Exact tuples for the non-empty answers.
    let towers = eval_cq(&workload[2].query, &db, Some(&cache)).unwrap();
    assert_eq!(
        towers,
        vec![tuple![31], tuple![37], tuple![38], tuple![56], tuple![74]]
    );
    let regions = eval_cq(&workload[3].query, &db, Some(&cache)).unwrap();
    let expected_regions: Vec<Tuple> = ["east", "north", "south", "west"]
        .iter()
        .map(|r| tuple![*r])
        .collect();
    assert_eq!(regions, expected_regions);
    let north = eval_cq(&workload[7].query, &db, Some(&cache)).unwrap();
    assert_eq!(north, vec![tuple![38]]);
    let callers = eval_cq(&workload[9].query, &db, Some(&cache)).unwrap();
    let expected_callers: Vec<Tuple> = [4i64, 27, 82, 179, 208, 215, 249, 283]
        .iter()
        .map(|c| tuple![*c])
        .collect();
    assert_eq!(callers, expected_callers);
}

/// Golden test: the paper's movie example served through the prepared path —
/// pinned answers on the Fig.-1 instance, a warm cache hit on the repeat
/// execution, and a cache invalidation after an update that changes the
/// answer.
#[test]
fn golden_movie_answers_through_the_prepared_path() {
    use bqr_data::{tuple, Database};
    use bqr_plan::{PipelineCache, PreparedPlan};
    use std::sync::Arc;

    let n0 = 100;
    let setting = movies::setting(n0, 11);
    let plan = figure1_plan(&phi1(n0), &phi2()).unwrap();
    let cache_handle = Arc::new(PipelineCache::new(8));
    let prepared = PreparedPlan::with_cache(plan.clone(), Arc::clone(&cache_handle));

    // The hand-built instance of Examples 1.1 / 2.2.
    let mut db = Database::empty(setting.schema.clone());
    db.insert("person", tuple![1, "Ann", "NASA"]).unwrap();
    db.insert("person", tuple![2, "Bob", "NASA"]).unwrap();
    db.insert("person", tuple![3, "Cat", "ESA"]).unwrap();
    db.insert("movie", tuple![10, "Lucy", "Universal", "2014"])
        .unwrap();
    db.insert("movie", tuple![11, "Ouija", "Universal", "2014"])
        .unwrap();
    db.insert("movie", tuple![12, "Her", "WB", "2013"]).unwrap();
    db.insert("rating", tuple![10, 5]).unwrap();
    db.insert("rating", tuple![11, 3]).unwrap();
    db.insert("rating", tuple![12, 5]).unwrap();
    db.insert("like", tuple![1, 10, "movie"]).unwrap();
    db.insert("like", tuple![2, 12, "movie"]).unwrap();
    db.insert("like", tuple![3, 11, "movie"]).unwrap();

    let views = setting.views.materialize(&db).unwrap();
    let idb = IndexedDatabase::build(db.clone(), setting.access.clone()).unwrap();
    for _ in 0..2 {
        let out = prepared.execute(&idb, &views).unwrap();
        assert_eq!(out.tuples, vec![tuple![10]], "only Lucy qualifies");
        assert!(out.stats.fetched_tuples <= 2 * n0);
        assert_eq!(out.stats.scanned_tuples, 0, "bounded plans never scan");
    }
    let warm = cache_handle.stats();
    assert_eq!((warm.misses, warm.hits), (1, 1), "{warm:?}");

    // The update scenario: a new Universal/2014 movie, rated 5 and liked by
    // a NASA person, lands; extents are refreshed.  The prepared handle
    // serves the new answer through the shape it already compiled — a hit,
    // bit-identical to a fresh compile — and the result still matches the
    // naive oracle.
    db.insert("movie", tuple![13, "Vice", "Universal", "2014"])
        .unwrap();
    db.insert("rating", tuple![13, 5]).unwrap();
    db.insert("like", tuple![1, 13, "movie"]).unwrap();
    let views = setting.views.materialize(&db).unwrap();
    let idb = IndexedDatabase::build(db.clone(), setting.access.clone()).unwrap();
    let out = prepared.execute(&idb, &views).unwrap();
    assert_eq!(out.tuples, vec![tuple![10], tuple![13]], "Vice joined");
    assert_eq!(
        out.tuples,
        bqr_query::eval::eval_cq(&movies::q0(), &db, None).unwrap()
    );
    assert_eq!(
        out,
        bqr_plan::execute(prepared.plan(), &idb, &views).unwrap()
    );
    let updated = cache_handle.stats();
    assert_eq!((updated.misses, updated.hits), (1, 2), "{updated:?}");
    assert_eq!(cache_handle.len(), 1);
    assert_eq!(
        prepared.execute(&idb, &views).unwrap().tuples,
        vec![tuple![10], tuple![13]]
    );
    assert_eq!(cache_handle.stats().hits, 3);
}

/// Golden test: every topped CDR template of the pinned fixed-scale instance
/// answers identically through the prepared path and the naive evaluator,
/// with the repeat executions all served from the pipeline cache.
#[test]
fn golden_cdr_workload_through_the_prepared_path() {
    use bqr_bench::checker_with_annotations;
    use bqr_plan::{PipelineCache, PreparedPlan};
    use bqr_query::eval::eval_cq;
    use bqr_workload::cdr;
    use std::sync::Arc;

    let scale = cdr::CdrScale {
        customers: 300,
        days: 5,
        ..cdr::CdrScale::default()
    };
    let db = cdr::generate(scale);
    let setting = cdr::setting(&scale, 120);
    let cache = setting.views.materialize(&db).unwrap();
    let idb = IndexedDatabase::build(db.clone(), setting.access.clone()).unwrap();
    let checker = checker_with_annotations(&setting, &cdr::view_bounds());
    let cache_handle = Arc::new(PipelineCache::new(32));

    let mut topped = 0usize;
    for q in &cdr::workload(17, 3) {
        let analysis = checker.analyze_cq(&q.query).unwrap();
        if !analysis.topped {
            continue;
        }
        topped += 1;
        let prepared =
            PreparedPlan::with_cache(analysis.plan.clone().unwrap(), Arc::clone(&cache_handle));
        let expected = eval_cq(&q.query, &db, Some(&cache)).unwrap();
        for _ in 0..2 {
            let out = prepared.execute(&idb, &cache).unwrap();
            assert_eq!(out.tuples, expected, "{} drifted", q.name);
        }
    }
    assert_eq!(topped, 9, "the pinned workload has 9 topped templates");
    let stats = cache_handle.stats();
    assert_eq!(stats.misses, topped as u64, "{stats:?}");
    assert_eq!(
        stats.hits, topped as u64,
        "every repeat was warm: {stats:?}"
    );
    assert_eq!(stats.lookups, stats.hits + stats.misses);
}

/// The paper's movie example (Fig. 1 / Examples 1.1, 2.2, 2.3) served
/// through the `bqr::Engine` facade **alone** — no crate-internal types:
/// pinned answers on the hand-built instance, a warm cache hit on the
/// repeat execution, and a cache invalidation after an update that changes
/// the answer; the pinned session keeps the pre-update answer throughout.
#[test]
fn golden_movie_answers_through_the_engine_facade() {
    use bqr_data::{tuple, Database};

    let n0 = 100;
    let engine = bqr_engine::Engine::builder()
        .setting(movies::setting(n0, 40))
        .cache_capacity(8)
        .build()
        .unwrap();

    // The hand-built instance of Examples 1.1 / 2.2.
    let mut db = Database::empty(movies::schema());
    db.insert("person", tuple![1, "Ann", "NASA"]).unwrap();
    db.insert("person", tuple![2, "Bob", "NASA"]).unwrap();
    db.insert("person", tuple![3, "Cat", "ESA"]).unwrap();
    db.insert("movie", tuple![10, "Lucy", "Universal", "2014"])
        .unwrap();
    db.insert("movie", tuple![11, "Ouija", "Universal", "2014"])
        .unwrap();
    db.insert("movie", tuple![12, "Her", "WB", "2013"]).unwrap();
    db.insert("rating", tuple![10, 5]).unwrap();
    db.insert("rating", tuple![11, 3]).unwrap();
    db.insert("rating", tuple![12, 5]).unwrap();
    db.insert("like", tuple![1, 10, "movie"]).unwrap();
    db.insert("like", tuple![2, 12, "movie"]).unwrap();
    db.insert("like", tuple![3, 11, "movie"]).unwrap();
    engine.attach(db).unwrap();

    // Q0 is not boundedly rewritable without the view; Qξ over V1 is.
    assert!(!engine.analyze(movies::q0()).unwrap().bounded());
    let analysis = engine.analyze(movies::q_xi()).unwrap();
    assert!(analysis.bounded(), "{:?}", analysis.reason());
    assert!(analysis.fetch_bound().unwrap() <= 2 * n0, "|Dξ| ≤ 2·N0");
    assert!(analysis.explain().unwrap().contains("fetch["));

    engine.prepare("fig1", movies::q_xi()).unwrap();
    let session = engine.session();
    for _ in 0..2 {
        let out = session.execute("fig1").unwrap();
        assert_eq!(out.tuples, vec![tuple![10]], "only Lucy qualifies");
        assert!(out.stats.fetched_tuples <= 2 * n0);
        assert_eq!(out.stats.scanned_tuples, 0, "bounded plans never scan");
    }
    // The explain above compiled the pipeline, so both executions were warm.
    let warm = engine.cache_stats();
    assert_eq!((warm.misses, warm.hits), (1, 2), "{warm:?}");
    // The facade answer equals the naive baseline on the original query.
    assert_eq!(
        session.evaluate(movies::q0()).unwrap().tuples,
        vec![tuple![10]]
    );

    // The update scenario: a new Universal/2014 movie, rated 5 and liked by
    // a NASA person, lands through `mutate` — views re-materialise, epochs
    // move, and a fresh session serves the new answer through the pipeline
    // the engine already holds.
    engine
        .mutate(|db| {
            db.insert("movie", tuple![13, "Vice", "Universal", "2014"])?;
            db.insert("rating", tuple![13, 5])?;
            db.insert("like", tuple![1, 13, "movie"])
        })
        .unwrap();
    let fresh = engine.session();
    let out = fresh.execute("fig1").unwrap();
    assert_eq!(out.tuples, vec![tuple![10], tuple![13]], "Vice joined");
    assert_eq!(out.tuples, fresh.evaluate(movies::q0()).unwrap().tuples);
    let updated = engine.cache_stats();
    assert_eq!((updated.misses, updated.hits), (1, 3), "{updated:?}");
    // The pre-update session still serves the pre-update answer.
    assert_eq!(session.execute("fig1").unwrap().tuples, vec![tuple![10]]);
    // And neither session costs the other a compile.
    assert_eq!(
        fresh.execute("fig1").unwrap().tuples,
        vec![tuple![10], tuple![13]]
    );
    assert_eq!(engine.cache_stats().misses, 1);
}

/// Every topped CDR template of the pinned fixed-scale instance served
/// through the facade alone: 9 of 10 prepare successfully (by name), each
/// answers identically to the naive baseline, repeat executions are all
/// warm, and the non-topped template fails `prepare` with the typed
/// `NoRewriting` error.
#[test]
fn golden_cdr_workload_through_the_engine_facade() {
    use bqr_workload::cdr;

    let scale = cdr::CdrScale {
        customers: 300,
        days: 5,
        ..cdr::CdrScale::default()
    };
    let mut builder = bqr_engine::Engine::builder()
        .setting(cdr::setting(&scale, 120))
        .cache_capacity(32);
    for (name, bound) in cdr::view_bounds() {
        builder = builder.annotate_view_bound(name, bound);
    }
    let engine = builder.build().unwrap();
    engine.attach(cdr::generate(scale)).unwrap();
    let session = engine.session();

    let mut topped = 0usize;
    for q in &cdr::workload(17, 3) {
        match engine.prepare(q.name, &q.query) {
            Ok(statement) => {
                topped += 1;
                assert_eq!(statement.name(), q.name);
                let expected = session.evaluate(&q.query).unwrap();
                for _ in 0..2 {
                    let out = session.execute(q.name).unwrap();
                    assert_eq!(out.tuples, expected.tuples, "{} drifted", q.name);
                }
            }
            Err(bqr_engine::Error::NoRewriting { query, .. }) => {
                assert_eq!(
                    q.name, "who_called_me",
                    "only the pinned non-topped template"
                );
                assert!(query.contains("calls"));
            }
            Err(other) => panic!("{}: unexpected error {other}", q.name),
        }
    }
    assert_eq!(topped, 9, "the pinned workload has 9 topped templates");
    assert_eq!(engine.statement_names().len(), 9);
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, topped as u64, "{stats:?}");
    assert_eq!(
        stats.hits, topped as u64,
        "every repeat was warm: {stats:?}"
    );
    assert_eq!(stats.lookups, stats.hits + stats.misses);
    assert_eq!(engine.cache().len(), topped);
}

/// The exact decision procedure agrees with the effective syntax on the
/// paper's running example, for a bound large enough for the Fig.-1 plan.
#[test]
fn exact_search_finds_the_figure1_rewriting_for_small_fragments() {
    // The full Q0 search space is too large for the exact procedure, so the
    // agreement is checked on the rating sub-query: Q(r) :- rating(42, r).
    let schema = DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])]).unwrap();
    let access = AccessSchema::new(vec![phi2()]);
    let setting = RewritingSetting::new(schema.clone(), access.clone(), ViewSet::empty(), 3);
    let q = parse_cq("Q(r) :- rating(42, r)").unwrap();
    let exact = decide_vbrp(&VbrpInstance::new(setting, q.clone()), PlanLanguage::Cq).unwrap();
    assert!(exact.has_rewriting());

    let setting = RewritingSetting::new(schema, access, ViewSet::empty(), 10);
    let checker = ToppedChecker::new(&setting);
    let syntactic = checker.analyze_cq(&q).unwrap();
    assert!(syntactic.topped, "{:?}", syntactic.reason);
}
