//! Differential and concurrency tests for the `bqr::Engine` facade.
//!
//! * `engine_agrees_with_the_low_level_stack_on_randomized_settings` holds
//!   the facade **bit-identical** (answer tuples *and* `FetchStats`) to the
//!   hand-threaded low-level stack (`RewritingSetting` → `ToppedChecker` →
//!   `execute_with`) on ≥ 100 randomized settings — random chain queries,
//!   view atoms, constants, instances, option sets with and without limits,
//!   and a post-mutation re-comparison.
//! * `pinned_sessions_never_observe_concurrent_mutations` races writer and
//!   reader threads and asserts that a pinned session's reads are
//!   bit-for-bit stable across a mutation storm.
//!
//! Every execution over an instance that satisfies its access schema is
//! also held to the paper's bound: fetched tuples ≤ `Analysis::fetch_bound()`.

mod common;

use bqr::core::{RewritingSetting, ToppedChecker};
use bqr::data::{tuple, AccessConstraint, AccessSchema, Database, DatabaseSchema, IndexedDatabase};
use bqr::plan::ExecOptions;
use bqr::query::parser::parse_cq;
use bqr::query::{ConjunctiveQuery, ViewSet};
use bqr::{Engine, Error};
use common::FetchBound;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RELATIONS: [&str; 3] = ["e0", "e1", "e2"];
const VIEW_BOUND: usize = 64;

fn chain_schema() -> DatabaseSchema {
    DatabaseSchema::with_relations(&[
        ("e0", &["a", "b"]),
        ("e1", &["a", "b"]),
        ("e2", &["a", "b"]),
    ])
    .unwrap()
}

fn chain_access(rng: &mut StdRng) -> AccessSchema {
    AccessSchema::new(
        RELATIONS
            .iter()
            .map(|r| AccessConstraint::new(*r, &["a"], &["b"], rng.gen_range(2..6usize)).unwrap())
            .collect(),
    )
}

fn chain_views() -> ViewSet {
    let mut views = ViewSet::empty();
    views
        .add_cq("V", parse_cq("V(x, y) :- e0(x, y)").unwrap())
        .unwrap();
    views
}

fn random_instance(rng: &mut StdRng, domain: i64) -> Database {
    let mut db = Database::empty(chain_schema());
    for r in RELATIONS {
        for _ in 0..rng.gen_range(8..30usize) {
            db.insert(
                r,
                tuple![rng.gen_range(0..domain), rng.gen_range(0..domain)],
            )
            .unwrap();
        }
    }
    db
}

/// A random topped chain query: starts from a constant, each step either
/// fetches a base relation through its `a → b` constraint or joins the
/// cached view `V` (whose output bound is annotated), optionally ending in a
/// constant filter; the head projects the frontier (and sometimes an
/// intermediate) variable.
fn random_chain_query(rng: &mut StdRng, domain: i64) -> ConjunctiveQuery {
    let len = rng.gen_range(1..4usize);
    let start = rng.gen_range(0..domain);
    let mut atoms = Vec::new();
    for step in 0..len {
        let src = if step == 0 {
            start.to_string()
        } else {
            format!("x{step}")
        };
        let dst = format!("x{}", step + 1);
        if rng.gen_bool(0.25) {
            atoms.push(format!("V({src}, {dst})"));
        } else {
            let rel = RELATIONS[rng.gen_range(0..RELATIONS.len())];
            atoms.push(format!("{rel}({src}, {dst})"));
        }
    }
    let head = if len >= 2 && rng.gen_bool(0.3) {
        format!("Q(x1, x{len})")
    } else {
        format!("Q(x{len})")
    };
    parse_cq(&format!("{head} :- {}", atoms.join(", "))).unwrap()
}

#[test]
fn engine_agrees_with_the_low_level_stack_on_randomized_settings() {
    let mut rng = StdRng::seed_from_u64(0xb9_e2_26);
    let mut settings = 0usize;
    let mut executed = 0usize;
    let bound = FetchBound::default();
    while settings < 110 {
        settings += 1;
        let domain = rng.gen_range(4..10i64);
        let access = chain_access(&mut rng);
        let db = random_instance(&mut rng, domain);

        // The hand-threaded low-level stack.
        let setting = RewritingSetting::new(chain_schema(), access.clone(), chain_views(), 64);
        let mut oracle = bqr::core::BoundedOutputOracle::new(
            setting.schema.clone(),
            setting.access.clone(),
            setting.budget,
        );
        oracle.annotate_view("V", VIEW_BOUND);
        let checker = ToppedChecker::with_oracle(&setting, oracle);

        // The facade, configured identically.
        let engine = Engine::builder()
            .setting(setting.clone())
            .annotate_view_bound("V", VIEW_BOUND)
            .cache_capacity(8)
            .build()
            .unwrap();
        engine.attach(db.clone()).unwrap();

        let query = random_chain_query(&mut rng, domain);
        let low = checker.analyze_cq(&query).unwrap();
        let high = engine.analyze(&query).unwrap();
        assert_eq!(
            low.topped,
            high.bounded(),
            "decisions diverged on {query} ({:?} vs {:?})",
            low.reason,
            high.reason()
        );
        assert_eq!(low.plan_size, high.plan_size(), "plan size on {query}");
        assert_eq!(low.fetch_bound, high.fetch_bound(), "|Dξ| bound on {query}");
        if !low.topped {
            assert!(matches!(
                engine.prepare("q", &query),
                Err(Error::NoRewriting { .. })
            ));
            continue;
        }

        // Low level: materialise, index, execute the constructed plan.
        let views = setting.views.materialize(&db).unwrap();
        let idb = IndexedDatabase::build(db.clone(), access.clone()).unwrap();
        let plan = low.plan.clone().unwrap();

        engine.prepare("q", &query).unwrap();
        let session = engine.session();
        for options in [
            ExecOptions::default(),
            ExecOptions::default().with_deadline_ms(60_000),
            ExecOptions::default()
                .with_row_budget(1 << 20)
                .with_fetch_budget(1 << 20),
        ] {
            let expected = bqr::plan::execute_with(&plan, &idb, &views, &options).unwrap();
            let got = session.execute_with("q", &options).unwrap();
            assert_eq!(got, expected, "answers/stats diverged on {query}");
            bound.check(&got.stats, high.fetch_bound(), &access, &db);
            executed += 1;
        }
        // Ad-hoc (unnamed) execution takes the same path.
        let adhoc = session.query(&query).unwrap();
        bound.check(&adhoc.stats, high.fetch_bound(), &access, &db);
        assert_eq!(
            adhoc.tuples,
            bqr::plan::execute_with(&plan, &idb, &views, &ExecOptions::default())
                .unwrap()
                .tuples
        );

        // A mutation: both stacks rebuilt, answers must still be identical
        // (the facade's rebuild is a cache invalidation, never a stale hit).
        if settings.is_multiple_of(3) {
            let rel = RELATIONS[rng.gen_range(0..RELATIONS.len())];
            let t = tuple![rng.gen_range(0..domain), rng.gen_range(0..domain)];
            engine.mutate(|db| db.insert(rel, t.clone())).unwrap();
            let db2 = engine.database();
            let views2 = setting.views.materialize(&db2).unwrap();
            let idb2 = IndexedDatabase::build(db2, access.clone()).unwrap();
            let expected =
                bqr::plan::execute_with(&plan, &idb2, &views2, &ExecOptions::default()).unwrap();
            let fresh = engine.session();
            let got = fresh.execute("q").unwrap();
            assert_eq!(got, expected, "post-mutation divergence on {query}");
            bound.check(&got.stats, high.fetch_bound(), &access, fresh.database());
            // The pre-mutation session still serves the pre-mutation answer.
            let old =
                bqr::plan::execute_with(&plan, &idb, &views, &ExecOptions::default()).unwrap();
            let got = session.execute("q").unwrap();
            assert_eq!(got, old);
            bound.check(&got.stats, high.fetch_bound(), &access, session.database());
            executed += 2;
        }

        let stats = engine.cache_stats();
        assert_eq!(stats.lookups, stats.hits + stats.misses, "{stats:?}");
    }
    assert!(settings >= 100, "at least 100 randomized settings");
    assert!(executed >= 120, "a healthy share had executable rewritings");
    bound.report("engine_agrees_with_the_low_level_stack_on_randomized_settings");
}

/// A pinned session must never observe a concurrent mutation mid-session:
/// readers pin a version, execute the statement repeatedly while a writer
/// storms mutations, and every repeat must be bit-identical to the first
/// (tuples and stats), with the pinned epoch vector never moving.
#[test]
fn pinned_sessions_never_observe_concurrent_mutations() {
    let schema = DatabaseSchema::with_relations(&[("r", &["a", "b"])]).unwrap();
    let engine = Engine::builder()
        .schema(schema.clone())
        .access(AccessSchema::new(vec![AccessConstraint::new(
            "r",
            &["a"],
            &["b"],
            64,
        )
        .unwrap()]))
        .bound(8)
        .cache_capacity(16)
        .build()
        .unwrap();
    let mut db = Database::empty(schema);
    db.insert("r", tuple![1, 0]).unwrap();
    engine.attach(db).unwrap();
    engine.prepare("fan_out", "Q(y) :- r(1, y)").unwrap();
    // Compile before the storm: readers racing on the first execution may
    // each count a (benign) miss, and the count below is exact.
    engine.session().execute("fan_out").unwrap();
    let (bound, fan_out) = (
        FetchBound::default(),
        engine.analyze("Q(y) :- r(1, y)").unwrap(),
    );
    let held = |out: &bqr::plan::ExecOutput, session: &bqr::Session| {
        let access = &engine.setting().access;
        bound.check(
            &out.stats,
            fan_out.fetch_bound(),
            access,
            session.database(),
        );
    };

    const WRITES: i64 = 40;
    const READERS: usize = 3;
    let barrier = std::sync::Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        let (engine, barrier, held) = (&engine, &barrier, &held);
        scope.spawn(move || {
            barrier.wait();
            for k in 1..=WRITES {
                engine.mutate(|db| db.insert("r", tuple![1, k])).unwrap();
                std::thread::yield_now();
            }
        });
        for _ in 0..READERS {
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..30 {
                    let session = engine.session();
                    let pinned_epochs = session.epochs();
                    let first = session.execute("fan_out").unwrap();
                    held(&first, &session);
                    // The pinned answer is internally consistent: exactly the
                    // r(1, ·) tuples of the pinned snapshot.
                    let expected: Vec<_> = session
                        .database()
                        .relation("r")
                        .unwrap()
                        .iter()
                        .filter(|t| t[0] == bqr::data::Value::int(1))
                        .map(|t| tuple![t[1].clone()])
                        .collect();
                    assert_eq!(first.tuples.len(), expected.len());
                    for repeat in 0..5 {
                        let again = session.execute("fan_out").unwrap();
                        held(&again, &session);
                        assert_eq!(
                            again, first,
                            "repeat {repeat} observed a concurrent mutation"
                        );
                        assert_eq!(session.epochs(), pinned_epochs, "the pin moved");
                    }
                }
            });
        }
    });

    // Quiesced: a fresh session sees every write, and the cache counters
    // reconcile exactly despite the storm.
    let final_out = engine.session().execute("fan_out").unwrap();
    assert_eq!(final_out.tuples.len(), 1 + WRITES as usize);
    let stats = engine.cache_stats();
    assert_eq!(stats.lookups, stats.hits + stats.misses, "{stats:?}");

    assert_eq!(stats.misses, 1, "one shape, compiled once: {stats:?}");

    // Deterministic epilogue (thread interleaving above is best-effort):
    // pin a session, mutate, and serve the new version — through the
    // pipeline compiled before the first write, while the pinned session
    // keeps its answer.
    let pinned = engine.session();
    let before = pinned.execute("fan_out").unwrap();
    engine
        .mutate(|db| db.insert("r", tuple![1, WRITES + 1]))
        .unwrap();
    let after = engine.session().execute("fan_out").unwrap();
    assert_eq!(after.tuples.len(), before.tuples.len() + 1);
    assert_eq!(
        engine.cache_stats().misses,
        1,
        "the write recompiled nothing"
    );
    assert_eq!(pinned.execute("fan_out").unwrap(), before, "still pinned");
    held(&before, &pinned);
    bound.report("pinned_sessions_never_observe_concurrent_mutations");
}

/// `EngineBuilder::exec_options` sets the engine's default options — the
/// one setter for its runtime limits — and an engine under ample limits
/// answers exactly as one under none.
#[test]
fn builder_exec_options_sets_the_default_options() {
    let schema = DatabaseSchema::with_relations(&[("r", &["a", "b"])]).unwrap();
    let access = AccessSchema::new(vec![AccessConstraint::new("r", &["a"], &["b"], 64).unwrap()]);
    let build = |options: ExecOptions| {
        Engine::builder()
            .schema(schema.clone())
            .access(access.clone())
            .bound(8)
            .exec_options(options)
            .build()
            .unwrap()
    };
    let limited = ExecOptions::default().with_deadline_ms(60_000);
    let engine = build(limited);
    assert_eq!(engine.exec_options(), limited);

    let unlimited = build(ExecOptions::default());
    let mut db = Database::empty(schema.clone());
    for i in 0..200i64 {
        db.insert("r", tuple![i % 5, i]).unwrap();
    }
    engine.attach(db.clone()).unwrap();
    unlimited.attach(db).unwrap();
    let bound = FetchBound::default();
    let mut outputs = Vec::new();
    for e in [&engine, &unlimited] {
        e.prepare("q", "Q(y) :- r(1, y)").unwrap();
        let (session, analysis) = (e.session(), e.analyze("Q(y) :- r(1, y)").unwrap());
        let out = session.execute("q").unwrap();
        bound.check(
            &out.stats,
            analysis.fetch_bound(),
            &access,
            session.database(),
        );
        outputs.push(out);
    }
    assert_eq!(
        outputs[0], outputs[1],
        "the default limits changed an answer"
    );
    bound.report("builder_exec_options_sets_the_default_options");
}
