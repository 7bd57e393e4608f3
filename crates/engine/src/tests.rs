//! Unit tests for the facade: lifecycle, sessions, statements, errors.
//!
//! The fixtures are the canonical movie setting of Example 1.1, taken from
//! `bqr_workload::movies` so they cannot drift from what the integration
//! tests pin.

use crate::{Engine, Error, IntoQuery};
use bqr_data::{
    tuple, AccessConstraint, AccessSchema, DataError, Database, DatabaseSchema, FetchStats,
    Relation,
};
use bqr_plan::ExecOptions;
use bqr_query::eval::eval_cq_counting;
use bqr_query::parser::parse_cq;
use bqr_workload::movies;

fn movie_engine() -> Engine {
    Engine::builder()
        .setting(movies::setting(100, 40))
        .cache_capacity(16)
        .build()
        .unwrap()
}

fn movie_instance() -> Database {
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
    db
}

const Q_XI: &str = "Q(mid) :- movie(mid, ym, 'Universal', '2014'), V1(mid), rating(mid, 5)";
const Q0: &str = "Q(mid) :- person(xp, xn, 'NASA'), movie(mid, ym, 'Universal', '2014'), \
                  like(xp, mid, 'movie'), rating(mid, 5)";

#[test]
fn analyze_accepts_strings_asts_and_unions() {
    let engine = movie_engine();
    let from_str = engine.analyze(Q_XI).unwrap();
    assert!(from_str.bounded(), "{:?}", from_str.reason());
    assert!(from_str.plan_size().unwrap() <= 40);
    assert!(from_str.fetch_bound().unwrap() <= 200);

    let cq = parse_cq(Q_XI).unwrap();
    let from_cq = engine.analyze(cq.clone()).unwrap();
    assert_eq!(from_cq.plan_size(), from_str.plan_size());
    // A reference is as good as an owned AST.
    assert!(engine.analyze(&cq).unwrap().bounded());
    // An FO query takes the FO path of the checker.
    let fo = bqr_query::FoQuery::from_cq(&cq);
    assert!(engine.analyze(fo).unwrap().bounded());
    // A two-rule string parses as a union.
    let union = "Q(m) :- movie(m, n, 'Universal', '2014'); Q(m) :- movie(m, n, 'WB', '2013')";
    let analysis = engine.analyze(union).unwrap();
    assert!(matches!(analysis.query(), bqr_core::Query::Ucq(_)));

    // Q0 itself is not topped (person/like cannot be fetched); that is a
    // *decision*, not an error.
    let q0 = engine.analyze(Q0).unwrap();
    assert!(!q0.bounded());
    assert!(q0.reason().is_some());
}

#[test]
fn parse_errors_carry_the_input() {
    let engine = movie_engine();
    let err = engine.analyze("Q(x :- oops").unwrap_err();
    match err {
        Error::Parse { input, .. } => assert!(input.contains("oops")),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn prepare_execute_and_cache_stats() {
    let engine = movie_engine();
    engine.attach(movie_instance()).unwrap();
    let statement = engine.prepare("fig1", Q_XI).unwrap();
    assert_eq!(statement.name(), "fig1");
    assert_eq!(engine.statement_names(), vec!["fig1".to_string()]);
    assert_eq!(
        statement.plan().shape(),
        engine.statement("fig1").unwrap().plan().shape()
    );

    let session = engine.session();
    let first = session.execute("fig1").unwrap();
    assert_eq!(first.tuples, vec![tuple![10]], "only Lucy qualifies");
    assert_eq!(first.stats.scanned_tuples, 0, "bounded plans never scan");
    let second = session.execute("fig1").unwrap();
    assert_eq!(second, first);
    let stats = engine.cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "{stats:?}");
    assert_eq!(stats.lookups, stats.hits + stats.misses);

    // The facade answer equals the naive baseline, with strictly less data
    // accessed.
    let mut naive = FetchStats::new();
    let q0 = parse_cq(Q0).unwrap();
    let (db, views) = (session.database(), Some(session.views()));
    let expected = eval_cq_counting(&q0, db, views, &mut naive).unwrap();
    assert_eq!(expected, first.tuples);
    assert!(
        first.stats.base_tuples_accessed() < naive.base_tuples_accessed(),
        "{} vs {}",
        first.stats.base_tuples_accessed(),
        naive.base_tuples_accessed()
    );

    // Explain goes through the same cache, one operator per line.
    let plan = engine.analyze(Q_XI).unwrap();
    let explanation = plan.explain().unwrap();
    assert!(explanation.contains("fetch["), "{explanation}");
    // 13 operators: the identity π onto the constant key `(studio,
    // release)` compiles to nothing, and every π left drops a column — of
    // a movie fetch (3 columns), a V1 probe (2) and a σ over a rating
    // fetch (2).
    let operators: Vec<&str> = explanation.lines().filter(|l| l.starts_with('%')).collect();
    assert_eq!(operators.len(), 13, "{explanation}");
    let projections: Vec<&str> = operators
        .iter()
        .filter_map(|l| l.split_once(" = π").map(|(_, p)| p))
        .collect();
    assert_eq!(
        projections,
        ["[2] %6", "[0] %8", "[0] %11"],
        "{explanation}"
    );
    assert!(explanation.contains("%6 = σ[") && explanation.contains("%11 = σ["));
    assert!(explanation.contains("%8 = view-probe V1"), "{explanation}");

    // Ad-hoc execution without registering a name.
    assert_eq!(session.query(Q_XI).unwrap().tuples, vec![tuple![10]]);
    assert_eq!(plan.execute().unwrap().tuples, vec![tuple![10]]);

    assert!(engine.forget("fig1"));
    assert!(!engine.forget("fig1"));
    assert!(matches!(
        session.execute("fig1"),
        Err(Error::UnknownStatement(_))
    ));
}

#[test]
fn preparing_an_unbounded_query_is_a_typed_error() {
    let engine = movie_engine();
    let err = engine.prepare("q0", Q0).unwrap_err();
    match err {
        Error::NoRewriting { query, reason } => {
            assert!(query.contains("person"));
            assert!(reason.is_some());
        }
        other => panic!("expected NoRewriting, got {other:?}"),
    }
    assert!(engine.statement_names().is_empty());
}

#[test]
fn sessions_pin_the_data_version_across_mutations() {
    let engine = movie_engine();
    engine.attach(movie_instance()).unwrap();
    engine.prepare("fig1", Q_XI).unwrap();

    let pinned = engine.session();
    let before_epochs = pinned.epochs();
    let before = pinned.execute("fig1").unwrap();
    assert_eq!(before.tuples, vec![tuple![10]]);

    // A mutation lands: a new qualifying movie.
    engine
        .mutate(|db| {
            db.insert("movie", tuple![13, "Vice", "Universal", "2014"])?;
            db.insert("rating", tuple![13, 5])?;
            db.insert("like", tuple![1, 13, "movie"])
        })
        .unwrap();

    // The pinned session still reads the old version, bit-identically.
    assert_eq!(pinned.execute("fig1").unwrap(), before);
    assert_eq!(pinned.epochs(), before_epochs, "the pin is observable");

    // A fresh session sees the new version (fresh epochs, fresh answer).
    let fresh = engine.session();
    assert_ne!(fresh.epochs(), before_epochs);
    assert_eq!(
        fresh.execute("fig1").unwrap().tuples,
        vec![tuple![10], tuple![13]]
    );
    // And the pinned session *still* reads the old one.
    assert_eq!(pinned.execute("fig1").unwrap(), before);
}

#[test]
fn failed_mutations_are_never_published() {
    let engine = movie_engine();
    engine.attach(movie_instance()).unwrap();
    let before = engine.database();
    // The second insert fails (unknown relation): the first insert must not
    // become a live version — all-or-nothing.
    let err = engine
        .mutate(|db| {
            db.insert("rating", tuple![99, 1])?;
            db.insert("no_such_relation", tuple![0])
        })
        .unwrap_err();
    assert!(matches!(err, Error::Data(_)));
    assert_eq!(engine.database(), before, "no partial commit");
}

#[test]
fn panicking_mutations_are_contained_and_never_published() {
    let engine = movie_engine();
    engine.attach(movie_instance()).unwrap();
    engine.prepare("fig1", Q_XI).unwrap();
    let before = engine.database();
    let golden = engine.session().execute("fig1").unwrap();

    // A closure that panics mid-mutation must surface as a typed error —
    // not poison the writers lock, not publish the partial insert, and not
    // take the process down.
    let err = engine
        .mutate(|db| {
            db.insert("rating", tuple![99, 1])?;
            panic!("boom in user code");
            #[allow(unreachable_code)]
            Ok(())
        })
        .unwrap_err();
    match err {
        Error::MutationPanicked { message } => assert!(message.contains("boom"), "{message}"),
        other => panic!("expected MutationPanicked, got {other:?}"),
    }
    assert_eq!(engine.database(), before, "no partial commit");

    // The engine stays fully serviceable: reads are bit-identical and the
    // *next* mutate goes through (the writers mutex recovered).
    assert_eq!(engine.session().execute("fig1").unwrap(), golden);
    engine
        .mutate(|db| db.insert("rating", tuple![99, 1]))
        .unwrap();
    assert_eq!(engine.database().size(), before.size() + 1);
    assert_eq!(
        engine.guard_stats(),
        bqr_plan::GuardStats::default(),
        "mutate panics are not exec trips"
    );
}

#[test]
fn mutate_closures_may_read_the_engine() {
    // The rebuild runs outside the data lock, so a closure that calls the
    // engine's read methods must not deadlock.
    let engine = movie_engine();
    engine.attach(movie_instance()).unwrap();
    let sizes = engine
        .mutate(|db| {
            let concurrent_read = engine.database().size();
            db.insert("rating", tuple![99, 1])?;
            Ok((concurrent_read, db.size()))
        })
        .unwrap();
    assert_eq!(sizes.0 + 1, sizes.1);
}

#[test]
fn over_budget_plans_are_constructed_but_not_served() {
    // With M = 3 the Qξ plan still gets constructed (so callers can inspect
    // how far over budget it is) but no serving path will run it.
    let engine = Engine::builder()
        .setting(movies::setting(100, 3))
        .build()
        .unwrap();
    engine.attach(movie_instance()).unwrap();
    let analysis = engine.analyze(Q_XI).unwrap();
    assert!(!analysis.bounded());
    assert!(analysis.plan().is_some(), "inspectable");
    assert!(analysis.plan_size().unwrap() > 3);
    for err in [
        analysis.bounded_plan().map(|_| ()).unwrap_err(),
        analysis.execute().map(|_| ()).unwrap_err(),
        analysis.explain().map(|_| ()).unwrap_err(),
        engine.prepare("x", Q_XI).map(|_| ()).unwrap_err(),
        engine.session().query(Q_XI).map(|_| ()).unwrap_err(),
    ] {
        assert!(matches!(err, Error::NoRewriting { .. }), "{err:?}");
    }
}

#[test]
fn prepare_from_reuses_an_analysis() {
    let engine = movie_engine();
    engine.attach(movie_instance()).unwrap();
    let analysis = engine.analyze(Q_XI).unwrap();
    let statement = engine.prepare_from("fig1", &analysis).unwrap();
    assert_eq!(statement.name(), "fig1");
    assert_eq!(
        engine.session().execute("fig1").unwrap().tuples,
        vec![tuple![10]]
    );
}

#[test]
fn attach_rejects_foreign_schemas() {
    let engine = movie_engine();
    let foreign = Database::empty(DatabaseSchema::with_relations(&[("other", &["a"])]).unwrap());
    assert!(matches!(
        engine.attach(foreign),
        Err(Error::SchemaMismatch(_))
    ));
}

#[test]
fn exec_options_thread_through() {
    let engine = Engine::builder()
        .setting(movies::setting(100, 40))
        .exec_options(ExecOptions::default().with_row_budget(0))
        .build()
        .unwrap();
    engine.attach(movie_instance()).unwrap();
    engine.prepare("fig1", Q_XI).unwrap();
    let session = engine.session();
    // The engine's default options reach every execution that names none.
    let strangled = |e: Error| {
        let trip = e.exec_error().cloned();
        matches!(
            trip,
            Some(bqr_plan::ExecError::MemoryBudgetExceeded { budget_rows: 0 })
        )
    };
    assert!(strangled(session.execute("fig1").unwrap_err()));
    let stmt = engine.statement("fig1").unwrap();
    assert!(strangled(session.execute_statement(&stmt).unwrap_err()));
    // Explicit options replace them.
    let unlimited = session
        .execute_with("fig1", &ExecOptions::default())
        .unwrap();
    assert!(!unlimited.tuples.is_empty());
}

#[test]
fn decide_runs_the_exact_procedure() {
    let schema = DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])]).unwrap();
    let engine = Engine::builder()
        .schema(schema)
        .access(AccessSchema::new(vec![AccessConstraint::new(
            "rating",
            &["mid"],
            &["rank"],
            1,
        )
        .unwrap()]))
        .bound(3)
        .build()
        .unwrap();
    let outcome = engine
        .decide("Q(r) :- rating(42, r)", bqr_plan::PlanLanguage::Cq)
        .unwrap();
    assert!(outcome.has_rewriting());
    // The witness serves through a handle on *this* engine's cache, so the
    // compilation shows up in its counters.
    let plan = outcome.plan().expect("a rewriting exists").clone();
    let prepared = bqr_plan::PreparedPlan::with_cache(plan, std::sync::Arc::clone(engine.cache()));
    let mut db = Database::empty(engine.setting().schema.clone());
    db.insert("rating", tuple![42, 5]).unwrap();
    engine.attach(db).unwrap();
    let session = engine.session();
    let out = session
        .execute_statement(&crate::PreparedStatement::new(
            "rank_of_42",
            bqr_core::Query::Cq(parse_cq("Q(r) :- rating(42, r)").unwrap()),
            prepared,
            1,
        ))
        .unwrap();
    assert_eq!(out.tuples, vec![tuple![5]]);
    assert_eq!(engine.cache_stats().misses, 1, "compiled on this cache");
}

/// An undecided outcome is refused, never served as "no rewriting": a
/// budget too small to enumerate the witness makes `decide` an
/// `Error::Analysis` wrapping `CoreError::Undecided`.
#[test]
fn decide_refuses_an_undecided_outcome() {
    let schema = DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])]).unwrap();
    let rating = AccessConstraint::new("rating", &["mid"], &["rank"], 1).unwrap();
    let engine = Engine::builder()
        .schema(schema)
        .access(AccessSchema::new(vec![rating]))
        .bound(3)
        .budget(bqr_query::Budget {
            max_candidate_plans: 1,
            ..bqr_query::Budget::generous()
        })
        .build()
        .unwrap();
    let err = engine
        .decide("Q(r) :- rating(42, r)", bqr_plan::PlanLanguage::Cq)
        .unwrap_err();
    assert!(
        matches!(
            &err,
            Error::Analysis {
                source: bqr_core::CoreError::Undecided(_),
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn into_query_simplifies_single_disjunct_unions() {
    let q = "Q(r) :- rating(42, r)".into_query().unwrap();
    assert!(matches!(q, bqr_core::Query::Cq(_)));
    let owned = String::from("Q(r) :- rating(42, r)");
    assert!(matches!(
        (&owned).into_query().unwrap(),
        bqr_core::Query::Cq(_)
    ));
    assert!(matches!(
        owned.into_query().unwrap(),
        bqr_core::Query::Cq(_)
    ));
}

#[test]
fn noop_mutations_publish_nothing() {
    let engine = movie_engine();
    engine.attach(movie_instance()).unwrap();
    engine.prepare("fig1", Q_XI).unwrap();

    // Warm the pipeline so any spurious recompile would be observable.
    let warm = engine.session();
    let golden = warm.execute("fig1").unwrap();
    assert_eq!(warm.execute("fig1").unwrap(), golden);
    let stats0 = engine.cache_stats();
    let epochs0 = engine.session().epochs();

    // Read-only closure.
    let size = engine.mutate(|db| Ok(db.size())).unwrap();
    assert_eq!(size, movie_instance().size());
    // Re-inserting a present tuple.
    engine
        .mutate(|db| db.insert("rating", tuple![10, 5]).map(drop))
        .unwrap();
    // Removing an absent tuple.
    engine
        .mutate(|db| db.remove("rating", &tuple![777, 1]).map(drop))
        .unwrap();
    // A do-undo pair.
    engine
        .mutate(|db| {
            db.insert("rating", tuple![777, 1])?;
            db.remove("rating", &tuple![777, 1]).map(drop)
        })
        .unwrap();

    // Nothing was published: same epochs, and the warm pipeline is still
    // warm — zero recompiles.
    assert_eq!(engine.session().epochs(), epochs0);
    assert_eq!(engine.session().execute("fig1").unwrap(), golden);
    let stats1 = engine.cache_stats();
    assert_eq!(
        stats1.misses, stats0.misses,
        "no-op mutations must not force recompiles: {stats1:?}"
    );
}

#[test]
fn error_closures_on_large_instances_copy_no_relation() {
    let engine = movie_engine();
    engine
        .attach(movies::generate(movies::MovieScale {
            persons: 4_000,
            movies: 1_000,
            n0: 100,
            seed: 9,
        }))
        .unwrap();
    // `database()` clones the live instance; with copy-on-write storage the
    // clone shares every relation's tuple set with the served version.
    let snapshot = engine.database();

    let err = engine
        .mutate(|db| -> bqr_data::Result<()> {
            // Reads don't fork storage...
            assert!(db.size() > 0);
            for rel in snapshot.relations() {
                let live = db.relation(rel.name()).unwrap();
                assert!(
                    live.shares_storage(rel),
                    "`{}` was copied before any write",
                    rel.name()
                );
            }
            // ...and neither do no-op writes.
            let present = snapshot
                .relation("rating")
                .unwrap()
                .iter()
                .next()
                .unwrap()
                .to_tuple();
            assert!(!db.insert("rating", present)?);
            for rel in snapshot.relations() {
                assert!(db.relation(rel.name()).unwrap().shares_storage(rel));
            }
            Err(DataError::UnknownRelation("injected".into()))
        })
        .unwrap_err();
    assert!(matches!(err, Error::Data(_)));

    // A genuine write forks exactly the touched relation.
    engine
        .mutate(|db| {
            db.insert("rating", tuple![5_000_000, 5])?;
            for rel in snapshot.relations() {
                assert_eq!(
                    db.relation(rel.name()).unwrap().shares_storage(rel),
                    rel.name() != "rating",
                    "only `rating` may be forked, `{}` was",
                    rel.name()
                );
            }
            Ok(())
        })
        .unwrap();
}

/// What `statement` answers on the version `session` pins, by the
/// unprepared route: `bqr_plan::execute`, a fresh `Pipeline::compile` +
/// `execute` over that version's own instance and extents — which the
/// interpreter, on that version, agrees with, `view_tuples` included.
fn fresh_compile(session: &crate::Session<'_>, statement: &str) -> bqr_plan::ExecOutput {
    let engine = session.engine();
    let access = engine.setting().access.clone();
    let idb = bqr_data::IndexedDatabase::build(session.database().clone(), access).unwrap();
    let statement = engine.statement(statement).unwrap();
    let out = bqr_plan::execute(statement.plan(), &idb, session.views()).unwrap();
    let interpreted = bqr_plan::exec::reference::execute(statement.plan(), &idb, session.views());
    assert_eq!(out, interpreted.unwrap(), "on the version the session pins");
    out
}

#[test]
fn a_write_recompiles_nothing_and_every_statement_reads_the_new_version() {
    let engine = movie_engine();
    engine.attach(movie_instance()).unwrap();
    // `fig1` reads movie, rating and V1; `no_rating` only movie and V1.
    engine.prepare("fig1", Q_XI).unwrap();
    engine
        .prepare(
            "no_rating",
            "Q(mid) :- movie(mid, ym, 'Universal', '2014'), V1(mid)",
        )
        .unwrap();
    let warm = engine.session();
    let rated_five = warm.execute("fig1").unwrap();
    warm.execute("no_rating").unwrap();
    let stats0 = engine.cache_stats();

    // Ouija (liked by Cat, who is not at NASA) is re-rated 5 and liked by
    // Bob, who is: `rating`, `like` and V1's extent all move.
    engine
        .mutate(|db| {
            db.remove("rating", &tuple![11, 3])?;
            db.insert("rating", tuple![11, 5])?;
            db.insert("like", tuple![2, 11, "movie"]).map(drop)
        })
        .unwrap();

    let fresh = engine.session();
    for name in ["no_rating", "fig1"] {
        let out = fresh.execute(name).unwrap();
        assert_eq!(out, fresh_compile(&fresh, name), "{name}");
        assert!(out.tuples.contains(&tuple![11]), "{name} sees the write");
    }
    assert_ne!(fresh.execute("fig1").unwrap(), rated_five);
    let stats1 = engine.cache_stats();
    assert_eq!(
        stats1.misses, stats0.misses,
        "nothing recompiled: {stats1:?}"
    );
    assert_eq!(engine.cache().len(), 2);
}

/// A session pinned before a `V1`-moving write and one opened after it,
/// executed alternately: both run the one pipeline compiled before the
/// write, each probes its *own* version's extent (and reads of it what the
/// interpreter reads of it on that version), and neither costs the other a
/// compile.
#[test]
fn sessions_pinned_to_different_versions_share_one_warm_pipeline() {
    let engine = movie_engine();
    engine.attach(movie_instance()).unwrap();
    engine.prepare("fig1", Q_XI).unwrap();
    let old = engine.session();
    engine
        .mutate(|db| {
            db.insert("rating", tuple![11, 5])?;
            db.insert("like", tuple![2, 11, "movie"]).map(drop)
        })
        .unwrap();
    let new = engine.session();
    assert_ne!(old.views().extent("V1"), new.views().extent("V1"));
    let (on_old, on_new) = (fresh_compile(&old, "fig1"), fresh_compile(&new, "fig1"));
    assert_eq!(on_old.tuples, vec![tuple![10]]);
    assert_eq!(on_new.tuples, vec![tuple![10], tuple![11]]);
    // Of the two fetched movies, 10 is in the old V1 and both are in the new.
    let read_of_v1 = (on_old.stats.view_tuples, on_new.stats.view_tuples);
    assert_eq!(read_of_v1, (1, 2), "each probes the extent it pinned");
    for _ in 0..3 {
        assert_eq!(old.execute("fig1").unwrap(), on_old);
        assert_eq!(new.execute("fig1").unwrap(), on_new);
    }
    let stats = engine.cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 5), "{stats:?}");
}

/// A mutation publishes what attaching the mutated database from scratch
/// would: the same instance as the mutation replayed on a plain copy of the
/// database, the same extents, bit-identical answers.
#[test]
fn delta_and_rebuild_modes_publish_identical_versions() {
    let delta = movie_engine();
    let rebuild = movie_engine();
    for engine in [&delta, &rebuild] {
        engine.prepare("fig1", Q_XI).unwrap();
    }
    delta.attach(movie_instance()).unwrap();
    let mutation = |db: &mut Database| {
        db.insert("movie", tuple![13, "Vice", "Universal", "2014"])?;
        db.insert("rating", tuple![13, 5])?;
        db.insert("like", tuple![2, 13, "movie"])?;
        db.remove("rating", &tuple![10, 5]).map(drop)
    };
    delta.mutate(mutation).unwrap();
    let mut model = movie_instance();
    mutation(&mut model).unwrap();
    rebuild.attach(model.clone()).unwrap();
    assert_eq!(delta.database(), model);
    let a = delta.session();
    let b = rebuild.session();
    for name in a.views().names() {
        assert_eq!(a.views().extent(name), b.views().extent(name));
    }
    assert_eq!(
        a.execute("fig1").unwrap(),
        b.execute("fig1").unwrap(),
        "served tuples and FetchStats must be bit-identical across modes"
    );
}

#[test]
fn mutate_batch_matches_serial_mutates_bit_for_bit() {
    let batched = movie_engine();
    let serial = movie_engine();
    for engine in [&batched, &serial] {
        engine.attach(movie_instance()).unwrap();
        engine.prepare("fig1", Q_XI).unwrap();
    }
    let ops: Vec<fn(&mut Database) -> bqr_data::Result<bool>> = vec![
        |db| {
            db.insert("movie", tuple![13, "Vice", "Universal", "2014"])?;
            db.insert("rating", tuple![13, 5])?;
            db.insert("like", tuple![1, 13, "movie"])
        },
        |db| db.remove("rating", &tuple![11, 3]),
        |db| db.insert("rating", tuple![11, 4]),
    ];

    let epochs_before = batched.session().epochs();
    let outcomes = batched.mutate_batch(ops.clone()).unwrap();
    assert!(outcomes.iter().all(|o| matches!(o, Ok(true))));
    for op in ops {
        serial.mutate(op).unwrap();
    }

    // One publish for the whole batch …
    let epochs_after = batched.session().epochs();
    assert_ne!(epochs_before, epochs_after);
    // … and the result is bit-identical to three separate publishes:
    // relations, view extents, served tuples AND FetchStats.
    assert_eq!(batched.database(), serial.database());
    let a = batched.session();
    let b = serial.session();
    for name in a.views().names() {
        assert_eq!(a.views().extent(name), b.views().extent(name));
    }
    assert_eq!(a.execute("fig1").unwrap(), b.execute("fig1").unwrap());
}

#[test]
fn mutate_batch_isolates_failing_closures() {
    let engine = movie_engine();
    engine.attach(movie_instance()).unwrap();
    let before = engine.database();

    let outcomes = engine
        .mutate_batch(vec![
            Box::new(|db: &mut Database| db.insert("rating", tuple![20, 5]))
                as Box<dyn FnOnce(&mut Database) -> bqr_data::Result<bool>>,
            // Errors after a write: the write must be rolled back without
            // disturbing the neighbours.
            Box::new(|db: &mut Database| {
                db.insert("rating", tuple![21, 1])?;
                db.insert("no_such_relation", tuple![0])
            }),
            // Panics mid-write: contained, rolled back, typed.
            Box::new(|db: &mut Database| {
                db.insert("rating", tuple![22, 1])?;
                panic!("boom in batched closure");
                #[allow(unreachable_code)]
                Ok(false)
            }),
            Box::new(|db: &mut Database| db.insert("rating", tuple![23, 2])),
        ])
        .unwrap();

    assert!(matches!(outcomes[0], Ok(true)));
    assert!(matches!(outcomes[1], Err(Error::Data(_))));
    match &outcomes[2] {
        Err(Error::MutationPanicked { message }) => assert!(message.contains("boom")),
        other => panic!("expected MutationPanicked, got {other:?}"),
    }
    assert!(matches!(outcomes[3], Ok(true)));

    // Exactly the two successful closures' effects are live; none of the
    // rolled-back writes leaked.
    let db = engine.database();
    assert_eq!(db.size(), before.size() + 2);
    let rating = db.relation("rating").unwrap();
    assert!(rating.contains(&tuple![20, 5]));
    assert!(rating.contains(&tuple![23, 2]));
    assert!(!rating.contains(&tuple![21, 1]));
    assert!(!rating.contains(&tuple![22, 1]));
}

/// `mutate` is `mutate_batch` of one closure: a closure that replaced a
/// relation wholesale and then failed is rolled back like any other,
/// reports its own error, and publishes nothing.
#[test]
fn a_failing_mutate_that_replaced_a_relation_reports_lost_history() {
    let engine = movie_engine();
    engine.attach(movie_instance()).unwrap();
    let (before, epochs) = (engine.database(), engine.session().epochs());
    let err = engine
        .mutate(|db| {
            let rating = db.relation_mut("rating")?;
            *rating = Relation::empty(rating.schema().clone());
            db.insert("no_such_relation", tuple![0])
        })
        .unwrap_err();
    assert!(
        matches!(&err, Error::Data(DataError::UnknownRelation(r)) if r == "no_such_relation"),
        "{err:?}"
    );
    assert_eq!(engine.database(), before, "nothing published");
    assert_eq!(engine.session().epochs(), epochs);
}

type Closure = Box<dyn FnOnce(&mut Database) -> bqr_data::Result<()>>;

/// The live version is what attaching a clone of its database builds: the
/// same extents, and the same answer to `Q_XI`, `FetchStats` included.
fn assert_equals_a_fresh_attach(engine: &Engine) {
    let twin = movie_engine();
    twin.attach(engine.database()).unwrap();
    let (live, fresh) = (engine.session(), twin.session());
    assert_eq!(live.views(), fresh.views());
    assert_eq!(live.query(Q_XI).unwrap(), fresh.query(Q_XI).unwrap());
}

/// Batch isolation around a wholesale assignment: the first closure
/// replaces `rating` wholesale and publishes; the second writes `rating`
/// and fails, and is undone back to the first one's effect.
#[test]
fn a_failing_closure_after_a_wholesale_assignment_is_undone_alone() {
    let engine = movie_engine();
    engine.attach(movie_instance()).unwrap();
    let outcomes = engine
        .mutate_batch([
            Box::new(|db: &mut Database| {
                let rating = db.relation_mut("rating")?;
                let schema = rating.schema().clone();
                *rating = Relation::from_tuples(schema, [tuple![10, 5], tuple![11, 5]])?;
                Ok(())
            }) as Closure,
            Box::new(|db: &mut Database| {
                db.insert("rating", tuple![12, 1])?;
                db.remove("rating", &tuple![10, 5])?;
                db.insert("no_such_relation", tuple![0]).map(drop)
            }),
        ])
        .unwrap();
    assert!(outcomes[0].is_ok());
    assert!(
        matches!(&outcomes[1], Err(Error::Data(DataError::UnknownRelation(r))) if r == "no_such_relation"),
        "{:?}",
        outcomes[1]
    );
    let rating: Vec<_> = engine
        .database()
        .relation("rating")
        .unwrap()
        .iter()
        .map(|t| t.to_tuple())
        .collect();
    assert_eq!(rating, [tuple![10, 5], tuple![11, 5]]);
    assert_equals_a_fresh_attach(&engine);
}

/// A closure that leaves the instance with another schema — without `like`,
/// which `V1` reads, or with a `rating` of another arity — fails typed and
/// is rolled back, whether or not it changed anything else; its neighbours
/// still publish.
#[test]
fn a_closure_that_changes_the_schema_fails_and_its_neighbours_publish() {
    let engine = movie_engine();
    engine.attach(movie_instance()).unwrap();
    let (before, epochs) = (engine.database(), engine.session().epochs());
    let without_like = |db: &Database| -> bqr_data::Result<Database> {
        let mut schema = DatabaseSchema::new();
        for relation in db.schema().relations().filter(|r| r.name() != "like") {
            schema.add_relation(relation.clone())?;
        }
        let mut copy = Database::empty(schema);
        for relation in db.relations().filter(|r| r.name() != "like") {
            *copy.relation_mut(relation.name())? = relation.clone();
        }
        Ok(copy)
    };
    let drop_like = move |db: &mut Database| {
        *db = without_like(db)?;
        Ok(())
    };
    let drop_like_and_rerate = move |db: &mut Database| {
        *db = without_like(db)?;
        db.remove("rating", &tuple![10, 5])?;
        db.insert("rating", tuple![10, 4]).map(drop)
    };
    let narrow_rating = |db: &mut Database| {
        let narrow = bqr_data::RelationSchema::new("rating", &["mid"])?;
        *db.relation_mut("rating")? = Relation::from_tuples(narrow, [tuple![10]])?;
        Ok(())
    };
    for err in [
        engine.mutate(drop_like).unwrap_err(),
        engine.mutate(drop_like_and_rerate).unwrap_err(),
        engine.mutate(narrow_rating).unwrap_err(),
    ] {
        assert!(matches!(err, Error::SchemaMismatch(_)), "{err:?}");
    }
    assert_eq!(engine.database(), before, "nothing published");
    assert_eq!(engine.session().epochs(), epochs);

    let outcomes = engine
        .mutate_batch([
            Box::new(|db: &mut Database| db.insert("rating", tuple![20, 5]).map(drop)) as Closure,
            Box::new(drop_like_and_rerate),
            Box::new(|db: &mut Database| db.insert("rating", tuple![21, 5]).map(drop)),
        ])
        .unwrap();
    assert!(outcomes[0].is_ok() && outcomes[2].is_ok());
    assert!(matches!(outcomes[1], Err(Error::SchemaMismatch(_))));
    let db = engine.database();
    assert_eq!(db.schema(), before.schema());
    assert_eq!(db.relation("like"), before.relation("like"));
    let rating = db.relation("rating").unwrap();
    assert!(rating.contains(&tuple![10, 5]) && !rating.contains(&tuple![10, 4]));
    assert!(rating.contains(&tuple![20, 5]) && rating.contains(&tuple![21, 5]));
    assert_equals_a_fresh_attach(&engine);
}

#[test]
fn empty_or_noop_batches_publish_nothing() {
    let engine = movie_engine();
    engine.attach(movie_instance()).unwrap();
    let epochs = engine.session().epochs();

    let none: Vec<fn(&mut Database) -> bqr_data::Result<()>> = Vec::new();
    assert!(engine.mutate_batch(none).unwrap().is_empty());
    // A do-undo batch nets out to the empty delta: no-op elision applies to
    // the batch exactly as it does to a single mutate.
    let outcomes = engine
        .mutate_batch(vec![
            |db: &mut Database| db.insert("rating", tuple![30, 1]).map(drop),
            |db: &mut Database| db.remove("rating", &tuple![30, 1]).map(drop),
        ])
        .unwrap();
    assert_eq!(outcomes.len(), 2);
    assert!(outcomes.iter().all(Result::is_ok));
    assert_eq!(engine.session().epochs(), epochs, "nothing published");
}

/// A relation a batch leaves as it found it keeps its epoch, though the
/// batch publishes another relation's change: the closures' own deltas
/// cancel across the batch, as one closure's writes cancel within it.
#[test]
fn a_relation_a_batch_nets_out_on_keeps_its_epoch() {
    let engine = movie_engine();
    engine.attach(movie_instance()).unwrap();
    let epoch = |name: &str| engine.session().database().relation(name).unwrap().epoch();
    let (rating, movie) = (epoch("rating"), epoch("movie"));
    let outcomes = engine
        .mutate_batch(vec![
            |db: &mut Database| db.insert("rating", tuple![30, 1]).map(drop),
            |db: &mut Database| {
                db.insert("movie", tuple![30, "Her", "Warner", "2013"])
                    .map(drop)
            },
            |db: &mut Database| db.remove("rating", &tuple![30, 1]).map(drop),
        ])
        .unwrap();
    assert!(outcomes.iter().all(Result::is_ok));
    assert_eq!(epoch("rating"), rating, "rating is the live version's");
    assert_ne!(epoch("movie"), movie);
}
