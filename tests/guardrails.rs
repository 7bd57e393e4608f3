//! Runtime-guardrail acceptance tests: deadlines, cancellation, budgets and
//! fetch caps through the `bqr::Engine` facade.
//!
//! The adversarial workload is the movie setting of Example 1.1 extended
//! with a deliberately dangerous cached view `VL(p, i) :- like(p, i,
//! 'movie')` over an 8 000-person instance: a cross product of three `VL`
//! scans is topped (three cached scans, tiny plan) yet enumerates
//! `24 000³` intermediate rows — exactly the shape a static bound cannot
//! catch and a runtime guard must.

use bqr::data::tuple;
use bqr::plan::{CancellationToken, ExecError, ExecOptions};
use bqr::query::parser::parse_cq;
use bqr::query::Budget;
use bqr::workload::movies::{self, MovieScale};
use bqr::{Engine, Error};
use std::time::{Duration, Instant};

/// The cross product of three `VL` scans: bounded per the checker (cached
/// views only), explosive at runtime.
const Q_ADV: &str = "Q(a, b, c, x, y, z) :- VL(a, x), VL(b, y), VL(c, z)";
const Q_XI: &str = "Q(mid) :- movie(mid, ym, 'Universal', '2014'), V1(mid), rating(mid, 5)";
const PERSONS: usize = 8_000;
const LIKES: usize = PERSONS * 3;

/// The 8k-person instance, seeded with rows that make the Fig.-1 scenario
/// non-empty (a NASA person liking a rated-5 Universal/2014 movie).
fn adversarial_instance() -> bqr::data::Database {
    let mut db = movies::generate(MovieScale {
        persons: PERSONS,
        movies: 200,
        n0: 100,
        seed: 11,
    });
    db.insert("person", tuple![900_001, "Ann", "NASA"]).unwrap();
    db.insert("movie", tuple![900_010, "Lucy", "Universal", "2014"])
        .unwrap();
    db.insert("rating", tuple![900_010, 5]).unwrap();
    db.insert("like", tuple![900_001, 900_010, "movie"])
        .unwrap();
    db
}

/// The movie engine with the extra `VL` view, attached to the 8k-person
/// instance, with the Fig.-1 statement prepared.
fn adversarial_engine() -> Engine {
    let mut views = movies::views();
    views
        .add_cq("VL", parse_cq("VL(p, i) :- like(p, i, 'movie')").unwrap())
        .unwrap();
    let setting =
        bqr::core::RewritingSetting::new(movies::schema(), movies::access_schema(100), views, 100);
    let engine = Engine::builder()
        .setting(setting)
        .annotate_view_bound("VL", LIKES)
        .cache_capacity(16)
        .build()
        .unwrap();
    engine.attach(adversarial_instance()).unwrap();
    engine.prepare("fig1", Q_XI).unwrap();
    engine
}

#[test]
fn deadlines_trip_promptly_in_either_form() {
    let engine = adversarial_engine();
    let session = engine.session();
    let golden = session.execute("fig1").unwrap();
    assert!(!golden.tuples.is_empty(), "the golden scenario has answers");

    let analysis = engine.analyze(Q_ADV).unwrap();
    assert!(analysis.bounded(), "{:?}", analysis.reason());

    for options in [
        ExecOptions::default().with_deadline_ms(50),
        ExecOptions::default().with_deadline(Duration::from_millis(50)),
    ] {
        let start = Instant::now();
        let err = analysis.execute_with(&options).unwrap_err();
        let elapsed = start.elapsed();
        match &err {
            Error::Execution { statement, .. } => assert!(statement.contains("VL")),
            other => panic!("expected Execution, got {other:?}"),
        }
        assert_eq!(
            err.exec_error(),
            Some(&ExecError::DeadlineExceeded { deadline_ms: 50 }),
            "{options:?}"
        );
        // Prompt: the 50ms deadline must not degenerate into seconds of
        // post-deadline work (generous ceiling for loaded CI machines).
        assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    }
    assert_eq!(engine.guard_stats().deadline_trips, 2);

    // The same engine serves the golden Fig.-1 scenario bit-identically
    // afterwards: tuples *and* FetchStats.
    assert_eq!(session.execute("fig1").unwrap(), golden);
    assert_eq!(engine.session().execute("fig1").unwrap(), golden);
}

#[test]
fn cancellation_from_another_thread_stops_execution() {
    let engine = adversarial_engine();
    engine.prepare("adv", Q_ADV).unwrap();
    let session = engine.session();
    let golden = session.execute("fig1").unwrap();

    let token = CancellationToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        })
    };
    // No deadline, no budget: without the token this product would grind
    // through 24 000³ rows.
    let start = Instant::now();
    let err = session
        .execute_with_token("adv", &ExecOptions::default(), token)
        .unwrap_err();
    let elapsed = start.elapsed();
    canceller.join().unwrap();
    assert_eq!(err.exec_error(), Some(&ExecError::Cancelled));
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
    assert_eq!(engine.guard_stats().cancellations, 1);
    assert_eq!(session.execute("fig1").unwrap(), golden);
}

#[test]
fn row_budgets_trip_before_the_product_materialises() {
    let engine = adversarial_engine();
    let analysis = engine.analyze(Q_ADV).unwrap();
    let options = ExecOptions::default().with_row_budget(1_000_000);
    let start = Instant::now();
    let err = analysis.execute_with(&options).unwrap_err();
    // The product pre-charges its output cardinality, so the trip is
    // immediate — no million-row detour first.
    assert!(start.elapsed() < Duration::from_secs(5));
    assert_eq!(
        err.exec_error(),
        Some(&ExecError::MemoryBudgetExceeded {
            budget_rows: 1_000_000
        })
    );
    assert_eq!(engine.guard_stats().memory_trips, 1);
}

#[test]
fn fetch_caps_bound_runtime_io() {
    let engine = adversarial_engine();
    let session = engine.session();
    // The Fig.-1 plan fetches movie/rating tuples; a zero cap trips on the
    // first fetch, and a generous cap leaves the answer untouched.
    let err = session
        .execute_with("fig1", &ExecOptions::default().with_fetch_budget(0))
        .unwrap_err();
    assert_eq!(
        err.exec_error(),
        Some(&ExecError::FetchBudgetExceeded { budget_tuples: 0 })
    );
    assert_eq!(engine.guard_stats().fetch_trips, 1);
    let ample = session
        .execute_with("fig1", &ExecOptions::default().with_fetch_budget(1_000_000))
        .unwrap();
    assert_eq!(ample, session.execute("fig1").unwrap());
}

#[test]
fn engine_wide_limits_apply_to_every_execution() {
    let mut views = movies::views();
    views
        .add_cq("VL", parse_cq("VL(p, i) :- like(p, i, 'movie')").unwrap())
        .unwrap();
    let setting =
        bqr::core::RewritingSetting::new(movies::schema(), movies::access_schema(100), views, 100);
    let engine = Engine::builder()
        .setting(setting)
        .annotate_view_bound("VL", LIKES)
        .exec_options(
            ExecOptions::default()
                .with_deadline_ms(50)
                .with_row_budget(2_000_000),
        )
        .build()
        .unwrap();
    engine.attach(adversarial_instance()).unwrap();
    engine.prepare("fig1", Q_XI).unwrap();
    // Normal statements serve fine under the engine-wide limits...
    let out = engine.session().execute("fig1").unwrap();
    assert!(!out.tuples.is_empty());
    // ...while the adversarial ad-hoc query trips without per-call options.
    let err = engine.session().query(Q_ADV).unwrap_err();
    assert!(
        matches!(
            err.exec_error(),
            Some(ExecError::MemoryBudgetExceeded { .. } | ExecError::DeadlineExceeded { .. })
        ),
        "{err:?}"
    );
    // Stats reflect exactly one trip.
    let stats = engine.guard_stats();
    assert_eq!(stats.memory_trips + stats.deadline_trips, 1, "{stats:?}");
}

#[test]
fn exhausted_analysis_budgets_are_typed_errors_with_the_query_attached() {
    // The exact decision procedure is worst-case exponential and budgeted;
    // a tiny budget must surface as `Error::Analysis` naming the query —
    // never a panic, never an unbounded spin.
    let engine = Engine::builder()
        .setting(movies::setting(100, 40))
        .budget(Budget::tiny())
        .build()
        .unwrap();
    let err = engine
        .decide(movies::q0(), bqr::plan::PlanLanguage::Cq)
        .unwrap_err();
    match err {
        Error::Analysis { query, source } => {
            assert!(query.contains("person"), "{query}");
            assert!(source.to_string().contains("budget"), "{source}");
        }
        other => panic!("expected Analysis, got {other:?}"),
    }
    // The engine is still perfectly serviceable after the refusal.
    engine
        .attach(movies::generate(MovieScale::default()))
        .unwrap();
    assert!(engine.analyze(Q_XI).unwrap().bounded());
}

#[test]
fn a_panicking_mutation_leaves_the_facade_serving() {
    // Facade-level double of the engine unit test: panic containment holds
    // end-to-end, across sessions taken before and after the panic.
    let engine = Engine::builder()
        .setting(movies::setting(100, 40))
        .build()
        .unwrap();
    engine
        .attach(movies::generate(MovieScale {
            persons: 100,
            movies: 50,
            n0: 100,
            seed: 3,
        }))
        .unwrap();
    engine.prepare("fig1", Q_XI).unwrap();
    let pinned = engine.session();
    let golden = pinned.execute("fig1").unwrap();

    let err = engine
        .mutate(|_| -> bqr::data::Result<()> { panic!("chaos monkey") })
        .unwrap_err();
    assert!(matches!(err, Error::MutationPanicked { .. }), "{err:?}");

    assert_eq!(pinned.execute("fig1").unwrap(), golden, "pin survives");
    assert_eq!(engine.session().execute("fig1").unwrap(), golden);
    engine
        .mutate(|db| db.insert("rating", tuple![9_999, 5]))
        .unwrap();
}

/// A deadline under a millisecond rounds up to one, never down to the 0 ms
/// deadline that trips at the first check of every execution.
#[test]
fn a_sub_millisecond_engine_deadline_still_serves() {
    let options = ExecOptions::default().with_deadline(Duration::from_micros(500));
    let engine = Engine::builder()
        .setting(movies::setting(100, 40))
        .exec_options(options)
        .build()
        .unwrap();
    assert_eq!(engine.exec_options().limits.deadline_ms, Some(1));
    let mut db = bqr::data::Database::empty(movies::schema());
    db.insert("rating", tuple![1, 5]).unwrap();
    engine.attach(db).unwrap();
    // A microsecond read fits in the millisecond; a few tries absorb a
    // descheduled thread, while a 0 ms deadline fails every one.
    let served = (0..5).find_map(|_| engine.session().query("Q(r) :- rating(1, r)").ok());
    assert_eq!(served.map(|out| out.tuples), Some(vec![tuple![5]]));
}
