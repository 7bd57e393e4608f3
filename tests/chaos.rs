//! Fault-injection (failpoint) matrix: every registered site is driven
//! through the `bqr::Engine` facade and the engine must stay serviceable —
//! no poisoned lock, no partial mutation, no stale read, no cached error.
//!
//! Compiled only under `--features failpoints` (see `[[test]]` in the root
//! manifest); CI runs it in release in a dedicated step.  The failpoint
//! registry is process-global, so every test serialises on [`CHAOS`].

use bqr::data::faults::{self, sites, FaultKind};
use bqr::data::{tuple, DataError, Database, Relation, Tuple};
use bqr::plan::ExecOptions;
use bqr::workload::cdr::{self, CdrScale};
use bqr::workload::movies;
use bqr::{Engine, Error};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Process-global serialisation of the failpoint registry.
static CHAOS: Mutex<()> = Mutex::new(());

fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    // A failed assertion in one test must not wedge the rest of the suite.
    let guard = CHAOS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    faults::clear_all();
    guard
}

const Q_XI: &str = "Q(mid) :- movie(mid, ym, 'Universal', '2014'), V1(mid), rating(mid, 5)";

/// The deterministic Example-1.1 instance (answer: movie 10).
fn fig1_instance() -> Database {
    let mut db = Database::empty(movies::schema());
    db.insert("person", tuple![1, "Ann", "NASA"]).unwrap();
    db.insert("person", tuple![2, "Bob", "NASA"]).unwrap();
    db.insert("movie", tuple![10, "Lucy", "Universal", "2014"])
        .unwrap();
    db.insert("movie", tuple![12, "Her", "WB", "2013"]).unwrap();
    db.insert("rating", tuple![10, 5]).unwrap();
    db.insert("rating", tuple![12, 5]).unwrap();
    db.insert("like", tuple![1, 10, "movie"]).unwrap();
    db.insert("like", tuple![2, 12, "movie"]).unwrap();
    db
}

fn fig1_engine() -> Engine {
    let engine = Engine::builder()
        .setting(movies::setting(100, 40))
        .cache_capacity(16)
        .build()
        .unwrap();
    engine.attach(fig1_instance()).unwrap();
    engine.prepare("fig1", Q_XI).unwrap();
    engine
}

#[test]
fn index_build_faults_never_unpublish_the_serving_version() {
    let _chaos = chaos_lock();
    let engine = fig1_engine();
    let golden = engine.session().execute("fig1").unwrap();

    {
        let _fp = faults::inject_guard(sites::INDEX_BUILD, FaultKind::Error);
        // The rebuild inside mutate hits the failpoint: the closure's insert
        // must not become a live version.
        let err = engine
            .mutate(|db| db.insert("rating", tuple![99, 1]))
            .unwrap_err();
        assert!(
            matches!(err, Error::Data(DataError::FaultInjected(_))),
            "{err:?}"
        );
        assert_eq!(engine.session().execute("fig1").unwrap(), golden);
        // Attaching a fresh database fails the same typed way.
        assert!(matches!(
            engine.attach(fig1_instance()),
            Err(Error::Data(DataError::FaultInjected(_)))
        ));
        assert_eq!(engine.session().execute("fig1").unwrap(), golden);
    }

    // Failpoint gone: the very next mutate publishes normally.
    engine
        .mutate(|db| db.insert("rating", tuple![99, 1]))
        .unwrap();
    assert_eq!(engine.session().execute("fig1").unwrap(), golden);
}

/// The keyed index `fig1`'s join probes `V1` through fails its first build,
/// which runs with the extent's index cell locked for writing, by a panic
/// injected once under the first execution: the panic surfaces, nothing
/// wrong is cached or kept, no lock stays poisoned, and the same session
/// then serves `fig1`.
#[test]
fn keyed_build_panics_do_not_wedge_the_extent() {
    let _chaos = chaos_lock();
    let engine = fig1_engine();

    faults::inject_times(sites::KEYED_BUILD, FaultKind::Panic, 1);
    let session = engine.session();
    let panicked = catch_unwind(AssertUnwindSafe(|| session.execute("fig1"))).is_err();
    assert!(panicked, "the injected panic must surface");
    assert!(!faults::is_active(sites::KEYED_BUILD), "consumed");

    let out = session.execute("fig1").unwrap();
    assert_eq!(out.tuples, vec![tuple![10]]);
    assert_eq!(session.execute("fig1").unwrap(), out);
    let stats = engine.cache_stats();
    assert_eq!(stats.lookups, stats.hits + stats.misses, "{stats:?}");
    engine
        .mutate(|db| db.insert("rating", tuple![99, 1]))
        .unwrap();
}

#[test]
fn cache_insert_errors_are_never_cached() {
    let _chaos = chaos_lock();
    let engine = fig1_engine();

    faults::inject_times(sites::CACHE_INSERT, FaultKind::Error, 1);
    let session = engine.session();
    let err = session.execute("fig1").unwrap_err();
    assert!(err.to_string().contains("failpoint"), "{err}");

    // The error was not cached: the retry recompiles and serves, and from
    // then on executions are warm hits.
    let out = session.execute("fig1").unwrap();
    assert_eq!(out.tuples, vec![tuple![10]]);
    assert_eq!(session.execute("fig1").unwrap(), out);
    let stats = engine.cache_stats();
    assert!(stats.hits >= 1, "{stats:?}");
    assert_eq!(stats.lookups, stats.hits + stats.misses, "{stats:?}");
}

#[test]
fn cache_insert_panics_poison_nothing_observable() {
    let _chaos = chaos_lock();
    let engine = fig1_engine();

    // This panic fires while the pipeline-cache mutex is held, poisoning
    // it; the serving path must recover rather than propagate the poison.
    faults::inject_times(sites::CACHE_INSERT, FaultKind::Panic, 1);
    let session = engine.session();
    let panicked = catch_unwind(AssertUnwindSafe(|| session.execute("fig1"))).is_err();
    assert!(panicked, "the injected panic must surface");

    let out = session.execute("fig1").unwrap();
    assert_eq!(out.tuples, vec![tuple![10]]);
    let stats = engine.cache_stats();
    assert_eq!(stats.lookups, stats.hits + stats.misses, "{stats:?}");
    engine
        .mutate(|db| db.insert("rating", tuple![99, 1]))
        .unwrap();
}

#[test]
fn mutate_closure_faults_are_all_or_nothing() {
    let _chaos = chaos_lock();
    let engine = fig1_engine();
    let before = engine.database();

    faults::inject_times(sites::MUTATE_CLOSURE, FaultKind::Error, 1);
    let err = engine
        .mutate(|db| db.insert("rating", tuple![99, 1]))
        .unwrap_err();
    assert!(
        matches!(err, Error::Data(DataError::FaultInjected(_))),
        "{err:?}"
    );
    assert_eq!(engine.database(), before, "no partial commit");

    faults::inject_times(sites::MUTATE_CLOSURE, FaultKind::Panic, 1);
    let err = engine
        .mutate(|db| db.insert("rating", tuple![99, 1]))
        .unwrap_err();
    assert!(matches!(err, Error::MutationPanicked { .. }), "{err:?}");
    assert_eq!(engine.database(), before, "no partial commit");

    // Registry drained: the identical mutate now lands.
    engine
        .mutate(|db| db.insert("rating", tuple![99, 1]))
        .unwrap();
    assert_eq!(engine.database().size(), before.size() + 1);
}

/// A write that would mint a value the pool has never seen fails typed when
/// minting fails — the way a full pool does — and publishes nothing: same
/// contents, same epochs, the very same keyed indexes, and no id minted.
/// Work over known values never reaches the site: the same insert of a
/// known value commits under the fault, maintenance and reads included.
#[test]
fn value_intern_faults_fail_the_write_that_would_grow_the_pool() {
    let _chaos = chaos_lock();
    let engine = fig1_engine();
    build_the_like_index(&engine);
    let golden = engine.session().execute("fig1").unwrap();
    assert!(like_index_is_built(&engine) && v1_index_is_built(&engine));
    let keyed = |engine: &Engine| {
        let session = engine.session();
        let like = session.database().relation("like").unwrap();
        let v1 = session.views().extent("V1").unwrap();
        (
            like.keyed_index(&[1, 2]).unwrap(),
            v1.keyed_index(&[0]).unwrap(),
        )
    };
    let (before, epochs, (like_index, v1_index)) =
        (engine.database(), engine.session().epochs(), keyed(&engine));

    let ghost = bqr::data::Value::str("a value only the value-intern fault test inserts");
    let unseen = Tuple::new(vec![1.into(), 10.into(), ghost.clone()]);
    let known = tuple![1, 12, "movie"];
    {
        let _fp = faults::inject_guard(sites::VALUE_INTERN, FaultKind::Error);
        let err = engine
            .mutate(|db| db.insert("like", unseen.clone()))
            .unwrap_err();
        assert!(
            matches!(&err, Error::Data(DataError::FaultInjected(site)) if site == sites::VALUE_INTERN),
            "{err:?}"
        );
        assert_eq!(engine.database(), before, "no partial commit");
        assert_eq!(engine.session().epochs(), epochs, "nothing was published");
        let (like_now, v1_now) = keyed(&engine);
        assert!(std::sync::Arc::ptr_eq(&like_now, &like_index));
        assert!(std::sync::Arc::ptr_eq(&v1_now, &v1_index));
        assert_eq!(bqr::data::ValueId::lookup(&ghost), None, "nothing minted");
        assert_eq!(engine.session().execute("fig1").unwrap(), golden);

        // Known values mint nothing, so the fault never fires.
        engine
            .mutate(|db| db.insert("like", known.clone()))
            .unwrap();
        assert!(faults::is_active(sites::VALUE_INTERN));
    }
    let session = engine.session();
    assert_ne!(session.epochs(), epochs);
    assert!(session
        .database()
        .relation("like")
        .unwrap()
        .contains(&known));
    assert_eq!(session.execute("fig1").unwrap(), golden);

    // Fault cleared: the unseen value is interned and stored.
    engine
        .mutate(|db| db.insert("like", unseen.clone()))
        .unwrap();
    assert!(bqr::data::ValueId::lookup(&ghost).is_some());
}

/// The headline scenario: four concurrent pinned sessions keep reading
/// bit-identically while the writer side is bombarded with injected
/// faults — failed mutations interleaved with successful ones.
#[test]
fn concurrent_sessions_survive_a_fault_storm() {
    let _chaos = chaos_lock();
    let engine = fig1_engine();
    let golden = engine.session().execute("fig1").unwrap();
    assert_eq!(golden.tuples, vec![tuple![10]]);

    const READERS: usize = 4;
    const ROUNDS: usize = 12;
    let barrier = std::sync::Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        let engine = &engine;
        let barrier = &barrier;
        for reader in 0..READERS {
            scope.spawn(move || {
                // One reader runs under ample limits, the rest under none.
                let options = if reader == 0 {
                    ExecOptions::default().with_row_budget(1 << 20)
                } else {
                    ExecOptions::default()
                };
                barrier.wait();
                for _ in 0..ROUNDS {
                    let session = engine.session();
                    let pinned_epochs = session.epochs();
                    let first = session.execute_with("fig1", &options).unwrap();
                    for _ in 0..4 {
                        assert_eq!(session.execute_with("fig1", &options).unwrap(), first);
                        assert_eq!(session.epochs(), pinned_epochs, "the pin moved");
                    }
                    std::thread::yield_now();
                }
            });
        }

        barrier.wait();
        // The writer alternates injected failures with real commits.
        let mut committed = 0i64;
        for round in 0..ROUNDS {
            match round % 3 {
                0 => {
                    faults::inject_times(sites::MUTATE_CLOSURE, FaultKind::Panic, 1);
                    let err = engine
                        .mutate(|db| db.insert("rating", tuple![500 + round as i64, 1]))
                        .unwrap_err();
                    assert!(matches!(err, Error::MutationPanicked { .. }), "{err:?}");
                }
                1 => {
                    faults::inject_times(sites::INDEX_BUILD, FaultKind::Error, 1);
                    let err = engine
                        .mutate(|db| db.insert("rating", tuple![500 + round as i64, 1]))
                        .unwrap_err();
                    assert!(matches!(err, Error::Data(_)), "{err:?}");
                }
                _ => {
                    committed += 1;
                    engine
                        .mutate(|db| db.insert("rating", tuple![500 + round as i64, 1]))
                        .unwrap();
                }
            }
        }
        assert_eq!(
            engine.database().size() as i64,
            fig1_instance().size() as i64 + committed,
            "exactly the successful mutations landed"
        );
    });

    // Quiesced: fresh sessions serve the same Fig.-1 answer, counters
    // reconcile, and no lock anywhere is left poisoned.
    assert_eq!(
        engine.session().execute("fig1").unwrap().tuples,
        golden.tuples
    );
    let stats = engine.cache_stats();
    assert_eq!(stats.lookups, stats.hits + stats.misses, "{stats:?}");
    assert!(!faults::is_active(sites::MUTATE_CLOSURE));
    assert!(!faults::is_active(sites::INDEX_BUILD));
    engine
        .mutate(|db| db.insert("rating", tuple![9_999, 5]))
        .unwrap();
}

/// PR 7: a fault inside semi-naive view maintenance aborts the mutation
/// all-or-nothing — the closure's writes never become a live version, the
/// epochs of the serving version do not move, and once the registry drains
/// the identical mutation lands through the delta path.
#[test]
fn view_maintenance_faults_never_publish_a_partial_delta() {
    let _chaos = chaos_lock();
    let engine = fig1_engine();
    let golden = engine.session().execute("fig1").unwrap();
    let before = engine.database();
    let epochs = engine.session().epochs();

    // Typed error out of the maintenance step.
    faults::inject_times(sites::VIEW_MAINTAIN, FaultKind::Error, 1);
    let err = engine
        .mutate(|db| db.insert("rating", tuple![12, 4]))
        .unwrap_err();
    assert!(
        matches!(err, Error::Query(_)),
        "maintenance fault surfaces typed: {err:?}"
    );
    assert_eq!(engine.database(), before, "no partial delta published");
    assert_eq!(engine.session().epochs(), epochs, "epochs did not move");
    assert_eq!(engine.session().execute("fig1").unwrap(), golden);

    // Panic out of the maintenance step: contained, nothing published.
    faults::inject_times(sites::VIEW_MAINTAIN, FaultKind::Panic, 1);
    let err = engine
        .mutate(|db| db.insert("rating", tuple![12, 4]))
        .unwrap_err();
    assert!(matches!(err, Error::MutationPanicked { .. }), "{err:?}");
    assert_eq!(engine.database(), before, "no partial delta published");
    assert_eq!(engine.session().epochs(), epochs, "epochs did not move");

    // Registry drained: the identical mutation commits via the delta path.
    engine
        .mutate(|db| db.insert("rating", tuple![12, 4]))
        .unwrap();
    assert_eq!(engine.database().size(), before.size() + 1);
    assert_eq!(
        engine.session().execute("fig1").unwrap().tuples,
        golden.tuples
    );
}

/// When delta application *does* fail mid-way, the retried delta commit
/// publishes a version bit-identical to attaching the mutated instance from
/// scratch — same contents, same extents, same served answers.
#[test]
fn fallback_to_full_rebuild_is_bit_identical() {
    let _chaos = chaos_lock();
    let delta = fig1_engine();
    let rebuild = fig1_engine();

    // The delta engine's first attempt dies inside maintenance; retrying
    // after the fault clears must converge to the state `attach` builds
    // from the same mutation replayed on a plain copy of the instance.
    faults::inject_times(sites::VIEW_MAINTAIN, FaultKind::Error, 1);
    let mutation = |db: &mut Database| {
        db.insert("like", tuple![2, 10, "movie"])?;
        db.remove("rating", &tuple![12, 5])?;
        Ok(())
    };
    assert!(engine_mutate_fails(&delta, mutation));
    delta.mutate(mutation).unwrap();
    let mut model = fig1_instance();
    mutation(&mut model).unwrap();
    rebuild.attach(model.clone()).unwrap();
    assert_eq!(delta.database(), model);

    let a = delta.session();
    let b = rebuild.session();
    assert_eq!(a.database(), b.database());
    for name in a.views().names() {
        assert_eq!(a.views().extent(name), b.views().extent(name), "{name}");
    }
    assert_eq!(a.execute("fig1").unwrap(), b.execute("fig1").unwrap());
}

fn engine_mutate_fails(
    engine: &Engine,
    mutation: impl Fn(&mut Database) -> bqr::data::Result<()>,
) -> bool {
    engine.mutate(|db| mutation(db)).is_err()
}

/// The `like` relation of `engine`'s live version, and whether it holds the
/// keyed index V1's re-derivation probes (`like` by `id`, `type`).
fn like_index_is_built(engine: &Engine) -> bool {
    let session = engine.session();
    let like = session.database().relation("like").unwrap();
    like.keyed_index_if_built(&[1, 2]).is_some()
}

/// Whether `V1`'s extent in `engine`'s live version holds the keyed index
/// `fig1`'s join probes it through.
fn v1_index_is_built(engine: &Engine) -> bool {
    let session = engine.session();
    let v1 = session.views().extent("V1").unwrap();
    v1.keyed_index_if_built(&[0]).is_some()
}

/// Take one of V1's derivations out and put it back: the removal re-derives
/// through `like` by `id`, so from here on `like` holds that keyed index and
/// every write to it reaches the carry site.
fn build_the_like_index(engine: &Engine) {
    let fan = tuple![2, 12, "movie"];
    engine.mutate(|db| db.remove("like", &fan)).unwrap();
    engine.mutate(|db| db.insert("like", fan.clone())).unwrap();
    assert!(like_index_is_built(engine));
}

/// ISSUE 19: a fault at the keyed-index carry degrades the write to
/// dropping the index — the mutation still commits, the next maintenance
/// that needs the index rebuilds it, and database contents, view extents,
/// and served answers stay bit-identical to an un-faulted twin engine's.  A
/// panic at the site is contained by the all-or-nothing mutate.  Once the
/// fault clears, carried writes agree again.
#[test]
fn keyed_carry_faults_degrade_to_a_rebuild_on_next_use() {
    let _chaos = chaos_lock();
    let faulty = fig1_engine();
    let clean = fig1_engine();

    let agree = |a: &Engine, b: &Engine| {
        let a = a.session();
        let b = b.session();
        assert_eq!(a.database(), b.database(), "contents diverged");
        for name in a.views().names() {
            assert_eq!(a.views().extent(name), b.views().extent(name), "{name}");
        }
        assert_eq!(a.execute("fig1").unwrap(), b.execute("fig1").unwrap());
    };

    for engine in [&faulty, &clean] {
        build_the_like_index(engine);
    }
    agree(&faulty, &clean);

    // Error at the site while only the faulty engine writes: the carry
    // degrades to dropping the index, the commit still lands.  (An insert
    // into `like` probes `person` and `movie` only, so nothing rebuilds the
    // index behind the assertion's back.)
    let mutation = |db: &mut Database| {
        db.insert("rating", tuple![12, 4])?;
        db.insert("like", tuple![1, 12, "movie"])?;
        Ok(())
    };
    {
        let _fp = faults::inject_guard(sites::KEYED_CARRY, FaultKind::Error);
        faulty.mutate(mutation).unwrap();
    }
    clean.mutate(mutation).unwrap();
    assert!(!like_index_is_built(&faulty) && like_index_is_built(&clean));
    agree(&faulty, &clean);
    // The next removal re-derives over a rebuilt index: same extents.
    for engine in [&faulty, &clean] {
        engine
            .mutate(|db| db.remove("like", &tuple![2, 12, "movie"]))
            .unwrap();
    }
    assert!(like_index_is_built(&faulty));
    agree(&faulty, &clean);

    // Panic at the site: contained by the engine, nothing published.
    let before = faulty.database();
    let epochs = faulty.session().epochs();
    faults::inject_times(sites::KEYED_CARRY, FaultKind::Panic, 1);
    let err = faulty
        .mutate(|db| db.insert("like", tuple![1, 801, "page"]))
        .unwrap_err();
    assert!(matches!(err, Error::MutationPanicked { .. }), "{err:?}");
    assert_eq!(faulty.database(), before, "no partial commit");
    assert_eq!(faulty.session().epochs(), epochs, "epochs did not move");

    // Registry drained: the same write carries normally on both engines
    // and they still agree bit for bit.
    assert!(!faults::is_active(sites::KEYED_CARRY));
    for engine in [&faulty, &clean] {
        engine
            .mutate(|db| db.insert("like", tuple![1, 801, "page"]).map(drop))
            .unwrap();
    }
    assert!(like_index_is_built(&faulty));
    agree(&faulty, &clean);

    // The same for a view extent, which `fig1` has indexed on both engines
    // by now: a faulted write that moves V1 drops the extent's index, and
    // the next read rebuilds it — identical answer and `FetchStats`.
    assert!(v1_index_is_built(&faulty) && v1_index_is_built(&clean));
    let grow_v1 = |db: &mut Database| {
        db.insert("movie", tuple![13, "Vice", "Universal", "2014"])?;
        db.insert("rating", tuple![13, 5])?;
        db.insert("like", tuple![1, 13, "movie"])?;
        Ok(())
    };
    {
        let _fp = faults::inject_guard(sites::KEYED_CARRY, FaultKind::Error);
        faulty.mutate(grow_v1).unwrap();
    }
    clean.mutate(grow_v1).unwrap();
    assert!(!v1_index_is_built(&faulty) && v1_index_is_built(&clean));
    agree(&faulty, &clean);
    assert!(v1_index_is_built(&faulty));
    let served = faulty.session().execute("fig1").unwrap();
    assert!(served.tuples.contains(&tuple![13]), "{served:?}");
}

// ---------------------------------------------------------------------------
// Constraint indexes: carried by the writes, built by attach
// ---------------------------------------------------------------------------

const CDR_SCALE: CdrScale = CdrScale {
    customers: 60,
    days: 3,
    max_calls_per_day: 4,
    max_attach_per_day: 2,
    towers: 10,
    seed: 5,
};

/// A CDR engine with every bounded template prepared for the caller and day
/// of the first stored call, as `t0`, `t1`, …; and the statement names.
fn cdr_engine() -> (Engine, Vec<String>) {
    let mut builder = Engine::builder().setting(cdr::setting(&CDR_SCALE, 120));
    for (view, bound) in cdr::view_bounds() {
        builder = builder.annotate_view_bound(view, bound);
    }
    let engine = builder.build().unwrap();
    let db = cdr::generate(CDR_SCALE);
    let first = db
        .relation("calls")
        .unwrap()
        .iter()
        .next()
        .unwrap()
        .to_tuple();
    let (cid, day) = (first[0].as_int().unwrap(), first[1].as_int().unwrap());
    engine.attach(db).unwrap();
    let bounded = cdr::workload(cid, day)
        .into_iter()
        .filter(|q| q.expected_bounded);
    let names = (bounded.enumerate())
        .map(|(k, q)| {
            let name = format!("t{k}");
            engine.prepare(&name, q.query).unwrap();
            name
        })
        .collect();
    (engine, names)
}

/// Every statement's answer — tuples and `FetchStats` — on the live version.
fn answers(engine: &Engine, names: &[String]) -> Vec<bqr::plan::ExecOutput> {
    let session = engine.session();
    names.iter().map(|n| session.execute(n).unwrap()).collect()
}

/// Whether `calls` carries the index of its constraint `calls(caller, day →
/// callee, duration)`: its whole tuples keyed on the first two positions.
fn carries_calls_index(db: &Database) -> bool {
    let calls = db.relation("calls").unwrap();
    calls.keyed_index_if_built(&[0, 1]).is_some()
}

/// A `KEYED_CARRY` `Error` during a `calls` write drops the constraint index
/// `calls` carries along with everything else in its cell; the publish
/// builds it from the rows, and every statement answers bit-identically to
/// an un-faulted twin's — tuples and `FetchStats` — before and after.
#[test]
fn keyed_carry_errors_drop_constraint_indexes_and_the_publish_rebuilds_them() {
    let _chaos = chaos_lock();
    let ((faulty, names), (clean, _)) = (cdr_engine(), cdr_engine());
    assert_eq!(answers(&faulty, &names), answers(&clean, &names));
    assert!(carries_calls_index(faulty.session().database()));
    let calls = faulty.database().relation("calls").unwrap().clone();
    let first = calls.iter().next().unwrap().to_tuple();
    let extra = tuple![first[0].clone(), first[1].clone(), first[0].clone(), 9_999];
    let write = |db: &mut Database| {
        db.remove("calls", &first)?;
        db.insert("calls", extra.clone())?;
        Ok(carries_calls_index(db))
    };
    {
        let _fp = faults::inject_guard(sites::KEYED_CARRY, FaultKind::Error);
        assert!(!faulty.mutate(write).unwrap(), "the carry dropped it");
    }
    assert!(clean.mutate(write).unwrap(), "the carry patched it");
    let live = faulty.session();
    let calls = live.database().relation("calls").unwrap();
    let rows = Relation::from_tuples(calls.schema().clone(), calls.iter().map(|t| t.to_tuple()));
    let rebuilt = rows.unwrap().keyed_index(&[0, 1]).unwrap();
    assert_eq!(*calls.keyed_index_if_built(&[0, 1]).unwrap(), *rebuilt);
    assert_eq!(answers(&faulty, &names), answers(&clean, &names));
    // And the rebuilt index is carried by the next write like any other.
    let undo = |db: &mut Database| {
        db.remove("calls", &extra)?;
        db.insert("calls", first.clone())?;
        Ok(carries_calls_index(db))
    };
    assert!(faulty.mutate(undo).unwrap() && clean.mutate(undo).unwrap());
    assert_eq!(answers(&faulty, &names), answers(&clean, &names));
}

/// Attach builds every constraint index into its relation's cell through
/// the one index builder: a `KEYED_BUILD` `Error` there fails the attach as
/// `Error::Data`, and the version attached before keeps serving.
#[test]
fn keyed_build_errors_fail_attach_typed_and_keep_the_served_version() {
    let _chaos = chaos_lock();
    let (engine, names) = cdr_engine();
    let (golden, epochs) = (answers(&engine, &names), engine.session().epochs());
    {
        let _fp = faults::inject_guard(sites::KEYED_BUILD, FaultKind::Error);
        let err = engine.attach(cdr::generate(CDR_SCALE)).unwrap_err();
        assert!(
            matches!(err, Error::Data(DataError::FaultInjected(_))),
            "{err:?}"
        );
    }
    assert_eq!(engine.session().epochs(), epochs, "nothing was published");
    assert_eq!(answers(&engine, &names), golden);
    engine.attach(cdr::generate(CDR_SCALE)).unwrap();
    assert_eq!(answers(&engine, &names), golden);
}

/// A write that replaces `calls` wholesale leaves the successor without its
/// constraint index, so the publish builds one — and a `KEYED_BUILD` `Error`
/// there fails the mutation typed and publishes nothing.  Once the fault
/// clears, the same write publishes what an un-faulted twin does.
#[test]
fn keyed_build_errors_fail_mutate_and_publish_nothing() {
    let _chaos = chaos_lock();
    let ((engine, names), (twin, _)) = (cdr_engine(), cdr_engine());
    let (golden, epochs) = (answers(&engine, &names), engine.session().epochs());
    let replace = |db: &mut Database| {
        let calls = db.relation("calls").unwrap();
        let mut tuples: Vec<Tuple> = calls.iter().map(|t| t.to_tuple()).collect();
        tuples.pop();
        let replacement = Relation::from_tuples(calls.schema().clone(), tuples)?;
        *db.relation_mut("calls")? = replacement;
        Ok(())
    };
    {
        let _fp = faults::inject_guard(sites::KEYED_BUILD, FaultKind::Error);
        let err = engine.mutate(replace).unwrap_err();
        assert!(
            matches!(err, Error::Data(DataError::FaultInjected(_))),
            "{err:?}"
        );
    }
    assert_eq!(engine.session().epochs(), epochs, "nothing was published");
    assert_eq!(answers(&engine, &names), golden);
    engine.mutate(replace).unwrap();
    twin.mutate(replace).unwrap();
    assert!(carries_calls_index(engine.session().database()));
    assert_eq!(answers(&engine, &names), answers(&twin, &names));
}

/// PR 7: pinned readers never observe a half-applied delta.  Readers pin
/// sessions and re-execute while the writer commits real deltas (including
/// deletions) interleaved with injected maintenance faults; every pinned
/// session must stay bit-stable for its whole lifetime.
#[test]
fn pinned_sessions_never_observe_a_half_applied_delta() {
    let _chaos = chaos_lock();
    let engine = fig1_engine();

    const READERS: usize = 3;
    const ROUNDS: usize = 10;
    let barrier = std::sync::Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        let engine = &engine;
        let barrier = &barrier;
        for _ in 0..READERS {
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..ROUNDS {
                    let session = engine.session();
                    let pinned_epochs = session.epochs();
                    let first = session.execute("fig1").unwrap();
                    // The Fig.-1 answer is either present or absent as a
                    // whole — a half-applied delta would show e.g. a rating
                    // tuple without its view-extent counterpart.
                    for _ in 0..4 {
                        assert_eq!(session.execute("fig1").unwrap(), first);
                        assert_eq!(session.epochs(), pinned_epochs, "the pin moved");
                    }
                    std::thread::yield_now();
                }
            });
        }

        barrier.wait();
        for round in 0..ROUNDS {
            match round % 4 {
                0 => {
                    faults::inject_times(sites::VIEW_MAINTAIN, FaultKind::Error, 1);
                    assert!(engine
                        .mutate(|db| db.remove("rating", &tuple![10, 5]))
                        .is_err());
                }
                1 => {
                    // A genuinely new tuple — a no-op insert would be
                    // elided before maintenance and never hit the site.
                    faults::inject_times(sites::VIEW_MAINTAIN, FaultKind::Panic, 1);
                    assert!(engine
                        .mutate(|db| db.insert("rating", tuple![700 + round as i64, 1]))
                        .is_err());
                }
                2 => {
                    // Real deletion of the answer's rating tuple.
                    engine
                        .mutate(|db| db.remove("rating", &tuple![10, 5]))
                        .unwrap();
                }
                _ => {
                    // And bring it back.
                    engine
                        .mutate(|db| db.insert("rating", tuple![10, 5]))
                        .unwrap();
                }
            }
        }
    });

    // ROUNDS is a multiple of 4, so the last committed op re-inserted the
    // tuple: quiesced state serves the original Fig.-1 answer.
    assert_eq!(
        engine.session().execute("fig1").unwrap().tuples,
        vec![tuple![10]]
    );
    assert!(!faults::is_active(sites::VIEW_MAINTAIN));
}

/// ISSUE 13: versions share storage chunk by chunk and index shard by
/// shard, so a write that dies half-way — after its closure forked chunks,
/// inside the keyed-index carry, inside index patching, inside maintenance —
/// must publish nothing *and* leave the version it forked from reading
/// exactly as before, through a session pinned before the write.
#[test]
fn faulted_writes_leave_the_structurally_shared_predecessor_intact() {
    let _chaos = chaos_lock();
    let engine = fig1_engine();
    build_the_like_index(&engine);
    // Several storage chunks of ratings, keys in most index shards.
    engine
        .mutate(|db| {
            for mid in 1_000..4_000i64 {
                db.insert("rating", tuple![mid, mid % 5])?;
            }
            Ok(())
        })
        .unwrap();
    let pinned = engine.session();
    let contents = |db: &Database| -> Vec<Vec<Tuple>> {
        db.relations()
            .map(|r| r.iter().map(|t| t.to_tuple()).collect())
            .collect()
    };
    let (before, epochs) = (contents(pinned.database()), pinned.epochs());
    let golden = pinned.execute("fig1").unwrap();
    assert!(pinned.database().relation("rating").unwrap().chunk_count() > 4);
    let pinned_like = pinned.database().relation("like").unwrap();
    let like_index = pinned_like.keyed_index_if_built(&[1, 2]).unwrap();
    let like_rows = like_index.total_rows();

    // Writes landing in different chunks and shards, removals included.
    let write = |db: &mut Database| {
        for mid in [1_001i64, 2_500, 3_999] {
            db.remove("rating", &tuple![mid, mid % 5])?;
            db.insert("rating", tuple![mid, 9])?;
        }
        db.insert("like", tuple![1, 12, "movie"]).map(drop)
    };
    for (site, kind) in [
        (sites::INDEX_BUILD, FaultKind::Error),
        (sites::INDEX_BUILD, FaultKind::Panic),
        (sites::KEYED_CARRY, FaultKind::Panic),
        (sites::VIEW_MAINTAIN, FaultKind::Error),
    ] {
        faults::inject_times(site, kind, 1);
        assert!(engine.mutate(write).is_err(), "{site} {kind:?}");
        assert!(!faults::is_active(site), "{site} was reached");
        let live = engine.session();
        assert_eq!(live.epochs(), epochs, "{site}: something was published");
        for (a, b) in live
            .database()
            .relations()
            .zip(pinned.database().relations())
        {
            assert!(a.shares_storage(b), "{site}: `{}` was forked", a.name());
        }
        assert_eq!(contents(pinned.database()), before, "{site}");
        assert_eq!(pinned.execute("fig1").unwrap(), golden, "{site}");
    }

    // A carry that degrades (Error) still commits — and still only into the
    // successor: the pinned predecessor keeps every tuple it had.
    {
        let _fp = faults::inject_guard(sites::KEYED_CARRY, FaultKind::Error);
        engine.mutate(write).unwrap();
    }
    let live = engine.session();
    assert_ne!(live.epochs(), epochs);
    assert!(live
        .database()
        .relation("rating")
        .unwrap()
        .contains(&tuple![2_500, 9]));
    assert_eq!(contents(pinned.database()), before);
    assert_eq!(pinned.execute("fig1").unwrap(), golden);
    assert_eq!(pinned.epochs(), epochs, "the pin moved");
    // Nor did any carry, faulted or not, write through to the index the
    // pinned version holds.
    let still = pinned_like.keyed_index_if_built(&[1, 2]).unwrap();
    assert!(std::sync::Arc::ptr_eq(&still, &like_index));
    assert_eq!(
        (still.total_rows(), pinned_like.len()),
        (like_rows, like_rows)
    );
}

// ---------------------------------------------------------------------------
// Serving front: `SERVER_ACCEPT` and `BATCH_FLUSH`
// ---------------------------------------------------------------------------

fn fig1_server() -> bqr::server::Server {
    bqr::server::Server::with_config(
        fig1_engine(),
        bqr::server::ServerConfig {
            workers: 2,
            ..bqr::server::ServerConfig::default()
        },
    )
}

/// An injected accept fault (error or panic) sheds the submission with a
/// typed error before anything queues; the very next request is served
/// normally with the exact answer.
#[test]
fn server_accept_faults_shed_typed_and_recover() {
    use bqr::server::ServerError;

    let _chaos = chaos_lock();
    let server = fig1_server();
    let golden = server.engine().session().execute("fig1").unwrap();

    faults::inject_times(sites::SERVER_ACCEPT, FaultKind::Error, 1);
    let err = server.execute("fig1").unwrap_err();
    assert!(
        matches!(&err, ServerError::Engine(_)) && err.to_string().contains("failpoint"),
        "{err}"
    );

    faults::inject_times(sites::SERVER_ACCEPT, FaultKind::Panic, 1);
    let err = server.execute("fig1").unwrap_err();
    assert!(
        matches!(&err, ServerError::Internal(msg) if msg.contains("server.accept")),
        "{err}"
    );
    assert!(!faults::is_active(sites::SERVER_ACCEPT), "consumed");

    // Both sheds happened before admission; the next request serves exactly.
    assert_eq!(server.execute("fig1").unwrap().output, golden);
    server.drain();
    let stats = server.stats();
    assert_eq!((stats.shed, stats.rejected), (2, 2), "{stats:?}");
    assert_eq!((stats.admitted, stats.completed), (1, 1), "{stats:?}");
}

/// An injected `BATCH_FLUSH` error degrades read batches to serialised
/// per-request execution: every request is still answered exactly once,
/// with its own statement's bit-identical answer — no cross-contamination
/// between coalescing queues.
#[test]
fn batch_flush_errors_serialise_reads_without_changing_answers() {
    let _chaos = chaos_lock();
    let server = fig1_server();
    server.prepare("ranks", "Q(r) :- rating(10, r)").unwrap();
    let goldens = [
        server.engine().session().execute("fig1").unwrap(),
        server.engine().session().execute("ranks").unwrap(),
    ];
    assert_ne!(
        goldens[0], goldens[1],
        "distinct statements, distinct answers"
    );

    {
        let _fp = faults::inject_guard(sites::BATCH_FLUSH, FaultKind::Error);
        std::thread::scope(|scope| {
            for i in 0..8 {
                let server = &server;
                let goldens = &goldens;
                scope.spawn(move || {
                    let pick = i % 2;
                    let name = ["fig1", "ranks"][pick];
                    let response = server.execute(name).unwrap();
                    assert_eq!(
                        response.output, goldens[pick],
                        "serialised fallback changed `{name}`'s answer"
                    );
                    assert_eq!(response.coalesced, 1, "degraded flushes serve per-request");
                });
            }
        });
    }

    // Guard dropped: the coalescing path is back and still exact.
    assert_eq!(server.execute("fig1").unwrap().output, goldens[0]);
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.completed, 9, "every request answered exactly once");
    assert_eq!((stats.rejected, stats.shed), (0, 0), "{stats:?}");
}

/// An injected `BATCH_FLUSH` panic sheds the read batch with typed errors —
/// never a wrong answer — and the next batch serves normally.
#[test]
fn batch_flush_panics_shed_reads_typed() {
    use bqr::server::ServerError;

    let _chaos = chaos_lock();
    let server = fig1_server();
    let golden = server.engine().session().execute("fig1").unwrap();

    faults::inject_times(sites::BATCH_FLUSH, FaultKind::Panic, 1);
    let err = server.execute("fig1").unwrap_err();
    assert!(
        matches!(&err, ServerError::Internal(msg) if msg.contains("batch.flush")),
        "{err}"
    );
    assert!(!faults::is_active(sites::BATCH_FLUSH), "consumed");

    assert_eq!(server.execute("fig1").unwrap().output, golden);
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.shed, 1, "{stats:?}");
    // Both requests were *fulfilled* — one with a typed error — and none
    // was rejected at admission or dropped.
    assert_eq!((stats.completed, stats.rejected), (2, 0), "{stats:?}");
}

/// An injected `BATCH_FLUSH` error degrades a write burst to serialised
/// `Engine::mutate` calls: every closure is applied exactly once (a shared
/// counter proves it), in order, and every effect is visible afterwards.
#[test]
fn batch_flush_errors_serialise_writes_exactly_once() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let _chaos = chaos_lock();
    let server = fig1_server();
    let applied = Arc::new(AtomicUsize::new(0));

    {
        let _fp = faults::inject_guard(sites::BATCH_FLUSH, FaultKind::Error);
        let pendings: Vec<_> = (0..4)
            .map(|i| {
                let applied = Arc::clone(&applied);
                server.submit_mutate(move |db| {
                    applied.fetch_add(1, Ordering::Relaxed);
                    db.insert("rating", tuple![800 + i as i64, 1]).map(drop)
                })
            })
            .collect();
        for pending in pendings {
            pending.wait().unwrap();
        }
    }

    assert_eq!(
        applied.load(Ordering::Relaxed),
        4,
        "each closure ran exactly once"
    );
    let db = server.engine().database();
    let rating = db.relation("rating").unwrap();
    for i in 0..4i64 {
        assert!(rating.contains(&tuple![800 + i, 1]), "write {i} was lost");
    }
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.writes, 4, "{stats:?}");
    assert_eq!((stats.rejected, stats.shed), (0, 0), "{stats:?}");
}

/// An injected `BATCH_FLUSH` panic sheds the write batch with typed errors
/// and applies **nothing** — no partial effects, no duplicates — and the
/// resubmitted write then lands exactly once.
#[test]
fn batch_flush_panics_shed_writes_without_applying() {
    use bqr::server::ServerError;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let _chaos = chaos_lock();
    let server = fig1_server();
    let applied = Arc::new(AtomicUsize::new(0));
    let closure = {
        let applied = Arc::clone(&applied);
        move |db: &mut Database| {
            applied.fetch_add(1, Ordering::Relaxed);
            db.insert("rating", tuple![900, 1]).map(drop)
        }
    };

    faults::inject_times(sites::BATCH_FLUSH, FaultKind::Panic, 1);
    let err = server.mutate(closure.clone()).unwrap_err();
    assert!(
        matches!(&err, ServerError::Internal(msg) if msg.contains("batch.flush")),
        "{err}"
    );
    assert_eq!(
        applied.load(Ordering::Relaxed),
        0,
        "the engine never saw the closure"
    );
    assert!(
        !server
            .engine()
            .database()
            .relation("rating")
            .unwrap()
            .contains(&tuple![900, 1]),
        "a shed write must not be applied"
    );

    // Failpoint consumed: the retry applies exactly once.
    server.mutate(closure).unwrap();
    assert_eq!(applied.load(Ordering::Relaxed), 1);
    assert!(server
        .engine()
        .database()
        .relation("rating")
        .unwrap()
        .contains(&tuple![900, 1]));
    server.drain();
    let stats = server.stats();
    assert_eq!((stats.shed, stats.writes), (1, 1), "{stats:?}");
}

/// A sync `mutate` on an idle server is the only request in flight, so its
/// flush runs on the calling thread — and an injected `BATCH_FLUSH` fault
/// there is contained exactly as on the pool: an error serialises the write
/// and applies it, a panic sheds it with a typed error and applies nothing,
/// and neither unwinds into the caller.  The next `mutate` and `execute`
/// are served, and `drain()` returns.
#[test]
fn batch_flush_faults_in_a_caller_run_write_are_contained() {
    use bqr::server::ServerError;

    let _chaos = chaos_lock();
    let server = fig1_server();
    let insert = |id: i64| move |db: &mut Database| db.insert("rating", tuple![id, 1]).map(drop);
    let rated = |id: i64| {
        server
            .engine()
            .database()
            .relation("rating")
            .unwrap()
            .contains(&tuple![id, 1])
    };

    faults::inject_times(sites::BATCH_FLUSH, FaultKind::Error, 1);
    server.mutate(insert(950)).unwrap();
    assert!(!faults::is_active(sites::BATCH_FLUSH), "consumed");
    assert!(rated(950), "the serialised write was lost");
    assert_eq!(server.stats().caller_flushes, 1);

    faults::inject_times(sites::BATCH_FLUSH, FaultKind::Panic, 1);
    let err = server.mutate(insert(951)).unwrap_err();
    assert!(
        matches!(&err, ServerError::Internal(msg) if msg.contains("batch.flush")),
        "{err}"
    );
    assert!(!rated(951), "a shed write must not be applied");
    assert_eq!(server.stats().caller_flushes, 2);

    server.mutate(insert(952)).unwrap();
    assert!(rated(952));
    let golden = server.engine().session().execute("fig1").unwrap();
    assert_eq!(server.execute("fig1").unwrap().output, golden);
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.caller_flushes, 4, "{stats:?}");
    assert_eq!((stats.shed, stats.writes), (1, 2), "{stats:?}");
    assert_eq!((stats.completed, stats.rejected), (4, 0), "{stats:?}");
}
