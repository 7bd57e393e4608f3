//! How much a one-tuple write *does*, counted, not timed: chunks and shards
//! forked, values interned (a write to a large indexed relation); probes
//! issued and rows visited by view maintenance (a write under a three-way
//! join view).  The counts must be small and must not depend on `|R|` — the
//! same at 10 k and at 100 k tuples, at 2 k and at 20 k persons.  And what
//! deriving read structures from stored rows interns: nothing, because a
//! relation stores the ids its inserts interned.
//!
//! The tests take turns ([`ALONE`]), so nothing else in the process interns
//! values while the pool-size deltas are taken.

use bqr::data::{
    tuple, AccessConstraint, AccessSchema, Database, DatabaseSchema, FetchStats, IndexCache,
    IndexedDatabase, Tuple, Value, ValueId,
};
use bqr::query::maintain::maintain_counting;
use bqr::query::{MaterializedViews, ViewSet};
use bqr::workload::cdr::{self, CdrScale};
use bqr::workload::movies::{self, MovieScale};
use bqr::Engine;
use std::sync::{Mutex, PoisonError};

/// Held by each test for its whole run.
static ALONE: Mutex<()> = Mutex::new(());

/// Calls per `(caller, day)` group: the constraint's bound `N`.
const N: usize = 8;
const ARITY: usize = 4;

/// What one write (and the first fetch after it) cost.
#[derive(Debug, PartialEq)]
struct Work {
    chunks_forked: usize,
    /// Of the one `calls` index: groups and source counts alike.
    shards_forked: usize,
    values_interned: usize,
    fetched: usize,
}

fn calls(tuples: usize) -> IndexedDatabase {
    let schema =
        DatabaseSchema::with_relations(&[("calls", &["caller", "day", "callee", "duration"])])
            .unwrap();
    let mut db = Database::empty(schema);
    for i in 0..(tuples / N) as i64 {
        for j in 0..N as i64 {
            db.insert("calls", tuple![i / 10, i % 10, j, 60 + j])
                .unwrap();
        }
    }
    let access = AccessSchema::new(vec![AccessConstraint::new(
        "calls",
        &["caller", "day"],
        &["callee", "duration"],
        N + 1,
    )
    .unwrap()]);
    IndexedDatabase::build(db, access).unwrap()
}

/// Apply one tracked write, re-index, fetch the written group once.
fn write(prev: &IndexedDatabase, t: &Tuple, insert: bool) -> (IndexedDatabase, Work) {
    let key = [ValueId::intern(&t[0]), ValueId::intern(&t[1])];
    let pool = ValueId::pool_len();
    let mut db = prev.database().clone();
    db.begin_delta_tracking();
    let changed = if insert {
        db.insert("calls", t.clone()).unwrap()
    } else {
        db.remove("calls", t).unwrap()
    };
    assert!(changed);
    let log = db.take_delta(prev.database());
    let next = prev.apply_delta(db, &log).unwrap();
    let index = next.index(0).unwrap();
    let fetched = index.probe(&key).len() / index.arity();

    let (old, new) = (
        prev.database().relation("calls").unwrap(),
        next.database().relation("calls").unwrap(),
    );
    let (old_index, new_index) = (prev.index(0).unwrap(), index);
    let work = Work {
        chunks_forked: new.chunk_count() - new.shared_chunks(old),
        shards_forked: new_index.shard_count() - new_index.shared_shards(old_index),
        values_interned: ValueId::pool_len() - pool,
        fetched,
    };
    (next, work)
}

#[test]
fn a_one_tuple_write_does_the_same_small_work_at_any_size() {
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
    let mut per_size = Vec::new();
    for tuples in [10_000usize, 100_000] {
        let v0 = calls(tuples);
        assert!(v0.database().relation("calls").unwrap().chunk_count() >= tuples / 512);
        // A ninth call in a live group in the middle of the relation, with
        // a callee and a duration no one has seen: then take it out again.
        let middle = (tuples / N / 2) as i64;
        let t = tuple![
            middle / 10,
            middle % 10,
            -(tuples as i64),
            -(tuples as i64) - 1
        ];
        let (v1, inserted) = write(&v0, &t, true);
        let (v2, removed) = write(&v1, &t, false);
        assert_eq!(v2.database(), v0.database());

        for work in [&inserted, &removed] {
            assert!(work.chunks_forked <= 2, "{work:?}");
            assert_eq!(work.shards_forked, 1, "{work:?}");
            assert!(work.values_interned <= N * ARITY, "{work:?}");
        }
        assert_eq!((inserted.fetched, removed.fetched), (N + 1, N));
        assert_eq!(inserted.values_interned, 2, "the two unseen values");
        assert_eq!(removed.values_interned, 0);
        per_size.push((inserted, removed));
    }
    assert_eq!(per_size[0], per_size[1], "work depends on |Δ|, not on |R|");
}

/// What one `like` write under `V1` cost, maintenance included.
#[derive(Debug, PartialEq)]
struct ViewWork {
    probes: usize,
    rows: usize,
    scanned: usize,
    chunks_forked: usize,
    /// Shards of `like` by (`id`, `type`) the write forked; `None` when the
    /// version written to did not hold that index.
    keyed_shards_forked: Option<usize>,
    v1_moved: bool,
}

/// One version of the movies instance: indexed data and extents.
struct Version {
    idb: IndexedDatabase,
    views: MaterializedViews,
}

/// The key V1's re-derivation probes `like` on: `id` and `type`.
const LIKE_BY_ID: [usize; 2] = [1, 2];

/// Apply one tracked `like` write the way `Engine::mutate` does — fork,
/// delta, re-index, maintain — counting maintenance's probes.
fn write_like(views: &ViewSet, prev: &Version, t: &Tuple, insert: bool) -> (Version, ViewWork) {
    let mut db = prev.idb.database().clone();
    db.begin_delta_tracking();
    let changed = match insert {
        true => db.insert("like", t.clone()).unwrap(),
        false => db.remove("like", t).unwrap(),
    };
    assert!(changed);
    let log = db.take_delta(prev.idb.database());
    let idb = prev.idb.apply_delta(db, &log).unwrap();
    let mut stats = FetchStats::new();
    let (old_db, new_db) = (prev.idb.database(), idb.database());
    let maintained = maintain_counting(views, &prev.views, old_db, new_db, &log, &mut stats);
    let next = Version {
        views: maintained.unwrap(),
        idb,
    };

    let (old, new) = (
        old_db.relation("like").unwrap(),
        next.idb.database().relation("like").unwrap(),
    );
    for untouched in ["person", "movie", "rating"] {
        let rel = |v: &Version| v.idb.database().relation(untouched).unwrap().epoch();
        assert_eq!(rel(prev), rel(&next));
    }
    let keyed_shards_forked = old.keyed_index_if_built(&LIKE_BY_ID).map(|was| {
        let carried = new.keyed_index_if_built(&LIKE_BY_ID).expect("carried");
        assert_eq!(carried.total_rows(), new.len());
        carried.shard_count() - carried.shared_shards(&was)
    });
    let extent = |v: &Version| v.views.extent("V1").unwrap().epoch();
    let work = ViewWork {
        probes: stats.fetch_calls,
        rows: stats.fetched_tuples,
        scanned: stats.scanned_tuples,
        chunks_forked: new.chunk_count() - new.shared_chunks(old),
        keyed_shards_forked,
        v1_moved: extent(prev) != extent(&next),
    };
    (next, work)
}

#[test]
fn a_like_write_under_v1_probes_the_same_few_rows_at_any_size() {
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
    let views = movies::views();
    let mut per_size = Vec::new();
    for persons in [2_000usize, 20_000] {
        // `n0` leaves the 24 (studio, release) groups room for every movie.
        let mut db = movies::generate(MovieScale {
            persons,
            movies: persons / 4,
            n0: 250,
            seed: 7,
        });
        // A movie nobody likes yet, and two NASA people to like it.
        let fresh = persons as i64;
        db.insert("movie", tuple![fresh, "fresh", "Universal", "2014"])
            .unwrap();
        let nasa: Vec<Value> = {
            let person = db.relation("person").unwrap();
            let at_nasa = person.iter().filter(|t| t[2] == Value::str("NASA"));
            at_nasa.map(|t| t[0].clone()).take(2).collect()
        };
        let like = |who: usize| Tuple::new(vec![nasa[who].clone(), fresh.into(), "movie".into()]);
        assert!(db.relation("like").unwrap().len() > 2 * persons);
        let v0 = Version {
            views: views.materialize(&db).unwrap(),
            idb: IndexedDatabase::build(db, movies::access_schema(250)).unwrap(),
        };

        // The first removal under V1 builds `like` by `id` (once per
        // relation, like first-touch interning): take that off the counts.
        let (v, first_insert) = write_like(&views, &v0, &like(0), true);
        let (v, first_removal) = write_like(&views, &v, &like(0), false);
        assert_eq!(
            first_insert.keyed_shards_forked, None,
            "nothing to carry yet"
        );
        assert_eq!(
            first_removal.keyed_shards_forked, None,
            "built by this write"
        );
        let held = |v: &Version| {
            let like = v.idb.database().relation("like").unwrap();
            like.keyed_index_if_built(&LIKE_BY_ID).is_some()
        };
        assert!(held(&v) && !held(&v0));

        // The sole derivation of V1(fresh) comes and goes …
        let (v, sole_in) = write_like(&views, &v, &like(0), true);
        let (v, sole_out) = write_like(&views, &v, &like(0), false);
        // … then, with another NASA fan in place, one of two.
        let (v, _) = write_like(&views, &v, &like(1), true);
        let (v, second_in) = write_like(&views, &v, &like(0), true);
        let (v, second_out) = write_like(&views, &v, &like(0), false);
        assert!(v.views.extent("V1").unwrap().contains(&tuple![fresh]));

        for work in [&sole_in, &sole_out, &second_in, &second_out] {
            assert!(work.chunks_forked <= 2, "{work:?}");
            // Carried by the insert, which never probes it, and found
            // carried — not rebuilt — by the removal right after.
            assert!(work.keyed_shards_forked.is_some_and(|n| n <= 1), "{work:?}");
            assert_eq!(work.scanned, 0, "{work:?}");
        }
        // An insert probes `person` by `pid`, then `movie` by `mid`: one row
        // each.  A removal does the same over the old instance, then
        // re-derives: `like` by `id` (nobody left / the other fan), and for
        // the other fan `person` and `movie` again.
        assert_eq!((sole_in.probes, sole_in.rows), (2, 2));
        assert_eq!((sole_out.probes, sole_out.rows), (3, 2));
        assert_eq!((second_in.probes, second_in.rows), (2, 2));
        assert_eq!((second_out.probes, second_out.rows), (5, 5));
        // V1 moves with its sole derivation, and not at all while another
        // NASA person still likes the movie.
        let moved = [&sole_in, &sole_out, &second_in, &second_out].map(|w| w.v1_moved);
        assert_eq!(moved, [true, true, false, false]);
        per_size.push([sole_in, sole_out, second_in, second_out]);
    }
    assert_eq!(per_size[0], per_size[1], "work depends on |Δ|, not on |D|");
}

/// On an instance attached to an engine, nothing derived from the stored
/// rows interns a value: not the constraint indexes
/// (`IndexedDatabase::build`), not a keyed index, not the search's cached
/// indexes — they copy the ids `Relation::insert` interned — and not a write of a tuple
/// whose values the pool already holds, maintenance included.
#[test]
fn derived_structures_and_known_writes_intern_nothing() {
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
    let scale = CdrScale {
        customers: 400,
        days: 7,
        ..CdrScale::default()
    };
    let engine = Engine::builder()
        .setting(cdr::setting(&scale, 20))
        .build()
        .unwrap();
    engine.attach(cdr::generate(scale)).unwrap();
    let pool = ValueId::pool_len();

    let session = engine.session();
    let db = session.database();
    IndexedDatabase::build(db.clone(), cdr::access_schema(&scale)).unwrap();
    assert_eq!(ValueId::pool_len(), pool, "constraint indexes");
    for rel in db.relations() {
        let arity = rel.schema().arity();
        rel.keyed_index(&[arity - 1, 0]).unwrap();
        let searched = IndexCache::new().interned_index_for(rel, &[0]).unwrap();
        assert_eq!(searched.total_rows(), rel.len());
    }
    assert_eq!(ValueId::pool_len(), pool, "keyed and cached indexes");

    // A call of a customer to itself, at a duration some call has: every
    // value is known, the tuple is not.
    let calls = db.relation("calls").unwrap();
    let some = calls.iter().next().unwrap();
    let known = Tuple::new(vec![
        some[0].clone(),
        some[1].clone(),
        some[0].clone(),
        some[3].clone(),
    ]);
    assert!(!calls.contains(&known));
    drop(session);
    assert!(engine
        .mutate(|db| db.insert("calls", known.clone()))
        .unwrap());
    assert!(engine.mutate(|db| db.remove("calls", &known)).unwrap());
    assert_eq!(ValueId::pool_len(), pool, "a write of known values");
}
