//! How much a one-tuple write to a large indexed relation *does*, counted,
//! not timed (ISSUE 13): chunks and shards forked, values interned.  The
//! counts must be small and must not depend on `|R|` — the same at 10 k and
//! at 100 k tuples.
//!
//! One test, so nothing else in the process interns values while the
//! pool-size deltas are taken.

use bqr::data::{
    tuple, AccessConstraint, AccessSchema, Database, DatabaseSchema, FetchStats, IndexedDatabase,
    Tuple, ValueId,
};

/// Calls per `(caller, day)` group: the constraint's bound `N`.
const N: usize = 8;
const ARITY: usize = 4;

/// What one write (and the first id-native fetch after it) cost.
#[derive(Debug, PartialEq)]
struct Work {
    chunks_forked: usize,
    shards_forked: usize,
    id_shards_forked: usize,
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
    let idb = IndexedDatabase::build(db, access).unwrap();
    idb.interned_access_index(0).unwrap(); // the first read's one-time cost
    idb
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
    let mut stats = FetchStats::new();
    next.fetch_ids(0, &key, &mut stats).unwrap();

    let (old, new) = (
        prev.database().relation("calls").unwrap(),
        next.database().relation("calls").unwrap(),
    );
    assert!(!old.has_snapshot() && !new.has_snapshot(), "never scanned");
    let (old_index, new_index) = (prev.index(0).unwrap(), next.index(0).unwrap());
    let work = Work {
        chunks_forked: new.chunk_count() - new.shared_chunks(old),
        shards_forked: new_index.shard_count() - new_index.shared_shards(old_index),
        id_shards_forked: new_index.interned().shard_count()
            - new_index.interned().shared_shards(old_index.interned()),
        values_interned: ValueId::pool_len() - pool,
        fetched: stats.fetched_tuples,
    };
    (next, work)
}

#[test]
fn a_one_tuple_write_does_the_same_small_work_at_any_size() {
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
            assert!(work.shards_forked <= 1, "{work:?}");
            assert!(work.id_shards_forked <= 1, "{work:?}");
            assert!(work.values_interned <= N * ARITY, "{work:?}");
        }
        assert_eq!((inserted.fetched, removed.fetched), (N + 1, N));
        assert_eq!(inserted.values_interned, 2, "the two unseen values");
        assert_eq!(removed.values_interned, 0);
        per_size.push((inserted, removed));
    }
    assert_eq!(per_size[0], per_size[1], "work depends on |Δ|, not on |R|");
}
