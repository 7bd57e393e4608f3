//! Differential harness for the structurally shared storage, the one index
//! per access constraint and the id-native rows both are built from.
//!
//! A relation spanning several storage chunks, indexed by constraints whose
//! groups span many shards, is driven through random write sequences —
//! inserts, removals of live and of absent tuples, do-undo pairs, whole-group
//! removals, second sources of live projections and their removal,
//! multi-relation closures.  After every write the successor version built
//! by `IndexedDatabase::apply_delta` must read **bit for bit** like an
//! `IndexedDatabase::build` over freshly stored copies of the same contents:
//! iteration order, every index (groups, their order, source counts and
//! statistics), every `fetch` answer and every `probe` of its index, with
//! their `FetchStats`, and every keyed index the written relations carried
//! along.  And the predecessor version must still read exactly as it did
//! before the write: copy-on-write may share, never leak.  Keyed indexes
//! are also grown from an empty and a one-tuple relation and shrunk back,
//! one write at a time: the path where an index allocates the shards its
//! keys land in and gives back the ones it empties.
//!
//! Patched and rebuilt indexes come from the same builder, so both are also
//! held to the test's own model: every probe is `D_{R:XY}(X = ā)` computed
//! from the model's tuples, and the source counts are the model's.
//!
//! The storage itself is held to the model too, after every write: a
//! relation iterates exactly the model's tuples, in the model's (value)
//! order; every sorted-prefix range and every `select_eq` reads like a
//! filter over the model; and looking for a value the pool never saw finds
//! nothing and mints nothing.  The sorted-prefix ranges view maintenance probes are also
//! held to a filter over the whole relation at every chunk edge.
//!
//! Relations store interned ids but order rows by value.  So that the two
//! orders disagree here — otherwise a storage sorted by id would pass — the
//! binary mints every value it uses before anything else runs ([`minted`]),
//! integers in descending order and strings shuffled.

use bqr::data::{
    tuple, AccessConstraint, AccessSchema, Database, DatabaseSchema, FetchStats, IndexedDatabase,
    InternedAccessIndex, Relation, Tuple, TupleRef, Value, ValueId,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// `fact` keys: 650 of them, four tuples each — five or more chunks, and
/// groups in most of the 256 shards.
const KEYS: i64 = 650;
const DAYS: i64 = 40;

fn schema() -> DatabaseSchema {
    DatabaseSchema::with_relations(&[("fact", &["k", "d", "v"]), ("dim", &["k", "name"])]).unwrap()
}

fn access() -> AccessSchema {
    AccessSchema::new(vec![
        AccessConstraint::new("fact", &["k"], &["d", "v"], 64).unwrap(),
        // Projects `v` away and lists `d` before `k`: several source tuples
        // per group entry, and a group order that is not the relation's.
        AccessConstraint::new("fact", &["d"], &["k"], 1000).unwrap(),
        AccessConstraint::new("dim", &["k"], &["name"], 4).unwrap(),
    ])
}

/// Mint every value this binary stores or probes, once and before anything
/// else interns one, in an order that is not value order: integers
/// descending, the `dim` names shuffled.  Each test calls this first; no
/// value is minted after it returns, so the pool's size holds still.
fn minted() {
    static MINTED: OnceLock<()> = OnceLock::new();
    MINTED.get_or_init(|| {
        for v in (-5..2_000i64).rev() {
            ValueId::intern(&Value::int(v));
        }
        for k in 0..70 {
            ValueId::intern(&Value::str(format!("n{}", (k * 37) % 70)));
        }
        // Values in value order, by id: neither run may be ascending.
        let ids = |values: BTreeSet<Value>| -> Vec<ValueId> {
            values.iter().map(|v| ValueId::lookup(v).unwrap()).collect()
        };
        let ints = ids((0..10).map(Value::int).collect());
        let names = ids((0..70).map(|k| Value::str(format!("n{k}"))).collect());
        assert!(
            !ints.is_sorted() && !names.is_sorted(),
            "id order is not value order"
        );
    });
}

/// The contents of a version, kept outside the storage under test.
type Model = BTreeMap<&'static str, BTreeSet<Tuple>>;

fn base_model() -> Model {
    let mut model = Model::new();
    let fact = model.entry("fact").or_default();
    for k in 0..KEYS {
        for j in 0..4 {
            fact.insert(tuple![k, (k + 7 * j) % DAYS, j]);
        }
    }
    let dim = model.entry("dim").or_default();
    for k in 0..60 {
        dim.insert(tuple![k, format!("n{k}")]);
    }
    model
}

/// A database over storage of its own: every tuple inserted afresh.
fn store(model: &Model) -> Database {
    let mut db = Database::empty(schema());
    for (name, tuples) in model {
        let rel = schema().relation(name).unwrap().clone();
        *db.relation_mut(name).unwrap() =
            Relation::from_tuples(rel, tuples.iter().cloned()).unwrap();
    }
    db
}

fn base() -> &'static (Model, IndexedDatabase) {
    static BASE: OnceLock<(Model, IndexedDatabase)> = OnceLock::new();
    minted();
    BASE.get_or_init(|| {
        let model = base_model();
        let idb = IndexedDatabase::build(store(&model), access()).unwrap();
        assert!(idb.database().relation("fact").unwrap().chunk_count() >= 4);
        check_against_model(&idb, &model);
        check_storage(idb.database(), &model);
        (model, idb)
    })
}

/// Everything a reader can see of one constraint index.
#[derive(Debug, PartialEq)]
struct IndexView {
    index: InternedAccessIndex,
    /// Distinct keys, rows.
    counters: (usize, usize),
    /// Every probed key through `fetch`, and through the index's `probe`
    /// one key at a time, as the executor's fetches and view probes call it.
    values: (Vec<Vec<Tuple>>, FetchStats),
    scalar: (Vec<ValueId>, FetchStats),
}

#[derive(Debug, PartialEq)]
struct Observation {
    relations: Vec<Vec<Tuple>>,
    indexes: Vec<IndexView>,
}

/// The keys probed on the `idx`-th index: every key any version can hold,
/// and some none does.
fn probe_keys(idx: usize) -> Vec<Vec<Value>> {
    let range = [0..KEYS + 30, 0..DAYS + 5, 0..70][idx].clone();
    range.map(|k| vec![Value::int(k)]).collect()
}

fn observe(idb: &IndexedDatabase) -> Observation {
    let relations = idb
        .database()
        .relations()
        .map(|r| r.iter().map(TupleRef::to_tuple).collect())
        .collect();
    let indexes = (0..3)
        .map(|i| {
            let index = idb.index(i).unwrap();
            let mut values = (Vec::new(), FetchStats::new());
            for key in probe_keys(i) {
                values.0.push(idb.fetch(i, &key, &mut values.1).unwrap());
            }
            let keys: Vec<ValueId> = probe_keys(i)
                .iter()
                .map(|k| ValueId::intern(&k[0]))
                .collect();
            let mut scalar = (Vec::new(), FetchStats::new());
            for key in &keys {
                let rows = index.probe(&[*key]);
                scalar.1.record_fetch(rows.len() / index.arity());
                scalar.0.extend_from_slice(rows);
            }
            IndexView {
                index: index.clone(),
                counters: (index.distinct_keys(), index.total_rows()),
                values,
                scalar,
            }
        })
        .collect();
    Observation { relations, indexes }
}

/// Every constraint index of `idb` against `model`, not against another
/// index: the probe of every key is `D_{R:XY}(X = ā)` — the model's tuples
/// matching `ā`, projected on `X ∪ Y`, deduplicated, in ascending id order —
/// a key with a never-stored last id probes nothing, the index holds no
/// other key, and its source counts are the model's counts above one.
fn check_against_model(idb: &IndexedDatabase, model: &Model) {
    let ghost = ValueId::lookup(&Value::int(-1)).unwrap();
    for (i, c) in idb.access_schema().constraints().enumerate() {
        let schema = schema();
        let xy = schema
            .relation(c.relation())
            .unwrap()
            .positions(&c.xy())
            .unwrap();
        let mut sources: BTreeMap<Vec<ValueId>, usize> = BTreeMap::new();
        for t in &model[c.relation()] {
            let row = xy.iter().map(|&p| ValueId::intern(&t[p])).collect();
            *sources.entry(row).or_default() += 1;
        }
        let mut groups: BTreeMap<&[ValueId], Vec<ValueId>> = BTreeMap::new();
        for row in sources.keys() {
            groups.entry(&row[..c.x().len()]).or_default().extend(row);
        }
        let index = idb.index(i).unwrap();
        for (key, expected) in &groups {
            assert_eq!(index.probe(key), &expected[..], "index {i}, key {key:?}");
            if let Some((_, rest)) = key.split_last() {
                let absent = [rest, &[ghost]].concat();
                assert!(index.probe(&absent).is_empty(), "index {i}, {absent:?}");
            }
        }
        assert_eq!(index.distinct_keys(), groups.len(), "index {i}");
        assert_eq!(index.total_rows(), sources.len(), "index {i}");
        let counted: BTreeMap<Vec<ValueId>, usize> = index
            .multiplicities()
            .map(|(row, n)| (row.to_vec(), n))
            .collect();
        sources.retain(|_, n| *n > 1);
        assert_eq!(counted, sources, "source counts of index {i}");
    }
}

/// The tuples of `model` whose fields at `positions` are `key`.
fn filter<'m>(model: &'m BTreeSet<Tuple>, positions: &[usize], key: &[Value]) -> Vec<&'m Tuple> {
    let fits = |t: &&Tuple| positions.iter().zip(key).all(|(&p, v)| t[p] == *v);
    model.iter().filter(fits).collect()
}

/// Every relation of `db` read through its storage against `model`: the
/// tuples, in order; sorted-prefix ranges of every length (and one too
/// long) and `select_eq` on a non-leading and on two out-of-order
/// positions, each against a filter of the model; and membership of a value
/// the pool never saw, which must mint nothing.
fn check_storage(db: &Database, model: &Model) {
    for rel in db.relations() {
        let model = &model[rel.name()];
        assert_eq!(rel.len(), model.len(), "{}", rel.name());
        let stored = rel.iter().map(TupleRef::to_tuple);
        assert!(stored.eq(model.iter().cloned()), "{} in order", rel.name());

        // Prefixes: every live first field (and some dead ones), every live
        // (first, second), every tuple whole, one field too many.
        let mut prefixes: Vec<Vec<Value>> = vec![vec![]];
        for t in model.iter().step_by(5) {
            let fields = t.values();
            prefixes.extend((1..=fields.len() + 1).map(|n| {
                let mut prefix = fields[..n.min(fields.len())].to_vec();
                prefix.resize(n, Value::int(0));
                prefix
            }));
        }
        prefixes.extend((KEYS..KEYS + 5).map(|k| vec![Value::int(k)]));
        for prefix in &prefixes {
            let ids: Vec<ValueId> = prefix.iter().map(|v| ValueId::lookup(v).unwrap()).collect();
            let ranged: Vec<Tuple> = rel.prefix_range(&ids).map(TupleRef::to_tuple).collect();
            let positions: Vec<usize> = (0..prefix.len()).collect();
            let expected = match prefix.len() <= rel.schema().arity() {
                true => filter(model, &positions, prefix),
                false => Vec::new(),
            };
            assert!(ranged.iter().eq(expected), "{} from {prefix:?}", rel.name());
        }

        let days = (0..DAYS + 2)
            .step_by(3)
            .map(|d| (vec![1], vec![Value::int(d)]));
        let names = (0..5).map(|k| (vec![1], vec![Value::str(format!("n{k}"))]));
        let facts = (0..KEYS).step_by(50);
        let facts = facts.map(|k| (vec![1, 0], vec![Value::int(k % DAYS), Value::int(k)]));
        for (positions, key) in days.chain(names).chain(facts) {
            let selected = rel.select_eq(&positions, &key);
            let expected = filter(model, &positions, &key);
            assert!(
                selected.iter().eq(expected),
                "{} where {positions:?} = {key:?}",
                rel.name()
            );
        }

        let pool = ValueId::pool_len();
        let ghost = Value::str("a value no test of this binary interns");
        let probe = Tuple::new(vec![ghost.clone(); rel.schema().arity()]);
        assert!(!rel.contains(&probe), "{}", rel.name());
        assert!(rel.select_eq(&[0], std::slice::from_ref(&ghost)).is_empty());
        assert_eq!(ValueId::lookup(&ghost), None, "looking is not minting");
        assert_eq!(ValueId::pool_len(), pool, "nothing was interned");
    }
}

/// The keyed indexes this test asks for: by one position, by a trailing
/// position before a leading one, and on the small relation.
const KEYED: [(&str, &[usize]); 3] = [("fact", &[1]), ("fact", &[2, 0]), ("dim", &[1])];

/// Wherever `idb` holds one of [`KEYED`], it equals the index built from
/// scratch over `fresh`, a separately stored copy of the same contents.
/// Returns which ones it holds.
fn check_keyed(idb: &IndexedDatabase, fresh: &Database) -> Vec<bool> {
    let held = |(name, positions): &(&str, &[usize])| {
        let rel = idb.database().relation(name).unwrap();
        let Some(carried) = rel.keyed_index_if_built(positions) else {
            return false;
        };
        let rebuilt = fresh
            .relation(name)
            .unwrap()
            .keyed_index(positions)
            .unwrap();
        assert_eq!(*carried, *rebuilt, "{name} by {positions:?}");
        assert_eq!(carried.total_rows(), rel.len());
        true
    };
    KEYED.iter().map(held).collect()
}

/// One generated write: `(kind, a, b, c)`, decoded against the live model.
type Op = (u32, i64, i64, i64);

fn apply(op: Op, db: &mut Database, model: &mut Model) {
    let (kind, a, b, c) = op;
    let insert = |db: &mut Database, model: &mut Model, rel: &'static str, t: Tuple| {
        let fresh = db.insert(rel, t.clone()).unwrap();
        assert_eq!(fresh, model.get_mut(rel).unwrap().insert(t));
    };
    let remove = |db: &mut Database, model: &mut Model, rel: &'static str, t: &Tuple| {
        let present = db.remove(rel, t).unwrap();
        assert_eq!(present, model.get_mut(rel).unwrap().remove(t));
    };
    let nth_live = |model: &Model, rel: &str, rank: i64| {
        let live = &model[rel];
        live.iter().nth(rank as usize % live.len().max(1)).cloned()
    };
    match kind {
        // A random fact: new key, new entry of a live group, or a duplicate.
        0 | 1 => insert(db, model, "fact", tuple![a % (KEYS + 20), b % DAYS, c % 5]),
        // A live fact, by rank.
        2 | 3 => {
            if let Some(t) = nth_live(model, "fact", a) {
                remove(db, model, "fact", &t);
            }
        }
        // A fact that is (almost surely) absent.
        4 => remove(db, model, "fact", &tuple![a, b + DAYS, c]),
        // Do and undo.
        5 => {
            let t = tuple![a % KEYS, DAYS + 1, 99];
            insert(db, model, "fact", t.clone());
            remove(db, model, "fact", &t);
        }
        // A whole group: its last entry goes, and the key with it.
        6 => {
            let key = Value::int(a % KEYS);
            let group: Vec<Tuple> = model["fact"]
                .iter()
                .filter(|t| t[0] == key)
                .cloned()
                .collect();
            for t in &group {
                remove(db, model, "fact", t);
            }
        }
        // Another source of a live `(d, k)` projection: the same `k` and
        // `d`, a `v` no base fact has.
        7 => {
            if let Some(t) = nth_live(model, "fact", a) {
                insert(
                    db,
                    model,
                    "fact",
                    tuple![t[0].clone(), t[1].clone(), 5 + c % 3],
                );
            }
        }
        // One source of a projection that has several: the row must stay
        // until its last source goes.
        8 => {
            let mut by_projection: BTreeMap<(Value, Value), Vec<Tuple>> = BTreeMap::new();
            for t in &model["fact"] {
                let projection = (t[0].clone(), t[1].clone());
                by_projection.entry(projection).or_default().push(t.clone());
            }
            let shared: Vec<Vec<Tuple>> = by_projection
                .into_values()
                .filter(|sources| sources.len() > 1)
                .collect();
            if !shared.is_empty() {
                let sources = &shared[a as usize % shared.len()];
                remove(db, model, "fact", &sources[c as usize % sources.len()]);
            }
        }
        // Both relations in one closure.
        _ => {
            insert(db, model, "dim", tuple![a % 70, format!("n{}", b % 3)]);
            insert(db, model, "fact", tuple![a % KEYS, b % DAYS, 7]);
            if let Some(t) = nth_live(model, "dim", c) {
                remove(db, model, "dim", &t);
            }
        }
    }
}

fn steps() -> impl Strategy<Value = Vec<(Vec<Op>, bool)>> {
    let op = (0u32..10, 0i64..100_000, 0i64..1_000, 0i64..1_000);
    let step = (prop::collection::vec(op, 1..5), 0u32..2);
    prop::collection::vec(step, 1..6)
        .prop_map(|steps| steps.into_iter().map(|(ops, w)| (ops, w == 1)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn successors_read_like_the_model_and_rebuilds_and_predecessors_like_before(
        script in steps()
    ) {
        let (model, idb) = base();
        let (mut model, mut current) = (model.clone(), idb.clone());
        let mut expected = observe(&IndexedDatabase::build(store(&model), access()).unwrap());
        let mut expected_db = store(&model);
        for (ops, touch) in script {
            let keyed_before = check_keyed(&current, &store(&model));

            let mut next = current.database().clone();
            next.begin_delta_tracking();
            for op in ops {
                apply(op, &mut next, &mut model);
            }
            let log = next.take_delta(current.database());
            let successor = current.apply_delta(next, &log).unwrap();
            check_against_model(&successor, &model);
            check_storage(successor.database(), &model);

            let oracle = IndexedDatabase::build(store(&model), access()).unwrap();
            // Keyed indexes are carried by every write: exactly the ones the
            // predecessor held, each equal to a from-scratch build.
            prop_assert_eq!(&check_keyed(&successor, oracle.database()), &keyed_before);
            let oracle_view = observe(&oracle);
            prop_assert_eq!(&observe(&successor), &oracle_view);
            prop_assert_eq!(successor.database(), oracle.database());
            if touch {
                // Key them too, so the next write has some to carry.
                for (name, positions) in KEYED {
                    let rel = successor.database().relation(name).unwrap();
                    rel.keyed_index(positions).unwrap();
                }
            }

            // The predecessor still reads as it did before the write, over
            // shards it shares with the successor.
            prop_assert_eq!(&observe(&current), &expected);
            check_keyed(&current, &expected_db);

            expected = oracle_view;
            expected_db = oracle.database().clone();
            current = successor;
        }
    }
}

/// The keys [`keyed_indexes_grown_from_nothing_read_like_rebuilds`] asks
/// for, on the `fact` schema.
const SMALL_KEYED: [&[usize]; 3] = [&[0], &[1], &[2, 0]];

/// Every index of `keyed` that `rel` carries against a rebuild over a
/// freshly stored copy of `model`, and against `model` itself: each key's
/// group is its tuples, whole, in ascending id order, and no other key is
/// held.
fn check_small_keyed(rel: &Relation, model: &BTreeSet<Tuple>, keyed: &[&[usize]]) {
    let fresh = Relation::from_tuples(rel.schema().clone(), model.iter().cloned()).unwrap();
    for &positions in keyed {
        let carried = rel.keyed_index_if_built(positions).expect("carried");
        assert_eq!(
            *carried,
            *fresh.keyed_index(positions).unwrap(),
            "by {positions:?}"
        );
        let mut groups: BTreeMap<Vec<ValueId>, BTreeSet<Vec<ValueId>>> = BTreeMap::new();
        for t in model {
            let row: Vec<ValueId> = t
                .values()
                .iter()
                .map(|v| ValueId::lookup(v).unwrap())
                .collect();
            let key = positions.iter().map(|&p| row[p]).collect();
            groups.entry(key).or_default().insert(row);
        }
        for (key, rows) in &groups {
            let expected: Vec<ValueId> = rows.iter().flatten().copied().collect();
            assert_eq!(carried.probe(key), expected, "by {positions:?} at {key:?}");
        }
        assert_eq!(carried.distinct_keys(), groups.len(), "by {positions:?}");
        assert_eq!(carried.total_rows(), model.len(), "by {positions:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Keyed indexes built on a relation with no tuples and on one with a
    /// single tuple, then carried through inserts and removals of one tuple
    /// each — over few keys, so most writes allocate a shard or give one
    /// back — equal a rebuild and the model after every write, and each
    /// write forks at most two shards of each.
    #[test]
    fn keyed_indexes_grown_from_nothing_read_like_rebuilds(
        writes in prop::collection::vec((0u32..2, 0i64..8, 0i64..3, 0i64..3), 1..40)
    ) {
        minted();
        let schema = schema().relation("fact").unwrap().clone();
        let one = tuple![0, 0, 0];
        let mut small = [
            (Relation::empty(schema.clone()), BTreeSet::new()),
            (Relation::from_tuples(schema, [one.clone()]).unwrap(), BTreeSet::from([one])),
        ];
        for (rel, model) in &small {
            SMALL_KEYED.iter().for_each(|positions| drop(rel.keyed_index(positions).unwrap()));
            check_small_keyed(rel, model, &SMALL_KEYED);
        }
        for (kind, k, d, v) in writes {
            for (rel, model) in &mut small {
                let before: Vec<_> = SMALL_KEYED
                    .iter()
                    .map(|positions| rel.keyed_index_if_built(positions).expect("carried"))
                    .collect();
                let live = model.iter().nth(k as usize % model.len().max(1)).cloned();
                match (kind, live) {
                    (0, _) | (_, None) => {
                        let t = tuple![k, d, v];
                        prop_assert_eq!(rel.insert(t.clone()).unwrap(), model.insert(t));
                    }
                    (_, Some(t)) => {
                        prop_assert!(rel.remove(&t).unwrap() && model.remove(&t));
                    }
                }
                check_small_keyed(rel, model, &SMALL_KEYED);
                for (positions, was) in SMALL_KEYED.iter().zip(&before) {
                    let now = rel.keyed_index_if_built(positions).expect("carried");
                    prop_assert!(now.shared_shards(was) >= now.shard_count() - 2);
                }
            }
        }
    }
}

/// Constraints whose layouts a flat shard can get wrong: `X = ∅`, whose one
/// key is empty and whose `v` projections collide — source counts move on
/// almost every write — and a key listed out of column order.
fn edge_access() -> AccessSchema {
    AccessSchema::new(vec![
        AccessConstraint::new("fact", &[], &["v"], 1_000).unwrap(),
        AccessConstraint::new("fact", &["v", "k"], &["d"], 64).unwrap(),
    ])
}

/// Keyed indexes of the same kinds: out of column order, a key that covers
/// the whole row, and the empty key.
const EDGE_KEYED: [&[usize]; 3] = [&[2, 0], &[0, 1, 2], &[]];

/// Where the keys of the indexes [`empty_shard_ends`] can empty sit in
/// `fact`: the `(v, k)` constraint's, then the first two of [`EDGE_KEYED`].
const EDGE_KEY_POSITIONS: [&[usize]; 3] = [&[2, 0], &[2, 0], &[0, 1, 2]];

/// 300 keys with six facts each, two per `(v, k)` group, indexed by
/// [`edge_access`] and keyed on [`EDGE_KEYED`].
fn edge_base() -> &'static (Model, IndexedDatabase) {
    static BASE: OnceLock<(Model, IndexedDatabase)> = OnceLock::new();
    minted();
    BASE.get_or_init(|| {
        let mut model = Model::new();
        let fact = model.entry("fact").or_default();
        for k in 0..300 {
            for j in 0..6 {
                fact.insert(tuple![k, (3 * k + j) % DAYS, j % 3]);
            }
        }
        model.entry("dim").or_default().insert(tuple![0, "n0"]);
        let idb = IndexedDatabase::build(store(&model), edge_access()).unwrap();
        let fact = idb.database().relation("fact").unwrap();
        EDGE_KEYED
            .iter()
            .for_each(|p| drop(fact.keyed_index(p).unwrap()));
        (model, idb)
    })
}

/// The index `which` names in `idb` ([`EDGE_KEY_POSITIONS`]).
fn edge_index(idb: &IndexedDatabase, which: usize) -> Arc<InternedAccessIndex> {
    let fact = idb.database().relation("fact").unwrap();
    match which {
        0 => Arc::new(idb.index(1).unwrap().clone()),
        _ => fact.keyed_index_if_built(EDGE_KEYED[which - 1]).unwrap(),
    }
}

/// Take out of `db` every fact under the first and under the last key of
/// the first shard from `start` on that holds two keys or more, in `idb`'s
/// index `which`: both groups leave, one at each end of the shard's
/// arrays.  Returns the two keys.
fn empty_shard_ends(
    idb: &IndexedDatabase,
    which: usize,
    start: usize,
    db: &mut Database,
    model: &mut Model,
) -> [Vec<ValueId>; 2] {
    let index = edge_index(idb, which);
    let shards = index.shard_count();
    let keys = (0..shards)
        .map(|i| index.shard_keys((start + i) % shards).collect::<Vec<_>>())
        .find(|keys| keys.len() >= 2)
        .expect("some shard holds two keys");
    let ends = [keys[0].to_vec(), keys[keys.len() - 1].to_vec()];
    let positions = EDGE_KEY_POSITIONS[which];
    let under = |t: &Tuple, key: &[ValueId]| {
        let ids = positions.iter().map(|&p| ValueId::lookup(&t[p]).unwrap());
        ids.eq(key.iter().copied())
    };
    for key in &ends {
        let group: Vec<Tuple> = model["fact"]
            .iter()
            .filter(|t| under(t, key))
            .cloned()
            .collect();
        assert!(!group.is_empty(), "an indexed key has facts");
        for t in &group {
            assert!(db.remove("fact", t).unwrap());
            model.get_mut("fact").unwrap().remove(t);
        }
    }
    ends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The layouts a flat shard can get wrong — `X = ∅`, keys out of column
    /// order, a key that covers the whole row, colliding projections of a
    /// non-covering `X ∪ Y` — carried through random writes and through
    /// writes that empty the first and the last group of a shard: after
    /// every write each index the version carries equals one built from a
    /// fresh copy of its rows, and every probe reads like the model.
    #[test]
    fn edge_layouts_read_like_the_model_and_rebuilds(
        script in prop::collection::vec(
            ((0u32..10, 0i64..100_000, 0i64..1_000, 0i64..1_000), 0usize..4, 0usize..256),
            1..8,
        )
    ) {
        let (model, idb) = edge_base();
        let (mut model, mut current) = (model.clone(), idb.clone());
        for (op, which, start) in script {
            let mut next = current.database().clone();
            next.begin_delta_tracking();
            let emptied = match which {
                0 => {
                    apply(op, &mut next, &mut model);
                    None
                }
                _ => Some(empty_shard_ends(&current, which - 1, start, &mut next, &mut model)),
            };
            let log = next.take_delta(current.database());
            let successor = current.apply_delta(next, &log).unwrap();
            check_against_model(&successor, &model);
            let oracle = IndexedDatabase::build(store(&model), edge_access()).unwrap();
            for i in 0..2 {
                prop_assert_eq!(successor.index(i).unwrap(), oracle.index(i).unwrap());
            }
            let fact = successor.database().relation("fact").unwrap();
            check_small_keyed(fact, &model["fact"], &EDGE_KEYED);
            for key in emptied.iter().flatten() {
                let index = edge_index(&successor, which - 1);
                prop_assert!(index.probe(key).is_empty(), "{:?} left", key);
            }
            current = successor;
        }
    }
}

/// `Relation::prefix_range` reads like a filter over the whole relation, for
/// every prefix length and wherever the run falls against the chunk edges.
#[test]
fn prefix_ranges_read_like_filters_at_every_chunk_edge() {
    minted();
    let schema = DatabaseSchema::with_relations(&[("r", &["a", "b"])]).unwrap();
    let rel = schema.relation("r").unwrap().clone();
    // Even keys only (odd ones are absent), `1 + a % 7` tuples each, then
    // one run long enough to cover whole chunks.  A sorted load fills every
    // chunk to 512 tuples, so chunk `i` starts at offset `512 · i`.
    let sizes = |a: i64| if a == 1_398 { 1_300 } else { 1 + a % 7 };
    let keys = (0..700).map(|a| 2 * a);
    let tuples = keys.flat_map(|a| (0..sizes(a)).map(move |b| tuple![a, b]));
    let r = Relation::from_tuples(rel.clone(), tuples).unwrap();
    assert_eq!(r.chunk_count(), r.len().div_ceil(512));

    let ids = |prefix: &[Value]| -> Vec<ValueId> {
        prefix.iter().map(|v| ValueId::lookup(v).unwrap()).collect()
    };
    let starts_with = |t: &TupleRef, prefix: &[Value]| t.to_tuple().values().starts_with(prefix);
    let filtered = |prefix: &[Value]| -> Vec<TupleRef> {
        r.iter().filter(|t| starts_with(t, prefix)).collect()
    };
    let ranged = |prefix: &[Value]| r.prefix_range(&ids(prefix)).collect::<Vec<_>>();
    // Which edge cases the data actually walks.
    let (mut at_head, mut straddling, mut covering, mut offset) = (0, 0, 0, 0usize);
    for a in -2..1_402i64 {
        let prefix = [Value::int(a)];
        let run = ranged(&prefix);
        assert_eq!(run, filtered(&prefix), "a = {a}");
        if run.is_empty() {
            assert!(a < 0 || a % 2 == 1 || a > 1_398, "absent keys only");
            continue;
        }
        let (first, last) = (offset / 512, (offset + run.len() - 1) / 512);
        at_head += usize::from(offset % 512 == 0);
        straddling += usize::from(last == first + 1);
        covering += usize::from(last > first + 1);
        offset += run.len();
        // `k` = arity: a membership test, present and absent.
        let present = [Value::int(a), Value::int(0)];
        assert_eq!(ranged(&present), [tuple![a, 0]]);
        assert!(ranged(&[Value::int(a), Value::int(-1)]).is_empty());
    }
    assert_eq!(offset, r.len(), "every tuple is in exactly one run");
    assert!(at_head > 1, "runs starting at a chunk head: {at_head}");
    assert!(straddling > 1 && covering == 1, "{straddling} {covering}");
    // The first and the last chunk, the empty prefix, a prefix too long.
    assert_eq!(ranged(&[Value::int(0)]), [tuple![0, 0]]);
    assert_eq!(ranged(&[Value::int(1_398)]).len(), 1_300);
    assert!(ranged(&[]).into_iter().eq(r.iter()));
    assert!(ranged(&[Value::int(0), Value::int(0), Value::int(0)]).is_empty());
    // Chunks that writes have split and merged.
    let mut written = r.clone();
    for a in (0..1_400).step_by(3) {
        written.remove(&tuple![a, 0]).unwrap();
        written.insert(tuple![a + 1, 0]).unwrap();
    }
    for a in -2..1_402i64 {
        let prefix = [Value::int(a)];
        let filtered: Vec<TupleRef> = written.iter().filter(|t| starts_with(t, &prefix)).collect();
        let ranged: Vec<TupleRef> = written.prefix_range(&ids(&prefix)).collect();
        assert_eq!(ranged, filtered);
    }
    // The empty relation.
    let empty = Relation::empty(rel);
    assert_eq!(empty.prefix_range(&ids(&[Value::int(0)])).count(), 0);
    assert_eq!(empty.prefix_range(&[]).count(), 0);
}
