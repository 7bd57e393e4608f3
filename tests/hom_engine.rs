//! Engine-equivalence property tests: the slot-based homomorphism engine
//! (`bqr_query::hom`) must return exactly the answer sets of the retained
//! pre-refactor reference engine (`bqr_query::hom::reference`) on randomized
//! conjunctive queries and instances, and the cached-index path must stay
//! coherent under relation mutation.

use bqr_data::{Database, DatabaseSchema, IndexCache, Relation, Value, ValueId};
use bqr_query::eval::{eval_cq, Evaluator};
use bqr_query::hom::{
    enumerate_homomorphisms_cached, has_homomorphism_cached, reference, Assignment, MatchLimit,
};
use bqr_query::{Atom, ConjunctiveQuery, Term};
use bqr_workload::random::{generate_queries, RandomQueryConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

fn small_schema() -> DatabaseSchema {
    DatabaseSchema::with_relations(&[("r", &["a", "b"]), ("s", &["a", "b", "c"]), ("t", &["a"])])
        .unwrap()
}

/// A deterministic random instance over `small_schema`.
fn random_db(seed: u64, tuples_per_relation: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::empty(small_schema());
    for _ in 0..tuples_per_relation {
        let a = rng.gen_range(0..5i64);
        let b = rng.gen_range(0..4i64);
        let c = rng.gen_range(0..3i64);
        db.insert("r", bqr_data::tuple![a, b]).unwrap();
        db.insert("s", bqr_data::tuple![b, c, a]).unwrap();
        db.insert("t", bqr_data::tuple![c]).unwrap();
    }
    db
}

/// Random CQs over the schema, via the workload generator.
fn random_queries(seed: u64, atoms: usize, count: usize) -> Vec<ConjunctiveQuery> {
    generate_queries(
        &small_schema(),
        &RandomQueryConfig {
            atoms,
            constant_probability: 0.35,
            constants: (0..5).map(Value::int).collect(),
            head_variables: 2,
            seed,
        },
        count,
    )
}

fn relation_map(db: &Database) -> BTreeMap<String, &Relation> {
    db.relations().map(|r| (r.name().to_string(), r)).collect()
}

/// `small_schema` plus a relation no tuple is ever inserted into and a
/// nullary one, which holds the empty tuple iff `unit_holds`.
fn empty_and_nullary_db(seed: u64, unit_holds: bool) -> Database {
    let schema = DatabaseSchema::with_relations(&[
        ("r", &["a", "b"]),
        ("s", &["a", "b", "c"]),
        ("t", &["a"]),
        ("e", &["a", "b"]),
        ("u", &[]),
    ])
    .unwrap();
    let mut db = Database::empty(schema);
    for rel in ["r", "s", "t"] {
        *db.relation_mut(rel).unwrap() = random_db(seed, 10).relation(rel).unwrap().clone();
    }
    if unit_holds {
        db.insert("u", bqr_data::Tuple::unit()).unwrap();
    }
    db
}

/// Both engines' answer sets of `atoms` over `rels`, from no initial
/// assignment, the slot engine's through `cache`.
fn both_engines(
    atoms: &[Atom],
    rels: &BTreeMap<String, &Relation>,
    cache: &IndexCache,
) -> (BTreeSet<Assignment>, BTreeSet<Assignment>) {
    let none = Assignment::new();
    let slot =
        enumerate_homomorphisms_cached(atoms, rels, &none, MatchLimit::AtMost(100_000), cache);
    let naive = reference::enumerate_homomorphisms(atoms, rels, &none, MatchLimit::AtMost(100_000));
    (answer_set(slot.unwrap()), answer_set(naive.unwrap()))
}

/// Answer set of an engine run, as comparable name→value maps.
fn answer_set(result: Vec<Assignment>) -> BTreeSet<Assignment> {
    result.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The slot engine and the reference engine return identical answer
    /// sets on randomized CQs and instances — including through a shared,
    /// reused index cache.
    #[test]
    fn slot_engine_matches_reference_on_random_workloads(
        db_seed in 0u64..50,
        query_seed in 0u64..50,
        atoms in 1usize..5,
    ) {
        let db = random_db(db_seed, 12);
        let rels = relation_map(&db);
        let cache = IndexCache::new();
        for q in random_queries(query_seed, atoms, 6) {
            let slot = enumerate_homomorphisms_cached(
                q.atoms(), &rels, &Assignment::new(), MatchLimit::AtMost(100_000), &cache,
            ).unwrap();
            let naive = reference::enumerate_homomorphisms(
                q.atoms(), &rels, &Assignment::new(), MatchLimit::AtMost(100_000),
            ).unwrap();
            prop_assert_eq!(
                answer_set(slot.clone()), answer_set(naive),
                "engines disagree on {}", q
            );
            // The boolean variant must agree with non-emptiness.
            let any = has_homomorphism_cached(q.atoms(), &rels, &Assignment::new(), &cache).unwrap();
            prop_assert_eq!(any, !slot.is_empty(), "has_homomorphism disagrees on {}", q);
        }
    }

    /// Partial initial assignments restrict both engines identically.
    #[test]
    fn initial_assignments_agree_across_engines(
        db_seed in 0u64..30,
        query_seed in 0u64..30,
        pinned in 0i64..5,
    ) {
        let db = random_db(db_seed, 10);
        let rels = relation_map(&db);
        let cache = IndexCache::new();
        for q in random_queries(query_seed, 2, 4) {
            // Pin the first variable of the query, if any.
            let mut initial = Assignment::new();
            if let Some(v) = q.variables().into_iter().next() {
                initial.insert(v, Value::int(pinned));
            }
            let slot = enumerate_homomorphisms_cached(
                q.atoms(), &rels, &initial, MatchLimit::AtMost(100_000), &cache,
            ).unwrap();
            let naive = reference::enumerate_homomorphisms(
                q.atoms(), &rels, &initial, MatchLimit::AtMost(100_000),
            ).unwrap();
            prop_assert_eq!(answer_set(slot), answer_set(naive), "pinned runs disagree on {}", q);
        }
    }

    /// A cached evaluator stays coherent when the database mutates between
    /// evaluations: answers always equal a fresh, uncached evaluation.
    #[test]
    fn cached_evaluation_tracks_mutations(
        db_seed in 0u64..30,
        query_seed in 0u64..30,
        extra_a in 0i64..5,
        extra_b in 0i64..4,
    ) {
        let mut db = random_db(db_seed, 8);
        let evaluator = Evaluator::new();
        let queries = random_queries(query_seed, 2, 3);
        for q in &queries {
            prop_assert_eq!(
                evaluator.eval_cq(q, &db, None).unwrap(),
                eval_cq(q, &db, None).unwrap(),
                "warm cache diverged before mutation on {}", q
            );
        }
        // Mutate: the epoch bump must invalidate every affected index.
        db.insert("r", bqr_data::tuple![extra_a, extra_b]).unwrap();
        for q in &queries {
            prop_assert_eq!(
                evaluator.eval_cq(q, &db, None).unwrap(),
                eval_cq(q, &db, None).unwrap(),
                "warm cache diverged after mutation on {}", q
            );
        }
    }

    /// Random CQs that may name an empty relation or a nullary one (which
    /// the slot engine indexes nowhere: a nullary atom holds exactly when
    /// its relation is non-empty) agree with the reference engine.
    #[test]
    fn empty_and_nullary_relations_match_reference(
        db_seed in 0u64..30,
        query_seed in 0u64..30,
        atoms in 1usize..5,
        unit_holds in 0u32..2,
    ) {
        let db = empty_and_nullary_db(db_seed, unit_holds == 1);
        let rels = relation_map(&db);
        let cache = IndexCache::new();
        let queries = generate_queries(
            db.schema(),
            &RandomQueryConfig {
                atoms,
                constant_probability: 0.35,
                constants: (0..5).map(Value::int).collect(),
                head_variables: 2,
                seed: query_seed,
            },
            6,
        );
        for q in queries {
            let (slot, naive) = both_engines(q.atoms(), &rels, &cache);
            prop_assert_eq!(slot, naive, "engines disagree on {}", q);
        }
    }
}

/// A nullary atom and an empty relation on both join shapes: beside a
/// triangle (cyclic) and beside a chain (acyclic), alone, and with
/// the nullary relation holding the empty tuple and not.
#[test]
fn nullary_and_empty_atoms_agree_with_reference_on_both_shapes() {
    let var = |names: [&str; 2]| names.map(Term::var).to_vec();
    let triangle = [["x", "y"], ["y", "z"], ["z", "x"]].map(|p| Atom::new("r", var(p)));
    let chain = [["x", "y"], ["y", "z"]].map(|p| Atom::new("r", var(p)));
    let unit = Atom::new("u", vec![]);
    let empty = Atom::new("e", var(["y", "w"]));
    for unit_holds in [false, true] {
        let db = empty_and_nullary_db(3, unit_holds);
        let rels = relation_map(&db);
        let cache = IndexCache::new();
        let mut found = 0;
        for shape in [&triangle[..], &chain[..], &[]] {
            for extra in [
                vec![],
                vec![unit.clone()],
                vec![empty.clone()],
                vec![unit.clone(), empty.clone()],
            ] {
                let atoms: Vec<Atom> = shape.iter().cloned().chain(extra.iter().cloned()).collect();
                let (slot, naive) = both_engines(&atoms, &rels, &cache);
                assert_eq!(slot, naive, "engines disagree on {atoms:?}");
                found += slot.len();
            }
        }
        assert!(found > 0, "some query matches");
    }
}

/// Deterministic (non-property) check of the invalidation contract at the
/// cache level: a mutation re-stamps the relation, the stale index is never
/// served again, and the fresh index reflects the new contents.
#[test]
fn index_cache_invalidation_on_mutation() {
    let cache = IndexCache::new();
    let mut db = random_db(7, 6);
    {
        let r = db.relation("r").unwrap();
        let before = cache.interned_index_for(r, &[0]).unwrap();
        assert_eq!(before.total_rows(), r.len());
        assert!(std::rc::Rc::ptr_eq(
            &before,
            &cache.interned_index_for(r, &[0]).unwrap()
        ));
    }
    let misses_before = cache.misses();
    db.insert("r", bqr_data::tuple![99, 99]).unwrap();
    let r = db.relation("r").unwrap();
    let after = cache.interned_index_for(r, &[0]).unwrap();
    assert_eq!(
        cache.misses(),
        misses_before + 1,
        "mutation must force a rebuild"
    );
    assert_eq!(after.total_rows(), r.len());
    assert_eq!(after.probe_len(&[ValueId::intern(&Value::int(99))]), 1);
}
