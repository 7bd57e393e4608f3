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
use bqr_query::ConjunctiveQuery;
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
        let before = cache.interned_index_for(r, &[0]);
        assert_eq!(before.len(), r.len());
        assert!(std::rc::Rc::ptr_eq(
            &before,
            &cache.interned_index_for(r, &[0])
        ));
    }
    let misses_before = cache.misses();
    db.insert("r", bqr_data::tuple![99, 99]).unwrap();
    let r = db.relation("r").unwrap();
    let after = cache.interned_index_for(r, &[0]);
    assert_eq!(
        cache.misses(),
        misses_before + 1,
        "mutation must force a rebuild"
    );
    assert_eq!(after.len(), r.len());
    assert_eq!(after.probe(&[ValueId::intern(&Value::int(99))]).len(), 1);
}
