//! Randomized differential harness for delta-driven mutation (PR 7).
//!
//! Two engines over the same setting — one publishing versions via
//! semi-naive delta maintenance ([`MaintenanceMode::Delta`], the default),
//! one rebuilding every version from scratch ([`MaintenanceMode::Rebuild`],
//! the pre-delta behaviour) — are driven through hundreds of randomized
//! mutation sequences: single inserts, deletions of live tuples, no-op
//! writes, do-undo pairs, multi-relation closures, failing closures, and
//! wholesale relation replacement (the `Unknown`-delta fallback).  After
//! every mutation the two must agree **bit-identically**: database
//! contents, every materialised view extent, and the served answers *and*
//! `FetchStats` of a prepared statement.
//!
//! On top of the cross-engine agreement, the delta engine must uphold the
//! epoch contract: any relation or view extent whose *contents* a mutation
//! left unchanged keeps its epoch (so epoch-keyed pipeline caches are
//! invalidated only by genuine changes), and a net no-op mutation publishes
//! nothing at all.

use bqr::data::{tuple, DataError, Database, Tuple};
use bqr::query::parser::{parse_cq, parse_ucq};
use bqr::query::ViewSet;
use bqr::workload::movies;
use bqr::{Engine, MaintenanceMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const Q_XI: &str = "Q(mid) :- movie(mid, ym, 'Universal', '2014'), V1(mid), rating(mid, 5)";

fn views() -> ViewSet {
    let mut v = movies::views(); // V1: person ⋈ movie ⋈ like (NASA fans)
    v.add_cq("VR", parse_cq("VR(m, r) :- rating(m, r)").unwrap())
        .unwrap();
    v.add_ucq(
        "VU",
        parse_ucq("VU(m) :- rating(m, 5); VU(m) :- rating(m, 4)").unwrap(),
    )
    .unwrap();
    // Overlapping disjuncts over *different* relations: a movie rated 5 that
    // someone also likes is derivable by both, so deleting one derivation
    // must leave the union tuple in place (per-disjunct maintenance).
    v.add_ucq(
        "VO",
        parse_ucq("VO(m) :- rating(m, 5); VO(m) :- like(p, m, 'movie')").unwrap(),
    )
    .unwrap();
    v
}

fn engine(mode: MaintenanceMode) -> Engine {
    let setting = bqr::core::RewritingSetting::new(
        movies::schema(),
        movies::access_schema(100),
        views(),
        100,
    );
    let engine = Engine::builder()
        .setting(setting)
        .cache_capacity(32)
        .maintenance(mode)
        .build()
        .unwrap();
    engine.prepare("qxi", Q_XI).unwrap();
    engine
}

const RELATIONS: [&str; 4] = ["person", "movie", "rating", "like"];

/// A random tuple for `relation`, drawn from deliberately small domains so
/// inserts collide with existing tuples and deletions hit join partners.
fn random_tuple(rng: &mut StdRng, relation: &str) -> Tuple {
    match relation {
        "person" => {
            let pid = rng.gen_range(1..9i64);
            let aff = if rng.gen_bool(0.6) { "NASA" } else { "ESA" };
            tuple![pid, format!("p{pid}"), aff]
        }
        "movie" => {
            let mid = rng.gen_range(10..18i64);
            let studio = ["Universal", "WB", "MGM"][rng.gen_range(0..3usize)];
            let release = if rng.gen_bool(0.5) { "2014" } else { "2013" };
            tuple![mid, format!("m{mid}"), studio, release]
        }
        "rating" => tuple![rng.gen_range(10..18i64), rng.gen_range(1..6i64)],
        "like" => {
            let ty = if rng.gen_bool(0.8) { "movie" } else { "page" };
            tuple![rng.gen_range(1..9i64), rng.gen_range(10..18i64), ty]
        }
        other => panic!("unknown relation {other}"),
    }
}

/// A tuple currently present in `relation` (or a random one if empty).
fn present_tuple(rng: &mut StdRng, db: &Database, relation: &str) -> Tuple {
    let rel = db.relation(relation).unwrap();
    if rel.is_empty() {
        return random_tuple(rng, relation);
    }
    let idx = rng.gen_range(0..rel.len());
    rel.iter().nth(idx).unwrap().clone()
}

/// One randomized mutation step, applied identically to both engines.
/// Returns whether the closure was expected to fail.
fn mutate_both(rng: &mut StdRng, delta: &Engine, rebuild: &Engine) {
    let kind = rng.gen_range(0..10u64);
    let current = delta.database();
    // Build the op script once, replay it on both engines.
    let mut script: Vec<(u8, &'static str, Tuple)> = Vec::new();
    let mut fails = false;
    match kind {
        // Single random insert (possibly a duplicate → no-op).
        0..=2 => {
            let rel = RELATIONS[rng.gen_range(0..RELATIONS.len())];
            script.push((0, rel, random_tuple(rng, rel)));
        }
        // Deletion of a live tuple.
        3..=4 => {
            let rel = RELATIONS[rng.gen_range(0..RELATIONS.len())];
            script.push((1, rel, present_tuple(rng, &current, rel)));
        }
        // Removing an absent tuple / re-inserting a present one: no-ops.
        5 => {
            let rel = RELATIONS[rng.gen_range(0..RELATIONS.len())];
            script.push((1, rel, random_tuple(rng, rel)));
            let rel = RELATIONS[rng.gen_range(0..RELATIONS.len())];
            script.push((0, rel, present_tuple(rng, &current, rel)));
        }
        // Do-undo pair plus an unrelated genuine write.
        6 => {
            let t = random_tuple(rng, "rating");
            if !current.relation("rating").unwrap().contains(&t) {
                script.push((0, "rating", t.clone()));
                script.push((1, "rating", t));
            }
            script.push((0, "like", random_tuple(rng, "like")));
        }
        // Multi-relation closure: several inserts and deletions at once.
        7 => {
            for _ in 0..rng.gen_range(2..5usize) {
                let rel = RELATIONS[rng.gen_range(0..RELATIONS.len())];
                if rng.gen_bool(0.6) {
                    script.push((0, rel, random_tuple(rng, rel)));
                } else {
                    script.push((1, rel, present_tuple(rng, &current, rel)));
                }
            }
        }
        // Wholesale replacement → Unknown delta → per-view/index fallback.
        8 => {
            script.push((2, "rating", random_tuple(rng, "rating")));
        }
        // Failing closure after a write: must publish nothing on either side.
        _ => {
            script.push((0, "rating", random_tuple(rng, "rating")));
            script.push((3, "rating", tuple![0, 0]));
            fails = true;
        }
    }

    for engine in [delta, rebuild] {
        let script = script.clone();
        let out = engine.mutate(move |db| {
            for (op, rel, t) in &script {
                match op {
                    0 => {
                        db.insert(rel, t.clone())?;
                    }
                    1 => {
                        db.remove(rel, t)?;
                    }
                    2 => {
                        // Rebuild the relation from scratch through
                        // `relation_mut` assignment: tracking is lost.
                        let schema = db.relation(rel).unwrap().schema().clone();
                        let mut tuples: Vec<Tuple> =
                            db.relation(rel).unwrap().iter().cloned().collect();
                        tuples.push(t.clone());
                        *db.relation_mut(rel)? = bqr::data::Relation::from_tuples(schema, tuples)?;
                    }
                    _ => return Err(DataError::UnknownRelation("injected".into())),
                }
            }
            Ok(())
        });
        assert_eq!(out.is_err(), fails, "unexpected mutate outcome: {out:?}");
    }
}

/// Every relation or extent whose contents did not change must keep its
/// epoch on the delta engine.
fn check_epoch_contract(
    before_db: &Database,
    before_views: &[(String, bqr::data::Relation)],
    engine: &Engine,
) {
    let session = engine.session();
    for rel in session.database().relations() {
        let prev = before_db.relation(rel.name()).unwrap();
        if prev == rel {
            assert_eq!(
                prev.epoch(),
                rel.epoch(),
                "content-unchanged relation `{}` was re-stamped",
                rel.name()
            );
        } else {
            assert_ne!(prev.epoch(), rel.epoch());
        }
    }
    for (name, prev) in before_views {
        let now = session.views().extent(name).unwrap();
        if prev == now {
            assert_eq!(
                prev.epoch(),
                now.epoch(),
                "content-unchanged extent `{name}` was re-stamped"
            );
        } else {
            assert_ne!(prev.epoch(), now.epoch());
        }
    }
}

fn check_agreement(delta: &Engine, rebuild: &Engine) {
    let a = delta.session();
    let b = rebuild.session();
    assert_eq!(a.database(), b.database(), "database contents diverged");
    for name in a.views().names() {
        assert_eq!(
            a.views().extent(name),
            b.views().extent(name),
            "view extent `{name}` diverged"
        );
    }
    assert_eq!(
        a.execute("qxi").unwrap(),
        b.execute("qxi").unwrap(),
        "served tuples / FetchStats diverged"
    );
}

#[test]
fn randomized_mutation_sequences_agree_with_full_rebuild() {
    const SEQUENCES: u64 = 220;
    const MUTATIONS_PER_SEQUENCE: usize = 4;

    let delta = engine(MaintenanceMode::Delta);
    let rebuild = engine(MaintenanceMode::Rebuild);

    for seed in 0..SEQUENCES {
        let mut rng = StdRng::seed_from_u64(seed);
        // Fresh random starting instance for the sequence, on both engines.
        let mut db = Database::empty(movies::schema());
        for _ in 0..rng.gen_range(10..30usize) {
            let rel = RELATIONS[rng.gen_range(0..RELATIONS.len())];
            db.insert(rel, random_tuple(&mut rng, rel)).unwrap();
        }
        delta.attach(db.clone()).unwrap();
        rebuild.attach(db).unwrap();
        check_agreement(&delta, &rebuild);

        for _ in 0..MUTATIONS_PER_SEQUENCE {
            let before_db = delta.database();
            let before_views: Vec<_> = {
                let s = delta.session();
                s.views()
                    .names()
                    .map(|n| (n.to_string(), s.views().extent(n).unwrap().clone()))
                    .collect()
            };
            mutate_both(&mut rng, &delta, &rebuild);
            check_agreement(&delta, &rebuild);
            check_epoch_contract(&before_db, &before_views, &delta);
        }
    }
}

/// The paper's Example 1.1 trajectory, replayed step by step with deletions
/// that strip a view tuple of one derivation but not the other.
#[test]
fn deterministic_trajectory_with_shared_derivations() {
    let delta = engine(MaintenanceMode::Delta);
    let rebuild = engine(MaintenanceMode::Rebuild);
    let mut db = Database::empty(movies::schema());
    db.insert("person", tuple![1, "Ann", "NASA"]).unwrap();
    db.insert("person", tuple![2, "Bob", "NASA"]).unwrap();
    db.insert("movie", tuple![10, "Lucy", "Universal", "2014"])
        .unwrap();
    db.insert("rating", tuple![10, 5]).unwrap();
    db.insert("like", tuple![1, 10, "movie"]).unwrap();
    db.insert("like", tuple![2, 10, "movie"]).unwrap();
    delta.attach(db.clone()).unwrap();
    rebuild.attach(db).unwrap();

    type Step = Box<dyn Fn(&mut Database) -> bqr::data::Result<()>>;
    let steps: Vec<Step> = vec![
        // Drop one of the two derivations of V1(10): extent must survive.
        Box::new(|db| db.remove("like", &tuple![1, 10, "movie"]).map(drop)),
        // Drop the last derivation: V1(10) must disappear.
        Box::new(|db| db.remove("like", &tuple![2, 10, "movie"]).map(drop)),
        // Bring it back through a different fan.
        Box::new(|db| db.insert("like", tuple![2, 10, "movie"]).map(drop)),
        // Kill it from the person side instead.
        Box::new(|db| db.remove("person", &tuple![2, "Bob", "NASA"]).map(drop)),
    ];
    for (i, step) in steps.iter().enumerate() {
        delta.mutate(|db| step(db)).unwrap();
        rebuild.mutate(|db| step(db)).unwrap();
        check_agreement(&delta, &rebuild);
        let has_v1 = delta
            .session()
            .views()
            .extent("V1")
            .unwrap()
            .contains(&tuple![10]);
        assert_eq!(has_v1, i == 0 || i == 2, "step {i}");
    }
}

#[test]
fn served_answers_track_deletions_of_answer_tuples() {
    let delta = engine(MaintenanceMode::Delta);
    let rebuild = engine(MaintenanceMode::Rebuild);
    let mut db = Database::empty(movies::schema());
    db.insert("person", tuple![1, "Ann", "NASA"]).unwrap();
    for mid in [10i64, 11, 12] {
        db.insert("movie", tuple![mid, format!("m{mid}"), "Universal", "2014"])
            .unwrap();
        db.insert("rating", tuple![mid, 5]).unwrap();
        db.insert("like", tuple![1, mid, "movie"]).unwrap();
    }
    delta.attach(db.clone()).unwrap();
    rebuild.attach(db).unwrap();
    assert_eq!(
        delta.execute("qxi").unwrap().tuples,
        vec![tuple![10], tuple![11], tuple![12]]
    );

    for engine in [&delta, &rebuild] {
        engine
            .mutate(|db| {
                db.remove("rating", &tuple![11, 5])?;
                db.remove("like", &tuple![1, 12, "movie"]).map(drop)
            })
            .unwrap();
    }
    check_agreement(&delta, &rebuild);
    assert_eq!(delta.execute("qxi").unwrap().tuples, vec![tuple![10]]);
}

/// A UCQ union tuple derivable by two disjuncts must survive the deletion
/// of one derivation — and because the union's contents did not change, the
/// extent must keep its epoch (no spurious cache invalidation).
#[test]
fn ucq_tuple_survives_losing_one_of_two_disjunct_derivations() {
    let delta = engine(MaintenanceMode::Delta);
    let rebuild = engine(MaintenanceMode::Rebuild);
    let mut db = Database::empty(movies::schema());
    db.insert("movie", tuple![10, "Lucy", "Universal", "2014"])
        .unwrap();
    db.insert("rating", tuple![10, 5]).unwrap();
    db.insert("like", tuple![1, 10, "movie"]).unwrap();
    delta.attach(db.clone()).unwrap();
    rebuild.attach(db).unwrap();
    assert!(delta
        .session()
        .views()
        .extent("VO")
        .unwrap()
        .contains(&tuple![10]));

    // Drop the `like` derivation: VO(10) still holds via rating(10, 5), the
    // union contents are unchanged, and the extent keeps its epoch.
    let epoch_before = delta.session().views().extent("VO").unwrap().epoch();
    for engine in [&delta, &rebuild] {
        engine
            .mutate(|db| db.remove("like", &tuple![1, 10, "movie"]).map(drop))
            .unwrap();
    }
    check_agreement(&delta, &rebuild);
    let vo = delta.session();
    let vo = vo.views().extent("VO").unwrap();
    assert!(vo.contains(&tuple![10]));
    assert_eq!(
        vo.epoch(),
        epoch_before,
        "content-unchanged VO was re-stamped"
    );

    // Drop the last derivation: VO(10) disappears on both engines.
    for engine in [&delta, &rebuild] {
        engine
            .mutate(|db| db.remove("rating", &tuple![10, 5]).map(drop))
            .unwrap();
    }
    check_agreement(&delta, &rebuild);
    assert!(!delta
        .session()
        .views()
        .extent("VO")
        .unwrap()
        .contains(&tuple![10]));
}

/// Closures that replace a relation wholesale with the same contents —
/// the very same storage, storage cut into different chunks, or a fresh
/// empty instance over an empty one — lose their write history but must
/// still publish nothing: no epoch moves, no cached pipeline is invalidated.
#[test]
fn replacing_a_relation_with_equal_contents_publishes_nothing() {
    use bqr::data::Relation;

    let engine = engine(MaintenanceMode::Delta);
    let mut db = Database::empty(movies::schema());
    db.insert("movie", tuple![10, "Lucy", "Universal", "2014"])
        .unwrap();
    // Enough ratings for several storage chunks; `like` stays empty.
    for mid in 0..3_000i64 {
        db.insert("rating", tuple![mid, mid % 5]).unwrap();
    }
    assert!(db.relation("rating").unwrap().chunk_count() > 4);
    engine.attach(db).unwrap();
    engine.execute("qxi").unwrap();
    let epochs = engine.session().epochs();
    let misses = engine.cache_stats().misses;

    type Replace = fn(&Relation) -> Relation;
    let replacements: [(&str, Replace); 3] = [
        // Shared storage: every chunk pointer-equal, nothing to compare.
        ("rating", |r| r.clone()),
        // Same set, loaded in reverse: other chunk boundaries.
        ("rating", |r| {
            let tuples: Vec<Tuple> = r.iter().cloned().collect();
            Relation::from_tuples(r.schema().clone(), tuples.into_iter().rev()).unwrap()
        }),
        // A new empty instance (a fresh epoch) over an empty relation.
        ("like", |r| Relation::empty(r.schema().clone())),
    ];
    for (name, replace) in replacements {
        engine
            .mutate(|db| {
                let replacement = replace(db.relation(name).unwrap());
                assert_eq!(replacement.len(), db.relation(name).unwrap().len());
                *db.relation_mut(name)? = replacement;
                Ok(())
            })
            .unwrap();
        assert_eq!(engine.session().epochs(), epochs, "`{name}` was re-stamped");
    }
    engine.execute("qxi").unwrap();
    assert_eq!(engine.cache_stats().misses, misses, "nothing recompiled");
}

/// Differential check of in-place snapshot patching: after every exact-delta
/// mutation, the [`InternedSnapshot`] every relation carries must
/// agree with a from-scratch recomputation — same rows (as a set), same
/// per-position distinct counts — and keep the *first-seen* row order:
/// surviving predecessor rows first (in predecessor order), insertions
/// appended.  Exercises the removal path heavily.
#[test]
fn patched_snapshots_match_from_scratch_recomputation() {
    use bqr::data::{snapshot_of, RelationStats};

    let engine = engine(MaintenanceMode::Delta);
    for seed in 1000..1060u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::empty(movies::schema());
        for _ in 0..rng.gen_range(10..30usize) {
            let rel = RELATIONS[rng.gen_range(0..RELATIONS.len())];
            db.insert(rel, random_tuple(&mut rng, rel)).unwrap();
        }
        engine.attach(db).unwrap();
        // `order_of` snapshots every relation of the version it looks at, so
        // every exact delta from here on takes the patch path; the warmup
        // write makes the first such version one the engine built itself.
        // The tuple lies outside `random_tuple`'s domain so the insert can
        // never be a (publish-eliding) no-op.
        engine
            .mutate(|db| db.insert("rating", tuple![999, 1]).map(drop))
            .unwrap();

        let order_of = |engine: &Engine| -> Vec<(String, Vec<Tuple>)> {
            let session = engine.session();
            session
                .database()
                .relations()
                .map(|rel| {
                    let snap = snapshot_of(rel);
                    assert_eq!(snap.epoch(), rel.epoch());
                    let rows: Vec<Tuple> = (0..snap.len() as u32)
                        .map(|i| Tuple::new(snap.row(i).iter().map(|id| id.value()).collect()))
                        .collect();
                    // Contents: the snapshot rows are exactly the relation.
                    assert_eq!(rows.len(), rel.len());
                    assert!(rows.iter().all(|t| rel.contains(t)));
                    // Stats: bit-identical to a from-scratch recomputation
                    // over the same rows.
                    assert_eq!(
                        *snap.stats(),
                        RelationStats::of_rows(snap.len(), snap.arity(), snap.id_rows()),
                        "patched stats diverged for `{}`",
                        rel.name()
                    );
                    (rel.name().to_string(), rows)
                })
                .collect()
        };

        let mut before = order_of(&engine);
        for _ in 0..6 {
            // Exact-delta script only: random inserts and live-tuple
            // removals (no wholesale replacement), so every mutation is
            // patchable.
            let current = engine.database();
            let mut script: Vec<(u8, &'static str, Tuple)> = Vec::new();
            for _ in 0..rng.gen_range(1..4usize) {
                let rel = RELATIONS[rng.gen_range(0..RELATIONS.len())];
                if rng.gen_bool(0.5) {
                    script.push((0, rel, random_tuple(&mut rng, rel)));
                } else {
                    script.push((1, rel, present_tuple(&mut rng, &current, rel)));
                }
            }
            engine
                .mutate(move |db| {
                    for (op, rel, t) in &script {
                        match op {
                            0 => {
                                db.insert(rel, t.clone())?;
                            }
                            _ => {
                                db.remove(rel, t)?;
                            }
                        }
                    }
                    Ok(())
                })
                .unwrap();

            let after = order_of(&engine);
            for ((name, prev_rows), (_, new_rows)) in before.iter().zip(&after) {
                // First-seen order: the new snapshot starts with the
                // predecessor's surviving rows, in predecessor order.
                let new_set: std::collections::BTreeSet<&Tuple> = new_rows.iter().collect();
                let survivors: Vec<&Tuple> =
                    prev_rows.iter().filter(|t| new_set.contains(t)).collect();
                assert!(
                    survivors
                        .iter()
                        .zip(new_rows.iter())
                        .all(|(a, b)| **a == *b),
                    "surviving rows of `{name}` were reordered by the patch"
                );
            }
            before = after;
        }
    }
}
