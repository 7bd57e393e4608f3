//! Randomized differential harness for delta-driven mutation.
//!
//! An engine publishing every version through `Engine::mutate` (semi-naive
//! delta maintenance, carried indexes) is driven through hundreds of
//! randomized mutation sequences: single inserts, deletions of live tuples,
//! no-op writes, do-undo pairs, multi-relation closures, failing closures,
//! and wholesale relation replacement (whose delta is a diff).  Each
//! script is replayed on a plain `Database` the test owns — the model, kept
//! only where the closure succeeds — and a second engine attaches a clone
//! of the model: `Engine::attach` builds the version from scratch, every
//! access index from the rows and every view re-materialised.  After every
//! mutation the engine's database must equal the model, and its every
//! materialised view extent, the served answers *and* `FetchStats` of a
//! prepared statement, and every access constraint's index its relations
//! carry must equal the attached twin's **bit-identically**.  Both engines
//! materialise views with the delta plans that maintain them, so every
//! extent is also held to the naive evaluator over the model, and so are
//! the served answers.
//!
//! The views cover the shapes a chain of keyed probes can get wrong: a
//! three-way join (`V1`), single atoms, unions with shared derivations, a
//! self-join (one Δ tuple takes two atom positions and joins with itself), a
//! constant and a repeated variable away from the sorted prefix, a cross
//! product (a step with nothing bound, which must scan), and a constant in
//! the head.
//!
//! On top of the cross-engine agreement, the delta engine must uphold the
//! epoch contract: any relation or view extent whose *contents* a mutation
//! left unchanged keeps its epoch (so epoch-keyed pipeline caches are
//! invalidated only by genuine changes), and a net no-op mutation publishes
//! nothing at all.

use bqr::data::{tuple, DataError, Database, DeltaLog, IndexedDatabase, Tuple};
use bqr::query::eval::{eval_cq, eval_ucq};
use bqr::query::parser::{parse_cq, parse_ucq};
use bqr::query::{ViewDefinition, ViewSet};
use bqr::workload::movies;
use bqr::Engine;
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
    // must leave the union tuple in place (DRed re-derives through every
    // disjunct).
    v.add_ucq(
        "VO",
        parse_ucq("VO(m) :- rating(m, 5); VO(m) :- like(p, m, 'movie')").unwrap(),
    )
    .unwrap();
    for (name, text) in [
        // A self-join: fans of the same thing.
        ("VS", "VS(a, c) :- like(a, m, t), like(c, m, t)"),
        // A constant and a repeated variable in non-prefix positions.
        ("VC", "VC(p, m) :- like(p, m, 'movie'), rating(m, m)"),
        // A cross product: `person` shares no variable with `rating`.
        ("VX", "VX(m, a) :- rating(m, 5), person(a, n, f)"),
        // A constant in the head.
        ("VH", "VH(m, 'liked') :- like(p, m, 'movie')"),
    ] {
        v.add_cq(name, parse_cq(text).unwrap()).unwrap();
    }
    v
}

fn engine() -> Engine {
    let setting = bqr::core::RewritingSetting::new(
        movies::schema(),
        movies::access_schema(100),
        views(),
        100,
    );
    let engine = Engine::builder()
        .setting(setting)
        .cache_capacity(32)
        .build()
        .unwrap();
    engine.prepare("qxi", Q_XI).unwrap();
    engine
}

/// The engine under test, the model every mutation is replayed on, and
/// the twin engine the model is attached to for each comparison.
struct Harness {
    engine: Engine,
    model: Database,
    twin: Engine,
}

impl Harness {
    fn new() -> Harness {
        let model = Database::empty(movies::schema());
        Harness {
            engine: engine(),
            model,
            twin: engine(),
        }
    }

    fn attach(&mut self, db: Database) {
        self.engine.attach(db.clone()).unwrap();
        self.model = db;
    }

    /// `Engine::mutate` the engine, and run the same closure on a copy of
    /// the model that replaces it only if the closure succeeds — a failing
    /// closure publishes nothing.
    fn mutate<R>(&mut self, f: impl Fn(&mut Database) -> bqr::data::Result<R>) -> bqr::Result<R> {
        let served = self.engine.mutate(&f);
        let mut next = self.model.clone();
        let modelled = f(&mut next);
        assert_eq!(served.is_ok(), modelled.is_ok(), "engine and model");
        if modelled.is_ok() {
            self.model = next;
        }
        served
    }
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
        "rating" => {
            // Now and then a movie ranked by its own id, for `VC`.
            let mid = rng.gen_range(10..18i64);
            let rank = rng.gen_range(1..6i64);
            tuple![mid, if rng.gen_bool(0.15) { mid } else { rank }]
        }
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
    rel.iter().nth(idx).unwrap().to_tuple()
}

/// One randomized mutation step, applied identically to the engine and the
/// model.
fn mutate_both(rng: &mut StdRng, h: &mut Harness) {
    let kind = rng.gen_range(0..10u64);
    let current = h.engine.database();
    // Build the op script once, replay it on the engine and the model.
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
        // A removal, then a wholesale replacement that adds a tuple: the
        // delta is a diff with both sides, and the access index is rebuilt.
        8 => {
            script.push((1, "rating", present_tuple(rng, &current, "rating")));
            script.push((2, "rating", random_tuple(rng, "rating")));
        }
        // Failing closure after a write: must publish nothing on either side.
        _ => {
            script.push((0, "rating", random_tuple(rng, "rating")));
            script.push((3, "rating", tuple![0, 0]));
            fails = true;
        }
    }

    let out = h.mutate(|db| {
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
                    // `relation_mut` assignment: tracking is lost, so the
                    // delta is a diff against the previous version.
                    let schema = db.relation(rel).unwrap().schema().clone();
                    let mut tuples: Vec<Tuple> = db
                        .relation(rel)
                        .unwrap()
                        .iter()
                        .map(|t| t.to_tuple())
                        .collect();
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

/// The engine holds the model; every extent of the engine is the twin's,
/// and the twin's is what the naive evaluator derives over the model — the
/// twin materialises with the same delta plans, so agreeing with each other
/// alone would not check the join; the served tuples and `FetchStats` are
/// the twin's, and the tuples the naive evaluator's; and every access
/// constraint's index the engine's relations carry is the twin's, which is
/// built from the rows.  Attaches the model to the twin first.
fn check_agreement(h: &Harness) {
    h.twin.attach(h.model.clone()).unwrap();
    let a = h.engine.session();
    let b = h.twin.session();
    assert_eq!(a.database(), &h.model, "database contents diverged");
    for (name, def) in views().iter() {
        let extent = |session: &bqr::Session<'_>| -> Vec<Tuple> {
            let extent = session.views().extent(name).unwrap().iter();
            extent.map(|t| t.to_tuple()).collect()
        };
        assert_eq!(extent(&a), extent(&b), "extent `{name}` is not the twin's");
        let evaluated = match def {
            ViewDefinition::Cq(q) => eval_cq(q, &h.model, None),
            ViewDefinition::Ucq(q) => eval_ucq(q, &h.model, None),
            ViewDefinition::Fo(_) => unreachable!("no FO view here"),
        };
        assert_eq!(
            extent(&b),
            evaluated.unwrap(),
            "extent `{name}` is not eval's"
        );
    }
    let served = a.execute("qxi").unwrap();
    assert_eq!(
        served,
        b.execute("qxi").unwrap(),
        "served tuples / FetchStats diverged"
    );
    let q_xi = parse_cq(Q_XI).unwrap();
    let evaluated = eval_cq(&q_xi, &h.model, Some(b.views())).unwrap();
    assert_eq!(served.tuples, evaluated, "served tuples are not eval's");
    // `build` parts a clone's cells and builds every index from the rows;
    // `apply_delta` reads each index from the served relation's own cell,
    // building only one the cell lacks.
    let access = h.engine.setting().access.clone();
    let rebuilt = IndexedDatabase::build(h.model.clone(), access.clone()).unwrap();
    let carried = |session: &bqr::Session<'_>| {
        let db = session.database().clone();
        rebuilt.apply_delta(db, &DeltaLog::new()).unwrap()
    };
    let (carried, twins) = (carried(&a), carried(&b));
    for i in 0..access.len() {
        let (carried, twins) = (carried.index(i).unwrap(), twins.index(i).unwrap());
        assert_eq!(carried, twins, "constraint #{i}'s carried index");
        assert_eq!(twins, rebuilt.index(i).unwrap(), "constraint #{i}'s index");
    }
}

#[test]
fn randomized_mutation_sequences_agree_with_full_rebuild() {
    const SEQUENCES: u64 = 220;
    const MUTATIONS_PER_SEQUENCE: usize = 4;

    let mut h = Harness::new();
    // How often each extent genuinely changed: the agreement below must not
    // hold vacuously for any view.
    let mut changes: std::collections::BTreeMap<String, usize> = Default::default();

    for seed in 0..SEQUENCES {
        let mut rng = StdRng::seed_from_u64(seed);
        // Fresh random starting instance for the sequence.
        let mut db = Database::empty(movies::schema());
        for _ in 0..rng.gen_range(10..30usize) {
            let rel = RELATIONS[rng.gen_range(0..RELATIONS.len())];
            db.insert(rel, random_tuple(&mut rng, rel)).unwrap();
        }
        h.attach(db);
        check_agreement(&h);

        for _ in 0..MUTATIONS_PER_SEQUENCE {
            let before_db = h.engine.database();
            let before_views: Vec<_> = {
                let s = h.engine.session();
                s.views()
                    .names()
                    .map(|n| (n.to_string(), s.views().extent(n).unwrap().clone()))
                    .collect()
            };
            mutate_both(&mut rng, &mut h);
            check_agreement(&h);
            check_epoch_contract(&before_db, &before_views, &h.engine);
            let session = h.engine.session();
            for (name, prev) in &before_views {
                let moved = session.views().extent(name).unwrap() != prev;
                *changes.entry(name.clone()).or_default() += usize::from(moved);
            }
        }
    }
    for name in views().names() {
        assert!(
            changes[name] >= 10,
            "`{name}` changed {} times",
            changes[name]
        );
    }
}

/// The paper's Example 1.1 trajectory, replayed step by step with deletions
/// that strip a view tuple of one derivation but not the other.
#[test]
fn deterministic_trajectory_with_shared_derivations() {
    let mut h = Harness::new();
    let mut db = Database::empty(movies::schema());
    db.insert("person", tuple![1, "Ann", "NASA"]).unwrap();
    db.insert("person", tuple![2, "Bob", "NASA"]).unwrap();
    db.insert("movie", tuple![10, "Lucy", "Universal", "2014"])
        .unwrap();
    db.insert("rating", tuple![10, 5]).unwrap();
    db.insert("like", tuple![1, 10, "movie"]).unwrap();
    db.insert("like", tuple![2, 10, "movie"]).unwrap();
    h.attach(db);

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
        let epoch_before = h.engine.session().views().extent("V1").unwrap().epoch();
        h.mutate(step).unwrap();
        check_agreement(&h);
        let session = h.engine.session();
        let v1 = session.views().extent("V1").unwrap();
        assert_eq!(v1.contains(&tuple![10]), i == 0 || i == 2, "step {i}");
        // While another NASA person still likes the movie, neither V1's
        // contents nor its epoch move; every other step changes both.
        assert_eq!(v1.epoch() == epoch_before, i == 0, "step {i}");
    }
}

/// Alternative derivations created and destroyed together: one 64-closure
/// `mutate_batch` whose single net delta inserts and removes join partners
/// — fans, their `person` tuples, the `movie` tuple itself — of the same
/// `V1` tuples, some closures failing and being rolled back on the way.
#[test]
fn a_batch_inserting_and_removing_partners_of_one_view_tuple_agrees() {
    let mut h = Harness::new();
    let mut db = Database::empty(movies::schema());
    for pid in 1..=6i64 {
        let aff = if pid % 3 == 0 { "ESA" } else { "NASA" };
        db.insert("person", tuple![pid, format!("p{pid}"), aff])
            .unwrap();
    }
    for mid in [10i64, 11] {
        db.insert("movie", tuple![mid, format!("m{mid}"), "Universal", "2014"])
            .unwrap();
        db.insert("rating", tuple![mid, 5]).unwrap();
    }
    // V1(10) through fans 1 and 2; V1(11) through fan 4 alone.
    for (pid, mid) in [(1i64, 10i64), (2, 10), (3, 10), (4, 11)] {
        db.insert("like", tuple![pid, mid, "movie"]).unwrap();
    }
    h.attach(db);

    type Closure = Box<dyn FnOnce(&mut Database) -> bqr::data::Result<()>>;
    let script = || -> Vec<Closure> {
        let mut closures: Vec<Closure> = Vec::new();
        for round in 0..16i64 {
            let fan = 1 + round % 6;
            // Drop one derivation of V1(10) …
            closures.push(Box::new(move |db| {
                db.remove("like", &tuple![fan, 10, "movie"]).map(drop)
            }));
            // … add another through the next person, whatever they are …
            closures.push(Box::new(move |db| {
                db.insert("like", tuple![1 + (fan + 1) % 6, 10, "movie"])
                    .map(drop)
            }));
            // … flip a person between NASA and ESA (a remove and an insert
            // on `person` in the same delta) …
            closures.push(Box::new(move |db| {
                let (was, now) = if round % 2 == 0 {
                    ("NASA", "ESA")
                } else {
                    ("ESA", "NASA")
                };
                let name = format!("p{fan}");
                if db.remove("person", &tuple![fan, name.clone(), was])? {
                    db.insert("person", tuple![fan, name, now])?;
                }
                Ok(())
            }));
            // … and every fourth round fail after a write (rolled back), or
            // take V1(11)'s movie away and bring it back renamed.
            closures.push(Box::new(move |db| match round % 4 {
                0 => {
                    db.insert("like", tuple![5, 11, "movie"])?;
                    Err(DataError::UnknownRelation("injected".into()))
                }
                1 => db
                    .remove("movie", &tuple![11, "m11", "Universal", "2014"])
                    .map(drop),
                2 => db
                    .insert("movie", tuple![11, "again", "Universal", "2014"])
                    .map(drop),
                _ => db.remove("like", &tuple![4, 11, "movie"]).map(drop),
            }));
        }
        closures
    };
    assert_eq!(script().len(), 64);
    let before_db = h.engine.database();
    let before_views: Vec<_> = {
        let s = h.engine.session();
        let names = s.views().names();
        names
            .map(|n| (n.to_string(), s.views().extent(n).unwrap().clone()))
            .collect()
    };
    let outcomes = h.engine.mutate_batch(script()).unwrap();
    let failed = outcomes.iter().filter(|o| o.is_err()).count();
    assert_eq!(failed, 4, "the injected failures, and only they");
    // The model takes each closure whole or not at all, as the batch does.
    let mut failed = 0;
    for closure in script() {
        let mut next = h.model.clone();
        match closure(&mut next) {
            Ok(()) => h.model = next,
            Err(_) => failed += 1,
        }
    }
    assert_eq!(failed, 4, "the model's failures");
    check_agreement(&h);
    check_epoch_contract(&before_db, &before_views, &h.engine);
    // The batch was not a net no-op on the view it targets.
    let session = h.engine.session();
    assert_ne!(session.database(), &before_db);
    let v1: Vec<Tuple> = session
        .views()
        .extent("V1")
        .unwrap()
        .iter()
        .map(|t| t.to_tuple())
        .collect();
    let reference = views().materialize(session.database()).unwrap();
    let expected: Vec<Tuple> = reference
        .extent("V1")
        .unwrap()
        .iter()
        .map(|t| t.to_tuple())
        .collect();
    assert_eq!(v1, expected);
}

#[test]
fn served_answers_track_deletions_of_answer_tuples() {
    let mut h = Harness::new();
    let mut db = Database::empty(movies::schema());
    db.insert("person", tuple![1, "Ann", "NASA"]).unwrap();
    for mid in [10i64, 11, 12] {
        db.insert("movie", tuple![mid, format!("m{mid}"), "Universal", "2014"])
            .unwrap();
        db.insert("rating", tuple![mid, 5]).unwrap();
        db.insert("like", tuple![1, mid, "movie"]).unwrap();
    }
    h.attach(db);
    assert_eq!(
        h.engine.session().execute("qxi").unwrap().tuples,
        vec![tuple![10], tuple![11], tuple![12]]
    );

    h.mutate(|db| {
        db.remove("rating", &tuple![11, 5])?;
        db.remove("like", &tuple![1, 12, "movie"]).map(drop)
    })
    .unwrap();
    check_agreement(&h);
    assert_eq!(
        h.engine.session().execute("qxi").unwrap().tuples,
        vec![tuple![10]]
    );
}

/// A UCQ union tuple derivable by two disjuncts must survive the deletion
/// of one derivation — and because the union's contents did not change, the
/// extent must keep its epoch (no spurious cache invalidation).
#[test]
fn ucq_tuple_survives_losing_one_of_two_disjunct_derivations() {
    let mut h = Harness::new();
    let mut db = Database::empty(movies::schema());
    db.insert("movie", tuple![10, "Lucy", "Universal", "2014"])
        .unwrap();
    db.insert("rating", tuple![10, 5]).unwrap();
    db.insert("like", tuple![1, 10, "movie"]).unwrap();
    h.attach(db);
    assert!(h
        .engine
        .session()
        .views()
        .extent("VO")
        .unwrap()
        .contains(&tuple![10]));

    // Drop either derivation — the first disjunct's, then (once it is back)
    // the second's: VO(10) still holds through the other, the union
    // contents are unchanged, and the extent keeps its epoch.
    let epoch_before = h.engine.session().views().extent("VO").unwrap().epoch();
    type Step = fn(&mut Database) -> bqr::data::Result<bool>;
    let steps: [Step; 3] = [
        |db| db.remove("rating", &tuple![10, 5]),
        |db| db.insert("rating", tuple![10, 5]),
        |db| db.remove("like", &tuple![1, 10, "movie"]),
    ];
    for step in steps {
        assert!(h.mutate(step).unwrap());
        check_agreement(&h);
        let vo = h.engine.session();
        let vo = vo.views().extent("VO").unwrap();
        assert!(vo.contains(&tuple![10]));
        assert_eq!(
            vo.epoch(),
            epoch_before,
            "content-unchanged VO was re-stamped"
        );
    }

    // Drop the last derivation: VO(10) disappears.
    h.mutate(|db| db.remove("rating", &tuple![10, 5]).map(drop))
        .unwrap();
    check_agreement(&h);
    assert!(!h
        .engine
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

    let engine = engine();
    let mut db = Database::empty(movies::schema());
    db.insert("movie", tuple![10, "Lucy", "Universal", "2014"])
        .unwrap();
    // Enough ratings for several storage chunks; `like` stays empty.
    for mid in 0..3_000i64 {
        db.insert("rating", tuple![mid, mid % 5]).unwrap();
    }
    assert!(db.relation("rating").unwrap().chunk_count() > 4);
    engine.attach(db).unwrap();
    engine.session().execute("qxi").unwrap();
    let epochs = engine.session().epochs();
    let misses = engine.cache_stats().misses;

    type Replace = fn(&Relation) -> Relation;
    let replacements: [(&str, Replace); 3] = [
        // Shared storage: one storage tree, nothing to compare.
        ("rating", |r| r.clone()),
        // Same set, loaded in reverse: other chunk boundaries.
        ("rating", |r| {
            let tuples: Vec<Tuple> = r.iter().map(|t| t.to_tuple()).collect();
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
    engine.session().execute("qxi").unwrap();
    assert_eq!(engine.cache_stats().misses, misses, "nothing recompiled");
}

/// Differential check of the keyed-index carry: after every exact-delta
/// mutation, every keyed index a relation of the published version holds —
/// the ones maintenance built for itself, and ones requested here on other
/// key positions — must equal an index built from scratch over a freshly
/// stored copy of the same relation, and must have forked at most one shard
/// per written tuple.  Exercises the removal path heavily.
#[test]
fn carried_keyed_indexes_match_from_scratch_recomputation() {
    use bqr::data::Relation;

    /// Key positions requested by the test, beside whatever maintenance
    /// builds for itself (`like` by `id`, `type` among them).
    const REQUESTED: [(&str, &[usize]); 4] = [
        ("like", &[1]),
        ("person", &[2]),
        ("rating", &[1]),
        ("movie", &[2, 3]),
    ];
    /// Every key an index may be held on: ascending position subsets.
    fn subsets(arity: usize) -> Vec<Vec<usize>> {
        let pick = |mask: usize| (0..arity).filter(|p| mask >> p & 1 == 1).collect();
        (1..1usize << arity).map(pick).collect()
    }

    let engine = engine();
    let mut maintenance_built_one = false;
    for seed in 1000..1060u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::empty(movies::schema());
        for _ in 0..rng.gen_range(10..30usize) {
            let rel = RELATIONS[rng.gen_range(0..RELATIONS.len())];
            db.insert(rel, random_tuple(&mut rng, rel)).unwrap();
        }
        engine.attach(db).unwrap();
        for (name, positions) in REQUESTED {
            let session = engine.session();
            let rel = session.database().relation(name).unwrap();
            rel.keyed_index(positions).unwrap();
        }

        for _ in 0..6 {
            // Exact-delta script only: random inserts and live-tuple
            // removals (no wholesale replacement), so every index is
            // carried, never rebuilt.
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
            // What each relation holds going into the write (maintenance may
            // add to the outgoing version's indexes while it runs).
            let before = engine.session();
            let held_before: Vec<_> = before
                .database()
                .relations()
                .flat_map(|rel| {
                    let held = move |p: Vec<usize>| Some((rel, rel.keyed_index_if_built(&p)?, p));
                    subsets(rel.schema().arity()).into_iter().filter_map(held)
                })
                .collect();
            maintenance_built_one |= held_before.len() > REQUESTED.len();
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

            let after = engine.session();
            for (prev, was, positions) in held_before {
                let rel = after.database().relation(prev.name()).unwrap();
                let label = format!("`{}` by {positions:?}", rel.name());
                let carried = rel.keyed_index_if_built(&positions);
                let carried = carried.unwrap_or_else(|| panic!("{label} was dropped"));
                let fresh =
                    Relation::from_tuples(rel.schema().clone(), rel.iter().map(|t| t.to_tuple()));
                let rebuilt = fresh.unwrap().keyed_index(&positions).unwrap();
                assert_eq!(*carried, *rebuilt, "{label}");
                // At most three tuples were written, one shard each; an
                // unwritten relation is the same version, index and all.
                let forked = carried.shard_count() - carried.shared_shards(&was);
                assert!(forked <= 3, "{label} forked {forked} shards");
                assert!(forked == 0 || rel.epoch() != prev.epoch(), "{label}");
            }
        }
    }
    assert!(maintenance_built_one, "no write ever needed a keyed index");
}

/// The keyed index reads probe `V1` through is maintained with the extent,
/// not rebuilt per version: after 64 maintained `like` writes that each move
/// `V1`, the current extent holds the index the first read built, patched —
/// equal to the index of a relation rebuilt from the final extent's tuples —
/// while a session pinned before the writes still probes, through its own
/// `views()`, the contents it pinned.
#[test]
fn v1_carries_the_index_reads_probe_and_a_pinned_session_keeps_its_own() {
    use bqr::data::{IndexedDatabase, Relation};
    use bqr::plan::exec::reference;
    use std::sync::Arc;

    let engine = engine();
    let db = movies::generate(movies::MovieScale {
        persons: 300,
        movies: 240,
        n0: 100,
        seed: 3,
    });
    let mut persons = db.relation("person").unwrap().iter();
    let nasa = persons.find(|p| p[2] == "NASA".into()).unwrap()[0].clone();
    engine.attach(db).unwrap();
    let pinned = engine.session();
    let v1_of = |session: &bqr::Session<'_>| session.views().extent("V1").unwrap().clone();
    // What the interpreter answers (and reads) on the version a session pins.
    let interpreted = |session: &bqr::Session<'_>| {
        let access = engine.setting().access.clone();
        let idb = IndexedDatabase::build(session.database().clone(), access).unwrap();
        let plan = engine.statement("qxi").unwrap().plan().clone();
        reference::execute(&plan, &idb, session.views()).unwrap()
    };
    let before = pinned.execute("qxi").unwrap();
    assert_eq!(before, interpreted(&pinned));
    let built = v1_of(&pinned).keyed_index_if_built(&[0]);
    let built = built.expect("the first read indexed V1 on the join column");

    // Movies nobody at NASA likes yet: each `like` below adds one to V1, and
    // every fourth write takes the previous one back out.
    let unliked = pinned.database().relation("movie").unwrap().iter();
    let unliked: Vec<Tuple> = unliked
        .map(|m| tuple![nasa.clone(), m[0].clone(), "movie"])
        .filter(|like| !v1_of(&pinned).contains(&tuple![like[1].clone()]))
        .take(64)
        .collect();
    assert_eq!(unliked.len(), 64);
    for (i, like) in unliked.iter().enumerate() {
        let epoch = v1_of(&engine.session()).epoch();
        let write = match i % 4 {
            3 => engine.mutate(|db| db.remove("like", &unliked[i - 1])),
            _ => engine.mutate(|db| db.insert("like", like.clone())),
        };
        assert!(write.unwrap());
        assert_ne!(
            v1_of(&engine.session()).epoch(),
            epoch,
            "write {i} moves V1"
        );
    }

    let current = engine.session();
    let extent = v1_of(&current);
    let carried = extent.keyed_index_if_built(&[0]).expect("carried along");
    let rebuilt =
        Relation::from_tuples(extent.schema().clone(), extent.iter().map(|t| t.to_tuple()));
    assert_eq!(*carried, *rebuilt.unwrap().keyed_index(&[0]).unwrap());
    let shared = carried.shared_shards(&built);
    assert!(
        shared >= carried.shard_count() - 64,
        "patched: {shared} shared"
    );
    assert_eq!(current.execute("qxi").unwrap(), interpreted(&current));

    // The pinned version: the very index its first read built, same answer.
    assert!(Arc::ptr_eq(
        &v1_of(&pinned).keyed_index(&[0]).unwrap(),
        &built
    ));
    assert_ne!(v1_of(&pinned), extent);
    assert_eq!(pinned.execute("qxi").unwrap(), before);
    assert_eq!(before, interpreted(&pinned));
}
