//! Differential and concurrency tests for the prepared-execution subsystem
//! (`bqr-plan::prepared`).
//!
//! The contract under test: an execution through a [`PreparedPlan`] /
//! [`PipelineCache`] — hit path, miss path, after any interleaving of
//! relation mutations, from any number of threads — is **bit-identical**
//! (answer tuples *and* `FetchStats`) to compiling a fresh [`Pipeline`] at
//! that moment, which `tests/exec_diff.rs` in turn holds identical to the
//! reference interpreter.  Cached results may be *faster*, never *different*
//! — and in particular never stale: a compiled shape holds no data, every
//! execution reads the extents and indexes of the version it names, so there
//! is nothing in the cache that a mutation could leave behind.

use bqr_data::{
    tuple, AccessConstraint, AccessSchema, Database, DatabaseSchema, IndexedDatabase, Value,
    ValueId,
};
use bqr_plan::builder::Plan;
use bqr_plan::exec::{reference, ExecOptions, Pipeline};
use bqr_plan::{Guard, GuardLimits, PipelineCache, PlanError, PreparedPlan, QueryPlan};
use bqr_query::parser::parse_cq;
use bqr_query::{MaterializedViews, ViewSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

const MAX_ARITY: usize = 6;

fn schema() -> DatabaseSchema {
    DatabaseSchema::with_relations(&[("r", &["a", "b"]), ("s", &["b", "c"]), ("t", &["c"])])
        .unwrap()
}

fn constraints() -> Vec<AccessConstraint> {
    vec![
        AccessConstraint::new("r", &["a"], &["b"], 64).unwrap(),
        AccessConstraint::new("s", &["b"], &["c"], 64).unwrap(),
        AccessConstraint::new("t", &[], &["c"], 64).unwrap(),
    ]
}

fn view_set() -> ViewSet {
    let mut views = ViewSet::empty();
    views
        .add_cq("Vr", parse_cq("Vr(x, y) :- r(x, y)").unwrap())
        .unwrap();
    views
        .add_cq("W", parse_cq("W(x) :- s(x, y)").unwrap())
        .unwrap();
    views
}

/// The mutable world the differential test executes against: one database
/// plus the derived runtime objects, rebuilt (with fresh epochs) on every
/// mutation.
struct World {
    db: Database,
    idb: IndexedDatabase,
    views: MaterializedViews,
}

impl World {
    fn build(db: Database) -> World {
        let views = view_set().materialize(&db).unwrap();
        let idb = IndexedDatabase::build(db.clone(), AccessSchema::new(constraints())).unwrap();
        World { db, idb, views }
    }

    fn random(rng: &mut StdRng) -> World {
        let mut db = Database::empty(schema());
        for _ in 0..rng.gen_range(10..40usize) {
            db.insert(
                "r",
                tuple![rng.gen_range(0..12i64), rng.gen_range(0..12i64)],
            )
            .unwrap();
        }
        for _ in 0..rng.gen_range(10..40usize) {
            db.insert(
                "s",
                tuple![rng.gen_range(0..12i64), rng.gen_range(0..12i64)],
            )
            .unwrap();
        }
        for _ in 0..rng.gen_range(1..8usize) {
            db.insert("t", tuple![rng.gen_range(0..12i64)]).unwrap();
        }
        World::build(db)
    }

    /// Mutate every base relation (guaranteeing fresh epochs for all of
    /// them) and rebuild indexes and view extents.
    fn mutate(self, rng: &mut StdRng) -> World {
        let mut db = self.db;
        db.insert(
            "r",
            tuple![rng.gen_range(0..12i64), rng.gen_range(0..12i64)],
        )
        .unwrap();
        db.insert(
            "s",
            tuple![rng.gen_range(0..12i64), rng.gen_range(0..12i64)],
        )
        .unwrap();
        db.insert("t", tuple![rng.gen_range(0..12i64)]).unwrap();
        World::build(db)
    }
}

fn rand_value(rng: &mut StdRng) -> Value {
    Value::int(rng.gen_range(0..12i64))
}

fn leaf(rng: &mut StdRng) -> Plan {
    match rng.gen_range(0..5u32) {
        0 => Plan::constant(vec![rand_value(rng)]),
        1 => Plan::constant(vec![rand_value(rng), rand_value(rng)]),
        2 => Plan::constant(Vec::<Value>::new()),
        3 => Plan::view("Vr", 2),
        _ => Plan::view("W", 1),
    }
}

fn align(rng: &mut StdRng, left: Plan, right: Plan) -> (Plan, Plan) {
    let arity = left.arity().min(right.arity());
    let shrink = |rng: &mut StdRng, p: Plan| {
        if p.arity() == arity {
            return p;
        }
        let mut cols: Vec<usize> = (0..p.arity()).collect();
        while cols.len() > arity {
            let drop = rng.gen_range(0..cols.len());
            cols.remove(drop);
        }
        p.project(cols)
    };
    (shrink(rng, left), shrink(rng, right))
}

fn random_conditions(rng: &mut StdRng, arity: usize) -> Vec<bqr_plan::SelectCondition> {
    use bqr_plan::SelectCondition;
    let mut conds = Vec::new();
    for _ in 0..rng.gen_range(1..3usize) {
        let c = rng.gen_range(0..arity);
        conds.push(match rng.gen_range(0..4u32) {
            0 => SelectCondition::ColEqConst(c, rand_value(rng)),
            1 => SelectCondition::ColNeConst(c, rand_value(rng)),
            2 => SelectCondition::ColEqCol(c, rng.gen_range(0..arity)),
            _ => SelectCondition::ColNeCol(c, rng.gen_range(0..arity)),
        });
    }
    conds
}

fn gen_plan(rng: &mut StdRng, depth: usize) -> Plan {
    if depth == 0 {
        return leaf(rng);
    }
    match rng.gen_range(0..12u32) {
        0 | 1 => leaf(rng),
        2 | 3 => {
            let child = gen_plan(rng, depth - 1);
            if child.arity() == 0 {
                return child;
            }
            let n = rng.gen_range(0..=child.arity().min(3));
            let cols: Vec<usize> = (0..n).map(|_| rng.gen_range(0..child.arity())).collect();
            child.project(cols)
        }
        4 => {
            let child = gen_plan(rng, depth - 1);
            if child.arity() == 0 {
                return child;
            }
            let conds = random_conditions(rng, child.arity());
            child.select(conds)
        }
        5 => gen_plan(rng, depth - 1).rename(),
        6 | 7 => {
            let constraint = constraints()[rng.gen_range(0..3usize)].clone();
            let key_len = constraint.x().len();
            let mut child = gen_plan(rng, depth - 1);
            while child.arity() < key_len {
                child = child.product(Plan::constant(vec![rand_value(rng)]));
            }
            let mut cols: Vec<usize> = (0..child.arity()).collect();
            while cols.len() > key_len {
                let drop = rng.gen_range(0..cols.len());
                cols.remove(drop);
            }
            child.fetch(constraint, cols)
        }
        8 => {
            let left = gen_plan(rng, depth - 1);
            let right = gen_plan(rng, depth - 1);
            if left.arity() + right.arity() > MAX_ARITY {
                return left;
            }
            left.product(right)
        }
        9 => {
            let left = gen_plan(rng, depth - 1);
            let right = gen_plan(rng, depth - 1);
            if left.arity() == 0 || right.arity() == 0 || left.arity() + right.arity() > MAX_ARITY {
                return left;
            }
            let pairs = vec![(
                rng.gen_range(0..left.arity()),
                rng.gen_range(0..right.arity()),
            )];
            left.join_eq(right, &pairs)
        }
        10 => {
            let (left, right) = {
                let l = gen_plan(rng, depth - 1);
                let r = gen_plan(rng, depth - 1);
                align(rng, l, r)
            };
            left.union(right)
        }
        _ => {
            let (left, right) = {
                let l = gen_plan(rng, depth - 1);
                let r = gen_plan(rng, depth - 1);
                align(rng, l, r)
            };
            left.difference(right)
        }
    }
}

/// Execute `prepared` against the world through the cache — with and
/// without limits, twice each so both the miss and the hit path run — and hold
/// every output bit-identical to a *fresh* compile-and-execute and to the
/// reference interpreter at this exact moment.
fn check(prepared: &PreparedPlan, world: &World) {
    let fresh = Pipeline::compile(prepared.plan(), &world.idb, &world.views)
        .expect("generated plans compile")
        .execute(&world.idb, &ExecOptions::default())
        .expect("generated plans execute");
    let oracle = reference::execute(prepared.plan(), &world.idb, &world.views).unwrap();
    assert_eq!(fresh.tuples, oracle.tuples, "on\n{}", prepared.plan());
    assert_eq!(fresh.stats, oracle.stats, "on\n{}", prepared.plan());
    for options in [
        ExecOptions::default(),
        ExecOptions::default().with_row_budget(1 << 20),
    ] {
        for round in 0..2 {
            let got = prepared
                .execute_with(&world.idb, &world.views, &options)
                .expect("prepared execution succeeds");
            assert_eq!(
                got.tuples,
                fresh.tuples,
                "cached tuples diverge (round {round}, {options:?}) on\n{}",
                prepared.plan()
            );
            assert_eq!(
                got.stats,
                fresh.stats,
                "cached FetchStats diverge (round {round}, {options:?}) on\n{}",
                prepared.plan()
            );
        }
    }
}

/// ≥ 200 randomized plans through one shared cache, interleaved with
/// relation mutations that bump epochs; every cached execution (hit or
/// miss, with limits or without) is bit-identical to a fresh compile.
#[test]
fn prepared_executions_match_fresh_compiles_under_mutation() {
    let mut rng = StdRng::seed_from_u64(0x00CA_C4E5_EED0);
    let cache = Arc::new(PipelineCache::new(512));
    let mut world = World::random(&mut rng);
    let mut pool: Vec<PreparedPlan> = Vec::new();
    let mut executed = 0usize;
    let mut attempts = 0usize;
    let mut with_fetch = 0usize;
    while executed < 220 {
        attempts += 1;
        assert!(attempts < 5_000, "generator degenerated");
        // Interleave mutations: every relation epoch bumps, view extents are
        // re-materialised, and previously cached shapes go on being served.
        if rng.gen_bool(0.3) {
            world = world.mutate(&mut rng);
        }
        let Ok(plan) = gen_plan(&mut rng, 3).build() else {
            continue;
        };
        if !plan.fetches().is_empty() {
            with_fetch += 1;
        }
        let prepared = PreparedPlan::with_cache(plan, Arc::clone(&cache));
        check(&prepared, &world);
        pool.push(prepared);
        // Revisit earlier prepared plans against the *current* world: their
        // cache entries were compiled any number of mutations ago — the
        // output must match a fresh compile all the same.
        for _ in 0..2 {
            let i = rng.gen_range(0..pool.len());
            check(&pool[i], &world);
        }
        executed += 1;
    }
    assert!(with_fetch >= 30, "only {with_fetch} plans fetched");
    let stats = cache.stats();
    assert!(stats.hits > 0, "{stats:?}");
    let shapes: HashSet<_> = pool.iter().map(|p| p.plan().shape()).collect();
    assert_eq!(
        (stats.misses, cache.len()),
        (shapes.len() as u64, shapes.len()),
        "one compile per shape, whatever mutated in between: {stats:?}"
    );
    assert_eq!(stats.lookups, stats.hits + stats.misses, "{stats:?}");
}

/// The plan-level twin of `tests/shape_diff.rs`: random plans that differ
/// only in their constants are one shape — one cache key, one compile
/// whichever variant comes first — and every variant
/// still executes bit-identically to a fresh compile of *itself* and to the
/// reference interpreter, before and after a mutation.  (The interpreter
/// reads constants off the plan tree, so this also pins that the compiled
/// slots are numbered in `constant_slots` order.)
#[test]
fn constants_share_one_compiled_shape() {
    let mut rng = StdRng::seed_from_u64(0x0005_1075);
    let mut world = World::random(&mut rng);
    let mut shapes = 0usize;
    let mut slots = 0usize;
    while shapes < 60 {
        let Ok(plan) = gen_plan(&mut rng, 3).build() else {
            continue;
        };
        if plan.constant_slots().is_empty() {
            continue;
        }
        shapes += 1;
        slots += plan.constant_slots().len();
        let cache = Arc::new(PipelineCache::new(8));
        let variants: Vec<PreparedPlan> = (0..4)
            .map(|i| {
                let variant = match i {
                    0 => plan.clone(),
                    _ => plan.map_constants(|_, _| rand_value(&mut rng)),
                };
                PreparedPlan::with_cache(variant, Arc::clone(&cache))
            })
            .collect();
        for round in 0..2 {
            let misses = cache.stats().misses;
            for variant in &variants {
                assert_eq!(variant.plan().shape(), variants[0].plan().shape());
                check(variant, &world);
            }
            // One entry, compiled for the first variant's first execution
            // and hit by everything after it: both option sets `check` runs
            // under, the other three variants, and the mutated world.
            let compiled = cache.stats().misses - misses;
            assert_eq!(compiled, u64::from(round == 0), "on\n{plan}");
            assert_eq!(cache.len(), 1, "on\n{plan}");
            world = world.mutate(&mut rng);
        }
    }
    assert!(slots >= 2 * shapes, "plans with several constants: {slots}");
}

/// Deterministic mutation scenario: a mutation to every relation two plans
/// read costs neither a compile — the counters say so — and the next
/// execution of each sees the new data, exactly as a fresh compile does.
#[test]
fn a_mutation_recompiles_nothing_and_the_next_execution_sees_it() {
    let mut rng = StdRng::seed_from_u64(7);
    let cache = Arc::new(PipelineCache::new(16));
    let world = World::random(&mut rng);
    let scan = PreparedPlan::with_cache(Plan::view("Vr", 2).build().unwrap(), Arc::clone(&cache));
    let other = PreparedPlan::with_cache(
        Plan::constant(vec![Value::int(3)])
            .fetch(constraints()[0].clone(), vec![0])
            .build()
            .unwrap(),
        Arc::clone(&cache),
    );
    check(&scan, &world);
    check(&other, &world);
    let before = cache.stats();
    assert_eq!((before.misses, cache.len()), (2, 2));
    let scanned = scan.execute(&world.idb, &world.views).unwrap();

    let mut db = world.db.clone();
    db.insert("r", tuple![3, 99]).unwrap();
    let world = World::build(db);
    check(&scan, &world);
    check(&other, &world);
    let after = cache.stats();
    assert_eq!((after.misses, cache.len()), (2, 2), "{after:?}");
    assert_eq!(after.lookups, after.hits + after.misses);
    let rescanned = scan.execute(&world.idb, &world.views).unwrap();
    assert_eq!(rescanned.tuples.len(), scanned.tuples.len() + 1);
    let fetched = other.execute(&world.idb, &world.views).unwrap();
    assert!(fetched.tuples.contains(&tuple![3, 99]));
}

/// A shape run with another number of constants than it has slots is a
/// typed error, not a panic — `PreparedShape::execute_guarded` is public.
#[test]
fn a_shape_run_with_the_wrong_number_of_constants_is_an_error() {
    let world = World::random(&mut StdRng::seed_from_u64(7));
    let plan = Plan::constant(vec![Value::int(3)])
        .fetch(constraints()[0].clone(), vec![0])
        .build()
        .unwrap();
    let prepared = PreparedPlan::with_cache(plan, Arc::new(PipelineCache::new(4)));
    let guard = Guard::new(&GuardLimits::none());
    let run = |constants: &[ValueId]| {
        let (idb, views) = (&world.idb, &world.views);
        prepared
            .shape()
            .execute_guarded(idb, views, &guard, constants)
    };
    let three = ValueId::intern(&Value::int(3));
    for constants in [vec![], vec![three, three]] {
        let err = run(&constants).unwrap_err();
        let expected = PlanError::ArityMismatch {
            left: 1,
            right: constants.len(),
        };
        assert_eq!(err, expected);
    }
    let served = prepared.execute(&world.idb, &world.views).unwrap();
    assert_eq!(run(&[three]).unwrap(), served);
}

/// One consistent version of the world, shared across threads: the runtime
/// objects plus the per-plan expected outputs computed by the reference
/// interpreter *for this version*.
struct Version {
    idb: IndexedDatabase,
    views: MaterializedViews,
    expected: Vec<bqr_plan::ExecOutput>,
}

fn stress_plans() -> Vec<QueryPlan> {
    let phi_r = constraints()[0].clone();
    let phi_t = constraints()[2].clone();
    vec![
        Plan::view("Vr", 2).build().unwrap(),
        Plan::view("Vr", 2).select_eq_const(0, 0).build().unwrap(),
        Plan::constant(vec![Value::int(0)])
            .fetch(phi_r, vec![0])
            .join_eq(Plan::view("W", 1), &[(1, 0)])
            .project(vec![1])
            .build()
            .unwrap(),
        Plan::constant(Vec::<Value>::new())
            .fetch(phi_t, vec![])
            .build()
            .unwrap(),
        Plan::view("W", 1)
            .union(Plan::view("Vr", 2).project(vec![1]))
            .build()
            .unwrap(),
        Plan::view("Vr", 2)
            .project(vec![0])
            .difference(Plan::view("W", 1))
            .build()
            .unwrap(),
    ]
}

fn stress_version(step: i64, plans: &[QueryPlan]) -> Version {
    let mut db = Database::empty(schema());
    for i in 0..8i64 {
        db.insert("r", tuple![i % 4, i]).unwrap();
        db.insert("s", tuple![i, 20 + i]).unwrap();
    }
    db.insert("t", tuple![21]).unwrap();
    // The step-dependent tuples make every version's answers distinct, so a
    // stale cached pipeline would be *observable*, not silently identical.
    for v in 0..=step {
        db.insert("r", tuple![0, 100 + v]).unwrap();
        db.insert("s", tuple![100 + v, 200 + v]).unwrap();
        db.insert("t", tuple![20 + (v % 8)]).unwrap();
    }
    let views = view_set().materialize(&db).unwrap();
    let idb = IndexedDatabase::build(db, AccessSchema::new(constraints())).unwrap();
    let expected = plans
        .iter()
        .map(|p| reference::execute(p, &idb, &views).unwrap())
        .collect();
    Version {
        idb,
        views,
        expected,
    }
}

/// Scoped threads hammer one `PipelineCache` with concurrent prepare /
/// execute / mutate.  Every observed output must equal the reference answer
/// *of the version it executed against* — no stale-epoch result ever
/// escapes — and the counters reconcile exactly.
#[test]
fn concurrent_prepare_execute_mutate_is_never_stale() {
    const WORKERS: u64 = 4;
    const VERSIONS: i64 = 24;
    const MIN_ITERS_PER_WORKER: usize = 150;

    let plans = stress_plans();
    let cache = Arc::new(PipelineCache::new(32));
    let prepared: Vec<PreparedPlan> = plans
        .iter()
        .map(|p| PreparedPlan::with_cache(p.clone(), Arc::clone(&cache)))
        .collect();
    let current: RwLock<Arc<Version>> = RwLock::new(Arc::new(stress_version(0, &plans)));
    let mutations_done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let current = &current;
        let mutations_done = &mutations_done;
        let prepared = &prepared;
        let plans = &plans;
        // The mutator: publishes a fresh version (fresh epochs, different
        // answers) every few iterations of the workers.
        scope.spawn(move || {
            for step in 1..=VERSIONS {
                let next = Arc::new(stress_version(step, plans));
                *current.write().unwrap() = next;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            mutations_done.store(true, Ordering::SeqCst);
        });
        for w in 0..WORKERS {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xD00D + w);
                let mut iters = 0usize;
                loop {
                    let done = mutations_done.load(Ordering::SeqCst);
                    // Snapshot one consistent version; the cache may
                    // meanwhile hold entries for any number of other
                    // versions.
                    let version = Arc::clone(&current.read().unwrap());
                    let i = rng.gen_range(0..prepared.len());
                    let options = if rng.gen_bool(0.3) {
                        ExecOptions::default().with_row_budget(1 << 20)
                    } else {
                        ExecOptions::default()
                    };
                    let got = prepared[i]
                        .execute_with(&version.idb, &version.views, &options)
                        .expect("stress plans execute");
                    assert_eq!(
                        got.tuples, version.expected[i].tuples,
                        "stale tuples escaped (worker {w}, plan {i})"
                    );
                    assert_eq!(
                        got.stats, version.expected[i].stats,
                        "stale stats escaped (worker {w}, plan {i})"
                    );
                    iters += 1;
                    if done && iters >= MIN_ITERS_PER_WORKER {
                        break;
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    assert_eq!(
        stats.lookups,
        stats.hits + stats.misses,
        "counters must reconcile: {stats:?}"
    );
    assert!(stats.hits > 0, "warm executions happened: {stats:?}");
    assert!(
        stats.misses >= plans.len() as u64,
        "every plan compiled at least once: {stats:?}"
    );
    assert!(
        cache.len() <= cache.capacity(),
        "capacity bound held under contention"
    );
}
