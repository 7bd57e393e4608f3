//! The differential that licenses analysing a query *shape* once.
//!
//! `bqr::Engine` keeps the topped analysis of the first query of every shape
//! it sees and answers the next query of that shape — same syntax, other
//! constants — from it.  That is sound iff the checker is uniform in the
//! constants a shape abstracts over.  Held here:
//!
//! * **core** — for random CQs and UCQs (over base relations and views, with
//!   constants drawn from a pool that includes the views' own), the paper's
//!   examples and the ten CDR templates, and for random renamings of
//!   constants that are injective, fix every constant of a view definition
//!   and keep each value's sort — order-preserving, order-reversing and
//!   shuffled ones — `analyze(rename(Q))` is `rename(analyze(Q))`: `topped`,
//!   `plan_size`, `fetch_bound`, and the plan tree;
//! * **engine** — `Session::query` through a warm memo is bit-identical
//!   (tuples and `FetchStats`) to `ToppedChecker::analyze_cq` →
//!   `Pipeline::compile` → `execute` done directly, across mutations that
//!   move a view the shapes read;
//! * **the traps**, each a named test: constants equal to a view's, merged
//!   parameters, a head constant, a constant repeated across atoms and
//!   across disjuncts, a constant absent from the data, a rejected shape
//!   asked twice, a renamed variable;
//! * **concurrency** — eight threads of ad-hoc reads over several shapes
//!   against a concurrent mutator: every answer is the answer on a version
//!   live between its submit and its response.
//!
//! The plan-level twin (plans differing only in constants share a compiled
//! pipeline) is `constants_share_one_compiled_shape` in
//! `tests/prepared_cache.rs`.

use bqr::bench::checker_with_annotations;
use bqr::core::{RewritingSetting, ToppedAnalysis, ToppedChecker};
use bqr::data::{tuple, DatabaseSchema, IndexedDatabase, Value};
use bqr::plan::{ExecOptions, ExecOutput, Pipeline};
use bqr::query::parser::{parse_cq, parse_ucq};
use bqr::query::{Atom, ConjunctiveQuery, FoQuery, MaterializedViews, Term, UnionQuery};
use bqr::workload::cdr::{self, CdrScale};
use bqr::workload::movies;
use bqr::workload::random::{generate_queries, RandomQueryConfig};
use bqr::{Engine, Error};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------
// Settings.

fn cdr_scale() -> CdrScale {
    CdrScale {
        customers: 120,
        days: 6,
        max_calls_per_day: 4,
        max_attach_per_day: 3,
        towers: 20,
        seed: 5,
    }
}

/// The CDR setting, declaring more room under `calls` than the generator
/// uses (so the tests can write into a group), plus two views with a
/// constant in their *head*: a query atom `V_plan(c, 'basic')` is provably
/// empty, one with `'premium'` is the whole unbounded view — the checker
/// tells the two apart, so a shape may not abstract over that constant.
fn cdr_setting() -> RewritingSetting {
    let declared = CdrScale {
        max_calls_per_day: 64,
        ..cdr_scale()
    };
    let mut setting = cdr::setting(&declared, 120);
    let mut add = |name: &str, text: &str| {
        setting.views.add_cq(name, parse_cq(text).unwrap()).unwrap();
    };
    add(
        "V_plan",
        "V(cid, 'premium') :- customer(cid, n, 'premium', r)",
    );
    add("V_region", "V(tid, 'north') :- tower(tid, 'north', c)");
    setting
}

/// The checker the engine runs: the setting's, with the CDR view bounds
/// declared.
fn cdr_checker(setting: &RewritingSetting) -> ToppedChecker<'_> {
    checker_with_annotations(setting, &cdr::view_bounds())
}

fn cdr_engine() -> Engine {
    let mut builder = Engine::builder().setting(cdr_setting());
    for (view, bound) in cdr::view_bounds() {
        builder = builder.annotate_view_bound(view, bound);
    }
    let engine = builder.build().unwrap();
    engine.attach(cdr::generate(cdr_scale())).unwrap();
    engine
}

/// The CDR relations *and* views as one vocabulary, for the random query
/// generator: an atom over a view name is a view atom to the checker.
fn cdr_vocabulary() -> DatabaseSchema {
    DatabaseSchema::with_relations(&[
        ("customer", &["cid", "name", "plan", "region"]),
        ("calls", &["caller", "day", "callee", "duration"]),
        ("attach", &["cid", "day", "tower"]),
        ("tower", &["tid", "region", "capacity"]),
        ("V_premium", &["cid"]),
        ("V_north_towers", &["tid"]),
        ("V_plan", &["cid", "plan"]),
        ("V_region", &["tid", "region"]),
    ])
    .unwrap()
}

/// Constants the generator draws from: small ints (so they repeat and
/// merge), the views' own constants, and strings that are nobody's.
fn constant_pool() -> Vec<Value> {
    let mut pool: Vec<Value> = (0..5).map(Value::int).collect();
    pool.extend(["premium", "north", "NASA", "movie", "basic", "south", "k"].map(Value::str));
    pool
}

fn random_cqs(vocabulary: &DatabaseSchema, seed: u64, atoms: usize) -> Vec<ConjunctiveQuery> {
    let config = RandomQueryConfig {
        atoms,
        constant_probability: 0.45,
        constants: constant_pool(),
        head_variables: 2,
        seed,
    };
    generate_queries(vocabulary, &config, 12)
}

// ---------------------------------------------------------------------
// Renamings.

#[derive(Debug, Clone, Copy)]
enum Order {
    Preserving,
    Reversing,
    Shuffled,
}

/// An injective renaming of `constants` that fixes every value in `fixed`
/// and keeps each value's sort.  Images are far from every generated value
/// and from the data.
fn renaming(
    constants: &BTreeSet<Value>,
    fixed: &BTreeSet<Value>,
    order: Order,
    seed: u64,
) -> BTreeMap<Value, Value> {
    let lifted: Vec<&Value> = constants.difference(fixed).collect();
    let mut ranks: Vec<usize> = (0..lifted.len()).collect();
    match order {
        Order::Preserving => {}
        Order::Reversing => ranks.reverse(),
        Order::Shuffled => {
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..ranks.len()).rev() {
                ranks.swap(i, rng.gen_range(0..=i));
            }
        }
    }
    lifted
        .into_iter()
        .zip(ranks)
        .map(|(value, rank)| {
            let image = match value {
                Value::Int(_) => Value::int(7_000_000 + 13 * rank as i64),
                Value::Str(_) => Value::str(format!("renamed-{rank:03}")),
                Value::Bool(b) => Value::bool(*b),
            };
            assert!(!fixed.contains(&image) && !constants.contains(&image));
            (value.clone(), image)
        })
        .collect()
}

fn rename_value(v: &Value, map: &BTreeMap<Value, Value>) -> Value {
    map.get(v).unwrap_or(v).clone()
}

fn rename_cq(cq: &ConjunctiveQuery, map: &BTreeMap<Value, Value>) -> ConjunctiveQuery {
    let term = |t: &Term| match t {
        Term::Const(c) => Term::Const(rename_value(c, map)),
        var => var.clone(),
    };
    ConjunctiveQuery::new(
        cq.head().iter().map(term).collect(),
        cq.atoms()
            .iter()
            .map(|a| Atom::new(a.relation(), a.args().iter().map(term).collect()))
            .collect(),
    )
    .unwrap()
}

fn rename_analysis(analysis: &ToppedAnalysis, map: &BTreeMap<Value, Value>) -> ToppedAnalysis {
    ToppedAnalysis {
        plan: analysis
            .plan
            .as_ref()
            .map(|plan| plan.map_constants(|_, v| rename_value(v, map))),
        ..analysis.clone()
    }
}

/// `analyze(rename(Q))` against `rename(analyze(Q))`, for a union of CQs
/// (one disjunct: the CQ path of the checker).  Returns whether `Q` was
/// topped.
fn check_uniform(
    checker: &ToppedChecker,
    fixed: &BTreeSet<Value>,
    disjuncts: &[ConjunctiveQuery],
    order: Order,
    seed: u64,
) -> Result<bool, TestCaseError> {
    let constants: BTreeSet<Value> = disjuncts.iter().flat_map(|d| d.constants()).collect();
    let map = renaming(&constants, fixed, order, seed);
    let analyze = |disjuncts: &[ConjunctiveQuery]| match disjuncts {
        [cq] => checker.analyze_cq(cq).unwrap(),
        many => {
            let ucq = UnionQuery::new(many.to_vec()).unwrap();
            checker.analyze(&FoQuery::from_ucq(&ucq).unwrap()).unwrap()
        }
    };
    let renamed: Vec<ConjunctiveQuery> = disjuncts.iter().map(|d| rename_cq(d, &map)).collect();
    let expected = rename_analysis(&analyze(disjuncts), &map);
    let got = analyze(&renamed);
    let what = format!("{disjuncts:?} under {order:?} {map:?}");
    prop_assert_eq!(got.topped, expected.topped, "topped: {}", what);
    prop_assert_eq!(got.plan_size, expected.plan_size, "plan_size: {}", what);
    prop_assert_eq!(
        got.fetch_bound,
        expected.fetch_bound,
        "fetch_bound: {}",
        what
    );
    prop_assert_eq!(&got.plan, &expected.plan, "plan: {}", what);
    Ok(expected.topped)
}

const ORDERS: [Order; 3] = [Order::Preserving, Order::Reversing, Order::Shuffled];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// (a), random half: CQs over the CDR vocabulary, and unions of the ones
    /// that share an arity.
    #[test]
    fn analysis_commutes_with_shape_preserving_renamings(seed in 0u64..1_000_000, atoms in 1usize..5) {
        let setting = cdr_setting();
        let checker = cdr_checker(&setting);
        let fixed = setting.views.constants();
        let cqs = random_cqs(&cdr_vocabulary(), seed, atoms);
        for (i, cq) in cqs.iter().enumerate() {
            let order = ORDERS[(seed as usize + i) % 3];
            check_uniform(&checker, &fixed, std::slice::from_ref(cq), order, seed)?;
        }
        for pair in cqs.windows(2).filter(|p| p[0].arity() == p[1].arity()) {
            check_uniform(&checker, &fixed, pair, ORDERS[seed as usize % 3], seed)?;
        }
    }
}

/// (a), fixed half: the ten CDR templates — at bindings that are ordered,
/// reversed, merged and far from the data — and the paper's movie examples,
/// under every kind of renaming; plus a count that the random half is not
/// vacuous (enough of its queries are topped, with constants to rename).
#[test]
fn templates_and_paper_examples_are_uniform_in_their_constants() {
    let setting = cdr_setting();
    let checker = cdr_checker(&setting);
    let fixed = setting.views.constants();
    assert!(fixed.contains(&Value::str("premium")) && fixed.contains(&Value::str("north")));
    let bindings = [(5, 9), (9, 5), (3, 3), (7_000_001, 8_000_002)];
    for (cid, day) in bindings {
        for q in cdr::workload(cid, day) {
            for order in ORDERS {
                let topped =
                    check_uniform(&checker, &fixed, std::slice::from_ref(&q.query), order, 1)
                        .unwrap();
                assert_eq!(topped, q.expected_bounded, "{}", q.name);
            }
        }
    }

    let movie_setting = movies::setting(100, 40);
    let movie_checker = ToppedChecker::new(&movie_setting);
    let movie_fixed = movie_setting.views.constants();
    let year_only = parse_cq("Q(mid) :- movie(mid, ym, s, '2014'), V1(mid)").unwrap();
    for cq in [movies::q_xi(), movies::q0(), year_only] {
        for order in ORDERS {
            check_uniform(
                &movie_checker,
                &movie_fixed,
                std::slice::from_ref(&cq),
                order,
                2,
            )
            .unwrap();
        }
    }

    let (mut topped, mut total) = (0, 0);
    for seed in 0..40 {
        for cq in random_cqs(&cdr_vocabulary(), seed, 1 + seed as usize % 4) {
            total += 1;
            let has_constants = !cq.constants().is_empty();
            let ok = check_uniform(&checker, &fixed, &[cq], Order::Reversing, seed).unwrap();
            topped += usize::from(ok && has_constants);
        }
    }
    assert!(
        topped * 10 >= total,
        "only {topped} of {total} random queries are topped with constants"
    );
}

// ---------------------------------------------------------------------
// The engine against the direct path.

/// The benchmark's replica path: an indexed instance and view extents built
/// from the engine's current database, outside the engine.
struct Replica {
    idb: IndexedDatabase,
    views: MaterializedViews,
}

impl Replica {
    fn of(engine: &Engine) -> Replica {
        let db = engine.database();
        let setting = engine.setting();
        Replica {
            views: setting.views.materialize(&db).unwrap(),
            idb: IndexedDatabase::build(db, setting.access.clone()).unwrap(),
        }
    }

    /// Checker → compile → execute, nothing shared with the engine.
    /// `None` when the query is not topped.
    fn direct(&self, checker: &ToppedChecker, cq: &ConjunctiveQuery) -> Option<ExecOutput> {
        let analysis = checker.analyze_cq(cq).unwrap();
        let plan = analysis.plan.filter(|_| analysis.topped)?;
        let pipeline = Pipeline::compile(&plan, &self.idb, &self.views).unwrap();
        Some(pipeline.execute(&self.idb, &ExecOptions::serial()).unwrap())
    }
}

/// `Session::query(text)` must be what the direct path gives: the same
/// output, or `NoRewriting` exactly when the checker rejects.
fn assert_matches_direct(engine: &Engine, checker: &ToppedChecker, replica: &Replica, text: &str) {
    let cq = parse_cq(text).unwrap();
    match (engine.session().query(text), replica.direct(checker, &cq)) {
        (Ok(got), Some(expected)) => assert_eq!(got, expected, "{text}"),
        (Err(Error::NoRewriting { query, .. }), None) => assert_eq!(query, cq.to_string()),
        (got, expected) => panic!("{text}: engine {got:?}, direct {expected:?}"),
    }
}

/// Write `k` of the tests' write sequence: customer `1000 + k` joins on the
/// premium plan (moving `V_premium` and `V_plan`) and is called by customer
/// 7 on day 2 (moving `calls`).  `premium_callees(7, 2)` gains a tuple.
fn write(engine: &Engine, k: i64) {
    engine
        .mutate(|db| {
            db.insert(
                "customer",
                tuple![1000 + k, format!("w{k}"), "premium", "north"],
            )?;
            db.insert("calls", tuple![7, 2, 1000 + k, 60]).map(drop)
        })
        .unwrap();
}

/// (b): random bindings of the nine topped templates and random queries,
/// interleaved with writes that move views and relations the shapes read.
/// The memo stays at one entry per (template, merged-or-not) shape plus the
/// random queries' own.
#[test]
fn adhoc_queries_through_a_warm_memo_match_the_direct_path_under_mutation() {
    let engine = cdr_engine();
    let setting = cdr_setting();
    let checker = cdr_checker(&setting);
    let mut replica = Replica::of(&engine);
    let mut rng = StdRng::seed_from_u64(0x5AFE);
    let (customers, days) = (cdr_scale().customers as i64, cdr_scale().days as i64);
    let mut writes = 0;
    for round in 0..400 {
        if round % 25 == 24 {
            write(&engine, writes);
            writes += 1;
            replica = Replica::of(&engine);
        }
        // Mostly (7, 2) — the written group — and its neighbours; sometimes
        // merged, sometimes a customer nobody has.
        let (cid, day) = match rng.gen_range(0..6u32) {
            0 | 1 => (7, 2),
            2 => (rng.gen_range(0..days), 0),
            3 => (customers + 5, rng.gen_range(0..days)),
            _ => (rng.gen_range(0..customers), rng.gen_range(0..days)),
        };
        let (cid, day) = if round % 7 == 0 {
            (day, day)
        } else {
            (cid, day)
        };
        let template = &cdr::workload(cid, day)[rng.gen_range(0..10usize)];
        assert_matches_direct(&engine, &checker, &replica, &template.query.to_string());
    }
    assert!(
        engine.analysed_shapes() <= 18,
        "nine templates, merged or not: {}",
        engine.analysed_shapes()
    );
    assert_eq!(engine.cache_stats().evictions, 0);

    for seed in 0..30 {
        for cq in random_cqs(&cdr_vocabulary(), seed, 1 + seed as usize % 3) {
            assert_matches_direct(&engine, &checker, &replica, &cq.to_string());
        }
    }
}

// ---------------------------------------------------------------------
// (c) The traps.

/// `(caller, day)` groups of `calls` that hold something, caller ≠ day.
fn busy_groups(engine: &Engine, n: usize) -> Vec<(i64, i64)> {
    let db = engine.database();
    let mut groups = BTreeSet::new();
    for t in db.relation("calls").unwrap().iter() {
        let (caller, day) = (t[0].as_int().unwrap(), t[1].as_int().unwrap());
        if caller != day && groups.len() < n {
            groups.insert((caller, day));
        }
    }
    assert_eq!(groups.len(), n);
    groups.into_iter().collect()
}

/// Naive evaluation: what the answer *is*, whatever plan claims to compute
/// it.
fn truth(engine: &Engine, text: &str) -> Vec<bqr::data::Tuple> {
    engine.evaluate(text).unwrap().tuples
}

/// A constant equal to a view's constant is not a parameter.  `V_plan` holds
/// `(c, 'premium')` rows only: against `'basic'` the atom is provably empty
/// and the query topped; against `'premium'` it is the whole unbounded view
/// and there is no rewriting.  Asked alternately, each gets its own verdict —
/// never the other's plan (which, bound to `'premium'`, would answer, and
/// fetch past its own bound of 0).
#[test]
fn trap_a_view_constant_is_not_a_parameter_premium_then_basic() {
    let engine = cdr_engine();
    let ask = |plan: &str| {
        let text = format!("Q(c, t) :- V_plan(c, '{plan}'), attach(c, 2, t)");
        (engine.session().query(text.as_str()), text)
    };
    for _ in 0..2 {
        let (premium, text) = ask("premium");
        match premium {
            Err(Error::NoRewriting { query, .. }) => assert!(query.contains("premium")),
            other => panic!("{text}: {other:?}"),
        }
        assert!(!truth(&engine, &text).is_empty(), "the trap has teeth");
        let (basic, text) = ask("basic");
        let basic = basic.unwrap();
        assert_eq!(basic.tuples, truth(&engine, &text));
        assert!(basic.tuples.is_empty());
        assert_eq!(basic.stats.fetched_tuples, 0);
    }
    // 'standard' is nobody's constant: it shares 'basic''s shape.
    let shapes = engine.analysed_shapes();
    assert!(ask("standard").0.unwrap().tuples.is_empty());
    assert_eq!(engine.analysed_shapes(), shapes);

    // The plain CDR views: `'premium'` in a base atom is a selection either
    // way, and each constant gets its own right answer.
    for plan in ["premium", "basic", "premium"] {
        let text = format!("Q(n) :- customer(37, n, '{plan}', r)");
        let got = engine.session().query(text.as_str()).unwrap();
        assert_eq!(got.tuples, truth(&engine, &text), "{text}");
        assert_eq!(got.tuples.is_empty(), plan == "basic", "37 is premium");
    }
}

/// The same trap on the other view constant.
#[test]
fn trap_a_view_constant_is_not_a_parameter_north_then_south() {
    let engine = cdr_engine();
    for region in ["north", "south", "north", "south"] {
        let text = format!("Q(t, cap) :- V_region(t, '{region}'), tower(t, r, cap)");
        match (region, engine.session().query(text.as_str())) {
            ("north", Err(Error::NoRewriting { query, .. })) => assert!(query.contains("north")),
            ("south", Ok(out)) => {
                assert!(out.tuples.is_empty());
                assert_eq!(out.tuples, truth(&engine, &text));
            }
            (_, other) => panic!("{text}: {other:?}"),
        }
    }
    for region in ["north", "south"] {
        let text = format!("Q(t) :- attach(7, 2, t), tower(t, '{region}', cap)");
        let got = engine.session().query(text.as_str()).unwrap();
        assert_eq!(got.tuples, truth(&engine, &text), "{text}");
    }
}

/// `cid == day` is one parameter where `cid != day` is two: two shapes, and
/// each binds its own.
#[test]
fn trap_merged_parameters_are_another_shape() {
    let engine = cdr_engine();
    let callees = |cid: i64, day: i64| format!("Q(x) :- calls({cid}, {day}, x, d)");
    let session = engine.session();
    for (cid, day) in [(3, 4), (3, 3), (4, 3), (4, 4), (5, 5), (2, 3)] {
        let text = callees(cid, day);
        let got = session.query(text.as_str()).unwrap();
        assert_eq!(got.tuples, truth(&engine, &text), "{text}");
    }
    assert_eq!(engine.analysed_shapes(), 2);
}

/// A head constant is bound like any other: the value reaches the output.
#[test]
fn trap_a_head_constant_reaches_the_output() {
    let engine = cdr_engine();
    let session = engine.session();
    for (cid, day) in busy_groups(&engine, 3) {
        let text = format!("Q(x, {cid}) :- calls({cid}, {day}, x, d)");
        let got = session.query(text.as_str()).unwrap();
        assert_eq!(got.tuples, truth(&engine, &text), "{text}");
        assert!(!got.tuples.is_empty());
        assert!(got.tuples.iter().all(|t| t[1] == Value::int(cid)));
    }
    assert_eq!(engine.analysed_shapes(), 1);
}

/// One constant in two atoms, and in two disjuncts of a union, is one
/// parameter bound in both places.
#[test]
fn trap_a_constant_repeated_across_atoms_and_disjuncts() {
    let engine = cdr_engine();
    let session = engine.session();
    let mut bindings = busy_groups(&engine, 2);
    bindings.push((2, 2));
    for (cid, day) in bindings {
        let second_hop = format!("Q(c2) :- calls({cid}, {day}, c1, d1), calls(c1, {day}, c2, d2)");
        let got = session.query(second_hop.as_str()).unwrap();
        assert_eq!(got.tuples, truth(&engine, &second_hop), "{second_hop}");

        let union = format!(
            "Q(x) :- calls({cid}, {day}, x, d); Q(x) :- attach({cid}, {day}, t), tower(t, x, cap)"
        );
        let got = session.query(union.as_str()).unwrap();
        let ucq = parse_ucq(&union).unwrap();
        assert_eq!(got.tuples, engine.evaluate(ucq).unwrap().tuples, "{union}");
        assert!(!got.tuples.is_empty() || cid == day);
    }
    // Two templates, each seen unmerged twice and merged once.
    assert_eq!(engine.analysed_shapes(), 4);
}

/// A constant that occurs nowhere in the data: an empty answer from a probe
/// that finds nothing — no scan, no error.
#[test]
fn trap_a_never_seen_constant_answers_empty() {
    let engine = cdr_engine();
    let session = engine.session();
    let (cid, day) = busy_groups(&engine, 1)[0];
    let seen = format!("Q(x) :- calls({cid}, {day}, x, d)");
    assert!(!session.query(seen.as_str()).unwrap().tuples.is_empty());
    let out = session.query("Q(x) :- calls(987654321, 2, x, d)").unwrap();
    assert!(out.tuples.is_empty());
    assert_eq!(out.stats.scanned_tuples, 0);
    assert_eq!(out.stats.fetched_tuples, 0);
    assert_eq!(out.stats.fetch_calls, 1);
    assert_eq!(engine.analysed_shapes(), 1);
}

/// A rejected shape is not remembered: asked again with other constants it
/// is analysed again, and each error quotes its own query and reason.
#[test]
fn trap_a_rejected_shape_is_analysed_every_time() {
    let engine = cdr_engine();
    let session = engine.session();
    for (cid, day) in [(7, 2), (8, 3)] {
        let text = format!("Q(caller) :- calls(caller, {day}, {cid}, dur)");
        match session.query(text.as_str()) {
            Err(Error::NoRewriting { query, reason }) => {
                assert_eq!(query, parse_cq(&text).unwrap().to_string());
                assert!(reason.is_some_and(|r| r.contains("calls")));
            }
            other => panic!("{text}: {other:?}"),
        }
        let analysis = engine.analyze(text.as_str()).unwrap();
        assert!(!analysis.bounded() && analysis.reason().is_some());
    }
    assert_eq!(engine.analysed_shapes(), 0);
}

/// Variable names are part of the shape as written: a renamed variable is a
/// second entry, with the same answer.
#[test]
fn trap_renamed_variables_are_a_second_entry() {
    let engine = cdr_engine();
    let session = engine.session();
    let a = session.query("Q(x) :- calls(7, 2, x, d)").unwrap();
    let b = session
        .query("Q(callee) :- calls(7, 2, callee, d)")
        .unwrap();
    assert_eq!(a, b);
    assert_eq!(engine.analysed_shapes(), 2);
    // One plan shape under both: one compiled pipeline.
    assert_eq!(engine.cache().len(), 1);
}

/// `Engine::analyze` through the memo reports what the checker would, with
/// this query's constants in the plan, and prepares statements that share
/// the shape.
#[test]
fn analyses_and_statements_of_a_seen_shape_carry_their_own_constants() {
    let engine = cdr_engine();
    let setting = cdr_setting();
    let checker = cdr_checker(&setting);
    let template = |cid, day| cdr::workload(cid, day).swap_remove(6).query;
    engine.analyze(template(1, 1)).unwrap();
    engine.analyze(template(1, 2)).unwrap();
    for (i, (cid, day)) in [(7, 2), (2, 7), (40, 3), (3, 3)].into_iter().enumerate() {
        let direct = checker.analyze_cq(&template(cid, day)).unwrap();
        let analysis = engine.analyze(template(cid, day)).unwrap();
        assert!(analysis.bounded());
        assert_eq!(analysis.plan(), direct.plan.as_ref());
        assert_eq!(analysis.plan_size(), direct.plan_size);
        assert_eq!(analysis.fetch_bound(), direct.fetch_bound);
        let name = format!("s{i}");
        let statement = engine.prepare_from(&name, &analysis).unwrap();
        assert_eq!(statement.plan(), direct.plan.as_ref().unwrap());
        assert_eq!(
            engine.session().execute(&name).unwrap().tuples,
            truth(&engine, &template(cid, day).to_string())
        );
    }
    assert_eq!(engine.analysed_shapes(), 2);
    // Merged or not, the plan is one shape (its slots are per occurrence).
    assert_eq!(engine.cache().len(), 1);
}

// ---------------------------------------------------------------------
// (e) Concurrency.

/// Eight threads of ad-hoc reads over four shapes and three bindings against
/// one mutator.  Every answer must be the direct path's answer on a version
/// that was live between the read's submit and its response, and a thread
/// never reads backwards — the rule of `tests/server_stress.rs`.
#[test]
fn concurrent_adhoc_reads_are_answered_from_a_live_version() {
    const READERS: usize = 8;
    const ITERS: usize = 120;
    const WRITES: i64 = 16;

    let texts: Vec<String> = [(7, 2), (9, 4), (3, 3)]
        .into_iter()
        .flat_map(|(cid, day)| {
            let mut templates = cdr::workload(cid, day);
            // callees_of_day, callee_regions, premium_callees,
            // premium_callee_towers: all read the written group.
            [6, 5, 1, 0].map(|i| templates.swap_remove(i).query.to_string())
        })
        .collect();

    let engine = cdr_engine();
    let clock = AtomicU64::new(1);
    let tick = || clock.fetch_add(1, Ordering::SeqCst);
    let (writes, reads) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            (0..WRITES)
                .map(|k| {
                    let submit = tick();
                    write(&engine, k);
                    (submit, tick())
                })
                .collect::<Vec<_>>()
        });
        let readers: Vec<_> = (0..READERS)
            .map(|reader| {
                let (engine, texts, tick) = (&engine, &texts, &tick);
                scope.spawn(move || {
                    (0..ITERS)
                        .map(|round| {
                            let text = (reader + round) % texts.len();
                            let submit = tick();
                            let answer = engine.session().query(texts[text].as_str()).unwrap();
                            (text, submit, tick(), answer)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let writes = writer.join().unwrap();
        let reads: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
        (writes, reads)
    });

    // The golden chain, from a twin engine fed the same writes, through the
    // direct path.
    let setting = cdr_setting();
    let checker = cdr_checker(&setting);
    let twin = cdr_engine();
    let mut goldens: Vec<Vec<ExecOutput>> = vec![Vec::new(); texts.len()];
    for k in 0..=WRITES {
        if k > 0 {
            write(&twin, k - 1);
        }
        let replica = Replica::of(&twin);
        for (text, chain) in texts.iter().zip(&mut goldens) {
            let cq = parse_cq(text).unwrap();
            chain.push(replica.direct(&checker, &cq).expect("templates are topped"));
        }
    }
    for chain in &goldens[..4] {
        for pair in chain.windows(2) {
            assert_ne!(pair[0], pair[1], "every write moves the (7, 2) templates");
        }
    }

    for (reader, history) in reads.iter().enumerate() {
        let mut previous = 0;
        for (nth, (text, submit, response, answer)) in history.iter().enumerate() {
            let lower = writes.iter().filter(|(_, ack)| ack < submit).count();
            let upper = writes.iter().filter(|(sub, _)| sub < response).count();
            let from = lower.max(previous);
            let Some(k) = (from..=upper).find(|&k| goldens[*text][k] == *answer) else {
                let seen: Vec<usize> = (0..goldens[*text].len())
                    .filter(|&k| goldens[*text][k] == *answer)
                    .collect();
                panic!(
                    "reader {reader} read {nth} of {}: must be version {from}..={upper}, is {seen:?}",
                    texts[*text]
                );
            };
            previous = k;
        }
    }
    assert!(
        engine.analysed_shapes() <= 8,
        "four templates, merged or not"
    );
    assert_eq!(engine.cache_stats().evictions, 0);
}
