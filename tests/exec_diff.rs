//! Differential tests for the compiled plan-execution pipeline: randomized
//! plans and instances, executed by the compiled pipeline and by the retained
//! tree-walking interpreter `exec::reference`, asserting **identical answer
//! tuples and identical `FetchStats`** — the `|D_ξ|` accounting is part of
//! the bounded-rewriting contract, not a side channel.

use bqr_data::{
    tuple, AccessConstraint, AccessSchema, Database, DatabaseSchema, IndexedDatabase, Value,
};
use bqr_plan::builder::Plan;
use bqr_plan::exec::{execute, reference, Pipeline};
use bqr_plan::{PlanNode, QueryPlan, SelectCondition};
use bqr_query::parser::parse_cq;
use bqr_query::{MaterializedViews, ViewSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAX_ARITY: usize = 6;

fn schema() -> DatabaseSchema {
    DatabaseSchema::with_relations(&[("r", &["a", "b"]), ("s", &["b", "c"]), ("t", &["c"])])
        .unwrap()
}

fn constraints() -> Vec<AccessConstraint> {
    vec![
        AccessConstraint::new("r", &["a"], &["b"], 3).unwrap(),
        AccessConstraint::new("s", &["b"], &["c"], 4).unwrap(),
        // Empty X: the fetch retrieves the whole bounded relation.
        AccessConstraint::new("t", &[], &["c"], 16).unwrap(),
    ]
}

/// A random instance over a small value domain, so joins and fetches hit.
/// One instance in eight has no `r` tuple, one in eight no `s` tuple, so the
/// extents of `Vr` and `W` are sometimes empty.
fn random_instance(rng: &mut StdRng) -> (IndexedDatabase, MaterializedViews) {
    let mut db = Database::empty(schema());
    let rows = |rng: &mut StdRng| match rng.gen_range(0..8u32) {
        0 => 0,
        _ => rng.gen_range(10..40usize),
    };
    for _ in 0..rows(rng) {
        db.insert(
            "r",
            tuple![rng.gen_range(0..12i64), rng.gen_range(0..12i64)],
        )
        .unwrap();
    }
    for _ in 0..rows(rng) {
        db.insert(
            "s",
            tuple![rng.gen_range(0..12i64), rng.gen_range(0..12i64)],
        )
        .unwrap();
    }
    for _ in 0..rng.gen_range(1..8usize) {
        db.insert("t", tuple![rng.gen_range(0..12i64)]).unwrap();
    }
    let mut views = ViewSet::empty();
    views
        .add_cq("Vr", parse_cq("Vr(x, y) :- r(x, y)").unwrap())
        .unwrap();
    views
        .add_cq("W", parse_cq("W(x) :- s(x, y)").unwrap())
        .unwrap();
    let cache = views.materialize(&db).unwrap();
    let idb = IndexedDatabase::build(db, AccessSchema::new(constraints())).unwrap();
    (idb, cache)
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

/// Project both sides of a binary set operator to a shared arity.
fn align(rng: &mut StdRng, left: Plan, right: Plan) -> (Plan, Plan) {
    let arity = left.arity().min(right.arity());
    let shrink = |rng: &mut StdRng, p: Plan| {
        if p.arity() == arity {
            return p;
        }
        let mut cols: Vec<usize> = (0..p.arity()).collect();
        // Random column choice keeps the generator from always aligning on
        // prefixes.
        while cols.len() > arity {
            let drop = rng.gen_range(0..cols.len());
            cols.remove(drop);
        }
        p.project(cols)
    };
    (shrink(rng, left), shrink(rng, right))
}

fn random_conditions(rng: &mut StdRng, arity: usize) -> Vec<SelectCondition> {
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

/// How often each shape of a join with a view leaf as an operand (what
/// compiles to the executor's view probe) was produced, by name.
type ProbeShapes = std::collections::BTreeMap<&'static str, usize>;

const PROBE_SHAPES: [&str; 9] = [
    "view left",
    "view right",
    "view on both sides",
    "two-column key",
    "view column equated twice",
    "non-prefix key",
    "≠ residual",
    "empty input",
    "empty extent",
];

fn seen(shapes: &mut ProbeShapes, shape: &'static str) {
    *shapes.entry(shape).or_default() += 1;
}

fn is_view_leaf(plan: &Plan) -> bool {
    let mut node = plan.node();
    while let PlanNode::Rename { input } = node {
        node = input;
    }
    matches!(node, PlanNode::View { .. })
}

/// A σ-over-× equi-join with a view leaf (sometimes behind a rename) as an
/// operand: on either side or both, keyed on one or two view columns, on a
/// non-prefix column, with one view column equated with two columns of the
/// other operand, with `≠` residuals, against an always-empty operand.
fn gen_view_join(rng: &mut StdRng, depth: usize, shapes: &mut ProbeShapes) -> Plan {
    let view = |rng: &mut StdRng| {
        let view = match rng.gen_range(0..2u32) {
            0 => Plan::view("Vr", 2),
            _ => Plan::view("W", 1),
        };
        match rng.gen_range(0..4u32) {
            0 => view.rename(),
            _ => view,
        }
    };
    let other = match rng.gen_range(0..6u32) {
        0 => view(rng),
        1 => {
            seen(shapes, "empty input");
            Plan::constant(vec![rand_value(rng)]).select(vec![SelectCondition::ColNeCol(0, 0)])
        }
        _ => gen_plan(rng, depth - 1, shapes),
    };
    if other.arity() == 0 || other.arity() + 2 > MAX_ARITY {
        return other;
    }
    let probed = view(rng);
    let view_left = rng.gen_range(0..2u32) == 0;
    match (is_view_leaf(&other), view_left) {
        (true, _) => seen(shapes, "view on both sides"),
        (false, true) => seen(shapes, "view left"),
        (false, false) => seen(shapes, "view right"),
    }
    let (view_arity, other_arity) = (probed.arity(), other.arity());
    // (view column, other column) pairs.
    let mut pairs = vec![(rng.gen_range(0..view_arity), rng.gen_range(0..other_arity))];
    match rng.gen_range(0..3u32) {
        0 if view_arity == 2 => {
            seen(shapes, "two-column key");
            pairs.push((1 - pairs[0].0, rng.gen_range(0..other_arity)));
        }
        1 => {
            seen(shapes, "view column equated twice");
            pairs.push((pairs[0].0, rng.gen_range(0..other_arity)));
        }
        _ => {}
    }
    if pairs.iter().all(|p| p.0 != 0) {
        seen(shapes, "non-prefix key");
    }
    let (left, right) = if view_left {
        (probed, other)
    } else {
        (other, probed)
    };
    let left_arity = left.arity();
    let mut conds: Vec<SelectCondition> = pairs
        .iter()
        .map(|&(v, o)| match view_left {
            true => SelectCondition::ColEqCol(v, left_arity + o),
            false => SelectCondition::ColEqCol(left_arity + v, o),
        })
        .collect();
    let arity = left_arity + right.arity();
    match rng.gen_range(0..4u32) {
        0 => conds.push(SelectCondition::ColNeCol(
            rng.gen_range(0..arity),
            rng.gen_range(0..arity),
        )),
        1 => conds.push(SelectCondition::ColNeConst(
            rng.gen_range(0..arity),
            rand_value(rng),
        )),
        _ => return left.product(right).select(conds),
    }
    seen(shapes, "≠ residual");
    left.product(right).select(conds)
}

fn gen_plan(rng: &mut StdRng, depth: usize, shapes: &mut ProbeShapes) -> Plan {
    if depth == 0 {
        return leaf(rng);
    }
    match rng.gen_range(0..13u32) {
        12 => gen_view_join(rng, depth, shapes),
        0 | 1 => leaf(rng),
        2 | 3 => {
            // Projection (possibly widening by repeating columns, possibly
            // onto the empty column list).
            let child = gen_plan(rng, depth - 1, shapes);
            if child.arity() == 0 {
                return child;
            }
            let n = rng.gen_range(0..=child.arity().min(3));
            let cols: Vec<usize> = (0..n).map(|_| rng.gen_range(0..child.arity())).collect();
            child.project(cols)
        }
        4 => {
            let child = gen_plan(rng, depth - 1, shapes);
            if child.arity() == 0 {
                return child;
            }
            let conds = random_conditions(rng, child.arity());
            child.select(conds)
        }
        5 => gen_plan(rng, depth - 1, shapes).rename(),
        6 | 7 => {
            // A fetch through a random constraint, padding the input with
            // constant columns when it is too narrow for the key.
            let constraint = constraints()[rng.gen_range(0..3usize)].clone();
            let key_len = constraint.x().len();
            let mut child = gen_plan(rng, depth - 1, shapes);
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
            let left = gen_plan(rng, depth - 1, shapes);
            let right = gen_plan(rng, depth - 1, shapes);
            if left.arity() + right.arity() > MAX_ARITY {
                return left;
            }
            left.product(right)
        }
        9 => {
            // The σ-over-× join pattern (compiles to a hash join).
            let left = gen_plan(rng, depth - 1, shapes);
            let right = gen_plan(rng, depth - 1, shapes);
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
                let l = gen_plan(rng, depth - 1, shapes);
                let r = gen_plan(rng, depth - 1, shapes);
                align(rng, l, r)
            };
            left.union(right)
        }
        _ => {
            let (left, right) = {
                let l = gen_plan(rng, depth - 1, shapes);
                let r = gen_plan(rng, depth - 1, shapes);
                align(rng, l, r)
            };
            left.difference(right)
        }
    }
}

fn assert_equivalent(plan: &QueryPlan, idb: &IndexedDatabase, views: &MaterializedViews) {
    let expected = reference::execute(plan, idb, views).expect("generated plans execute");
    let got = execute(plan, idb, views).expect("generated plans compile");
    assert_eq!(expected.tuples, got.tuples, "answers diverge on\n{plan}");
    assert_eq!(expected.stats, got.stats, "FetchStats diverge on\n{plan}");
}

/// ≥ 200 randomized plan/instance pairs, tuples and stats equal.
#[test]
fn compiled_pipeline_matches_reference_on_random_plans() {
    let mut rng = StdRng::seed_from_u64(0xB9_5EED);
    let mut executed = 0usize;
    let mut with_fetch = 0usize;
    let mut with_join = 0usize;
    let mut shapes = ProbeShapes::default();
    let mut attempts = 0usize;
    while executed < 400 {
        attempts += 1;
        assert!(attempts < 5_000, "generator degenerated");
        let (idb, views) = random_instance(&mut rng);
        let Ok(plan) = gen_plan(&mut rng, 3, &mut shapes).build() else {
            continue;
        };
        assert_equivalent(&plan, &idb, &views);
        executed += 1;
        let text = Pipeline::compile(&plan, &idb, &views).unwrap().describe();
        let probes_empty = |line: &str| line.contains("view-probe") && line.contains("[0 rows]");
        if text.lines().any(probes_empty) {
            seen(&mut shapes, "empty extent");
        }
        if !plan.fetches().is_empty() {
            with_fetch += 1;
        }
        if format!("{plan}").contains('×') {
            with_join += 1;
        }
    }
    // The generator must actually exercise the interesting operators.
    assert!(with_fetch >= 30, "only {with_fetch} plans fetched");
    assert!(with_join >= 30, "only {with_join} plans joined");
    // … and every shape of the view probe, several times each.
    for shape in PROBE_SHAPES {
        let times = shapes.get(shape).copied().unwrap_or(0);
        assert!(times >= 5, "{shape}: only {times} plans in {shapes:?}");
    }
}

/// A deterministic case whose operators span several guard intervals
/// (`CHECK_INTERVAL` = 1 024 rows), so probes, selections and dedups that
/// check and charge the guard more than once are exercised (random
/// instances stay inside one interval).
#[test]
fn multi_batch_operators_match_the_reference() {
    let schema = DatabaseSchema::with_relations(&[("e", &["x", "y"])]).unwrap();
    let mut db = Database::empty(schema);
    for i in 0..6_000i64 {
        db.insert("e", tuple![i % 600, i]).unwrap();
    }
    let mut views = ViewSet::empty();
    views
        .add_cq("E", parse_cq("E(x, y) :- e(x, y)").unwrap())
        .unwrap();
    let cache = views.materialize(&db).unwrap();
    let idb = IndexedDatabase::build(db, AccessSchema::empty()).unwrap();
    let plan = Plan::view("E", 2)
        .join_eq(Plan::view("E", 2), &[(0, 0)])
        .select(vec![SelectCondition::ColNeCol(1, 3)])
        .project(vec![1, 3])
        .build()
        .unwrap();
    assert!(
        cache.extent("E").unwrap().len() > 4 * 1_024,
        "the probe side must span several guard intervals"
    );
    assert_equivalent(&plan, &idb, &cache);
}
