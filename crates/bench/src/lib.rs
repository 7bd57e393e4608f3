//! # bqr-bench — experiment harness
//!
//! The library half of the benchmark crate: shared measurement helpers used
//! both by the `harness` binary (which prints the experiment tables, writes
//! the committed `BENCH_hom.json`, `BENCH_plan.json` and `BENCH_serve.json`
//! reports, and whose figures the ROADMAP tables quote) and by the
//! Criterion benches.

use bqr_core::problem::RewritingSetting;
use bqr_core::size_bounded::BoundedOutputOracle;
use bqr_core::topped::{ToppedAnalysis, ToppedChecker};
use bqr_data::{Database, FetchStats, IndexedDatabase};
use bqr_plan::QueryPlan;
use bqr_query::eval::Evaluator;
use bqr_query::{ConjunctiveQuery, MaterializedViews};
use std::time::Instant;

/// The result of answering one query both ways.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Base tuples accessed by the bounded plan (`|D_ξ|`).
    pub bounded_access: usize,
    /// Base tuples accessed by the naive evaluation.
    pub naive_access: usize,
    /// Wall-clock milliseconds for the bounded plan.
    pub bounded_ms: f64,
    /// Wall-clock milliseconds for the naive evaluation.
    pub naive_ms: f64,
    /// Number of answers (identical for both, asserted).
    pub answers: usize,
}

impl Comparison {
    /// Access reduction factor (naive / bounded).
    pub fn access_reduction(&self) -> f64 {
        guarded_ratio(self.naive_access as f64, self.bounded_access as f64)
    }

    /// Speed-up factor (naive / bounded wall-clock).
    pub fn speedup(&self) -> f64 {
        guarded_ratio(self.naive_ms, self.bounded_ms)
    }
}

/// `naive / bounded` with one consistent guard for zero-ish denominators:
/// `0/0` reports parity (`1.0`), a strictly positive numerator over a
/// zero-ish denominator reports `+∞`.  Timings below a nanosecond and
/// zero-tuple accesses both count as zero-ish, so `speedup` and
/// `access_reduction` behave identically at the boundary instead of one
/// clamping and the other dividing by an epsilon.
pub(crate) fn guarded_ratio(naive: f64, bounded: f64) -> f64 {
    const ZERO_ISH: f64 = 1e-9;
    if bounded <= ZERO_ISH {
        if naive <= ZERO_ISH {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        naive / bounded
    }
}

/// Build the runtime objects for a setting over one instance.
pub fn prepare(setting: &RewritingSetting, db: Database) -> (IndexedDatabase, MaterializedViews) {
    let cache = setting
        .views
        .materialize(&db)
        .expect("views materialise over generated instances");
    let idb = IndexedDatabase::build(db, setting.access.clone())
        .expect("indices build over generated instances");
    (idb, cache)
}

/// A topped-query checker with the given per-view output-bound annotations.
pub fn checker_with_annotations<'a>(
    setting: &'a RewritingSetting,
    annotations: &[(&str, usize)],
) -> ToppedChecker<'a> {
    let mut oracle = BoundedOutputOracle::new(
        setting.schema.clone(),
        setting.access.clone(),
        setting.budget,
    );
    for (name, bound) in annotations {
        oracle.annotate_view(*name, *bound);
    }
    ToppedChecker::with_oracle(setting, oracle)
}

/// Analyse a query; panics with the rejection reason if it is not topped
/// (benchmark workloads are designed so their rewritable queries are topped).
pub fn plan_for(checker: &ToppedChecker<'_>, query: &ConjunctiveQuery) -> ToppedAnalysis {
    checker
        .analyze_cq(query)
        .expect("the analysis itself does not fail")
}

/// Execute one query both through a bounded plan and naively, asserting that
/// the answers agree.  One-shot; use [`compare_with`] to share an
/// [`Evaluator`]'s relation-index cache across a workload.
pub fn compare(
    query: &ConjunctiveQuery,
    plan: &QueryPlan,
    idb: &IndexedDatabase,
    cache: &MaterializedViews,
) -> Comparison {
    compare_with(&Evaluator::new(), query, plan, idb, cache)
}

/// [`compare`] with a caller-provided evaluator, so repeated comparisons
/// against the same instance reuse the naive engine's hash indexes.
pub fn compare_with(
    evaluator: &Evaluator,
    query: &ConjunctiveQuery,
    plan: &QueryPlan,
    idb: &IndexedDatabase,
    cache: &MaterializedViews,
) -> Comparison {
    let t = Instant::now();
    let bounded = bqr_plan::execute(plan, idb, cache).expect("bounded plans execute");
    let bounded_ms = t.elapsed().as_secs_f64() * 1_000.0;

    let t = Instant::now();
    let mut naive_stats = FetchStats::new();
    let naive = evaluator
        .eval_cq_counting(query, idb.database(), Some(cache), &mut naive_stats)
        .expect("naive evaluation succeeds");
    let naive_ms = t.elapsed().as_secs_f64() * 1_000.0;

    assert_eq!(bounded.tuples, naive, "bounded rewriting must be exact");
    Comparison {
        bounded_access: bounded.stats.base_tuples_accessed(),
        naive_access: naive_stats.base_tuples_accessed(),
        bounded_ms,
        naive_ms,
        answers: naive.len(),
    }
}

/// The `hom` microbenchmark: the slot-based homomorphism engine with cached
/// relation indexes versus the retained pre-refactor engine, on repeated
/// containment checks (the dominant cost of the `A`-equivalence and exact
/// VBRP procedures), plus the cyclic-workload cases where the cost-based
/// planner's generic join is measured against the PR 1 fixed-order engine.
/// Shared by `benches/hom.rs` and the harness's `hom` mode, which persists
/// the numbers to `BENCH_hom.json`.
pub mod hom_bench {
    use bqr_data::{Database, DatabaseSchema, Relation};
    use bqr_query::atom::Term;
    use bqr_query::canonical::canonical_instance;
    use bqr_query::containment::ContainmentChecker;
    use bqr_query::eval::Evaluator;
    use bqr_query::hom::{reference, Assignment};
    use bqr_query::parser::parse_cq;
    use bqr_query::{ConjunctiveQuery, JoinStrategy, PlannerConfig};
    use bqr_workload::movies;
    use std::collections::BTreeMap;
    use std::time::Instant;

    /// One containment case: a `(q1, q2, schema)` triple plus the expected
    /// verdict (asserted by both engines on every run).
    pub struct ContainmentCase {
        pub name: &'static str,
        pub q1: ConjunctiveQuery,
        pub q2: ConjunctiveQuery,
        pub schema: DatabaseSchema,
        pub expected: bool,
    }

    /// The measured result of one case.
    #[derive(Debug, Clone)]
    pub struct CaseResult {
        pub name: &'static str,
        pub repeats: usize,
        /// Pre-refactor engine: canonical instance and hash indexes rebuilt
        /// on every check (exactly what the old `cq_contained_in` did).
        pub baseline_ms: f64,
        /// Slot engine through a shared [`ContainmentChecker`]: canonical
        /// instances memoised, indexes cached.
        pub slot_cached_ms: f64,
    }

    impl CaseResult {
        /// Wall-clock improvement factor (baseline / slot), with the same
        /// zero-denominator convention as [`Comparison`](crate::Comparison).
        pub fn speedup(&self) -> f64 {
            crate::guarded_ratio(self.baseline_ms, self.slot_cached_ms)
        }
    }

    fn path_query(len: usize) -> ConjunctiveQuery {
        let mut body = String::from("Q() :- e(x0, x1)");
        for i in 1..len {
            body.push_str(&format!(", e(x{i}, x{})", i + 1));
        }
        parse_cq(&body).unwrap()
    }

    /// The benchmark's containment cases.
    pub fn cases() -> Vec<ContainmentCase> {
        let path_schema = DatabaseSchema::with_relations(&[("e", &["src", "dst"])]).unwrap();
        let movie_unfolded = movies::views().unfold_cq(&movies::q_xi()).unwrap();
        vec![
            ContainmentCase {
                name: "path6_in_path3",
                q1: path_query(6),
                q2: path_query(3),
                schema: path_schema.clone(),
                expected: true,
            },
            ContainmentCase {
                name: "path3_not_in_path6",
                q1: path_query(3),
                q2: path_query(6),
                schema: path_schema,
                expected: false,
            },
            ContainmentCase {
                name: "movie_q0_in_unfolded_rewriting",
                q1: movies::q0(),
                q2: movie_unfolded,
                schema: movies::schema(),
                expected: true,
            },
        ]
    }

    /// The pre-refactor containment test: fresh canonical instance, fresh
    /// indexes, `BTreeMap`-driven search — per call.
    pub fn reference_cq_contained_in(
        q1: &ConjunctiveQuery,
        q2: &ConjunctiveQuery,
        schema: &DatabaseSchema,
    ) -> bool {
        let canon = canonical_instance(q1, schema).expect("benchmark queries are valid");
        let mut initial = Assignment::new();
        for (i, term) in q2.head().iter().enumerate() {
            let want = &canon.summary[i];
            match term {
                Term::Const(c) => {
                    if c != want {
                        return false;
                    }
                }
                Term::Var(v) => match initial.get(v) {
                    Some(existing) if existing != want => return false,
                    _ => {
                        initial.insert(v.clone(), want.clone());
                    }
                },
            }
        }
        let relations: BTreeMap<String, &Relation> = q2
            .relation_names()
            .into_iter()
            .map(|name| {
                let rel = canon.database.relation(&name).expect("base relations only");
                (name, rel)
            })
            .collect();
        reference::has_homomorphism(q2.atoms(), &relations, &initial)
            .expect("benchmark searches succeed")
    }

    /// Run one case `repeats`× through both engines, asserting agreement.
    pub fn run_case(case: &ContainmentCase, repeats: usize) -> CaseResult {
        let t = Instant::now();
        for _ in 0..repeats {
            let got = reference_cq_contained_in(&case.q1, &case.q2, &case.schema);
            assert_eq!(
                got, case.expected,
                "baseline verdict changed on {}",
                case.name
            );
        }
        let baseline_ms = t.elapsed().as_secs_f64() * 1_000.0;

        let checker = ContainmentChecker::new(&case.schema);
        let t = Instant::now();
        for _ in 0..repeats {
            let got = checker.cq_contained_in(&case.q1, &case.q2).unwrap();
            assert_eq!(got, case.expected, "slot verdict changed on {}", case.name);
        }
        let slot_cached_ms = t.elapsed().as_secs_f64() * 1_000.0;

        CaseResult {
            name: case.name,
            repeats,
            baseline_ms,
            slot_cached_ms,
        }
    }

    /// One cyclic-evaluation case: a query over an adversarial graph where
    /// the atom-at-a-time engine is forced through a quadratic intermediate
    /// result while the generic join stays near-linear.  The baseline is the
    /// PR 1 fixed-order slot engine ([`JoinStrategy::Heuristic`]); the
    /// contender is the cost-based planner ([`JoinStrategy::Auto`], which
    /// picks generic join for these shapes).
    pub struct EvalCase {
        pub name: &'static str,
        pub query: ConjunctiveQuery,
        pub db: Database,
    }

    /// The AGM-style lower-bound instance for the triangle query: a
    /// tripartite graph `A → B → C → A` where one hub node per part is
    /// connected to everything in the next part.  `|E| = 6n`, the triangle
    /// count is `Θ(n)`, but every atom order must enumerate a `Θ(n²)`
    /// intermediate join.  Node encoding: `A = 3i`, `B = 3i+1`, `C = 3i+2`.
    fn agm_graph(n: i64, parts: i64) -> Database {
        let schema = DatabaseSchema::with_relations(&[("e", &["src", "dst"])]).unwrap();
        let mut db = Database::empty(schema);
        let node = |part: i64, i: i64| part + parts * i;
        for part in 0..parts {
            let next = (part + 1) % parts;
            for i in 0..n {
                // Hub of this part reaches everything in the next part, and
                // everything in this part reaches the next part's hub.
                db.insert("e", bqr_data::tuple![node(part, 0), node(next, i)])
                    .unwrap();
                db.insert("e", bqr_data::tuple![node(part, i), node(next, 0)])
                    .unwrap();
            }
        }
        db
    }

    fn k_cycle_query(k: usize) -> ConjunctiveQuery {
        let mut body = String::from("Q() :- ");
        for i in 0..k {
            if i > 0 {
                body.push_str(", ");
            }
            body.push_str(&format!("e(x{i}, x{})", (i + 1) % k));
        }
        parse_cq(&body).unwrap()
    }

    /// A skewed chain instance for the cost-model case: `u` is large, `t` is
    /// tiny, and only a handful of `e`-edges reach `t`.  With no constants
    /// anywhere the PR 1 heuristic scores every atom equally and falls back
    /// to declaration order, starting from the big unary relation and
    /// scanning all of it; the cost-based order ignores declaration order,
    /// starts from `t` and probes backwards, touching a constant number of
    /// tuples.
    fn skewed_chain(n: i64) -> (ConjunctiveQuery, Database) {
        let schema =
            DatabaseSchema::with_relations(&[("u", &["a"]), ("e", &["a", "b"]), ("t", &["b"])])
                .unwrap();
        let mut db = Database::empty(schema);
        for i in 0..n {
            db.insert("u", bqr_data::tuple![i]).unwrap();
            db.insert("e", bqr_data::tuple![i, n + i]).unwrap();
        }
        for i in 0..3i64 {
            db.insert("t", bqr_data::tuple![n + i]).unwrap();
        }
        let query = parse_cq("Q() :- t(y), e(x, y), u(x)").unwrap();
        (query, db)
    }

    /// A skewed even cycle (C4): four relations closing a 4-cycle
    /// `e1 ⋈ e2 ⋈ e3 ⋈ e4`, where `e2` and `e4` fan out `n`-wide from every
    /// hub but only one successor continues the cycle.  Every atom-at-a-time
    /// order meets one of the heavy relations before both cycle-closing
    /// checks are available and wades through a `Θ(k·n)` intermediate; the
    /// degree-aware generic join (PR 3) seeds with the *opposite corners*
    /// `x0` and `x2` — pools of size `k` — and then eliminates `x1`/`x3`
    /// with two bound neighbours each, touching `Θ(k²)` pairs.  This is the
    /// C4 gap ROADMAP recorded from the PR 2 4-cycle experiments: with only
    /// one bound neighbour per level (any connected order), generic join's
    /// intersections never prune.
    fn skewed_c4(k: i64, fanout: i64) -> (ConjunctiveQuery, Database) {
        let schema = DatabaseSchema::with_relations(&[
            ("e1", &["a", "b"]),
            ("e2", &["b", "c"]),
            ("e3", &["c", "d"]),
            ("e4", &["d", "a"]),
        ])
        .unwrap();
        let mut db = Database::empty(schema);
        for i in 0..k {
            let (a, b, c, d) = (i, 1_000_000 + i, 2_000_000 + i, 3_000_000 + i);
            db.insert("e1", bqr_data::tuple![a, b]).unwrap();
            db.insert("e2", bqr_data::tuple![b, c]).unwrap();
            db.insert("e3", bqr_data::tuple![c, d]).unwrap();
            db.insert("e4", bqr_data::tuple![d, a]).unwrap();
            for t in 0..fanout {
                // Dead-end fan-out: c-values absent from e3, a-values absent
                // from e1.
                db.insert("e2", bqr_data::tuple![b, 4_000_000 + i * fanout + t])
                    .unwrap();
                db.insert("e4", bqr_data::tuple![d, 5_000_000 + i * fanout + t])
                    .unwrap();
            }
        }
        let query = parse_cq("Q() :- e1(x0, x1), e2(x1, x2), e3(x2, x3), e4(x3, x0)").unwrap();
        (query, db)
    }

    /// The planner evaluation cases of the `hom` benchmark: the cyclic
    /// (triangle) workload where generic join wins, the skewed 4-cycle where
    /// the PR 3 degree-aware variable order makes even cycles prune, and the
    /// skewed chain where the selectivity cost model wins.
    pub fn eval_cases() -> Vec<EvalCase> {
        let (chain_query, chain_db) = skewed_chain(20_000);
        let (c4_query, c4_db) = skewed_c4(50, 400);
        vec![
            EvalCase {
                name: "triangle_agm_n400",
                query: k_cycle_query(3),
                db: agm_graph(400, 3),
            },
            EvalCase {
                name: "c4_n400",
                query: c4_query,
                db: c4_db,
            },
            EvalCase {
                name: "chain_skew_n20000",
                query: chain_query,
                db: chain_db,
            },
        ]
    }

    /// Run one cyclic case `repeats`× under the fixed-order baseline and the
    /// planner, asserting both produce the same answers.  Warm caches on
    /// both sides: the comparison isolates join strategy, not caching.
    pub fn run_eval_case(case: &EvalCase, repeats: usize) -> CaseResult {
        let fixed =
            Evaluator::new().with_planner(PlannerConfig::with_strategy(JoinStrategy::Heuristic));
        let planned =
            Evaluator::new().with_planner(PlannerConfig::with_strategy(JoinStrategy::Auto));
        let expected = fixed.eval_cq(&case.query, &case.db, None).unwrap();
        assert_eq!(
            expected,
            planned.eval_cq(&case.query, &case.db, None).unwrap(),
            "strategies disagree on {}",
            case.name
        );

        let t = Instant::now();
        for _ in 0..repeats {
            let got = fixed.eval_cq(&case.query, &case.db, None).unwrap();
            assert_eq!(got.len(), expected.len());
        }
        let baseline_ms = t.elapsed().as_secs_f64() * 1_000.0;

        let t = Instant::now();
        for _ in 0..repeats {
            let got = planned.eval_cq(&case.query, &case.db, None).unwrap();
            assert_eq!(got.len(), expected.len());
        }
        let slot_cached_ms = t.elapsed().as_secs_f64() * 1_000.0;

        CaseResult {
            name: case.name,
            repeats,
            baseline_ms,
            slot_cached_ms,
        }
    }

    /// How often each cyclic evaluation case runs in the committed report.
    pub const EVAL_REPEATS: usize = 10;

    /// How often the cold-enumeration case runs in the committed report.
    pub const COLD_REPEATS: usize = 10;

    /// The name of the cold-path guard row in `BENCH_hom.json`.
    pub const COLD_ENUMERATION_CASE: &str = "cold_enumeration_movies";

    /// How much slower than the reference engine a *cold* single-shot slot
    /// enumeration may be before the harness's `hom` mode fails.  The cost
    /// pinned here is the one-time index build per (relation, access
    /// pattern) ROADMAP records as the "known cost" of the slot engine; the
    /// headroom absorbs run-to-run noise while still catching a silently
    /// growing cold path.
    pub const COLD_ENUMERATION_MAX_RATIO: f64 = 5.0;

    /// The cold-path guard: one-shot homomorphism enumeration over a movies
    /// instance, slot engine vs reference engine, **cold caches on every
    /// call** — each slot call builds its indexes into a transient cache (a
    /// relation keeps nothing the search derives from it) and pays the full
    /// per-epoch build cost that every repeated workload amortises away.
    /// Reported as `baseline_ms` =
    /// reference engine, `slot_cached_ms` = cold slot engine (so the row's
    /// `speedup` is *below* 1 by design — it is a cost pin, not a win).
    pub fn run_cold_enumeration(repeats: usize) -> CaseResult {
        use bqr_query::hom::{enumerate_homomorphisms, MatchLimit};

        let db = movies::generate(movies::MovieScale {
            persons: 2_000,
            movies: 500,
            n0: 50,
            seed: 11,
        });
        let rels: BTreeMap<String, &Relation> =
            db.relations().map(|r| (r.name().to_string(), r)).collect();
        let atoms = movies::q0().atoms().to_vec();
        let limit = MatchLimit::AtMost(100_000);

        let t = Instant::now();
        let mut reference_matches = 0usize;
        for _ in 0..repeats {
            reference_matches =
                reference::enumerate_homomorphisms(&atoms, &rels, &Assignment::new(), limit)
                    .expect("reference enumeration succeeds")
                    .len();
        }
        let baseline_ms = t.elapsed().as_secs_f64() * 1_000.0;

        let t = Instant::now();
        for _ in 0..repeats {
            let matches = enumerate_homomorphisms(&atoms, &rels, &Assignment::new(), limit)
                .expect("slot enumeration succeeds")
                .len();
            assert_eq!(matches, reference_matches, "engines disagree cold");
        }
        let slot_cached_ms = t.elapsed().as_secs_f64() * 1_000.0;

        CaseResult {
            name: COLD_ENUMERATION_CASE,
            repeats,
            baseline_ms,
            slot_cached_ms,
        }
    }

    /// Run every case and render the machine-readable report committed as
    /// `BENCH_hom.json`.  Containment rows compare the slot engine against
    /// the pre-refactor reference engine; the cyclic `*_agm_*` rows compare
    /// the cost-based planner (generic join) against the PR 1 fixed-order
    /// slot engine; the `cold_enumeration_movies` row pins the cold
    /// single-shot cost (see [`run_cold_enumeration`]).
    pub fn report(repeats: usize) -> (Vec<CaseResult>, String) {
        let mut results: Vec<CaseResult> = cases().iter().map(|c| run_case(c, repeats)).collect();
        results.extend(eval_cases().iter().map(|c| run_eval_case(c, EVAL_REPEATS)));
        results.push(run_cold_enumeration(COLD_REPEATS));
        let mut json = String::from("{\n  \"bench\": \"hom\",\n  \"unit\": \"ms\",\n");
        json.push_str(&format!("  \"repeats\": {repeats},\n  \"cases\": [\n"));
        for (i, r) in results.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"repeats\": {}, \"baseline_ms\": {:.3}, \"slot_cached_ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
                r.name,
                r.repeats,
                r.baseline_ms,
                r.slot_cached_ms,
                r.speedup(),
                if i + 1 < results.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        (results, json)
    }
}

/// The `plan` benchmark: the compiled operator pipeline of `bqr-plan::exec`
/// (interned ids, hash joins, id-native fetches) versus the retained
/// tree-walking interpreter (`exec::reference`), on real plan executions —
/// the movies rewriting of Fig. 1's shape, a CDR analytics rewriting, and an
/// AGM-style triangle join over cached views — plus the sharded-parallel
/// scaling rows (`ExecOptions`) on the largest workload.  Shared by
/// `benches/plan.rs` and the harness's `plan` mode, which persists the
/// numbers to `BENCH_plan.json` and fails if the compiled executor is slower
/// than the reference on the movies workload.
pub mod plan_bench {
    use crate::{checker_with_annotations, plan_for, prepare};
    use bqr_data::{Database, DatabaseSchema, IndexedDatabase};
    use bqr_plan::builder::Plan;
    use bqr_plan::exec::{reference, ExecOptions, Pipeline};
    use bqr_plan::QueryPlan;
    use bqr_query::parser::parse_cq;
    use bqr_query::{MaterializedViews, ViewSet};
    use bqr_workload::{cdr, movies};
    use std::time::Instant;

    /// One plan-execution case: a bounded plan plus the runtime objects it
    /// executes against.
    pub struct PlanCase {
        pub name: &'static str,
        pub plan: QueryPlan,
        pub idb: IndexedDatabase,
        pub views: MaterializedViews,
        pub repeats: usize,
    }

    /// The measured result of one case.
    #[derive(Debug, Clone)]
    pub struct PlanCaseResult {
        pub name: &'static str,
        pub repeats: usize,
        /// The tree-walking interpreter (`exec::reference`).
        pub reference_ms: f64,
        /// The compiled pipeline, serial.
        pub compiled_ms: f64,
    }

    impl PlanCaseResult {
        /// Wall-clock improvement factor (reference / compiled).
        pub fn speedup(&self) -> f64 {
            crate::guarded_ratio(self.reference_ms, self.compiled_ms)
        }
    }

    /// One sharded-parallel measurement.
    #[derive(Debug, Clone)]
    pub struct ParallelResult {
        pub name: &'static str,
        pub shards: usize,
        pub ms: f64,
        /// serial-compiled ms / this ms.
        pub scaling: f64,
    }

    /// The AGM-style triangle instance of the `hom` benchmark, exposed as a
    /// *plan* over a cached edge view: `π[x,y,z] σ(join) (E × E × E)`.  The
    /// σ-over-× pattern compiles to two hash joins over a `Θ(n²)`
    /// intermediate — exactly the shape where the interpreter's
    /// `BTreeSet<Tuple>` materialisation is the bottleneck, and the largest
    /// workload for the parallel-scaling rows.
    pub fn triangle_case(n: i64, repeats: usize) -> PlanCase {
        let schema = DatabaseSchema::with_relations(&[("e", &["src", "dst"])]).unwrap();
        let mut db = Database::empty(schema);
        let parts = 3i64;
        let node = |part: i64, i: i64| part + parts * i;
        for part in 0..parts {
            let next = (part + 1) % parts;
            for i in 0..n {
                db.insert("e", bqr_data::tuple![node(part, 0), node(next, i)])
                    .unwrap();
                db.insert("e", bqr_data::tuple![node(part, i), node(next, 0)])
                    .unwrap();
            }
        }
        let mut views = ViewSet::empty();
        views
            .add_cq("E", parse_cq("E(x, y) :- e(x, y)").unwrap())
            .unwrap();
        let cache = views.materialize(&db).unwrap();
        let idb = IndexedDatabase::build(db, bqr_data::AccessSchema::empty()).unwrap();
        // (x, y) ⋈ (y, z) ⋈ (z, x), then project the triangle.
        let plan = Plan::view("E", 2)
            .join_eq(Plan::view("E", 2), &[(1, 0)])
            .join_eq(Plan::view("E", 2), &[(3, 0), (0, 1)])
            .project(vec![0, 1, 3])
            .build()
            .unwrap();
        PlanCase {
            name: "triangle_agm_n400_plan",
            plan,
            idb,
            views: cache,
            repeats,
        }
    }

    /// Movies: the Fig.-1-shaped rewriting generated by the topped checker,
    /// over an 8k-person instance.
    fn movies_case() -> PlanCase {
        let setting = movies::setting(100, 40);
        let checker = checker_with_annotations(&setting, &[]);
        let analysis = plan_for(&checker, &movies::q_xi());
        let db = movies::generate(movies::MovieScale {
            persons: 8_000,
            movies: 2_000,
            n0: 100,
            seed: 1,
        });
        let (idb, cache) = prepare(&setting, db);
        PlanCase {
            name: "movies_qxi_8k",
            plan: analysis.plan.expect("movies rewriting is topped"),
            idb,
            views: cache,
            repeats: 100,
        }
    }

    /// The plan-execution cases.
    pub fn cases() -> Vec<PlanCase> {
        let mut out = Vec::new();
        out.push(movies_case());
        // CDR: the heaviest topped template of the analytics workload over
        // a 10k-customer instance (the workload's cheap point lookups
        // execute in microseconds either way; the heavy template is where
        // an executor matters).
        let scale = cdr::CdrScale {
            customers: 10_000,
            days: 14,
            ..cdr::CdrScale::default()
        };
        let setting = cdr::setting(&scale, 120);
        let checker = checker_with_annotations(&setting, &cdr::view_bounds());
        let (idb, cache) = prepare(&setting, cdr::generate(scale));
        let plan = cdr::workload(17, 3)
            .iter()
            .filter_map(|q| {
                let analysis = checker.analyze_cq(&q.query).ok()?;
                analysis.topped.then_some(analysis.plan).flatten()
            })
            .max_by_key(|plan| {
                // "Heaviest" by data touched, not wall clock: tuples read
                // from views plus base tuples fetched is a deterministic
                // proxy for executor work, so the committed row always
                // compares the same plan across runs and machines.
                let out = reference::execute(plan, &idb, &cache).unwrap();
                (
                    out.stats.view_tuples + out.stats.base_tuples_accessed(),
                    plan.size(),
                )
            })
            .expect("the CDR workload has topped templates");
        out.push(PlanCase {
            name: "cdr_heaviest_topped_10k",
            plan,
            idb,
            views: cache,
            repeats: 100,
        });
        out.push(triangle_case(400, 5));
        out
    }

    /// Run one case under both executors, asserting identical answers *and*
    /// identical `FetchStats`.  The pipeline is compiled once and executed
    /// `repeats` times — the designed usage (compile once, run many), and
    /// the shape of a serving workload.
    pub fn run_case(case: &PlanCase) -> PlanCaseResult {
        let serial = ExecOptions::serial();
        let expected = reference::execute(&case.plan, &case.idb, &case.views).unwrap();
        let pipeline = Pipeline::compile(&case.plan, &case.idb, &case.views).unwrap();
        let compiled = pipeline.execute(&case.idb, &serial).unwrap();
        assert_eq!(expected, compiled, "executors disagree on {}", case.name);

        let t = Instant::now();
        for _ in 0..case.repeats {
            let out = reference::execute(&case.plan, &case.idb, &case.views).unwrap();
            assert_eq!(out.tuples.len(), expected.tuples.len());
        }
        let reference_ms = t.elapsed().as_secs_f64() * 1_000.0;

        let t = Instant::now();
        for _ in 0..case.repeats {
            let out = pipeline.execute(&case.idb, &serial).unwrap();
            assert_eq!(out.tuples.len(), expected.tuples.len());
        }
        let compiled_ms = t.elapsed().as_secs_f64() * 1_000.0;

        PlanCaseResult {
            name: case.name,
            repeats: case.repeats,
            reference_ms,
            compiled_ms,
        }
    }

    /// Run one case under `ExecOptions::parallel(shards)` through a
    /// caller-compiled `pipeline`, asserting the output (tuples and stats)
    /// is bit-identical to the caller's serial `expected` output.
    pub fn run_parallel(
        case: &PlanCase,
        pipeline: &Pipeline,
        expected: &bqr_plan::ExecOutput,
        shards: usize,
        serial_ms: f64,
    ) -> ParallelResult {
        let options = ExecOptions::parallel(shards);
        let got = pipeline.execute(&case.idb, &options).unwrap();
        assert_eq!(expected, &got, "parallel run diverged on {}", case.name);

        let t = Instant::now();
        for _ in 0..case.repeats {
            let out = pipeline.execute(&case.idb, &options).unwrap();
            assert_eq!(out.tuples.len(), expected.tuples.len());
        }
        let ms = t.elapsed().as_secs_f64() * 1_000.0;
        ParallelResult {
            name: case.name,
            shards,
            ms,
            scaling: crate::guarded_ratio(serial_ms, ms),
        }
    }

    /// The guard-overhead comparison on the movies workload: the same
    /// compiled pipeline executed with runtime limits disabled vs enforced
    /// (ample enough never to trip), so the ratio isolates the cost of the
    /// guard checkpoints themselves.
    #[derive(Debug, Clone)]
    pub struct GuardOverhead {
        pub name: &'static str,
        pub repeats: usize,
        /// ms per batch with [`bqr_plan::GuardLimits::none`] (the default).
        pub disabled_ms: f64,
        /// ms per batch with a deadline, row budget and fetch cap enforced.
        pub enabled_ms: f64,
    }

    impl GuardOverhead {
        /// enabled / disabled — how much the guardrails cost.
        pub fn ratio(&self) -> f64 {
            crate::guarded_ratio(self.enabled_ms, self.disabled_ms)
        }
    }

    /// The threshold the harness enforces: guarded execution of the movies
    /// workload must stay within 5% of unguarded execution.
    pub const GUARD_MAX_OVERHEAD: f64 = 1.05;

    /// The committed `movies_qxi_8k` time of the row-at-a-time executor this
    /// repo shipped before the vectorised kernels (ms per `repeats`-batch of
    /// 100, from `BENCH_plan.json` at that commit).  The baseline of the
    /// vectorisation gate below — a fixed number, not a re-measurement, so
    /// the gate cannot drift with the code it checks.
    pub const ROW_AT_A_TIME_MOVIES_MS: f64 = 11.8;

    /// The vectorisation gate the harness enforces: the batch-kernel
    /// executor must beat [`ROW_AT_A_TIME_MOVIES_MS`] on `movies_qxi_8k` by
    /// at least this factor, or the `plan` mode exits non-zero.
    pub const VECTORISED_MIN_SPEEDUP: f64 = 1.2;

    /// Measure [`GuardOverhead`] on `movies_qxi_8k`.  Both configurations
    /// are run in alternating rounds and the best batch per configuration is
    /// kept, so scheduler noise cannot charge one side only (nine rounds of
    /// the ~1.5 ms batches the plan takes now that it probes `V1`).
    pub fn run_guard_overhead() -> GuardOverhead {
        let case = movies_case();
        let pipeline = Pipeline::compile(&case.plan, &case.idb, &case.views).unwrap();
        let disabled = ExecOptions::serial();
        let enabled = ExecOptions::serial()
            .with_deadline_ms(3_600_000)
            .with_row_budget(usize::MAX / 2)
            .with_fetch_budget(usize::MAX / 2);
        let expected = pipeline.execute(&case.idb, &disabled).unwrap();
        assert_eq!(
            pipeline.execute(&case.idb, &enabled).unwrap(),
            expected,
            "guards must never change the answer"
        );
        let mut best = [f64::INFINITY; 2];
        for _round in 0..9 {
            for (slot, options) in [(0usize, &disabled), (1, &enabled)] {
                let t = Instant::now();
                for _ in 0..case.repeats {
                    let out = pipeline.execute(&case.idb, options).unwrap();
                    assert_eq!(out.tuples.len(), expected.tuples.len());
                }
                let ms = t.elapsed().as_secs_f64() * 1_000.0;
                if ms < best[slot] {
                    best[slot] = ms;
                }
            }
        }
        GuardOverhead {
            name: case.name,
            repeats: case.repeats,
            disabled_ms: best[0],
            enabled_ms: best[1],
        }
    }

    /// Deterministically trip each guard class once through the
    /// [`bqr_engine::Engine`] facade and snapshot the per-engine counters —
    /// the committed report pins the counter wiring, not a timing.
    pub fn guard_stats_exercise() -> bqr_plan::GuardStats {
        use bqr_plan::{CancellationToken, ExecError};

        let engine = bqr_engine::Engine::builder()
            .setting(movies::setting(100, 40))
            .build()
            .expect("movies engine builds");
        let db = movies::generate(movies::MovieScale {
            persons: 100,
            movies: 50,
            n0: 100,
            seed: 3,
        });
        engine.attach(db).expect("attach");
        engine.prepare("fig1", movies::q_xi()).expect("prepare");
        let session = engine.session();

        let expect_trip = |options: &ExecOptions, want: fn(&ExecError) -> bool| {
            let err = session.execute_with("fig1", options).unwrap_err();
            assert!(err.exec_error().is_some_and(want), "{err:?}");
        };
        expect_trip(&ExecOptions::serial().with_deadline_ms(0), |e| {
            matches!(e, ExecError::DeadlineExceeded { .. })
        });
        expect_trip(&ExecOptions::serial().with_row_budget(0), |e| {
            matches!(e, ExecError::MemoryBudgetExceeded { .. })
        });
        expect_trip(&ExecOptions::serial().with_fetch_budget(0), |e| {
            matches!(e, ExecError::FetchBudgetExceeded { .. })
        });
        let token = CancellationToken::new();
        token.cancel();
        let err = session
            .execute_with_token("fig1", &ExecOptions::serial(), token)
            .unwrap_err();
        assert!(err.exec_error() == Some(&ExecError::Cancelled), "{err:?}");
        // And one clean execution: trips never wedge the statement.
        session.execute("fig1").expect("statement still serves");
        engine.guard_stats()
    }

    /// One prepared-execution case: a plan plus a `rebuild` closure that
    /// loads a *fresh* instance (fresh relation epochs, cold keyed and
    /// constraint indexes) — the serving-process shape: data loads cold,
    /// then the same prepared statement is executed over and over.
    pub struct PreparedCase {
        pub name: &'static str,
        pub plan: QueryPlan,
        /// Load a content-identical instance with fresh epochs.
        #[allow(clippy::type_complexity)]
        pub rebuild: Box<dyn Fn() -> (IndexedDatabase, MaterializedViews)>,
        /// How many cold rounds (each on a freshly loaded instance).
        pub cold_rounds: usize,
        /// How many warm executions on the last instance.
        pub warm_repeats: usize,
    }

    /// The measured result of one prepared case.
    #[derive(Debug, Clone)]
    pub struct PreparedResult {
        pub name: &'static str,
        pub cold_rounds: usize,
        pub warm_repeats: usize,
        /// Milliseconds per *cold* prepared execution: first execution on a
        /// freshly loaded instance — the keyed index of a probed extent (the constraint indexes come built with the
        /// instance), then the run itself.  Only the first
        /// round also compiles the pipeline (a few µs): a compiled shape
        /// holds no data, so a reloaded instance is a cache hit like any
        /// other and "cold" means the *data* is cold.
        pub cold_ms: f64,
        /// Milliseconds per *warm* prepared execution: everything the run
        /// reads is already interned.
        pub warm_ms: f64,
        /// The pipeline cache's counters at the end of the run, so bench
        /// output shows the cache behaviour behind the timings (one miss —
        /// the first cold round — and a hit for every other execution).
        pub cache: bqr_plan::CacheStats,
    }

    impl PreparedResult {
        /// cold / warm — how much a cache hit saves over a cold start.
        pub fn speedup(&self) -> f64 {
            crate::guarded_ratio(self.cold_ms, self.warm_ms)
        }
    }

    /// The threshold the harness enforces on the movies workload: a warm
    /// execution must be at least this much faster than the first one on a
    /// freshly loaded instance (interning the extent and building its keyed
    /// index is what that one pays), or the `plan` mode exits non-zero.
    pub const PREPARED_MIN_SPEEDUP: f64 = 3.0;

    /// The prepared-execution cases: the same three workloads as the
    /// executor rows, served through a [`bqr_plan::PreparedPlan`].
    pub fn prepared_cases() -> Vec<PreparedCase> {
        prepared_cases_with(None)
    }

    /// [`prepared_cases`] with the CDR heaviest-template plan supplied by the
    /// caller — [`report`] passes the plan it already selected while building
    /// [`cases`], so the expensive selection (generate the 10k-customer
    /// instance, reference-execute every topped template) runs once per
    /// report, not twice.
    fn prepared_cases_with(cdr_plan: Option<QueryPlan>) -> Vec<PreparedCase> {
        let mut out = Vec::new();

        // Movies: the Fig.-1-shaped rewriting over the 8k-person instance.
        let setting = movies::setting(100, 40);
        let checker = checker_with_annotations(&setting, &[]);
        let plan = plan_for(&checker, &movies::q_xi())
            .plan
            .expect("movies rewriting is topped");
        out.push(PreparedCase {
            name: "movies_qxi_8k",
            plan,
            rebuild: Box::new(move || {
                let db = movies::generate(movies::MovieScale {
                    persons: 8_000,
                    movies: 2_000,
                    n0: 100,
                    seed: 1,
                });
                prepare(&setting, db)
            }),
            cold_rounds: 3,
            warm_repeats: 100,
        });

        // CDR: the heaviest topped template — reused from the caller when it
        // already selected one, otherwise picked here (deterministically,
        // exactly as in `cases()`).
        let scale = cdr::CdrScale {
            customers: 10_000,
            days: 14,
            ..cdr::CdrScale::default()
        };
        let setting = cdr::setting(&scale, 120);
        let plan = cdr_plan.unwrap_or_else(|| {
            let checker = checker_with_annotations(&setting, &cdr::view_bounds());
            let (idb, cache) = prepare(&setting, cdr::generate(scale));
            cdr::workload(17, 3)
                .iter()
                .filter_map(|q| {
                    let analysis = checker.analyze_cq(&q.query).ok()?;
                    analysis.topped.then_some(analysis.plan).flatten()
                })
                .max_by_key(|plan| {
                    let out = reference::execute(plan, &idb, &cache).unwrap();
                    (
                        out.stats.view_tuples + out.stats.base_tuples_accessed(),
                        plan.size(),
                    )
                })
                .expect("the CDR workload has topped templates")
        });
        out.push(PreparedCase {
            name: "cdr_heaviest_topped_10k",
            plan,
            rebuild: Box::new(move || prepare(&setting, cdr::generate(scale))),
            cold_rounds: 2,
            warm_repeats: 100,
        });

        // AGM triangle over the cached edge view.  This case runs a Θ(n²)
        // join either way, so cold and warm are close and noisy; the warm
        // loop needs enough repeats for the best-of-batches minimum below to
        // stabilise (5 repeats once produced a warm mean *slower* than cold
        // — pure scheduler noise, not a cache problem).
        let triangle = triangle_case(400, 0);
        out.push(PreparedCase {
            name: "triangle_agm_n400_plan",
            plan: triangle.plan,
            rebuild: Box::new(|| {
                let c = triangle_case(400, 0);
                (c.idb, c.views)
            }),
            cold_rounds: 3,
            warm_repeats: 20,
        });
        out
    }

    /// How many timed warm batches [`run_prepared`] runs; the fastest batch
    /// is reported.  Warm executions repeat one computation, so their true cost
    /// is the *minimum* — any excess over it is scheduler noise, which a
    /// single mean happily books against the warm side (the source of a
    /// nonsense warm-slower-than-cold row this report once committed).
    pub const WARM_BATCHES: usize = 3;

    /// Run one prepared case: `cold_rounds` first-executions on freshly
    /// loaded instances (each verified against the reference interpreter;
    /// the first compiles the shape, the others re-use it on data nothing
    /// has interned yet), then `warm_repeats` executions on the last
    /// instance.  The cache counters are asserted: one compile per case,
    /// however many instances it is executed on.
    pub fn run_prepared(case: &PreparedCase) -> PreparedResult {
        use bqr_plan::{PipelineCache, PreparedPlan};
        use std::sync::Arc;

        let cache = Arc::new(PipelineCache::new(16));
        let prepared = PreparedPlan::with_cache(case.plan.clone(), Arc::clone(&cache));
        let mut cold_total_ms = 0.0;
        let mut last: Option<(IndexedDatabase, MaterializedViews, bqr_plan::ExecOutput)> = None;
        for _ in 0..case.cold_rounds {
            let (idb, views) = (case.rebuild)();
            let t = Instant::now();
            let out = prepared.execute(&idb, &views).expect("prepared execution");
            cold_total_ms += t.elapsed().as_secs_f64() * 1_000.0;
            let oracle = reference::execute(&case.plan, &idb, &views).unwrap();
            assert_eq!(out, oracle, "cold prepared run diverged on {}", case.name);
            last = Some((idb, views, out));
        }
        let (idb, views, expected) = last.expect("at least one cold round");

        // Timed warm loop: cardinality check only, mirroring the cold rounds
        // (which verify against the oracle *outside* their timer), so the
        // cold/warm comparison is symmetric.  [`WARM_BATCHES`] batches, best
        // batch kept — the same noise discipline as `run_guard_overhead`.
        let mut warm_best_ms = f64::INFINITY;
        for _ in 0..WARM_BATCHES {
            let t = Instant::now();
            for _ in 0..case.warm_repeats {
                let out = prepared.execute(&idb, &views).expect("warm execution");
                assert_eq!(out.tuples.len(), expected.tuples.len());
            }
            let ms = t.elapsed().as_secs_f64() * 1_000.0;
            if ms < warm_best_ms {
                warm_best_ms = ms;
            }
        }
        // One more warm execution, fully verified (tuples and stats) outside
        // the timer: a warm hit serving the wrong pipeline must fail the
        // benchmark, not just skew it.
        let verify = prepared.execute(&idb, &views).expect("warm verification");
        assert_eq!(verify, expected, "warm run diverged on {}", case.name);
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.hits),
            (
                1,
                (case.cold_rounds + WARM_BATCHES * case.warm_repeats) as u64
            ),
            "only the first cold round compiles on {}",
            case.name
        );
        assert_eq!(stats.lookups, stats.hits + stats.misses);

        PreparedResult {
            name: case.name,
            cold_rounds: case.cold_rounds,
            warm_repeats: case.warm_repeats,
            cold_ms: cold_total_ms / case.cold_rounds as f64,
            warm_ms: warm_best_ms / case.warm_repeats as f64,
            cache: stats,
        }
    }

    /// The name of the row [`run_adhoc_seen_shape`] produces.
    pub const ADHOC_SEEN_SHAPE_ROW: &str = "cdr_adhoc_seen_shape_10k";

    /// The threshold the harness enforces on [`ADHOC_SEEN_SHAPE_ROW`]: an
    /// ad-hoc query of a seen shape may cost at most this fraction of one of
    /// a never-seen shape.
    pub const ADHOC_SEEN_SHAPE_MAX_RATIO: f64 = 0.5;

    /// `Session::query` on never-seen texts, CDR 10k: texts of a **seen
    /// shape** (the nine topped templates at bindings not asked before — the
    /// row's warm side: parse, memo hit, pipeline-cache hit, bind, execute)
    /// against the same questions as **never-seen shapes** (every variable
    /// renamed per text — the cold side, the miss path: parse, checker run,
    /// memo insert, execute; the *plan* shape underneath is seen, so no
    /// compile).  Same bindings on both sides, answers compared outside the
    /// clocks.  `cold_rounds` / `warm_repeats` are the query counts.
    pub fn run_adhoc_seen_shape() -> PreparedResult {
        const QUERIES: usize = 2_000;
        let scale = cdr::CdrScale {
            customers: 10_000,
            days: 14,
            ..cdr::CdrScale::default()
        };
        let mut builder = bqr_engine::Engine::builder().setting(cdr::setting(&scale, 120));
        for (view, bound) in cdr::view_bounds() {
            builder = builder.annotate_view_bound(view, bound);
        }
        let engine = builder.build().expect("CDR engine");
        engine.attach(cdr::generate(scale)).expect("attach CDR");
        let session = engine.session();
        // First touch (lazy interning, one compile per plan shape) and one
        // analysis per query shape, merged binding included: off the clock.
        // (The first nine templates of the workload are the topped ones.)
        for (cid, day) in [(17, 3), (3, 3)] {
            for q in cdr::workload(cid, day).into_iter().take(9) {
                session.query(q.query).expect("warm-up query");
            }
        }
        let questions: Vec<bqr_query::ConjunctiveQuery> = (0..QUERIES)
            .map(|k| {
                let (cid, day) = (100 + 4 * k as i64, (k % 14) as i64);
                cdr::workload(cid, day).swap_remove(k % 9).query
            })
            .collect();
        let seen: Vec<String> = questions.iter().map(|q| q.to_string()).collect();
        let unseen: Vec<String> = questions
            .iter()
            .enumerate()
            .map(|(k, q)| q.rename_apart(&format!("_{k}")).to_string())
            .collect();
        let timed = |texts: &[String]| {
            let t = Instant::now();
            let outputs: Vec<bqr_plan::ExecOutput> = texts
                .iter()
                .map(|text| session.query(text.as_str()).expect("ad-hoc query"))
                .collect();
            (
                t.elapsed().as_secs_f64() * 1_000.0 / texts.len() as f64,
                outputs,
            )
        };
        let shapes = engine.analysed_shapes();
        let (warm_ms, seen_outputs) = timed(&seen);
        assert_eq!(engine.analysed_shapes(), shapes, "every shape was seen");
        let (cold_ms, unseen_outputs) = timed(&unseen);
        assert_eq!(
            seen_outputs, unseen_outputs,
            "a renamed variable moved an answer"
        );
        let cache = engine.cache_stats();
        assert_eq!((cache.evictions, engine.cache().len()), (0, 9), "{cache:?}");
        PreparedResult {
            name: ADHOC_SEEN_SHAPE_ROW,
            cold_rounds: QUERIES,
            warm_repeats: QUERIES,
            cold_ms,
            warm_ms,
            cache,
        }
    }

    /// One write-path row: the same single-tuple writes committed through
    /// delta maintenance ([`bqr_engine::Engine::mutate`]) and through a
    /// from-scratch version rebuild (the write applied to a clone of
    /// [`bqr_engine::Engine::database`], published by
    /// [`bqr_engine::Engine::attach`]), with the two engines verified
    /// bit-identical afterwards.
    #[derive(Debug, Clone)]
    pub struct WritePathResult {
        pub name: &'static str,
        /// Timed single-tuple mutations per engine.
        pub repeats: usize,
        /// Milliseconds per mutation through delta maintenance.
        pub delta_ms: f64,
        /// Milliseconds per mutation through a full version rebuild.
        pub rebuild_ms: f64,
    }

    impl WritePathResult {
        /// rebuild / delta — how much delta maintenance saves per write.
        pub fn speedup(&self) -> f64 {
            crate::guarded_ratio(self.rebuild_ms, self.delta_ms)
        }
    }

    /// The threshold the harness enforces on both write-path workloads: a
    /// delta-maintained single-tuple insert must be at least this much
    /// faster than rebuilding the version from scratch, or the `plan` mode
    /// exits non-zero.
    pub const WRITE_MIN_SPEEDUP: f64 = 5.0;

    /// Absolute ceiling the harness enforces on the CDR write row
    /// (`cdr_insert_premium_10k`): one delta-maintained single-tuple insert
    /// must commit within this many milliseconds.  The relative
    /// [`WRITE_MIN_SPEEDUP`] gate alone cannot catch a regression that slows
    /// delta and rebuild alike (e.g. an accidental `O(|D|)` re-interning on
    /// the write path) — this pins the absolute cost of a write.
    pub const CDR_WRITE_MAX_MS: f64 = 2.0;

    /// Absolute ceiling on the join-view row (`movies_like_under_v1_20k`):
    /// one delta-maintained `like` write of a NASA person under the
    /// three-way join view `V1`, averaged over insert and removal — so 2 ms
    /// for the pair.  Maintenance is a handful of keyed probes; any step
    /// that re-indexes or re-interns a relation `V1` reads costs tens of
    /// milliseconds at this scale.
    pub const MOVIES_VIEW_WRITE_MAX_MS: f64 = 1.0;

    /// Absolute ceiling on the fact-table rows (`cdr_insert_calls_10k`,
    /// `cdr_remove_calls_10k`): one delta-maintained single-tuple write to
    /// `calls` — the large relation, which no view reads — *plus* the first
    /// read of the written group on the new version.  Both are `O(|Δ|)`
    /// (one storage chunk, one index shard, one patched group), some
    /// tens of microseconds; any `O(|R|)` step that creeps back in (a
    /// whole-relation fork, a rebuilt index)
    /// costs tens of milliseconds at this scale and trips the ceiling.
    pub const CDR_FACT_WRITE_MAX_MS: f64 = 5.0;

    /// The fact-table rows [`CDR_FACT_WRITE_MAX_MS`] applies to.
    pub const CDR_FACT_WRITE_ROWS: [&str; 2] = ["cdr_insert_calls_10k", "cdr_remove_calls_10k"];

    /// One single-tuple mutation of a write-path case.
    struct WriteOp {
        relation: &'static str,
        tuple: bqr_data::Tuple,
        insert: bool,
        /// The row (index into the case's row names) this mutation's time is
        /// charged to; `None` for warmups and untimed inverse writes.
        row: Option<usize>,
    }

    /// Run `ops` through delta maintenance on one engine and through
    /// from-scratch rebuilds on another, charging each timed mutation
    /// (followed, with `read_after`, by one execution of the prepared
    /// statement on the new version) to its row, and verify the engines
    /// agree bit-identically (database, every view extent, and the served
    /// answers of the prepared statement) once the clocks stop.
    fn run_write_case(
        rows: &[&'static str],
        mk_engine: &dyn Fn() -> bqr_engine::Engine,
        statement: &bqr_query::ConjunctiveQuery,
        ops: &[WriteOp],
        read_after: bool,
    ) -> Vec<WritePathResult> {
        let write = |op: &WriteOp, db: &mut Database| match op.insert {
            true => db.insert(op.relation, op.tuple.clone()),
            false => db.remove(op.relation, &op.tuple),
        };
        // Build, warm up, and time each engine to completion before touching
        // the next one: a full-rebuild warmup churns through hundreds of
        // megabytes, and interleaving it with the other engine's timed
        // section shows up as a one-off page-fault spike in *that* engine's
        // first timed mutation.  The untimed leading mutations (the same on
        // both engines) take lazy interning off the clock.
        let mut ms = vec![[0.0f64; 2]; rows.len()];
        let mut engines = Vec::new();
        for (slot, rebuild) in [false, true].into_iter().enumerate() {
            let engine = mk_engine();
            engine
                .prepare("w", statement.clone())
                .expect("write-path statement is topped");
            engine.execute("w").expect("warm serve");
            for op in ops {
                let t = Instant::now();
                let published = if rebuild {
                    let mut db = engine.database();
                    let written = write(op, &mut db).map_err(bqr_engine::Error::Data);
                    written.and_then(|_| engine.attach(db))
                } else {
                    engine.mutate(|db| write(op, db)).map(drop)
                };
                published.expect("write-path mutation");
                if read_after {
                    engine.execute("w").expect("read after write");
                }
                if let Some(row) = op.row {
                    ms[row][slot] += t.elapsed().as_secs_f64() * 1_000.0;
                }
            }
            engines.push(engine);
        }
        let (delta, rebuild) = (&engines[0], &engines[1]);

        // Divergence gate: a fast delta path that drifts from the rebuild
        // baseline must fail the benchmark, not report a win.
        let name = rows[0];
        let a = delta.session();
        let b = rebuild.session();
        assert_eq!(a.database(), b.database(), "{name}: databases diverged");
        for view in a.views().names() {
            assert_eq!(
                a.views().extent(view),
                b.views().extent(view),
                "{name}: view extent `{view}` diverged"
            );
        }
        assert_eq!(
            a.execute("w").expect("delta serve"),
            b.execute("w").expect("rebuild serve"),
            "{name}: served answers diverged"
        );

        rows.iter()
            .zip(ms)
            .enumerate()
            .map(|(row, (name, [delta_ms, rebuild_ms]))| {
                let repeats = ops.iter().filter(|op| op.row == Some(row)).count();
                WritePathResult {
                    name,
                    repeats,
                    delta_ms: delta_ms / repeats as f64,
                    rebuild_ms: rebuild_ms / repeats as f64,
                }
            })
            .collect()
    }

    /// A warmup insert followed by timed inserts of `tuples[1..]`, all into
    /// `relation`, all charged to row 0.
    fn timed_inserts(relation: &'static str, tuples: Vec<bqr_data::Tuple>) -> Vec<WriteOp> {
        let op = |(i, tuple)| WriteOp {
            relation,
            tuple,
            insert: true,
            row: (i > 0).then_some(0),
        };
        tuples.into_iter().enumerate().map(op).collect()
    }

    /// The write-path rows, delta vs rebuild: a single-tuple insert into the
    /// 8k-person movies instance's `rating`, which no view reads; a `like`
    /// tuple of a NASA person taken out of and put back into the 20k-person
    /// instance, under the join view `V1`; a single-tuple insert into the
    /// 10k-customer CDR instance's `customer` relation (under a single-atom
    /// view); and a single-tuple insert into, and removal from, that
    /// instance's `calls` fact table, each followed by the first read of the
    /// written group.
    pub fn run_write_path() -> Vec<WritePathResult> {
        use bqr_engine::Engine;

        let mut out = Vec::new();

        // An engine over one generated movies instance, built afresh per call.
        let movies_engines = |scale: movies::MovieScale| {
            let (setting, db) = (movies::setting(scale.n0, 40), movies::generate(scale));
            let attached = db.clone();
            let mk_engine = move || {
                let engine = Engine::builder()
                    .setting(setting.clone())
                    .cache_capacity(16)
                    .build()
                    .expect("movies engine");
                engine.attach(attached.clone()).expect("attach movies");
                engine
            };
            (db, mk_engine)
        };

        // Movies: insert one fresh rating per mutation.  Touches the
        // `rating` constraint index (patched in place) and leaves `V1`
        // untouched — its extent and epoch are shared into the new version.
        let (_, mk_engine) = movies_engines(movies::MovieScale {
            persons: 8_000,
            movies: 2_000,
            n0: 100,
            seed: 1,
        });
        let ratings = (0..21).map(|i| bqr_data::tuple![900_000 + i as i64, 1]);
        out.extend(run_write_case(
            &["movies_insert_rating_8k"],
            &mk_engine,
            &movies::q_xi(),
            &timed_inserts("rating", ratings.collect()),
            false,
        ));

        // Movies under `V1`: a NASA person stops and starts liking a movie.
        // Every write joins `person`, `movie` and `like`; the removal also
        // re-derives the movie through `like` by `id`.  The first pair is a
        // warmup (its removal builds that index, once).
        let (db, mk_engine) = movies_engines(movies::MovieScale {
            persons: 20_000,
            movies: 5_000,
            n0: 250,
            seed: 1,
        });
        let person = db.relation("person").expect("movies has person");
        let at_nasa = |pid: bqr_data::ValueId| {
            let at = [pid];
            let mut found = person.prefix_range(&at);
            found.any(|t| t[2] == bqr_data::Value::str("NASA"))
        };
        let like = db.relation("like").expect("movies has like");
        let liked = like.iter().find(|t| at_nasa(t.ids()[0]));
        let liked = liked.expect("someone at NASA likes something").to_tuple();
        let pairs = (0..11).flat_map(|i| [false, true].map(|insert| (i, insert)));
        let ops: Vec<WriteOp> = pairs
            .map(|(i, insert)| WriteOp {
                relation: "like",
                tuple: liked.clone(),
                insert,
                row: (i > 0).then_some(0),
            })
            .collect();
        out.extend(run_write_case(
            &["movies_like_under_v1_20k"],
            &mk_engine,
            &movies::q_xi(),
            &ops,
            false,
        ));

        // CDR: insert one fresh premium customer per mutation.  Touches the
        // `customer` key index *and* the `V_premium` view, so the row times
        // semi-naive view maintenance too, not just index patching.
        let scale = cdr::CdrScale {
            customers: 10_000,
            days: 14,
            ..cdr::CdrScale::default()
        };
        let setting = cdr::setting(&scale, 120);
        let db = cdr::generate(scale);
        let template = |name: &str, cid, day| {
            let found = cdr::workload(cid, day).into_iter().find(|q| q.name == name);
            found.expect("CDR workload has the template").query
        };
        // A day on which customer 17 still has room under the calls-per-day
        // bound, so the written group stays within its constraint.
        let calls = db.relation("calls").expect("CDR has calls");
        let day = (0..scale.days as i64)
            .find(|&day| {
                let group = [bqr_data::Value::int(17), bqr_data::Value::int(day)];
                calls.select_eq(&[0, 1], &group).len() < scale.max_calls_per_day
            })
            .expect("customer 17 has a day with room for one more call");
        let mk_engine = move || {
            let mut builder = Engine::builder()
                .setting(setting.clone())
                .cache_capacity(16);
            for (view, bound) in cdr::view_bounds() {
                builder = builder.annotate_view_bound(view, bound);
            }
            let engine = builder.build().expect("CDR engine");
            engine.attach(db.clone()).expect("attach CDR");
            engine
        };
        let customers = (0..11)
            .map(|i| bqr_data::tuple![1_000_000 + i as i64, format!("w{i}"), "premium", "north"]);
        out.extend(run_write_case(
            &["cdr_insert_premium_10k"],
            &mk_engine,
            &template("premium_callees", 17, 3),
            &timed_inserts("customer", customers.collect()),
            false,
        ));

        // CDR fact table: put one call into customer 17's group and take it
        // out again, reading that group's callees after every write.  No
        // view reads `calls`, so the row is the data layer alone: the
        // relation fork, the index patch, and whatever the first read of
        // the new version still has to build.  The first pair is a warmup.
        let call = bqr_data::tuple![17, day, 1_000_000, 42];
        let pairs = (0..11).flat_map(|i| [(true, 0), (false, 1)].map(|w| (i, w)));
        let ops: Vec<WriteOp> = pairs
            .map(|(i, (insert, row))| WriteOp {
                relation: "calls",
                tuple: call.clone(),
                insert,
                row: (i > 0).then_some(row),
            })
            .collect();
        out.extend(run_write_case(
            &CDR_FACT_WRITE_ROWS,
            &mk_engine,
            &template("callees_of_day", 17, day),
            &ops,
            true,
        ));
        out
    }

    /// The `index` rows, over the constraint indexes of the 10k-customer CDR
    /// instance the write-path rows use.
    #[derive(Debug, Clone)]
    pub struct IndexResult {
        /// Nanoseconds per probe of the `calls (caller, day)` index with
        /// [`INDEX_PROBES`] random keys (`cdr_calls_probe_cold`); the median
        /// of [`INDEX_ROUNDS`] rounds.
        pub probe_cold_ns: f64,
        /// The same with one key, over and over (`cdr_calls_probe_hot`).
        pub probe_hot_ns: f64,
        /// What the constraint indexes add to a version's clone, one `calls`
        /// insert under a random key, and drop, in µs
        /// (`cdr_calls_write_fork`): the median of the paired differences
        /// with the same write to the same version without its indexes — the
        /// one index shard the write copies, the patch, and their release.
        pub write_fork_us: f64,
        /// The median of that whole write on the indexed version, in µs:
        /// the clone and drop of every chunk pointer, the storage chunk the
        /// write copies, and the index fork.
        pub write_us: f64,
        /// [`bqr_data::InternedAccessIndex::heap_bytes`] per constraint, in
        /// the access schema's order, beside the constraint's text.
        pub heap_bytes: Vec<(String, usize)>,
        /// The bytes of the ids the indexes' rows hold: rows × arity × 4.
        pub row_id_bytes: usize,
    }

    impl IndexResult {
        /// The four indexes' heap in MB (`cdr_index_heap_mb`).
        pub fn heap_mb(&self) -> f64 {
            let bytes: usize = self.heap_bytes.iter().map(|(_, b)| b).sum();
            bytes as f64 / 1e6
        }

        /// The heap gate: [`INDEX_HEAP_MAX_RATIO`] × the rows' ids, in MB.
        pub fn heap_max_mb(&self) -> f64 {
            INDEX_HEAP_MAX_RATIO * self.row_id_bytes as f64 / 1e6
        }
    }

    /// Random keys per cold-probe round, rounds per probe row, and forks
    /// timed for `cdr_calls_write_fork`.
    pub const INDEX_PROBES: usize = 100_000;
    pub const INDEX_ROUNDS: usize = 5;
    pub const INDEX_FORKS: usize = 2_000;

    /// The constraint indexes' heap may be at most this many times the ids
    /// their rows hold: the rest is keys, row offsets and shard headers.  A
    /// deterministic gate — it fails on a layout that allocates per key or
    /// per group again.
    pub const INDEX_HEAP_MAX_RATIO: f64 = 1.25;

    /// The ceiling on `cdr_calls_write_fork`, in µs: the index's part of a
    /// write copies one shard, ≈ 46 KB on `calls` (≈ 240 µs when a shard
    /// was a map of boxed groups).
    pub const WRITE_FORK_MAX_US: f64 = 20.0;

    /// The `index` rows (see [`IndexResult`]).
    pub fn run_index() -> IndexResult {
        use bqr_data::{tuple, Value, ValueId};

        let scale = cdr::CdrScale {
            customers: 10_000,
            days: 14,
            ..cdr::CdrScale::default()
        };
        let access = cdr::access_schema(&scale);
        let db = cdr::generate(scale);
        // The same version without indexes: it shares every storage chunk.
        let bare = db.clone();
        let idb = IndexedDatabase::build(db, access).expect("CDR");
        let mut heap_bytes = Vec::new();
        let mut row_id_bytes = 0;
        for (i, c) in idb.access_schema().constraints().enumerate() {
            let index = idb.index(i).expect("one index per constraint");
            heap_bytes.push((c.to_string(), index.heap_bytes()));
            row_id_bytes += index.total_rows() * index.arity() * size_of::<ValueId>();
        }
        let calls = idb.index(1).expect("CDR's second constraint is on calls");

        // xorshift64: random keys without a dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as i64
        };
        let mut random_key = || [below(scale.customers), below(scale.days)];
        let id = |v: i64| ValueId::intern(&Value::int(v));
        let keys: Vec<ValueId> = (0..INDEX_PROBES)
            .flat_map(|_| random_key().map(id))
            .collect();
        let hot = [keys[0], keys[1]].repeat(INDEX_PROBES);
        let ns_per_probe = |keys: &[ValueId]| {
            let mut rounds: Vec<f64> = (0..INDEX_ROUNDS)
                .map(|_| {
                    let t = Instant::now();
                    let rows: usize = keys.chunks_exact(2).map(|k| calls.probe(k).len()).sum();
                    std::hint::black_box(rows);
                    t.elapsed().as_nanos() as f64 / INDEX_PROBES as f64
                })
                .collect();
            rounds.sort_by(f64::total_cmp);
            rounds[INDEX_ROUNDS / 2]
        };
        let (probe_cold_ns, probe_hot_ns) = (ns_per_probe(&keys), ns_per_probe(&hot));

        // The same write to the bare and to the indexed version, alternately,
        // so each pair sees the same machine.
        let callee = 1_000_000; // no generated call has this callee
        let mut writes = [Vec::new(), Vec::new()];
        for _ in 0..INDEX_FORKS {
            let [caller, day] = random_key();
            let call = tuple![caller, day, callee, 42];
            for (base, times) in [&bare, idb.database()].into_iter().zip(&mut writes) {
                let t = Instant::now();
                let mut version = base.clone();
                version.insert("calls", call.clone()).expect("a new call");
                drop(version);
                times.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        let median = |mut times: Vec<f64>| {
            times.sort_by(f64::total_cmp);
            times[times.len() / 2]
        };
        let [bare_us, indexed_us] = writes;
        let forks = indexed_us
            .iter()
            .zip(&bare_us)
            .map(|(i, b)| i - b)
            .collect();
        IndexResult {
            probe_cold_ns,
            probe_hot_ns,
            write_fork_us: median(forks),
            write_us: median(indexed_us),
            heap_bytes,
            row_id_bytes,
        }
    }

    /// Everything `harness plan` measures, and its JSON.
    pub struct PlanReport {
        pub results: Vec<PlanCaseResult>,
        pub parallel: Vec<ParallelResult>,
        pub prepared: Vec<PreparedResult>,
        pub write_path: Vec<WritePathResult>,
        pub index: IndexResult,
        pub guard: GuardOverhead,
        pub guard_stats: bqr_plan::GuardStats,
        pub json: String,
    }

    /// Run every case (serial comparison, 1/2/4-shard parallel rows on the
    /// largest workload, the prepared cold-vs-warm rows, the write-path
    /// delta-vs-rebuild rows, the constraint-index rows, and the
    /// guard-overhead comparison plus counter exercise) and render the
    /// machine-readable report committed as `BENCH_plan.json`.
    pub fn report() -> PlanReport {
        let cases = cases();
        let results: Vec<PlanCaseResult> = cases.iter().map(run_case).collect();
        let largest = cases
            .iter()
            .find(|c| c.name == "triangle_agm_n400_plan")
            .expect("the triangle case is the scaling workload");
        let serial_ms = results
            .iter()
            .find(|r| r.name == largest.name)
            .unwrap()
            .compiled_ms;
        let pipeline = Pipeline::compile(&largest.plan, &largest.idb, &largest.views).unwrap();
        let expected = pipeline
            .execute(&largest.idb, &ExecOptions::serial())
            .unwrap();
        let parallel: Vec<ParallelResult> = [1usize, 2, 4]
            .iter()
            .map(|&s| run_parallel(largest, &pipeline, &expected, s, serial_ms))
            .collect();

        // Parallel scaling is bounded by the machine: record how many
        // threads were actually available so flat rows on a single-core
        // container read as a hardware limit, not an engine regression.
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut json = format!(
            "{{\n  \"bench\": \"plan\",\n  \"unit\": \"ms\",\n  \"threads_available\": {threads},\n  \"cases\": [\n"
        );
        for (i, r) in results.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"repeats\": {}, \"reference_ms\": {:.3}, \"compiled_ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
                r.name,
                r.repeats,
                r.reference_ms,
                r.compiled_ms,
                r.speedup(),
                if i + 1 < results.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n  \"parallel\": [\n");
        for (i, p) in parallel.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"shards\": {}, \"ms\": {:.3}, \"scaling\": {:.2}}}{}\n",
                p.name,
                p.shards,
                p.ms,
                p.scaling,
                if i + 1 < parallel.len() { "," } else { "" }
            ));
        }
        // Reuse the CDR heaviest-template plan `cases()` already selected,
        // so the expensive selection pass does not run a second time.
        let cdr_plan = cases
            .iter()
            .find(|c| c.name == "cdr_heaviest_topped_10k")
            .map(|c| c.plan.clone());
        let mut prepared: Vec<PreparedResult> = prepared_cases_with(cdr_plan)
            .iter()
            .map(run_prepared)
            .collect();
        prepared.push(run_adhoc_seen_shape());
        json.push_str("  ],\n  \"prepared\": [\n");
        for (i, p) in prepared.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"cold_rounds\": {}, \"warm_repeats\": {}, \"cold_ms\": {:.3}, \"warm_ms\": {:.4}, \"speedup\": {:.1}, \"cache\": {{\"hits\": {}, \"misses\": {}}}}}{}\n",
                p.name,
                p.cold_rounds,
                p.warm_repeats,
                p.cold_ms,
                p.warm_ms,
                p.speedup(),
                p.cache.hits,
                p.cache.misses,
                if i + 1 < prepared.len() { "," } else { "" }
            ));
        }
        let write_path = run_write_path();
        json.push_str("  ],\n  \"write_path\": [\n");
        for (i, w) in write_path.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"repeats\": {}, \"delta_ms\": {:.3}, \"rebuild_ms\": {:.3}, \"speedup\": {:.1}, \"min_speedup\": {:.1}}}{}\n",
                w.name,
                w.repeats,
                w.delta_ms,
                w.rebuild_ms,
                w.speedup(),
                WRITE_MIN_SPEEDUP,
                if i + 1 < write_path.len() { "," } else { "" }
            ));
        }
        let index = run_index();
        json.push_str(&format!(
            "  ],\n  \"index\": {{\n    \"rows\": [\n      {{\"name\": \"cdr_calls_probe_cold\", \"unit\": \"ns\", \"value\": {:.1}, \"keys\": {INDEX_PROBES}}},\n      {{\"name\": \"cdr_calls_probe_hot\", \"unit\": \"ns\", \"value\": {:.1}}},\n      {{\"name\": \"cdr_calls_write_fork\", \"unit\": \"us\", \"value\": {:.2}, \"max\": {WRITE_FORK_MAX_US:.1}, \"write_us\": {:.2}}},\n      {{\"name\": \"cdr_index_heap_mb\", \"unit\": \"MB\", \"value\": {:.3}, \"max\": {:.3}, \"row_ids_mb\": {:.3}}}\n    ],\n    \"heap_bytes\": [\n",
            index.probe_cold_ns,
            index.probe_hot_ns,
            index.write_fork_us,
            index.write_us,
            index.heap_mb(),
            index.heap_max_mb(),
            index.row_id_bytes as f64 / 1e6,
        ));
        for (i, (constraint, bytes)) in index.heap_bytes.iter().enumerate() {
            let comma = if i + 1 < index.heap_bytes.len() {
                ","
            } else {
                ""
            };
            json.push_str(&format!(
                "      {{\"constraint\": \"{constraint}\", \"bytes\": {bytes}}}{comma}\n"
            ));
        }
        let overhead = run_guard_overhead();
        let guard_stats = guard_stats_exercise();
        json.push_str(&format!(
            "    ]\n  }},\n  \"guard\": {{\n    \"overhead\": {{\"name\": \"{}\", \"repeats\": {}, \"disabled_ms\": {:.3}, \"enabled_ms\": {:.3}, \"ratio\": {:.3}, \"max_ratio\": {:.2}}},\n    \"stats_exercise\": {{\"cancellations\": {}, \"deadline_trips\": {}, \"memory_trips\": {}, \"fetch_trips\": {}, \"panics_contained\": {}, \"serial_fallbacks\": {}}}\n  }}\n}}\n",
            overhead.name,
            overhead.repeats,
            overhead.disabled_ms,
            overhead.enabled_ms,
            overhead.ratio(),
            GUARD_MAX_OVERHEAD,
            guard_stats.cancellations,
            guard_stats.deadline_trips,
            guard_stats.memory_trips,
            guard_stats.fetch_trips,
            guard_stats.panics_contained,
            guard_stats.serial_fallbacks,
        ));
        PlanReport {
            results,
            parallel,
            prepared,
            write_path,
            index,
            guard: overhead,
            guard_stats,
            json,
        }
    }
}

/// The `serve` benchmark: a closed-loop traffic harness over
/// [`bqr_server::Server`] — N client threads each submit a request, wait for
/// its answer, and immediately submit the next, so the offered load adapts to
/// the server's service rate (the serving-systems methodology that avoids
/// coordinated omission by construction: every request's latency is
/// measured, and a slow server simply completes fewer requests).  Three
/// committed workloads (movies read-heavy, CDR read-heavy, CDR mixed
/// read/write) report p50/p99/max latency and throughput, plus a CDR write
/// burst comparing [`Engine::mutate_batch`](bqr_engine::Engine::mutate_batch)
/// against serial [`Engine::mutate`](bqr_engine::Engine::mutate) calls.
/// Shared by the harness's `serve` mode, which persists `BENCH_serve.json`
/// and gates each row's p99 latency and the batched-write speedup.
pub mod serve_bench {
    use bqr_engine::Engine;
    use bqr_server::{Pending, Server, ServerConfig};
    use bqr_workload::{cdr, movies};
    use std::time::Instant;

    /// A write issued by a closed-loop client: `(server, client, round)` →
    /// the pending acknowledgement.
    type WriteFn = Box<dyn Fn(&Server, usize, usize) -> Pending<()> + Send + Sync>;

    /// One closed-loop serving workload.
    pub struct ServeCase {
        pub name: &'static str,
        pub server: Server,
        /// Prepared statement names the clients round-robin over.
        pub reads: Vec<&'static str>,
        pub clients: usize,
        pub iters_per_client: usize,
        /// Every `write_every`-th request per client is a write
        /// (`0` = read-only).
        pub write_every: usize,
        write: Option<WriteFn>,
        /// The harness's tail gate at the committed scale: p99 latency may
        /// not exceed this many microseconds.
        pub p99_gate_us: u64,
    }

    /// The measured result of one closed-loop workload.
    #[derive(Debug, Clone)]
    pub struct ServeResult {
        pub name: &'static str,
        pub clients: usize,
        /// Requests fulfilled (`= clients × iters`, asserted: a closed loop
        /// under the default admission limits never rejects or drops).
        pub requests: u64,
        pub writes: u64,
        pub coalesced_reads: u64,
        pub elapsed_ms: f64,
        pub throughput_rps: f64,
        pub p50_us: u64,
        pub p99_us: u64,
        pub max_us: u64,
        pub p99_gate_us: u64,
    }

    /// The tail gates, in absolute terms (a gate relative to p50 tightens
    /// silently whenever p50 improves).  The read-only rows may not exceed
    /// the p99 they had under the fixed 1 ms batch window the server no
    /// longer has.  The mixed row's tail is write publishes — a write that
    /// just misses a group commit waits for that publish and its own, so
    /// its p99 swings between ~4.5 ms (clients in lock-step, every batch
    /// full) and ~25 ms from run to run — and may not exceed twice the
    /// committed row's 19 455 µs.  A fairness or lost-wakeup bug in the
    /// serving front shows up here as an unbounded tail.
    pub const MOVIES_READ_P99_GATE_US: u64 = 2_191;
    pub const CDR_READ_P99_GATE_US: u64 = 3_522;
    pub const CDR_MIXED_P99_GATE_US: u64 = 38_910;

    /// The write-burst gate: committing a burst through
    /// [`Engine::mutate_batch`](bqr_engine::Engine::mutate_batch) (one
    /// delta-tracked publish) must be at least this much faster than the
    /// same closures through serial `mutate` calls (one publish each).
    pub const BATCHED_WRITE_MIN_SPEEDUP: f64 = 2.0;

    /// Scale knobs, so the committed rows and the reduced debug-mode tests
    /// share one code path.
    pub struct ServeScale {
        pub movies_persons: usize,
        pub cdr_customers: usize,
        pub cdr_days: usize,
        pub clients: usize,
        pub iters_per_client: usize,
    }

    /// The committed scale: 8 closed-loop clients per row.
    pub fn committed_scale() -> ServeScale {
        ServeScale {
            movies_persons: 8_000,
            cdr_customers: 10_000,
            cdr_days: 14,
            clients: 8,
            iters_per_client: 100,
        }
    }

    /// A reduced scale for debug-mode tests.
    pub fn reduced_scale() -> ServeScale {
        ServeScale {
            movies_persons: 500,
            cdr_customers: 400,
            cdr_days: 3,
            clients: 2,
            iters_per_client: 6,
        }
    }

    fn serve_config() -> ServerConfig {
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        }
    }

    fn cdr_engine(scale: &ServeScale, db: &bqr_data::Database) -> Engine {
        let setting = cdr::setting(
            &cdr::CdrScale {
                customers: scale.cdr_customers,
                days: scale.cdr_days,
                ..cdr::CdrScale::default()
            },
            120,
        );
        let mut builder = Engine::builder().setting(setting).cache_capacity(16);
        for (view, bound) in cdr::view_bounds() {
            builder = builder.annotate_view_bound(view, bound);
        }
        let engine = builder.build().expect("CDR engine builds");
        engine.attach(db.clone()).expect("attach CDR");
        engine
    }

    /// Prepare every topped CDR template on `server`; returns their names.
    fn prepare_cdr_reads(server: &Server) -> Vec<&'static str> {
        let reads: Vec<&'static str> = cdr::workload(17, 3)
            .into_iter()
            .filter(|q| server.prepare(q.name, q.query.clone()).is_ok())
            .map(|q| q.name)
            .collect();
        assert!(
            reads.len() >= 3,
            "the CDR workload must contribute at least 3 topped templates"
        );
        reads
    }

    /// The closed-loop workloads at the given scale.
    pub fn cases_with(scale: &ServeScale) -> Vec<ServeCase> {
        let mut out = Vec::new();

        // Movies read-heavy: every client hammers the Fig. 1 rewriting, so
        // all concurrent requests coalesce into shared flushes.
        let engine = Engine::builder()
            .setting(movies::setting(100, 40))
            .cache_capacity(16)
            .build()
            .expect("movies engine builds");
        engine
            .attach(movies::generate(movies::MovieScale {
                persons: scale.movies_persons,
                movies: (scale.movies_persons / 4).max(50),
                n0: 100,
                seed: 1,
            }))
            .expect("attach movies");
        let server = Server::with_config(engine, serve_config());
        server
            .prepare("fig1", movies::q_xi())
            .expect("movies rewriting is topped");
        out.push(ServeCase {
            name: "movies_read_heavy",
            server,
            reads: vec!["fig1"],
            clients: scale.clients,
            iters_per_client: scale.iters_per_client,
            write_every: 0,
            write: None,
            p99_gate_us: MOVIES_READ_P99_GATE_US,
        });

        // CDR: one generated instance feeds both the read-heavy and the
        // mixed row, so the two rows serve identical data.
        let db = cdr::generate(cdr::CdrScale {
            customers: scale.cdr_customers,
            days: scale.cdr_days,
            ..cdr::CdrScale::default()
        });

        let server = Server::with_config(cdr_engine(scale, &db), serve_config());
        let reads = prepare_cdr_reads(&server);
        out.push(ServeCase {
            name: "cdr_read_heavy",
            server,
            reads,
            clients: scale.clients,
            iters_per_client: scale.iters_per_client,
            write_every: 0,
            write: None,
            p99_gate_us: CDR_READ_P99_GATE_US,
        });

        // CDR mixed: every 4th request per client inserts a fresh premium
        // customer (touching the `customer` key index and the `V_premium`
        // view), concurrent with the reads.
        let server = Server::with_config(cdr_engine(scale, &db), serve_config());
        let reads = prepare_cdr_reads(&server);
        let write: WriteFn = Box::new(|server, client, round| {
            let cid = 5_000_000 + (client as i64) * 1_000_000 + round as i64;
            server.submit_mutate(move |db| {
                db.insert(
                    "customer",
                    bqr_data::tuple![cid, format!("load{client}_{round}"), "premium", "north"],
                )
                .map(drop)
            })
        });
        out.push(ServeCase {
            name: "cdr_mixed",
            server,
            reads,
            clients: scale.clients,
            iters_per_client: scale.iters_per_client,
            write_every: 4,
            write: Some(write),
            p99_gate_us: CDR_MIXED_P99_GATE_US,
        });
        out
    }

    /// The committed workloads.
    pub fn cases() -> Vec<ServeCase> {
        cases_with(&committed_scale())
    }

    /// Drive one workload: `clients` scoped threads, each in a closed loop of
    /// `iters_per_client` requests.  Read-only rows verify every answer
    /// bit-identical (tuples and `FetchStats`) to a direct session execution
    /// captured before the loop; mixed rows assert success (their answers
    /// legitimately evolve under the concurrent writes — the umbrella stress
    /// test pins their consistency).  Completion is asserted exact: a closed
    /// loop under default admission limits rejects and drops nothing.
    pub fn run_case(case: &ServeCase) -> ServeResult {
        let goldens: Vec<bqr_plan::ExecOutput> = case
            .reads
            .iter()
            .map(|name| {
                case.server
                    .engine()
                    .session()
                    .execute(name)
                    .expect("golden execution")
            })
            .collect();

        let t = Instant::now();
        std::thread::scope(|scope| {
            for client in 0..case.clients {
                let server = &case.server;
                let reads = &case.reads;
                let goldens = &goldens;
                let write = case.write.as_ref();
                scope.spawn(move || {
                    for round in 0..case.iters_per_client {
                        let is_write = case.write_every > 0 && (round + 1) % case.write_every == 0;
                        if is_write {
                            let w = write.expect("write workloads carry a write fn");
                            w(server, client, round).wait().expect("write serves");
                        } else {
                            let pick = (client + round) % reads.len();
                            let got = server.execute(reads[pick]).expect("read serves");
                            if case.write_every == 0 {
                                assert_eq!(
                                    got.output, goldens[pick],
                                    "served answer diverged on {}",
                                    reads[pick]
                                );
                            }
                        }
                    }
                });
            }
        });
        let elapsed_ms = t.elapsed().as_secs_f64() * 1_000.0;
        case.server.drain();

        let stats = case.server.stats();
        let total = (case.clients * case.iters_per_client) as u64;
        assert_eq!(
            stats.completed, total,
            "{}: a request was dropped",
            case.name
        );
        assert_eq!(
            stats.rejected, 0,
            "{}: a closed loop never rejects",
            case.name
        );
        ServeResult {
            name: case.name,
            clients: case.clients,
            requests: stats.completed,
            writes: stats.writes,
            coalesced_reads: stats.coalesced_reads,
            elapsed_ms,
            throughput_rps: crate::guarded_ratio(total as f64, elapsed_ms / 1_000.0),
            p50_us: stats.p50_us,
            p99_us: stats.p99_us,
            max_us: stats.max_us,
            p99_gate_us: case.p99_gate_us,
        }
    }

    /// The measured result of the write burst.
    #[derive(Debug, Clone)]
    pub struct WriteBurstResult {
        pub name: &'static str,
        pub ops: usize,
        /// Total ms for `ops` serial `mutate` calls (one publish each).
        pub serial_ms: f64,
        /// Total ms for one `mutate_batch` of the same closures (one publish).
        pub batched_ms: f64,
    }

    impl WriteBurstResult {
        /// serial / batched — what one publish per burst saves.
        pub fn speedup(&self) -> f64 {
            crate::guarded_ratio(self.serial_ms, self.batched_ms)
        }
    }

    /// The CDR write burst: insert `ops` fresh premium customers through
    /// serial `mutate` calls on one engine and through a single
    /// `mutate_batch` on an identical engine, then assert the two engines
    /// are bit-identical (database and every view extent) — the benchmark
    /// doubles as a differential test of the batched write path.
    pub fn run_write_burst(scale: &ServeScale, ops: usize) -> WriteBurstResult {
        let db = cdr::generate(cdr::CdrScale {
            customers: scale.cdr_customers,
            days: scale.cdr_days,
            ..cdr::CdrScale::default()
        });
        let insert = |i: usize| {
            move |db: &mut bqr_data::Database| {
                let cid = 6_000_000 + i as i64;
                db.insert(
                    "customer",
                    bqr_data::tuple![cid, format!("burst{i}"), "premium", "north"],
                )
                .map(drop)
            }
        };
        // Warm each engine with one mutate first, so the first-write
        // copy-on-write fork and lazy interning are off both clocks.
        let warmup = |engine: &Engine| {
            engine
                .mutate(|db| {
                    db.insert(
                        "customer",
                        bqr_data::tuple![5_999_999, "burst_warm", "premium", "north"],
                    )
                    .map(drop)
                })
                .expect("warmup insert");
        };

        let serial = cdr_engine(scale, &db);
        warmup(&serial);
        let t = Instant::now();
        for i in 0..ops {
            serial.mutate(insert(i)).expect("serial insert");
        }
        let serial_ms = t.elapsed().as_secs_f64() * 1_000.0;

        let batched = cdr_engine(scale, &db);
        warmup(&batched);
        let t = Instant::now();
        let outcomes = batched
            .mutate_batch((0..ops).map(insert))
            .expect("batched publish");
        let batched_ms = t.elapsed().as_secs_f64() * 1_000.0;
        assert!(outcomes.iter().all(Result::is_ok), "every closure applies");

        // Differential gate: the fast path must not drift from the serial
        // baseline.
        let a = serial.session();
        let b = batched.session();
        assert_eq!(
            a.database(),
            b.database(),
            "write burst: databases diverged"
        );
        for view in a.views().names() {
            assert_eq!(
                a.views().extent(view),
                b.views().extent(view),
                "write burst: view extent `{view}` diverged"
            );
        }

        WriteBurstResult {
            name: "cdr_write_burst_premium",
            ops,
            serial_ms,
            batched_ms,
        }
    }

    /// How many writes the committed burst row commits per side.
    pub const BURST_OPS: usize = 64;

    /// Run every workload plus the write burst and render the
    /// machine-readable report committed as `BENCH_serve.json`.
    pub fn report() -> (Vec<ServeResult>, WriteBurstResult, String) {
        let results: Vec<ServeResult> = cases().iter().map(run_case).collect();
        let burst = run_write_burst(&committed_scale(), BURST_OPS);
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut json = format!(
            "{{\n  \"bench\": \"serve\",\n  \"unit\": \"us\",\n  \"threads_available\": {threads},\n  \"workloads\": [\n"
        );
        for (i, r) in results.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"clients\": {}, \"requests\": {}, \"writes\": {}, \"coalesced_reads\": {}, \"elapsed_ms\": {:.1}, \"throughput_rps\": {:.0}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}, \"p99_gate_us\": {}}}{}\n",
                r.name,
                r.clients,
                r.requests,
                r.writes,
                r.coalesced_reads,
                r.elapsed_ms,
                r.throughput_rps,
                r.p50_us,
                r.p99_us,
                r.max_us,
                r.p99_gate_us,
                if i + 1 < results.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "  ],\n  \"write_burst\": {{\"name\": \"{}\", \"ops\": {}, \"serial_ms\": {:.3}, \"batched_ms\": {:.3}, \"speedup\": {:.1}, \"min_speedup\": {:.1}}}\n}}\n",
            burst.name,
            burst.ops,
            burst.serial_ms,
            burst.batched_ms,
            burst.speedup(),
            BATCHED_WRITE_MIN_SPEEDUP,
        ));
        (results, burst, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqr_workload::movies;

    #[test]
    fn ratio_guards_are_consistent() {
        let cmp = Comparison {
            bounded_access: 0,
            naive_access: 0,
            bounded_ms: 0.0,
            naive_ms: 0.0,
            answers: 0,
        };
        assert_eq!(cmp.access_reduction(), 1.0, "0/0 access is parity");
        assert_eq!(cmp.speedup(), 1.0, "0/0 time is parity");
        let cmp = Comparison {
            bounded_access: 0,
            naive_access: 10,
            bounded_ms: 0.0,
            naive_ms: 2.5,
            answers: 1,
        };
        assert!(cmp.access_reduction().is_infinite());
        assert!(cmp.speedup().is_infinite());
        let cmp = Comparison {
            bounded_access: 5,
            naive_access: 10,
            bounded_ms: 2.0,
            naive_ms: 4.0,
            answers: 1,
        };
        assert_eq!(cmp.access_reduction(), 2.0);
        assert_eq!(cmp.speedup(), 2.0);
    }

    #[test]
    fn hom_bench_engines_agree_and_report_renders() {
        let (results, json) = hom_bench::report(3);
        assert_eq!(results.len(), 7);
        assert!(json.contains("\"bench\": \"hom\""));
        assert!(json.contains("path6_in_path3"));
        assert!(json.contains("triangle_agm_n400"));
        assert!(json.contains("c4_n400"));
        assert!(json.contains("chain_skew_n20000"));
        assert!(json.contains(hom_bench::COLD_ENUMERATION_CASE));
        for r in &results {
            assert!(r.speedup() > 0.0);
        }
    }

    /// The cold-enumeration pin measures both engines on identical answers;
    /// its row is a cost pin, not a win, so only sanity is asserted here —
    /// the ratio gate lives in the harness's release-mode run.
    #[test]
    fn cold_enumeration_pin_measures_both_engines() {
        let r = hom_bench::run_cold_enumeration(2);
        assert_eq!(r.name, hom_bench::COLD_ENUMERATION_CASE);
        assert!(r.baseline_ms > 0.0 && r.slot_cached_ms > 0.0);
    }

    #[test]
    fn planner_beats_fixed_order_on_cyclic_workloads() {
        for case in hom_bench::eval_cases() {
            let r = hom_bench::run_eval_case(&case, 2);
            assert!(
                r.speedup() > 1.0,
                "{}: planner ({:.2} ms) must beat the fixed-order engine ({:.2} ms)",
                r.name,
                r.slot_cached_ms,
                r.baseline_ms
            );
        }
    }

    /// Parallel scaling needs parallel hardware *and* an otherwise idle
    /// machine: asserted only when ≥ 4 threads exist, and `#[ignore]`d so
    /// concurrently running sibling tests (libtest defaults to one thread
    /// per core) cannot steal the cores mid-measurement and fail it
    /// spuriously.  Run explicitly with `cargo test --release -p bqr-bench
    /// -- --ignored` on a multicore machine; the in-container benchmark
    /// machine is single-core, where the expected scaling is ~1.0×.
    #[test]
    #[ignore = "wall-clock scaling; run explicitly on an idle multicore machine"]
    fn parallel_execution_scales_on_multicore_machines() {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if threads < 4 {
            eprintln!("skipping scaling assertion: only {threads} thread(s) available");
            return;
        }
        let case = plan_bench::triangle_case(400, 3);
        let r = plan_bench::run_case(&case);
        let pipeline = bqr_plan::Pipeline::compile(&case.plan, &case.idb, &case.views).unwrap();
        let expected = pipeline
            .execute(&case.idb, &bqr_plan::ExecOptions::serial())
            .unwrap();
        let p = plan_bench::run_parallel(&case, &pipeline, &expected, 4, r.compiled_ms);
        assert!(
            p.scaling > 1.5,
            "expected >1.5x scaling at 4 shards on {threads} threads, got {:.2}x",
            p.scaling
        );
    }

    #[test]
    fn plan_bench_executors_agree_and_parallel_is_identical() {
        // A reduced triangle instance keeps the debug-mode test fast; the
        // committed BENCH_plan.json rows use n = 400 via the harness.
        let case = plan_bench::triangle_case(60, 2);
        let r = plan_bench::run_case(&case);
        assert!(r.reference_ms > 0.0 && r.compiled_ms > 0.0);
        assert!(r.speedup() > 0.0);
        let pipeline = bqr_plan::Pipeline::compile(&case.plan, &case.idb, &case.views).unwrap();
        let expected = pipeline
            .execute(&case.idb, &bqr_plan::ExecOptions::serial())
            .unwrap();
        let p = plan_bench::run_parallel(&case, &pipeline, &expected, 4, r.compiled_ms);
        assert_eq!(p.shards, 4);
        assert!(p.ms > 0.0);
    }

    /// A reduced prepared case: cold rounds always miss (fresh epochs), warm
    /// repeats always hit, outputs match the reference — the counter
    /// assertions live inside `run_prepared` itself.
    #[test]
    fn prepared_case_cold_misses_and_warm_hits() {
        let triangle = plan_bench::triangle_case(60, 0);
        let case = plan_bench::PreparedCase {
            name: "triangle_small",
            plan: triangle.plan,
            rebuild: Box::new(|| {
                let c = plan_bench::triangle_case(60, 0);
                (c.idb, c.views)
            }),
            cold_rounds: 2,
            warm_repeats: 3,
        };
        let r = plan_bench::run_prepared(&case);
        assert_eq!(r.cold_rounds, 2);
        assert_eq!(r.warm_repeats, 3);
        assert!(r.cold_ms > 0.0 && r.warm_ms > 0.0);
        assert!(r.speedup() > 0.0);
    }

    /// All three closed-loop workloads at the reduced scale: read-only rows
    /// verify every served answer against the direct session golden inside
    /// `run_case` itself; the mixed row exercises interleaved writes.
    #[test]
    fn serve_closed_loop_round_trips_all_reduced_workloads() {
        let scale = serve_bench::reduced_scale();
        let total = (scale.clients * scale.iters_per_client) as u64;
        for case in &serve_bench::cases_with(&scale) {
            let r = serve_bench::run_case(case);
            assert_eq!(r.requests, total, "{}: closed loop completes", r.name);
            assert!(r.throughput_rps > 0.0);
            assert!(r.p50_us <= r.p99_us && r.p99_us <= r.max_us);
            if case.write_every > 0 {
                assert!(r.writes > 0, "the mixed row must commit writes");
            } else {
                assert_eq!(r.writes, 0);
            }
        }
    }

    /// The write burst's differential gate (serial engine vs batched engine
    /// bit-identical) lives inside `run_write_burst`; the ≥ 2× speedup gate
    /// is release-mode-only, in the harness.
    #[test]
    fn serve_write_burst_is_differentially_identical() {
        let r = serve_bench::run_write_burst(&serve_bench::reduced_scale(), 6);
        assert_eq!(r.ops, 6);
        assert!(r.serial_ms > 0.0 && r.batched_ms > 0.0);
        assert!(r.speedup() > 0.0);
    }

    #[test]
    fn compare_helper_round_trips_the_movie_example() {
        let setting = movies::setting(50, 40);
        let checker = checker_with_annotations(&setting, &[]);
        let analysis = plan_for(&checker, &movies::q_xi());
        assert!(analysis.topped);
        let db = movies::generate(movies::MovieScale {
            persons: 500,
            movies: 300,
            n0: 50,
            seed: 2,
        });
        let (idb, cache) = prepare(&setting, db);
        let cmp = compare(&movies::q0(), &analysis.plan.unwrap(), &idb, &cache);
        assert!(cmp.bounded_access <= 150);
        assert!(cmp.naive_access > cmp.bounded_access);
        assert!(cmp.access_reduction() > 1.0);
        assert!(cmp.speedup() > 0.0);
    }
}
