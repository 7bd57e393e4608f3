//! # bqr-bench — experiment harness
//!
//! The library half of the benchmark crate: the measurement helpers of the
//! `harness` binary, which prints the experiment tables, writes the
//! committed `BENCH_hom.json`, `BENCH_plan.json` and `BENCH_serve.json`
//! reports, and whose figures the ROADMAP tables quote.  Each of the three
//! committed reports has its module:
//! [`hom_bench`], [`plan_bench`] and [`serve_bench`].

pub mod hom_bench;
pub mod plan_bench;
pub mod serve_bench;

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

    /// The baseline is `hom::reference`, whose atom order is the fixed
    /// "most bound positions first" heuristic.
    #[test]
    fn planner_beats_fixed_order_on_cyclic_workloads() {
        for case in hom_bench::eval_cases() {
            let r = hom_bench::run_eval_case(&case, 2);
            assert!(
                r.speedup() > 1.0,
                "{}: planner ({:.2} ms) must beat the reference engine ({:.2} ms)",
                r.name,
                r.slot_cached_ms,
                r.baseline_ms
            );
        }
    }

    /// `run_case` asserts the compiled pipeline's output (tuples and
    /// `FetchStats`) equals the reference interpreter's.
    #[test]
    fn plan_bench_executors_agree() {
        // A reduced triangle instance keeps the debug-mode test fast; the
        // committed BENCH_plan.json rows use n = 400 via the harness.
        let case = plan_bench::triangle_case(60, 2);
        let r = plan_bench::run_case(&case);
        assert!(r.reference_ms > 0.0 && r.compiled_ms > 0.0);
        assert!(r.speedup() > 0.0);
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
