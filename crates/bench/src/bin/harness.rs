//! The experiment harness: prints the experiment tables, writes the
//! committed `BENCH_hom.json`, `BENCH_plan.json` and `BENCH_serve.json`
//! reports (the figures the ROADMAP tables quote), and gates them.
//!
//! Usage: `cargo run -p bqr-bench --bin harness --release -- [e1|e4|e5|e6|e7|hom|plan|prepared|serve|all]`
//!
//! The `hom` mode benchmarks the slot-based homomorphism engine against the
//! retained pre-refactor engine on repeated containment checks and writes
//! the machine-readable report to `BENCH_hom.json` (path overridable via the
//! `BENCH_HOM_JSON` environment variable), so the perf trajectory of the
//! hot path is tracked across PRs.
//!
//! The `plan` mode benchmarks the compiled plan-execution pipeline against
//! the retained tree-walking interpreter (`exec::reference`) on the movies,
//! CDR and AGM-triangle plan workloads, runs the **prepared** rows (the
//! first execution on a freshly loaded instance, which interns what it
//! reads, vs a warm execution) and
//! the **index** rows (the CDR `calls` constraint index probed cold and hot,
//! what it adds to a one-tuple write, and the four constraint indexes' heap,
//! printed per constraint), writes
//! `BENCH_plan.json` (`BENCH_PLAN_JSON` to override), and **exits non-zero**
//! if the compiled executor is slower than the reference on the movies
//! workload, if a warm execution is not at least 3× faster than the
//! first one on a freshly loaded instance there, if an ad-hoc query of a seen shape
//! costs more than half of one of a never-seen shape on CDR, or if a
//! one-tuple `calls` write to a cloned CDR version (clone, insert, drop)
//! takes more than 20 µs — CI runs it as a regression gate.
//! `prepared` is an alias for `plan` (the prepared rows are part of the same
//! report file).
//!
//! The `serve` mode runs the closed-loop serving harness over `bqr-server`
//! (movies read-heavy, CDR read-heavy, CDR mixed read/write — each with N
//! client threads submitting, waiting, and resubmitting), plus the CDR write
//! burst (`Engine::mutate_batch` vs serial `mutate`).  It writes
//! `BENCH_serve.json` (`BENCH_SERVE_JSON` to override) and **exits non-zero**
//! when a row's p99 exceeds its absolute gate (`p99_gate_us`), when the
//! batched write burst is not ≥ 2× faster than serial single-mutate commits,
//! or when a batched burst of 1 024 writes costs more than 2× as much per
//! write as one of 64.

use bqr_bench::{checker_with_annotations, compare, plan_for, prepare};
use bqr_core::bounded_eval::boundedly_evaluable_cq;
use bqr_core::problem::RewritingSetting;
use bqr_query::ViewSet;
use bqr_workload::random::{generate_queries, RandomQueryConfig};
use bqr_workload::{cdr, discover, movies, social};
use std::time::Instant;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match which.as_str() {
        "e1" => e1_figure1(),
        "e4" => e4_analysis_cost(),
        "e5" => e5_graph_search(),
        "e6" => e6_cdr(),
        "e7" => e7_random(),
        "hom" => hom_engine(),
        "plan" | "prepared" => plan_executor(),
        "serve" => serve_front(),
        "all" => {
            e1_figure1();
            e4_analysis_cost();
            e5_graph_search();
            e6_cdr();
            e7_random();
            hom_engine();
            plan_executor();
            serve_front();
        }
        other => {
            eprintln!(
                "unknown experiment `{other}`; use e1|e4|e5|e6|e7|hom|plan|prepared|serve|all"
            );
            std::process::exit(1);
        }
    }
}

/// `hom` — slot-based engine + cached indexes vs the pre-refactor engine on
/// repeated containment (the same query pair checked 1000×) and on the
/// planner cases: the cost-based atom order on cyclic and skewed
/// workloads.  Emits `BENCH_hom.json`.
fn hom_engine() {
    use bqr_bench::hom_bench;

    const REPEATS: usize = 1_000;
    println!(
        "\n== hom: slot engine vs pre-refactor engine ({REPEATS}× containment); \
         planner vs pre-refactor engine ({}× eval on the cycle / *_skew_* rows) ==",
        hom_bench::EVAL_REPEATS
    );
    let (results, json) = hom_bench::report(REPEATS);
    println!(
        "{:<36} {:>8} {:>14} {:>16} {:>9}",
        "case", "repeats", "baseline-ms", "planned-ms", "speedup"
    );
    for r in &results {
        println!(
            "{:<36} {:>8} {:>14.2} {:>16.2} {:>8.1}x",
            r.name,
            r.repeats,
            r.baseline_ms,
            r.slot_cached_ms,
            r.speedup()
        );
    }
    let path = std::env::var("BENCH_HOM_JSON").unwrap_or_else(|_| "BENCH_hom.json".to_string());
    std::fs::write(&path, json).expect("write BENCH_hom.json");
    println!("wrote {path}");

    // The cold-path pin (ROADMAP "known cost"): a cold single-shot
    // enumeration builds each index it probes once; it may not silently grow
    // past the pinned multiple of the reference engine.
    let cold = results
        .iter()
        .find(|r| r.name == hom_bench::COLD_ENUMERATION_CASE)
        .expect("the cold-enumeration row exists");
    if cold.slot_cached_ms > hom_bench::COLD_ENUMERATION_MAX_RATIO * cold.baseline_ms {
        eprintln!(
            "REGRESSION: cold single-shot enumeration ({:.2} ms) exceeds {}x the reference engine ({:.2} ms)",
            cold.slot_cached_ms,
            hom_bench::COLD_ENUMERATION_MAX_RATIO,
            cold.baseline_ms
        );
        std::process::exit(1);
    }
}

/// `plan` / `prepared` — the compiled plan-execution pipeline vs the
/// tree-walking reference interpreter, the prepared
/// (first execution on a freshly loaded instance vs warm) rows, and the
/// runtime-guard overhead comparison.  Emits `BENCH_plan.json` and fails (exit 1) when
/// the compiled executor loses to the reference on the movies workload,
/// when the compiled executor does not beat the committed movies time of
/// the row-at-a-time executor before it by ≥ 1.2×, when a warm execution
/// is not ≥ 3× faster than the first one on a freshly loaded instance
/// there, when *any* prepared
/// row comes out warm-slower-than-cold in its median round (a warm run is
/// a strict subset of a cold one — such a row is a measurement or caching
/// bug, never a fact), when
/// an ad-hoc CDR query of a seen shape costs more than half of one of a
/// never-seen shape (`cdr_adhoc_seen_shape_10k`), when
/// a delta-maintained single-tuple insert is not ≥ 5× faster than a full
/// version rebuild on either write-path workload, when the CDR constraint
/// indexes hold more than 1.25× the ids of their rows on the heap or add
/// more than 20 µs to a one-tuple `calls` write on a cloned version, or
/// when guarded execution exceeds the unguarded baseline by more than 5%.
fn plan_executor() {
    use bqr_bench::plan_bench;

    println!(
        "\n== plan: compiled pipeline vs exec::reference; prepared cold vs warm; write path delta vs rebuild; constraint index; guard overhead =="
    );
    let plan_bench::PlanReport {
        results,
        prepared,
        write_path,
        index,
        guard,
        guard_stats,
        json,
    } = plan_bench::report();
    println!(
        "{:<28} {:>8} {:>14} {:>14} {:>9}",
        "case", "repeats", "reference-ms", "compiled-ms", "speedup"
    );
    for r in &results {
        println!(
            "{:<28} {:>8} {:>14.2} {:>14.2} {:>8.1}x",
            r.name,
            r.repeats,
            r.reference_ms,
            r.compiled_ms,
            r.speedup()
        );
    }
    println!(
        "{:<28} {:>6}/{:<6} {:>14} {:>14} {:>9}  cache h/m",
        "prepared", "cold", "warm", "cold-ms/exec", "warm-ms/exec", "speedup"
    );
    for p in &prepared {
        println!(
            "{:<28} {:>6}/{:<6} {:>14.3} {:>14.4} {:>8.1}x  {}/{}",
            p.name,
            p.cold_rounds,
            p.warm_repeats,
            p.cold_ms,
            p.warm_ms,
            p.speedup(),
            p.cache.hits,
            p.cache.misses
        );
    }
    println!(
        "{:<28} {:>8} {:>14} {:>14} {:>9}",
        "write path", "repeats", "delta-ms", "rebuild-ms", "speedup"
    );
    for w in &write_path {
        println!(
            "{:<28} {:>8} {:>14.3} {:>14.3} {:>8.1}x",
            w.name,
            w.repeats,
            w.delta_ms,
            w.rebuild_ms,
            w.speedup()
        );
    }
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "index (CDR calls)", "cold-ns", "hot-ns", "fork-us", "write-us", "heap-MB"
    );
    println!(
        "{:<28} {:>12.1} {:>12.1} {:>12.2} {:>12.2} {:>12.3}",
        "cdr_calls",
        index.probe_cold_ns,
        index.probe_hot_ns,
        index.write_fork_us,
        index.write_us,
        index.heap_mb()
    );
    for (constraint, bytes) in &index.heap_bytes {
        println!("  heap_bytes {constraint:<40} {bytes:>12}");
    }
    println!(
        "{:<28} {:>8} {:>14} {:>14} {:>9}",
        "guard overhead", "repeats", "disabled-ms", "enabled-ms", "ratio"
    );
    println!(
        "{:<28} {:>8} {:>14.2} {:>14.2} {:>8.3}x",
        guard.name,
        guard.repeats,
        guard.disabled_ms,
        guard.enabled_ms,
        guard.ratio()
    );
    println!(
        "guard stats exercise: cancellations {}  deadline {}  memory {}  fetch {}",
        guard_stats.cancellations,
        guard_stats.deadline_trips,
        guard_stats.memory_trips,
        guard_stats.fetch_trips
    );

    let path = std::env::var("BENCH_PLAN_JSON").unwrap_or_else(|_| "BENCH_plan.json".to_string());
    std::fs::write(&path, json).expect("write BENCH_plan.json");
    println!("wrote {path}");

    let movies = results
        .iter()
        .find(|r| r.name.starts_with("movies"))
        .expect("the movies row exists");
    if movies.speedup() < 1.0 {
        eprintln!(
            "REGRESSION: compiled executor ({:.2} ms) is slower than exec::reference ({:.2} ms) on the movies workload",
            movies.compiled_ms, movies.reference_ms
        );
        std::process::exit(1);
    }
    let executor_budget_ms = plan_bench::ROW_AT_A_TIME_MOVIES_MS / plan_bench::EXECUTOR_MIN_SPEEDUP;
    if movies.compiled_ms > executor_budget_ms {
        eprintln!(
            "REGRESSION: compiled executor ({:.2} ms) does not beat the committed movies time of the row-at-a-time executor before it ({:.1} ms) by {}x (needs <= {:.2} ms)",
            movies.compiled_ms,
            plan_bench::ROW_AT_A_TIME_MOVIES_MS,
            plan_bench::EXECUTOR_MIN_SPEEDUP,
            executor_budget_ms
        );
        std::process::exit(1);
    }
    for p in &prepared {
        if let Some(excess_ms) = p.warm_excess_ms.filter(|&ms| ms > 0.0) {
            eprintln!(
                "REGRESSION: the warm executions are slower than the first one on the same freshly loaded instance, by {excess_ms:.4} ms in the median of {} rounds, on {} — a warm run does strictly less work, so this row is a measurement or caching bug",
                p.cold_rounds, p.name
            );
            std::process::exit(1);
        }
    }
    let adhoc = prepared
        .iter()
        .find(|p| p.name == plan_bench::ADHOC_SEEN_SHAPE_ROW)
        .expect("the ad-hoc seen-shape row exists");
    if adhoc.warm_ms > plan_bench::ADHOC_SEEN_SHAPE_MAX_RATIO * adhoc.cold_ms {
        eprintln!(
            "REGRESSION: an ad-hoc query of a seen shape ({:.4} ms) costs more than {}x one of a never-seen shape ({:.4} ms) on {} — a per-request checker run, compile or plan rebuild is back on the hit path",
            adhoc.warm_ms,
            plan_bench::ADHOC_SEEN_SHAPE_MAX_RATIO,
            adhoc.cold_ms,
            adhoc.name
        );
        std::process::exit(1);
    }
    let movies_prepared = prepared
        .iter()
        .find(|p| p.name.starts_with("movies"))
        .expect("the prepared movies row exists");
    if movies_prepared.speedup() < plan_bench::PREPARED_MIN_SPEEDUP {
        eprintln!(
            "REGRESSION: a warm execution ({:.4} ms) is not {}x faster than the first one on a freshly loaded instance ({:.3} ms) on the movies workload",
            movies_prepared.warm_ms,
            plan_bench::PREPARED_MIN_SPEEDUP,
            movies_prepared.cold_ms
        );
        std::process::exit(1);
    }
    for w in &write_path {
        if w.speedup() < plan_bench::WRITE_MIN_SPEEDUP {
            eprintln!(
                "REGRESSION: delta-maintained single-tuple write ({:.3} ms) is not {}x faster than a full version rebuild ({:.3} ms) on {}",
                w.delta_ms,
                plan_bench::WRITE_MIN_SPEEDUP,
                w.rebuild_ms,
                w.name
            );
            std::process::exit(1);
        }
        let ceiling_ms = match w.name {
            "cdr_insert_premium_10k" => plan_bench::CDR_WRITE_MAX_MS,
            "movies_like_under_v1_20k" => plan_bench::MOVIES_VIEW_WRITE_MAX_MS,
            name if plan_bench::CDR_FACT_WRITE_ROWS.contains(&name) => {
                plan_bench::CDR_FACT_WRITE_MAX_MS
            }
            _ => f64::INFINITY,
        };
        if w.delta_ms > ceiling_ms {
            eprintln!(
                "REGRESSION: delta-maintained single-tuple write ({:.3} ms) exceeds the {:.1} ms absolute ceiling on {}",
                w.delta_ms, ceiling_ms, w.name
            );
            std::process::exit(1);
        }
    }
    if index.heap_mb() > index.heap_max_mb() {
        eprintln!(
            "REGRESSION: the CDR constraint indexes hold {:.3} MB of heap, more than {}x the {:.3} MB of ids their rows hold",
            index.heap_mb(),
            plan_bench::INDEX_HEAP_MAX_RATIO,
            index.row_id_bytes as f64 / 1e6
        );
        std::process::exit(1);
    }
    if index.write_fork_us > plan_bench::WRITE_FORK_MAX_US {
        eprintln!(
            "REGRESSION: the constraint indexes add {:.2} us (median) to a CDR version's clone, one calls insert and drop, more than {:.0} us",
            index.write_fork_us,
            plan_bench::WRITE_FORK_MAX_US
        );
        std::process::exit(1);
    }
    if index.write_us > plan_bench::WRITE_MAX_US {
        eprintln!(
            "REGRESSION: a CDR version's clone, one calls insert and drop take {:.2} us (median), more than {:.0} us",
            index.write_us,
            plan_bench::WRITE_MAX_US
        );
        std::process::exit(1);
    }
    if guard.ratio() > plan_bench::GUARD_MAX_OVERHEAD {
        eprintln!(
            "REGRESSION: guarded execution ({:.2} ms) exceeds the unguarded baseline ({:.2} ms) by more than {:.0}% on the movies workload",
            guard.enabled_ms,
            guard.disabled_ms,
            (plan_bench::GUARD_MAX_OVERHEAD - 1.0) * 100.0
        );
        std::process::exit(1);
    }
}

/// `serve` — the closed-loop serving harness: three concurrent-client
/// workloads over `bqr-server` plus the CDR write burst.  Emits
/// `BENCH_serve.json` and fails (exit 1) when a row's p99 exceeds its
/// `p99_gate_us` (see [`bqr_bench::serve_bench::CDR_MIXED_P99_GATE_US`]), when the
/// batched write burst is not
/// [`bqr_bench::serve_bench::BATCHED_WRITE_MIN_SPEEDUP`]× faster than serial commits,
/// or when the large burst costs more than
/// [`bqr_bench::serve_bench::BATCHED_PER_OP_MAX_GROWTH`]× as much per write.
fn serve_front() {
    use bqr_bench::serve_bench;

    println!(
        "\n== serve: closed-loop clients over bqr-server; write burst mutate_batch vs serial =="
    );
    let (results, [burst, large], json) = serve_bench::report();
    println!(
        "{:<22} {:>7} {:>9} {:>7} {:>10} {:>11} {:>8} {:>8} {:>8} {:>9}",
        "workload",
        "clients",
        "requests",
        "writes",
        "coalesced",
        "rps",
        "p50-us",
        "p99-us",
        "max-us",
        "p99-gate"
    );
    for r in &results {
        println!(
            "{:<22} {:>7} {:>9} {:>7} {:>10} {:>11.0} {:>8} {:>8} {:>8} {:>9}",
            r.name,
            r.clients,
            r.requests,
            r.writes,
            r.coalesced_reads,
            r.throughput_rps,
            r.p50_us,
            r.p99_us,
            r.max_us,
            r.p99_gate_us
        );
    }
    for b in [&burst, &large] {
        println!(
            "write burst: {} ops {}  serial {:.2} ms  batched {:.2} ms ({:.2} us/op)  speedup {:.1}x",
            b.name,
            b.ops,
            b.serial_ms,
            b.batched_ms,
            b.batched_us_per_op(),
            b.speedup()
        );
    }

    let path = std::env::var("BENCH_SERVE_JSON").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    std::fs::write(&path, json).expect("write BENCH_serve.json");
    println!("wrote {path}");

    for r in &results {
        if r.p99_us > r.p99_gate_us {
            eprintln!(
                "REGRESSION: p99 latency ({} us) exceeds its gate ({} us) on the serving workload {}",
                r.p99_us, r.p99_gate_us, r.name
            );
            std::process::exit(1);
        }
    }
    if burst.speedup() < serve_bench::BATCHED_WRITE_MIN_SPEEDUP {
        eprintln!(
            "REGRESSION: batched write burst ({:.2} ms) is not {}x faster than serial single-mutate commits ({:.2} ms)",
            burst.batched_ms,
            serve_bench::BATCHED_WRITE_MIN_SPEEDUP,
            burst.serial_ms
        );
        std::process::exit(1);
    }
    let per_op_max = serve_bench::BATCHED_PER_OP_MAX_GROWTH * burst.batched_us_per_op();
    if large.batched_us_per_op() > per_op_max {
        eprintln!(
            "REGRESSION: a batched burst of {} writes costs {:.2} us per write, more than {}x the {:.2} us of a burst of {}",
            large.ops,
            large.batched_us_per_op(),
            serve_bench::BATCHED_PER_OP_MAX_GROWTH,
            burst.batched_us_per_op(),
            burst.ops
        );
        std::process::exit(1);
    }
}

/// E1 — Fig. 1 / Examples 1.1, 2.2, 2.3: the rewriting of Q0 over V1 fetches
/// at most 2·N0 tuples, independent of |D|.
fn e1_figure1() {
    println!("\n== E1: Example 1.1 / Fig. 1 — Q0 over V1, N0 = 100, M = 40 ==");
    let n0 = 100;
    let setting = movies::setting(n0, 40);
    let checker = checker_with_annotations(&setting, &[]);
    let analysis = plan_for(&checker, &movies::q_xi());
    println!(
        "topped: {}  plan size: {}  worst-case |Dξ|: {} (paper: 2·N0 = {})",
        analysis.topped,
        analysis.plan_size.unwrap(),
        analysis.fetch_bound.unwrap(),
        2 * n0
    );
    let plan = analysis.plan.unwrap();
    println!(
        "{:>10} {:>10} | {:>14} {:>14} | {:>12} {:>12} | {:>9}",
        "persons", "|D|", "bounded-access", "naive-access", "bounded-ms", "naive-ms", "reduction"
    );
    for persons in [2_000usize, 8_000, 32_000] {
        let db = movies::generate(movies::MovieScale {
            persons,
            movies: 2_000,
            n0,
            seed: 1,
        });
        let size = db.size();
        let (idb, cache) = prepare(&setting, db);
        let cmp = compare(&movies::q0(), &plan, &idb, &cache);
        println!(
            "{:>10} {:>10} | {:>14} {:>14} | {:>12.3} {:>12.3} | {:>8.0}x",
            persons,
            size,
            cmp.bounded_access,
            cmp.naive_access,
            cmp.bounded_ms,
            cmp.naive_ms,
            cmp.access_reduction()
        );
    }
}

/// E4 — Table I in practice: cost of the PTIME effective-syntax check versus
/// the exponential exact search, as the query / bound grows.
fn e4_analysis_cost() {
    use bqr_core::decide::decide_vbrp;
    use bqr_core::problem::VbrpInstance;
    use bqr_plan::PlanLanguage;
    use bqr_query::parser::parse_cq;

    println!(
        "\n== E4: analysis cost — effective syntax (PTIME) vs exact search (exponential in M) =="
    );
    println!(
        "{:>28} {:>14} {:>16}",
        "query atoms / bound M", "topped-check", "exact-VBRP"
    );
    let scale = cdr::CdrScale::default();
    let setting = cdr::setting(&scale, 120);
    let checker = checker_with_annotations(&setting, &cdr::view_bounds());

    // Topped check on growing chain queries.
    for atoms in [2usize, 4, 6, 8] {
        let mut body = String::from("Q(c1) :- calls(17, 1, c1, d0)");
        for i in 1..atoms {
            body.push_str(&format!(", calls(c{i}, 1, c{}, d{i})", i + 1));
        }
        let q = parse_cq(&body).unwrap();
        let t = Instant::now();
        let analysis = checker.analyze_cq(&q).unwrap();
        let topped_ms = t.elapsed().as_secs_f64() * 1_000.0;
        println!(
            "{:>22} atoms {:>11.2}ms {:>16}",
            atoms,
            topped_ms,
            if analysis.topped {
                "(topped)"
            } else {
                "(not topped)"
            }
        );
    }
    // Exact search on a tiny instance with growing M.
    let small_schema =
        bqr_data::DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])]).unwrap();
    let small_access = bqr_data::AccessSchema::new(vec![bqr_data::AccessConstraint::new(
        "rating",
        &["mid"],
        &["rank"],
        1,
    )
    .unwrap()]);
    let q = parse_cq("Q(r) :- rating(42, r)").unwrap();
    for m in [3usize, 4, 5] {
        let setting = RewritingSetting::new(
            small_schema.clone(),
            small_access.clone(),
            ViewSet::empty(),
            m,
        );
        let t = Instant::now();
        let outcome =
            decide_vbrp(&VbrpInstance::new(setting, q.clone()), PlanLanguage::Cq).unwrap();
        let ms = t.elapsed().as_secs_f64() * 1_000.0;
        println!(
            "{:>22} M = {m} {:>13} {:>13.1}ms  ({})",
            "exact search,",
            "",
            ms,
            if outcome.has_rewriting() {
                "rewriting found"
            } else {
                "none"
            }
        );
    }
}

/// E5 — the Graph-Search example: constant data access as the graph grows.
fn e5_graph_search() {
    println!("\n== E5: Facebook Graph-Search example — friends ≤ 50, one dining/day ==");
    let setting = social::setting(50, 200);
    let checker = checker_with_annotations(&setting, &[]);
    let query = social::graph_search_query(0, 15);
    let analysis = plan_for(&checker, &query);
    println!(
        "topped: {}  plan size: {}  worst-case |Dξ|: {}",
        analysis.topped,
        analysis.plan_size.unwrap(),
        analysis.fetch_bound.unwrap()
    );
    let plan = analysis.plan.unwrap();
    println!(
        "{:>10} {:>10} | {:>14} {:>14} | {:>12} {:>12} | {:>9}",
        "persons", "|D|", "bounded-access", "naive-access", "bounded-ms", "naive-ms", "reduction"
    );
    for persons in [2_000usize, 8_000, 32_000] {
        let db = social::generate(social::SocialScale {
            persons,
            restaurants: 500,
            max_friends: 50,
            days: 31,
            seed: 17,
        });
        let size = db.size();
        let (idb, cache) = prepare(&setting, db);
        let cmp = compare(&query, &plan, &idb, &cache);
        println!(
            "{:>10} {:>10} | {:>14} {:>14} | {:>12.3} {:>12.3} | {:>8.0}x",
            persons,
            size,
            cmp.bounded_access,
            cmp.naive_access,
            cmp.bounded_ms,
            cmp.naive_ms,
            cmp.access_reduction()
        );
    }
}

/// E6 — the CDR workload: fraction of queries improved and per-query
/// access-reduction factors, at two database scales.
fn e6_cdr() {
    println!("\n== E6: CDR workload — 10 templates, views V_premium / V_north_towers ==");
    for customers in [2_000usize, 10_000] {
        let scale = cdr::CdrScale {
            customers,
            days: 14,
            ..cdr::CdrScale::default()
        };
        let setting = cdr::setting(&scale, 120);
        let checker = checker_with_annotations(&setting, &cdr::view_bounds());
        let db = cdr::generate(scale);
        println!("\n-- customers = {customers}, |D| = {} --", db.size());
        let (idb, cache) = prepare(&setting, db);
        println!(
            "{:<24} {:>8} {:>14} {:>14} {:>10}",
            "query", "bounded?", "bounded-access", "naive-access", "reduction"
        );
        let mut improved = 0usize;
        let queries = cdr::workload(17, 3);
        for q in &queries {
            let analysis = checker.analyze_cq(&q.query).unwrap();
            if analysis.topped {
                let cmp = compare(&q.query, &analysis.plan.unwrap(), &idb, &cache);
                improved += 1;
                println!(
                    "{:<24} {:>8} {:>14} {:>14} {:>9.0}x",
                    q.name,
                    "yes",
                    cmp.bounded_access,
                    cmp.naive_access,
                    cmp.access_reduction()
                );
            } else {
                println!(
                    "{:<24} {:>8} {:>14} {:>14} {:>10}",
                    q.name, "no", "-", "-", "-"
                );
            }
        }
        println!(
            "improved: {improved}/{} queries ({}%)",
            queries.len(),
            100 * improved / queries.len()
        );
    }
}

/// E7 — random acyclic CQ workloads: how many are boundedly evaluable
/// (no views) vs boundedly rewritable with the CDR views, under mined
/// constraints.
fn e7_random() {
    println!("\n== E7: random ACQ workloads over the CDR schema ==");
    let scale = cdr::CdrScale {
        customers: 1_000,
        days: 7,
        ..cdr::CdrScale::default()
    };
    let db = cdr::generate(scale);
    let mined = bqr_workload::discover_constraints(
        &db,
        &discover::DiscoveryOptions {
            max_bound: 100,
            max_key_size: 2,
        },
    );
    println!(
        "mined {} access constraints from a {}-tuple sample",
        mined.len(),
        db.size()
    );

    println!(
        "{:>8} {:>12} | {:>22} {:>26}",
        "atoms", "const-prob", "boundedly evaluable", "bounded rewriting w/ views"
    );
    for (atoms, p) in [(2usize, 0.5f64), (3, 0.5), (3, 0.3), (4, 0.3)] {
        let queries = generate_queries(
            &cdr::schema(),
            &RandomQueryConfig {
                atoms,
                constant_probability: p,
                constants: (0..50).map(bqr_data::Value::int).collect(),
                head_variables: 1,
                seed: 4242,
            },
            100,
        );
        let viewless = RewritingSetting::new(cdr::schema(), mined.clone(), ViewSet::empty(), 200);
        let with_views = RewritingSetting::new(cdr::schema(), mined.clone(), cdr::views(), 200);
        let checker = checker_with_annotations(&with_views, &cdr::view_bounds());
        let mut evaluable = 0usize;
        let mut rewritable = 0usize;
        for q in &queries {
            if boundedly_evaluable_cq(&viewless, q).unwrap().topped {
                evaluable += 1;
            }
            if checker.analyze_cq(q).unwrap().topped {
                rewritable += 1;
            }
        }
        println!(
            "{:>8} {:>12.1} | {:>20}% {:>25}%",
            atoms, p, evaluable, rewritable
        );
    }
}
