//! The CDR analytics workload (experiment E6) through the [`bqr::Engine`]
//! facade: ten query templates over a synthetic call-detail-record dataset;
//! nine have bounded rewritings using the cached views, and the example
//! reports the per-query data-access reduction, mirroring the paper's
//! ">90 % of the workload improves by 25x to 5 orders of magnitude" claim in
//! shape.
//!
//! Each bounded template is analysed once and registered as a **named
//! prepared statement** via `prepare_from`; repeated executions are warm
//! pipeline-cache hits, and the engine's `CacheStats` at the end show it
//! (one warm re-execution per bounded template, plus one extra hit on the
//! first template whose pipeline `explain()` already compiled; one miss
//! per template shape, and nothing would add to that if the instance
//! mutated).
//!
//! Run with `cargo run --example cdr_analytics --release`.

use bqr::data::FetchStats;
use bqr::query::eval::eval_cq_counting;
use bqr::workload::cdr;
use bqr::Engine;

fn main() -> bqr::Result<()> {
    let scale = cdr::CdrScale {
        customers: 5_000,
        days: 14,
        ..cdr::CdrScale::default()
    };
    // The engine adopts the CDR setting; the `view_bounds` annotations
    // declare |V(D)| bounds the checker cannot derive from A alone
    // (the Example 3.3 situation).
    let mut builder = Engine::builder().setting(cdr::setting(&scale, 120));
    for (name, bound) in cdr::view_bounds() {
        builder = builder.annotate_view_bound(name, bound);
    }
    let engine = builder.build()?;

    let db = cdr::generate(scale);
    println!("CDR instance: {} tuples", db.size());
    engine.attach(db)?;
    let session = engine.session();

    println!(
        "{:<24} {:>8} {:>16} {:>14} {:>10}",
        "query", "bounded?", "bounded-access", "naive-access", "reduction"
    );
    let mut improved = 0usize;
    let mut shown_pipeline = false;
    let queries = cdr::workload(17, 3);
    for q in &queries {
        let analysis = engine.analyze(&q.query)?;
        // Naive evaluation over the pinned instance: what the answer is,
        // and what a scan-based engine reads to find it.
        let mut naive = FetchStats::new();
        let (db, views) = (session.database(), Some(session.views()));
        let expected =
            eval_cq_counting(&q.query, db, views, &mut naive).map_err(bqr::Error::Query)?;
        if analysis.bounded() {
            // The analysis is already in hand: register it without a second
            // checker run.
            engine.prepare_from(q.name, &analysis)?;
            if !shown_pipeline {
                // The compiled operator pipeline of the first bounded plan,
                // one operator per line.
                println!(
                    "compiled pipeline for `{}`:\n{}\n",
                    q.name,
                    analysis.explain()?
                );
                shown_pipeline = true;
            }
            let out = session.execute(q.name)?;
            assert_eq!(out.tuples, expected, "{} must be answered exactly", q.name);
            // A second execution: served warm from the pipeline cache.
            let again = session.execute(q.name)?;
            assert_eq!(again, out);
            let reduction = naive.base_tuples_accessed() as f64
                / out.stats.base_tuples_accessed().max(1) as f64;
            improved += 1;
            println!(
                "{:<24} {:>8} {:>16} {:>14} {:>9.0}x",
                q.name,
                "yes",
                out.stats.base_tuples_accessed(),
                naive.base_tuples_accessed(),
                reduction
            );
        } else {
            println!(
                "{:<24} {:>8} {:>16} {:>14} {:>10}",
                q.name,
                "no",
                "-",
                naive.base_tuples_accessed(),
                "-"
            );
        }
    }
    println!(
        "\n{improved}/{} queries of the workload have a bounded rewriting ({}%).",
        queries.len(),
        100 * improved / queries.len()
    );
    let stats = engine.cache_stats();
    println!(
        "pipeline cache: {} lookups, {} hits, {} misses (one compile per template shape)",
        stats.lookups, stats.hits, stats.misses
    );
    Ok(())
}
