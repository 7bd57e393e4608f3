//! The Facebook Graph-Search example from the paper's introduction
//! (experiment E5), through the [`bqr::Engine`] facade: as the social graph
//! grows, the bounded plan keeps touching a constant number of tuples while
//! the naive evaluation scans more and more of the database.
//!
//! The prepared statement is registered **once** and compiled **once**: a
//! compiled pipeline holds no data, so each scale step's fresh instance is
//! served by the pipeline the first step compiled — the engine's
//! `CacheStats` at the end show one miss, whatever the number of scales.
//!
//! Run with `cargo run --example graph_search --release`.

use bqr::workload::social;
use bqr::Engine;
use std::time::Instant;

fn main() -> bqr::Result<()> {
    let max_friends = 50;
    let engine = Engine::builder()
        .setting(social::setting(max_friends, 200))
        .build()?;
    let query = social::graph_search_query(0, 15);
    println!("Query: {query}\n");

    let analysis = engine.analyze(&query)?;
    assert!(analysis.bounded(), "{:?}", analysis.reason());
    println!(
        "Bounded plan: {} nodes, worst-case fetch bound {} tuples\n",
        analysis.plan_size().unwrap(),
        analysis.fetch_bound().unwrap()
    );
    engine.prepare("graph_search", &query)?;

    println!(
        "{:>10} {:>10} | {:>14} {:>12} | {:>14} {:>12}",
        "persons", "|D|", "bounded-access", "bounded-ms", "naive-access", "naive-ms"
    );
    for persons in [1_000usize, 4_000, 16_000] {
        engine.attach(social::generate(social::SocialScale {
            persons,
            restaurants: 500,
            max_friends,
            days: 31,
            seed: 17,
        }))?;
        let session = engine.session();
        let size = session.database().size();

        let t = Instant::now();
        let bounded = session.execute("graph_search")?;
        let bounded_ms = t.elapsed().as_secs_f64() * 1_000.0;

        let t = Instant::now();
        let naive = session.evaluate(&query)?;
        let naive_ms = t.elapsed().as_secs_f64() * 1_000.0;

        assert_eq!(bounded.tuples, naive.tuples);
        println!(
            "{:>10} {:>10} | {:>14} {:>12.3} | {:>14} {:>12.3}",
            persons,
            size,
            bounded.stats.base_tuples_accessed(),
            bounded_ms,
            naive.stats.base_tuples_accessed(),
            naive_ms
        );
    }
    println!("\nThe bounded column stays flat while |D| grows — scale independence.");
    let stats = engine.cache_stats();
    println!(
        "pipeline cache: {} miss(es), {} hits — one compile serves every attached scale",
        stats.misses, stats.hits
    );
    Ok(())
}
