//! Quickstart: the running example of the paper (Example 1.1 / Fig. 1),
//! through the [`bqr::Engine`] facade.
//!
//! Builds an engine over the movie setting (schema `R_0`, access schema
//! `A_0`, view `V_1`, bound `M = 40`), attaches a generated instance,
//! analyses `Q_0` and its rewriting `Q_ξ`, registers the rewriting as a
//! named prepared statement, and serves it over an epoch-pinned session —
//! comparing both answers and the amount of data accessed against naive
//! evaluation of `Q_0` (`bqr::query::eval`) over the session's instance.
//!
//! Run with `cargo run --example quickstart --release`.

use bqr::data::FetchStats;
use bqr::query::eval::eval_cq_counting;
use bqr::workload::movies;
use bqr::Engine;

fn main() -> bqr::Result<()> {
    // 1. The engine: schema R0, access schema A0 (N0 = 100), view V1, M = 40.
    let n0 = 100;
    let engine = Engine::builder()
        .setting(movies::setting(n0, 40))
        .cache_capacity(16)
        .build()?;
    println!("Schema:\n{}\n", engine.setting().schema);
    println!("Access schema A0: {}", engine.setting().access);
    println!("Views:\n{}", engine.setting().views);

    // 2. Attach a dataset that satisfies A0.
    let db = movies::generate(movies::MovieScale {
        persons: 20_000,
        movies: 2_000,
        n0,
        seed: 1,
    });
    println!("|D| = {} tuples", db.size());
    assert!(engine
        .setting()
        .access
        .satisfied_by(&db)
        .map_err(bqr::Error::Data)?);
    engine.attach(db)?;

    // 3. Q0 itself is not boundedly rewritable without the view; the
    //    rewriting Qξ over V1 is topped by (R0, {V1}, A0, 40).
    let q0 = movies::q0();
    let q_xi = movies::q_xi();
    println!("\nQ0  = {q0}");
    println!("Qξ  = {q_xi}");
    let direct = engine.analyze(&q0)?;
    println!("Q0 bounded without using V1? {}", direct.bounded());
    let analysis = engine.analyze(&q_xi)?;
    println!(
        "Qξ bounded? {} (plan size {}, fetch bound {} tuples)",
        analysis.bounded(),
        analysis.plan_size().unwrap(),
        analysis.fetch_bound().unwrap()
    );
    println!(
        "\nGenerated bounded plan:\n{}",
        analysis.plan().expect("Qξ is topped")
    );
    println!("Compiled pipeline:\n{}", analysis.explain()?);

    // 4. Serve it: a named prepared statement over an epoch-pinned session.
    //    Cached views + index fetches only — the plan never scans.
    engine.prepare("fig1", &q_xi)?;
    let session = engine.session();
    let bounded = session.execute("fig1")?;
    println!(
        "Bounded plan: {} answers, {}",
        bounded.tuples.len(),
        bounded.stats
    );

    // 5. Naive evaluation of Q0 over the same pinned instance scans the
    //    base relations: the reference semantics, not a way to serve.
    let mut naive = FetchStats::new();
    let expected = eval_cq_counting(&q0, session.database(), Some(session.views()), &mut naive)
        .map_err(bqr::Error::Query)?;
    println!("Naive eval:   {} answers, {}", expected.len(), naive);

    assert_eq!(bounded.tuples, expected, "the rewriting is exact");
    println!(
        "\nBase tuples accessed: bounded plan {} vs naive {}  ({}x less)",
        bounded.stats.base_tuples_accessed(),
        naive.base_tuples_accessed(),
        naive.base_tuples_accessed() / bounded.stats.base_tuples_accessed().max(1)
    );
    println!("Pipeline cache: {:?}", engine.cache_stats());
    Ok(())
}
