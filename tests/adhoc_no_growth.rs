//! Nothing grows per request (ROADMAP, "long-running resource behaviour").
//!
//! An ad-hoc text the engine has never seen used to leave a pipeline-cache
//! entry (and evict another), whatever it asked.  Now a text of a *seen
//! shape* leaves nothing behind — no cache entry, no memo entry, no interned
//! value — and texts of never-seen shapes fill the memo to its cap, where it
//! starts over.
//!
//! `ValueId::pool_len()` is process-wide, so the two tests take turns.

use bqr::data::ValueId;
use bqr::query::eval::eval_cq;
use bqr::query::parser::parse_cq;
use bqr::workload::cdr::{self, CdrScale};
use bqr::Engine;
use std::sync::Mutex;

static TURN: Mutex<()> = Mutex::new(());

fn engine(scale: CdrScale, capacity: usize) -> Engine {
    let mut builder = Engine::builder()
        .setting(cdr::setting(&scale, 120))
        .cache_capacity(capacity);
    for (view, bound) in cdr::view_bounds() {
        builder = builder.annotate_view_bound(view, bound);
    }
    let engine = builder.build().unwrap();
    engine.attach(cdr::generate(scale)).unwrap();
    engine
}

/// 20 000 distinct texts over the nine topped CDR templates, every bound
/// constant one that occurs in the data.
#[test]
fn seen_shapes_leave_nothing_behind() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const TEXTS: u64 = 20_000;
    let scale = CdrScale {
        customers: 500,
        days: 5,
        max_calls_per_day: 3,
        max_attach_per_day: 2,
        towers: 30,
        seed: 11,
    };
    let engine = engine(scale, 256);
    let session = engine.session();
    let template = |k: u64| {
        // Coprime stride over customers × days × templates: no text repeats.
        let total = (scale.customers * scale.days * 9) as u64;
        assert!(TEXTS + 18 <= total);
        let idx = (k * 1_000_003) % total;
        let (t, day, cid) = (idx % 9, (idx / 9) % 5, idx / 45);
        cdr::workload(cid as i64, day as i64).swap_remove(t as usize)
    };

    // Statements of the templates, and one ad-hoc pass over both shapes of
    // each (cid ≠ day, cid = day): everything the run below can touch is
    // interned, compiled and analysed once.
    for t in 0..9usize {
        let name = format!("s{t}");
        engine
            .prepare(&name, cdr::workload(17, 3).swap_remove(t).query)
            .unwrap();
        session.execute(&name).unwrap();
        for (cid, day) in [(17, 3), (3, 3)] {
            let q = cdr::workload(cid, day).swap_remove(t);
            session.query(q.query).unwrap();
        }
    }
    let (pool, cached, shapes) = (
        ValueId::pool_len(),
        engine.cache().len(),
        engine.analysed_shapes(),
    );
    assert!(
        cached <= 9 && shapes <= 18,
        "{cached} pipelines, {shapes} shapes"
    );
    let misses = engine.cache_stats().misses;

    for k in 0..TEXTS {
        let q = template(k);
        let out = session.query(q.query.to_string().as_str()).unwrap();
        assert_eq!(out.stats.scanned_tuples, 0);
        if k % 500 == 0 {
            let naive = eval_cq(&q.query, session.database(), Some(session.views()));
            assert_eq!(out.tuples, naive.unwrap(), "{}", q.name);
        }
    }

    assert_eq!(engine.cache().len(), cached, "pipeline cache entries");
    assert_eq!(engine.analysed_shapes(), shapes, "memoised shapes");
    let stats = engine.cache_stats();
    assert_eq!((stats.evictions, stats.misses), (0, misses), "{stats:?}");
    assert_eq!(ValueId::pool_len(), pool, "interned values");
}

/// 5 000 queries no two of which share a shape (fresh variable names, one to
/// four atoms): the memo never holds more than its cap, the pipeline cache
/// holds the handful of plan shapes underneath, and every answer is still the
/// naive evaluator's.
#[test]
fn never_seen_shapes_stop_at_the_cap() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const CAP: usize = 32;
    let scale = CdrScale {
        customers: 40,
        days: 3,
        max_calls_per_day: 3,
        max_attach_per_day: 2,
        towers: 8,
        seed: 3,
    };
    let engine = engine(scale, CAP);
    let session = engine.session();
    for k in 0..5_000i64 {
        let (cid, day) = (k % 40, k % 3);
        let mut text = format!("Q(x{k}) :- calls({cid}, {day}, x{k}, d{k})");
        for j in 0..k % 4 {
            match j {
                0 => text += &format!(", customer(x{k}, n{k}, p{k}, r{k})"),
                1 => text += &format!(", attach(x{k}, {day}, t{k})"),
                _ => text += &format!(", tower(t{k}, g{k}, c{k})"),
            }
        }
        let out = session.query(text.as_str()).unwrap();
        let naive = parse_cq(&text).unwrap();
        let naive = eval_cq(&naive, session.database(), Some(session.views()));
        assert_eq!(out.tuples, naive.unwrap(), "{text}");
        assert!(engine.analysed_shapes() <= CAP);
    }
    assert!(engine.cache().len() <= 4, "{}", engine.cache().len());
    assert_eq!(engine.cache_stats().evictions, 0);
}
