//! Bounded evaluability: the `V = ∅` baseline ([Fan et al. 2015]).
//!
//! A query is *boundedly evaluable* under `A` when it can be answered with a
//! bounded amount of data without any views — i.e. when it has a bounded
//! rewriting using the empty view set.  The paper's motivation for views is
//! precisely the gap between this class and bounded rewriting with views;
//! experiment E7 measures that gap on random workloads.

use crate::problem::RewritingSetting;
use crate::topped::{ToppedAnalysis, ToppedChecker};
use crate::Result;
use bqr_query::{ConjunctiveQuery, FoQuery, ViewSet};

/// Analyse whether a CQ is boundedly evaluable (no views) within the
/// setting's plan-size bound, using the effective syntax.
pub fn boundedly_evaluable_cq(
    setting: &RewritingSetting,
    query: &ConjunctiveQuery,
) -> Result<ToppedAnalysis> {
    boundedly_evaluable(setting, &FoQuery::from_cq(query))
}

/// Analyse whether an FO query is boundedly evaluable (no views) within the
/// setting's plan-size bound.
pub fn boundedly_evaluable(setting: &RewritingSetting, query: &FoQuery) -> Result<ToppedAnalysis> {
    let viewless = RewritingSetting {
        schema: setting.schema.clone(),
        access: setting.access.clone(),
        views: ViewSet::empty(),
        bound_m: setting.bound_m,
        budget: setting.budget,
        planner: setting.planner,
    };
    let checker = ToppedChecker::new(&viewless);
    // The checker borrows the setting, so the analysis must be produced
    // before `viewless` goes out of scope.
    checker.analyze(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topped::ToppedChecker;
    use bqr_data::{AccessConstraint, AccessSchema, DatabaseSchema};
    use bqr_query::parser::parse_cq;

    fn setting_with_view() -> RewritingSetting {
        let schema = DatabaseSchema::with_relations(&[
            ("person", &["pid", "name", "affiliation"]),
            ("movie", &["mid", "mname", "studio", "release"]),
            ("rating", &["mid", "rank"]),
            ("like", &["pid", "id", "type"]),
        ])
        .unwrap();
        let access = AccessSchema::new(vec![
            AccessConstraint::new("movie", &["studio", "release"], &["mid"], 100).unwrap(),
            AccessConstraint::new("rating", &["mid"], &["rank"], 1).unwrap(),
        ]);
        let mut views = ViewSet::empty();
        views
            .add_cq(
                "V1",
                parse_cq(
                    "V1(mid) :- person(xp, xn, 'NASA'), movie(mid, ym, z1, z2), like(xp, mid, 'movie')",
                )
                .unwrap(),
            )
            .unwrap();
        RewritingSetting::new(schema, access, views, 45)
    }

    #[test]
    fn views_strictly_enlarge_the_rewritable_class() {
        // The rewriting Qξ uses the view V1; without views it is not
        // boundedly evaluable (person/like have no constraints), with views
        // it is topped.  This is the paper's motivating gap.
        let setting = setting_with_view();
        let q = parse_cq("Q(mid) :- movie(mid, ym, 'Universal', '2014'), V1(mid), rating(mid, 5)")
            .unwrap();
        let with_views = ToppedChecker::new(&setting).analyze_cq(&q).unwrap();
        assert!(with_views.topped);

        let q0 = parse_cq(
            "Q(mid) :- person(xp, xn, 'NASA'), movie(mid, ym, 'Universal', '2014'), \
             like(xp, mid, 'movie'), rating(mid, 5)",
        )
        .unwrap();
        let without_views = boundedly_evaluable_cq(&setting, &q0).unwrap();
        assert!(
            !without_views.topped,
            "Q0 is not boundedly evaluable under A0"
        );
    }

    #[test]
    fn boundedly_evaluable_query_stays_bounded() {
        // Q(r) :- movie(m, n, 'U', '2014'), rating(m, r) needs no view.
        let setting = setting_with_view();
        let q = parse_cq("Q(r) :- movie(m, n, 'Universal', '2014'), rating(m, r)").unwrap();
        let analysis = boundedly_evaluable_cq(&setting, &q).unwrap();
        assert!(analysis.topped, "{:?}", analysis.reason);
        assert!(analysis.fetch_bound.unwrap() <= 200);
    }

    /// The bounded-evaluability plan serves repeated executions through the
    /// prepared pipeline cache (`V = ∅`, so only base-relation epochs key
    /// the entry).
    #[test]
    fn bounded_evaluation_serves_through_the_prepared_path() {
        use bqr_data::{tuple, Database, IndexedDatabase};
        let setting = setting_with_view();
        let q = parse_cq("Q(r) :- movie(m, n, 'Universal', '2014'), rating(m, r)").unwrap();
        let analysis = boundedly_evaluable_cq(&setting, &q).unwrap();
        let cache = std::sync::Arc::new(bqr_plan::PipelineCache::new(4));
        let plan = analysis.plan.expect("the analysis carries a plan");
        let prepared = bqr_plan::PreparedPlan::with_cache(plan, std::sync::Arc::clone(&cache));

        let mut db = Database::empty(setting.schema.clone());
        db.insert("movie", tuple![10, "Lucy", "Universal", "2014"])
            .unwrap();
        db.insert("rating", tuple![10, 5]).unwrap();
        let idb = IndexedDatabase::build(db, setting.access.clone()).unwrap();
        let views = bqr_query::MaterializedViews::empty();
        for _ in 0..3 {
            let out = prepared.execute(&idb, &views).unwrap();
            assert_eq!(out.tuples, vec![tuple![5]]);
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2), "{stats:?}");
    }
}
