//! Correctness checks that run after the measured window (so the memory the
//! naive oracle needs never shows in `rss_mb`): the generated instance
//! satisfies what the setting promises, every answer the program gave equals
//! the oracle's, and the program ended on the instance it started from.

use crate::scenario::{Scenario, Served};
use bqr_data::{Database, Tuple};
use bqr_query::eval::Evaluator;
use bqr_query::{ConjunctiveQuery, MaterializedViews};

/// `D |= A`, and every annotated view bound holds.  Returns the view extents
/// over `db` for the oracle.
pub fn inputs(scenario: &Scenario, db: &Database, errors: &mut Vec<String>) -> MaterializedViews {
    match scenario.setting.access.satisfied_by(db) {
        Ok(true) => {}
        Ok(false) => errors.push("the generated instance violates the access schema".into()),
        Err(e) => errors.push(format!("checking the access schema: {e}")),
    }
    let views = scenario
        .setting
        .views
        .materialize(db)
        .expect("views materialise");
    for (view, bound) in &scenario.view_bounds {
        let size = views.extent(view).map_or(0, |extent| extent.len());
        if size > *bound {
            errors.push(format!(
                "|{view}| = {size} exceeds its declared bound {bound}"
            ));
        }
    }
    views
}

/// The naive evaluator: scans base relations, reads view extents.  One
/// instance is shared by every check of a run, so its hash indexes over the
/// instance are built once.
pub struct Oracle<'a> {
    evaluator: Evaluator,
    db: &'a Database,
    views: &'a MaterializedViews,
}

impl<'a> Oracle<'a> {
    pub fn new(scenario: &Scenario, db: &'a Database, views: &'a MaterializedViews) -> Oracle<'a> {
        Oracle {
            evaluator: Evaluator::new().with_planner(scenario.setting.planner),
            db,
            views,
        }
    }

    /// `answer` must be exactly the oracle's answer to `query`.
    pub fn check(
        &self,
        label: &str,
        query: &ConjunctiveQuery,
        answer: &[Tuple],
        errors: &mut Vec<String>,
    ) {
        match self.evaluator.eval_cq(query, self.db, Some(self.views)) {
            Ok(mut expected) => {
                expected.sort();
                expected.dedup();
                if expected != answer {
                    errors.push(format!(
                        "{label}: the program answered {} tuples, the oracle {}",
                        answer.len(),
                        expected.len()
                    ));
                }
            }
            Err(e) => errors.push(format!("{label}: oracle failed: {e}")),
        }
    }
}

/// After the window (and after the churn loop settled), the program must
/// hold exactly the generated instance and answer every statement as it did
/// at set-up.
pub fn final_state(served: &Served, generated: &Database, errors: &mut Vec<String>) {
    let engine = served.server.engine();
    if &engine.database() != generated {
        errors.push("the final instance differs from the generated one".into());
    }
    let session = engine.session();
    for statement in &served.statements {
        match session.execute(&statement.name) {
            Ok(got) if got == statement.golden => {}
            Ok(_) => errors.push(format!(
                "{}: the final answer differs from the one at set-up",
                statement.name
            )),
            Err(e) => errors.push(format!("{}: {e}", statement.name)),
        }
    }
}
