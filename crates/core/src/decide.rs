//! Exact decision procedures for `VBRP(L)` (Theorem 3.1) and the maximum-plan
//! algorithms `AlgMP` / `AlgACQ` of Theorem 4.2.
//!
//! The exact procedure mirrors the Σᵖ₃ algorithm of the paper: enumerate
//! candidate plans of size at most `M` (the outer existential guess), check
//! conformance to `A` (the `P^NP` step of Lemma 3.8) and `A`-equivalence with
//! the query (the Πᵖ₂ step of Lemma 3.2).  Everything is budgeted; on the
//! small instances of the paper's examples the procedure is exact, on larger
//! ones it degrades to an explicit `Unknown`.

use crate::conform::{check_conformance, Conformance};
use crate::enumerate::{enumerate_plans, EnumerationOptions};
use crate::problem::{Query, RewritingSetting, VbrpInstance};
use crate::Result;
use bqr_plan::{PlanLanguage, QueryPlan};
use bqr_query::aequiv::{ucq_a_contained_in_with, ucq_a_equivalent_with};
use bqr_query::containment::ContainmentChecker;
use bqr_query::{ConjunctiveQuery, QueryError, UnionQuery};

/// The outcome of an exact decision.
#[derive(Debug, Clone)]
pub enum DecisionOutcome {
    /// A bounded rewriting exists; the witness plan is returned.
    Rewriting(QueryPlan),
    /// No `M`-bounded rewriting exists (the search was exhaustive).
    NoRewriting,
    /// The procedure could not decide within its budget / fragment.
    Unknown(String),
}

impl DecisionOutcome {
    /// Did the procedure find a rewriting?
    pub fn has_rewriting(&self) -> bool {
        matches!(self, DecisionOutcome::Rewriting(_))
    }

    /// The witness plan, if any.
    pub fn plan(&self) -> Option<&QueryPlan> {
        match self {
            DecisionOutcome::Rewriting(p) => Some(p),
            _ => None,
        }
    }

    /// The witness plan as a [`bqr_plan::PreparedPlan`] on the process-wide
    /// pipeline cache — the exact procedures decide once, and the rewriting
    /// they return is then executed many times over a slowly changing
    /// instance; the prepared handle compiles it once and binds whichever
    /// instance version an execution names.
    ///
    /// `Ok(Some(_))` for a decided rewriting, `Ok(None)` for a decided
    /// *no*-rewriting, and `Err(CoreError::Undecided)` when the procedure
    /// gave up ([`DecisionOutcome::Unknown`]) — an undecided outcome must
    /// never be silently served as "no rewriting".
    pub fn prepare(&self) -> crate::Result<Option<bqr_plan::PreparedPlan>> {
        self.prepare_with(std::sync::Arc::clone(bqr_plan::PipelineCache::global()))
    }

    /// [`prepare`](DecisionOutcome::prepare) against a caller-owned cache.
    pub fn prepare_with(
        &self,
        cache: std::sync::Arc<bqr_plan::PipelineCache>,
    ) -> crate::Result<Option<bqr_plan::PreparedPlan>> {
        match self {
            DecisionOutcome::Rewriting(plan) => Ok(Some(bqr_plan::PreparedPlan::with_cache(
                plan.clone(),
                cache,
            ))),
            DecisionOutcome::NoRewriting => Ok(None),
            DecisionOutcome::Unknown(why) => Err(crate::CoreError::Undecided(why.clone())),
        }
    }
}

/// Decide `VBRP(L)` exactly for a query in `∃FO+` (CQ, UCQ or positive FO),
/// looking for a plan in the given target plan language (`L1`-to-`L2`
/// rewriting is obtained by passing a larger target language; see
/// [`crate::cross`]).
pub fn decide_vbrp(instance: &VbrpInstance, target: PlanLanguage) -> Result<DecisionOutcome> {
    let setting = &instance.setting;
    // The query must be expressible as a UCQ for the exact A-equivalence test
    // (VBRP(FO) is undecidable, Theorem 3.1(2)).
    let query_ucq = match instance.query.to_ucq(&setting.budget) {
        Ok(Some(u)) => u,
        Ok(None) => {
            // The query is unsatisfiable: the empty plan (a constant with an
            // always-false selection is not even needed — the 0-ary constant
            // differenced with itself) — simplest is to report the smallest
            // trivially-empty plan when the language admits one; we instead
            // return the canonical answer that a rewriting exists iff M ≥ 1,
            // using an unsatisfiable 1-node plan: the empty view-free constant
            // cannot be empty, so use `const ∅` semantics via NoRewriting when
            // M = 0.  For simplicity: an unsatisfiable query is equivalent to
            // the empty plan of size ≥ 2 (difference of a constant with
            // itself) in FO, otherwise Unknown.
            return Ok(unsatisfiable_outcome(setting, target));
        }
        Err(QueryError::UnsupportedFragment(msg)) => {
            return Ok(DecisionOutcome::Unknown(format!(
                "the exact procedure handles ∃FO+ queries only (VBRP(FO) is undecidable): {msg}"
            )))
        }
        Err(QueryError::BudgetExceeded(what)) => {
            return Ok(DecisionOutcome::Unknown(format!(
                "budget exceeded while {what}"
            )))
        }
        Err(e) => return Err(e.into()),
    };

    let options = EnumerationOptions {
        constants: instance.query.constants().into_iter().collect(),
        language: target,
        max_arity: max_arity_for(instance),
    };
    let candidates = match enumerate_plans(setting, &options, &setting.budget) {
        Ok(c) => c,
        Err(QueryError::BudgetExceeded(what)) => {
            return Ok(DecisionOutcome::Unknown(format!(
                "budget exceeded while {what}"
            )))
        }
        Err(e) => return Err(e.into()),
    };

    // One containment checker for the whole search: every candidate is
    // tested against the same query, so canonical instances and relation
    // indexes are shared across the loop.
    let checker = ContainmentChecker::new(&setting.schema);
    for plan in candidates {
        if plan.arity() != instance.query.arity() {
            continue;
        }
        if equivalent_to_query(&checker, &plan, &query_ucq, setting)? {
            // Conformance is checked second: it is the more expensive test and
            // most candidates fail equivalence first.
            let conf = check_conformance(
                &plan,
                &setting.access,
                &setting.schema,
                &setting.views,
                &setting.budget,
            )?;
            if matches!(conf, Conformance::Conforms { .. }) {
                return Ok(DecisionOutcome::Rewriting(plan));
            }
        }
    }
    Ok(DecisionOutcome::NoRewriting)
}

fn unsatisfiable_outcome(setting: &RewritingSetting, _target: PlanLanguage) -> DecisionOutcome {
    // An unsatisfiable (under A) query is A-equivalent to any plan returning
    // the empty relation; `σ_{#0 ≠ #0}(const c)` has 2 nodes and is in every
    // plan language.
    if setting.bound_m >= 2 {
        let plan = bqr_plan::builder::Plan::constant(vec![bqr_data::Value::int(0)])
            .select(vec![bqr_plan::SelectCondition::ColNeCol(0, 0)])
            .build()
            .expect("the empty plan is well formed");
        DecisionOutcome::Rewriting(plan)
    } else {
        DecisionOutcome::NoRewriting
    }
}

fn max_arity_for(instance: &VbrpInstance) -> usize {
    let schema_max = instance
        .setting
        .schema
        .relations()
        .map(|r| r.arity())
        .max()
        .unwrap_or(0);
    let view_max = instance
        .setting
        .views
        .arities()
        .values()
        .copied()
        .max()
        .unwrap_or(0);
    instance.query.arity().max(schema_max).max(view_max) + 1
}

/// Is `plan` `A`-equivalent to the query (after unfolding views)?
fn equivalent_to_query(
    checker: &ContainmentChecker<'_>,
    plan: &QueryPlan,
    query: &UnionQuery,
    setting: &RewritingSetting,
) -> Result<bool> {
    match plan_as_unfolded_ucq(plan, setting)? {
        None => Ok(false),
        Some(plan_ucq) => Ok(ucq_a_equivalent_with(
            checker,
            &plan_ucq,
            query,
            &setting.access,
            &setting.budget,
        )?),
    }
}

/// The UCQ expressed by a plan, with CQ views unfolded; `None` when the plan
/// is unsatisfiable or outside the positive fragment.
fn plan_as_unfolded_ucq(
    plan: &QueryPlan,
    setting: &RewritingSetting,
) -> Result<Option<UnionQuery>> {
    let ucq = match crate::to_query::plan_to_ucq(plan, &setting.schema, &setting.budget) {
        Ok(Some(u)) => u,
        Ok(None) => return Ok(None),
        Err(QueryError::UnsupportedFragment(_)) | Err(QueryError::BudgetExceeded(_)) => {
            return Ok(None)
        }
        Err(e) => return Err(e.into()),
    };
    let mut disjuncts: Vec<ConjunctiveQuery> = Vec::with_capacity(ucq.len());
    for d in ucq.disjuncts() {
        match setting.views.unfold_cq(d) {
            Ok(q) => disjuncts.push(q),
            Err(QueryError::UnsupportedFragment(_)) => return Ok(None),
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(UnionQuery::new(disjuncts)?))
}

/// `AlgACQ` (Theorem 4.2): decide `VBRP` for a (typically acyclic) CQ with the
/// fixed parameters of the setting by computing the maximum candidate plan
/// (Lemma 3.12): a plan `ξ` with `ξ ⊑_A Q` that is maximal and unique up to
/// `A`-equivalence, such that `Q` has an `M`-bounded rewriting iff `Q ⊑_A ξ`.
pub fn decide_acq_by_maximum_plan(
    instance: &VbrpInstance,
    target: PlanLanguage,
) -> Result<DecisionOutcome> {
    let setting = &instance.setting;
    let Query::Cq(ref cq) = instance.query else {
        return Ok(DecisionOutcome::Unknown(
            "the maximum-plan algorithm is defined for conjunctive queries".to_string(),
        ));
    };
    let query_ucq = UnionQuery::single(cq.clone());

    let options = EnumerationOptions {
        constants: cq.constants().into_iter().collect(),
        language: target,
        max_arity: max_arity_for(instance),
    };
    let candidates = match enumerate_plans(setting, &options, &setting.budget) {
        Ok(c) => c,
        Err(QueryError::BudgetExceeded(what)) => {
            return Ok(DecisionOutcome::Unknown(format!(
                "budget exceeded while {what}"
            )))
        }
        Err(e) => return Err(e.into()),
    };

    // Step (1)–(3) of AlgMP: keep the conforming plans ξ with ξ ⊑_A Q.
    // The checker is shared across all phases of the algorithm.
    let checker = ContainmentChecker::new(&setting.schema);
    let mut sound: Vec<(QueryPlan, UnionQuery)> = Vec::new();
    for plan in candidates {
        if plan.arity() != cq.arity() {
            continue;
        }
        let Some(plan_ucq) = plan_as_unfolded_ucq(&plan, setting)? else {
            continue;
        };
        if !ucq_a_contained_in_with(
            &checker,
            &plan_ucq,
            &query_ucq,
            &setting.access,
            &setting.budget,
        )? {
            continue;
        }
        let conf = check_conformance(
            &plan,
            &setting.access,
            &setting.schema,
            &setting.views,
            &setting.budget,
        )?;
        if matches!(conf, Conformance::Conforms { .. }) {
            sound.push((plan, plan_ucq));
        }
    }
    if sound.is_empty() {
        return Ok(DecisionOutcome::NoRewriting);
    }

    // Step (4): keep the ⊑_A-maximal plans.
    let mut maximal: Vec<usize> = Vec::new();
    'outer: for i in 0..sound.len() {
        for j in 0..sound.len() {
            if i == j {
                continue;
            }
            let i_in_j = ucq_a_contained_in_with(
                &checker,
                &sound[i].1,
                &sound[j].1,
                &setting.access,
                &setting.budget,
            )?;
            let j_in_i = ucq_a_contained_in_with(
                &checker,
                &sound[j].1,
                &sound[i].1,
                &setting.access,
                &setting.budget,
            )?;
            if i_in_j && !j_in_i {
                continue 'outer; // strictly below plan j: not maximal
            }
        }
        maximal.push(i);
    }

    // Step (5): all maximal plans must be A-equivalent; then test Q ⊑_A ξ.
    let first = maximal[0];
    for &other in &maximal[1..] {
        if !ucq_a_equivalent_with(
            &checker,
            &sound[first].1,
            &sound[other].1,
            &setting.access,
            &setting.budget,
        )? {
            return Ok(DecisionOutcome::NoRewriting);
        }
    }
    let complete = ucq_a_contained_in_with(
        &checker,
        &query_ucq,
        &sound[first].1,
        &setting.access,
        &setting.budget,
    )?;
    if complete {
        Ok(DecisionOutcome::Rewriting(sound[first].0.clone()))
    } else {
        Ok(DecisionOutcome::NoRewriting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::RewritingSetting;
    use bqr_data::{AccessConstraint, AccessSchema, DatabaseSchema};
    use bqr_query::parser::parse_cq;
    use bqr_query::ViewSet;

    fn rating_schema() -> DatabaseSchema {
        DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])]).unwrap()
    }

    fn rating_access() -> AccessSchema {
        AccessSchema::new(vec![AccessConstraint::new(
            "rating",
            &["mid"],
            &["rank"],
            1,
        )
        .unwrap()])
    }

    /// Q(r) :- rating(42, r) has a 3-node rewriting: fetch rank for mid 42.
    #[test]
    fn point_lookup_has_small_rewriting() {
        let setting = RewritingSetting::new(rating_schema(), rating_access(), ViewSet::empty(), 3);
        let q = parse_cq("Q(r) :- rating(42, r)").unwrap();
        let outcome = decide_vbrp(&VbrpInstance::new(setting, q), PlanLanguage::Cq).unwrap();
        let plan = outcome.plan().expect("a rewriting exists");
        assert!(plan.size() <= 3);
        assert_eq!(plan.fetches().len(), 1);
    }

    /// The witness of the exact search executes through the prepared path:
    /// every execution after the first hits the pipeline cache, and on a
    /// mutated instance (fresh epochs) that hit gives the fresh answer.
    #[test]
    fn decided_rewriting_serves_through_the_prepared_path() {
        use bqr_data::{tuple, Database, IndexedDatabase};
        let setting = RewritingSetting::new(rating_schema(), rating_access(), ViewSet::empty(), 3);
        let q = parse_cq("Q(r) :- rating(42, r)").unwrap();
        let outcome = decide_vbrp(&VbrpInstance::new(setting, q), PlanLanguage::Cq).unwrap();
        let cache = std::sync::Arc::new(bqr_plan::PipelineCache::new(4));
        let prepared = outcome
            .prepare_with(std::sync::Arc::clone(&cache))
            .unwrap()
            .expect("a rewriting exists");
        assert!(
            outcome.prepare().unwrap().is_some(),
            "global-cache handle too"
        );

        let mut db = Database::empty(rating_schema());
        db.insert("rating", tuple![42, 5]).unwrap();
        let idb = IndexedDatabase::build(db.clone(), rating_access()).unwrap();
        let views = bqr_query::MaterializedViews::empty();
        for _ in 0..2 {
            let out = prepared.execute(&idb, &views).unwrap();
            assert_eq!(out.tuples, vec![tuple![5]]);
        }
        assert_eq!(cache.stats().hits, 1, "the repeat execution was warm");

        db.insert("rating", tuple![43, 4]).unwrap();
        let idb2 = IndexedDatabase::build(db, rating_access()).unwrap();
        let out = prepared.execute(&idb2, &views).unwrap();
        assert_eq!(out.tuples, vec![tuple![5]], "the answer is epoch-correct");
        assert_eq!(cache.stats().misses, 1, "a new version recompiles nothing");
        assert!(DecisionOutcome::NoRewriting.prepare().unwrap().is_none());
        assert!(matches!(
            DecisionOutcome::Unknown("budget".into()).prepare(),
            Err(crate::CoreError::Undecided(_))
        ));
    }

    /// The same query has no 2-node rewriting (const + fetch gives (mid, rank),
    /// arity 2 ≠ 1, and nothing smaller works).
    #[test]
    fn bound_m_too_small_yields_no_rewriting() {
        let setting = RewritingSetting::new(rating_schema(), rating_access(), ViewSet::empty(), 2);
        let q = parse_cq("Q(r) :- rating(42, r)").unwrap();
        let outcome = decide_vbrp(&VbrpInstance::new(setting, q), PlanLanguage::Cq).unwrap();
        assert!(matches!(outcome, DecisionOutcome::NoRewriting));
        assert!(!outcome.has_rewriting());
        assert!(outcome.plan().is_none());
    }

    /// Q(m) :- rating(m, 5): the head variable is not covered by any
    /// constraint, so no bounded rewriting exists without a view; adding the
    /// view V(m) :- rating(m, 5) makes the 1-node plan `view V` a rewriting.
    #[test]
    fn views_enable_rewritings() {
        let q = parse_cq("Q(m) :- rating(m, 5)").unwrap();

        let without = RewritingSetting::new(rating_schema(), rating_access(), ViewSet::empty(), 3);
        let outcome =
            decide_vbrp(&VbrpInstance::new(without, q.clone()), PlanLanguage::Cq).unwrap();
        assert!(matches!(outcome, DecisionOutcome::NoRewriting));

        let mut views = ViewSet::empty();
        views
            .add_cq("V", parse_cq("V(m) :- rating(m, 5)").unwrap())
            .unwrap();
        let with = RewritingSetting::new(rating_schema(), rating_access(), views, 3);
        let outcome = decide_vbrp(&VbrpInstance::new(with, q), PlanLanguage::Cq).unwrap();
        let plan = outcome.plan().expect("the view itself is the rewriting");
        assert_eq!(plan.size(), 1);
        assert_eq!(plan.view_names(), vec!["V".to_string()]);
    }

    /// An FO query is rejected with Unknown (the problem is undecidable).
    #[test]
    fn fo_queries_are_not_decided_exactly() {
        use bqr_query::{Atom, Fo, FoQuery, Term};
        let setting = RewritingSetting::new(rating_schema(), rating_access(), ViewSet::empty(), 2);
        let q = FoQuery::boolean(Fo::not(Fo::Atom(Atom::new(
            "rating",
            vec![Term::var("m"), Term::var("r")],
        ))));
        let outcome = decide_vbrp(&VbrpInstance::new(setting, q), PlanLanguage::Fo).unwrap();
        assert!(matches!(outcome, DecisionOutcome::Unknown(_)));
    }

    /// An unsatisfiable query is rewritten by the 2-node empty plan.
    #[test]
    fn unsatisfiable_query_gets_empty_plan() {
        let schema = rating_schema();
        let access = rating_access();
        let q = parse_cq("Q() :- rating(m, 1), rating(m, 2)").unwrap();
        // Under rating(mid → rank, 1) the query is unsatisfiable.
        let setting = RewritingSetting::new(schema.clone(), access.clone(), ViewSet::empty(), 3);
        let query_ucq = Query::from(q.clone())
            .to_ucq(&setting.budget)
            .unwrap()
            .unwrap();
        // Sanity: it is indeed unsatisfiable under A (no element queries).
        assert!(bqr_query::element::element_queries(
            &query_ucq.disjuncts()[0],
            &access,
            &schema,
            &setting.budget
        )
        .unwrap()
        .is_empty());
        let outcome = decide_vbrp(&VbrpInstance::new(setting, q.clone()), PlanLanguage::Cq);
        // The UCQ conversion keeps the (classically satisfiable) query, so the
        // exact search applies; either way the answer must not be Unknown.
        assert!(!matches!(outcome.unwrap(), DecisionOutcome::Unknown(_)));
        let small = RewritingSetting::new(schema, access, ViewSet::empty(), 0);
        let outcome = decide_vbrp(&VbrpInstance::new(small, q), PlanLanguage::Cq).unwrap();
        assert!(!outcome.has_rewriting());
    }

    /// AlgACQ agrees with the direct search on the point-lookup example.
    #[test]
    fn maximum_plan_algorithm_agrees() {
        let setting = RewritingSetting::new(rating_schema(), rating_access(), ViewSet::empty(), 3);
        let q = parse_cq("Q(r) :- rating(42, r)").unwrap();
        let inst = VbrpInstance::new(setting, q);
        let direct = decide_vbrp(&inst, PlanLanguage::Cq).unwrap();
        let via_max = decide_acq_by_maximum_plan(&inst, PlanLanguage::Cq).unwrap();
        assert_eq!(direct.has_rewriting(), via_max.has_rewriting());
        assert!(via_max.has_rewriting());

        let setting2 = RewritingSetting::new(rating_schema(), rating_access(), ViewSet::empty(), 3);
        let q2 = parse_cq("Q(m) :- rating(m, 5)").unwrap();
        let inst2 = VbrpInstance::new(setting2, q2);
        assert!(!decide_acq_by_maximum_plan(&inst2, PlanLanguage::Cq)
            .unwrap()
            .has_rewriting());

        // Non-CQ input is rejected by AlgACQ.
        let setting3 = RewritingSetting::new(rating_schema(), rating_access(), ViewSet::empty(), 2);
        let ucq = bqr_query::UnionQuery::new(vec![
            parse_cq("Q(r) :- rating(1, r)").unwrap(),
            parse_cq("Q(r) :- rating(2, r)").unwrap(),
        ])
        .unwrap();
        let inst3 = VbrpInstance::new(setting3, ucq);
        assert!(matches!(
            decide_acq_by_maximum_plan(&inst3, PlanLanguage::Ucq).unwrap(),
            DecisionOutcome::Unknown(_)
        ));
    }
}
