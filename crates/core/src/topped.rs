//! The effective syntax for bounded rewriting: topped queries and the
//! bounded-plan generator (Section 5 / Theorem 5.1).
//!
//! The paper defines the class of queries *topped by `(R, V, A, M)`* through
//! two PTIME functions `covq(Q_s, Q)` and `size(Q_s, Q)`: `covq` says whether
//! the sub-query `Q` acquires a bounded sub-plan once values can be
//! propagated into it from the context `Q_s`, and `size` tracks an upper
//! bound on that sub-plan's size.  A query is topped when `covq(Q_ε, Q)`
//! holds and `size(Q_ε, Q) ≤ M`, and every topped query has an `M`-bounded
//! rewriting that can be *constructed* in PTIME.
//!
//! This module implements the **constructive form** of that definition: the
//! checker walks the query exactly along the paper's cases (1)–(7) and,
//! instead of merely returning `true`, materialises the sub-plan each case
//! describes.  `covq(Q_s, Q)` corresponds to `ToppedChecker::build`
//! succeeding with context `Q_s`, and `size(Q_s, Q)` to the size of the plan
//! it returns.  The correspondence with the paper's cases is noted inline.
//!
//! The checker is *sound* (every accepted query gets a correct, conforming,
//! `M`-bounded plan) and PTIME; like every effective syntax it is
//! necessarily incomplete for FO (Corollary 3.9), which is exactly the
//! trade-off the paper advocates.
//!
//! The checker itself never runs a homomorphism search (it is purely
//! syntactic), but the plans it emits are verified against evaluation by the
//! test suite, and the exact procedures it is compared with run containment
//! through the homomorphism engine of `bqr-query::hom`.

use crate::problem::RewritingSetting;
use crate::size_bounded::BoundedOutputOracle;
use crate::Result;
use bqr_data::Value;
use bqr_plan::builder::Plan;
use bqr_plan::{QueryPlan, SelectCondition};
use bqr_query::{Atom, ConjunctiveQuery, Fo, FoQuery, Term, ViewSet};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The result of analysing one query.
#[derive(Debug, Clone)]
pub struct ToppedAnalysis {
    /// Is the query topped by `(R, V, A, M)` — i.e. did the constructive
    /// checker produce a plan of size at most `M`?
    pub topped: bool,
    /// The constructed bounded plan, when the checker succeeded (present
    /// even when its size exceeds `M`, so callers can inspect how far off
    /// they are).
    pub plan: Option<QueryPlan>,
    /// The size of the constructed plan (the paper's `size(Q_ε, Q)`).
    pub plan_size: Option<usize>,
    /// An upper bound on the base tuples fetched by the plan (`|D_ξ|`).
    pub fetch_bound: Option<usize>,
    /// Why the query was rejected, when it was.
    pub reason: Option<String>,
}

impl ToppedAnalysis {
    fn rejected(reason: String) -> Self {
        ToppedAnalysis {
            topped: false,
            plan: None,
            plan_size: None,
            fetch_bound: None,
            reason: Some(reason),
        }
    }
}

/// A partial plan labelled with the variables its columns hold, the key
/// device that lets the checker propagate values between sub-queries
/// (the `Q_s` of the paper).
#[derive(Debug, Clone)]
struct Fragment {
    plan: Plan,
    /// Variable name carried by each output column.
    columns: Vec<String>,
    /// Upper bound on the fragment's output size over instances `D |= A`,
    /// when one exists.  Fetches may only be driven by bounded fragments
    /// (cases (4a) and (7b) of the paper).
    output_bound: Option<usize>,
    /// Upper bound on the base tuples fetched so far.
    fetch_bound: usize,
}

impl Fragment {
    /// The empty context `Q_ε`: a single 0-ary tuple, zero cost.
    fn unit() -> Fragment {
        Fragment {
            plan: Plan::constant(Vec::<Value>::new()),
            columns: Vec::new(),
            output_bound: Some(1),
            fetch_bound: 0,
        }
    }

    fn column_of(&self, var: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == var)
    }
}

/// The topped-query checker / bounded-plan generator for one setting.
pub struct ToppedChecker<'a> {
    setting: &'a RewritingSetting,
    oracle: Arc<BoundedOutputOracle>,
}

impl<'a> ToppedChecker<'a> {
    /// Create a checker; the oracle is derived from the setting.
    pub fn new(setting: &'a RewritingSetting) -> Self {
        let oracle = BoundedOutputOracle::new(
            setting.schema.clone(),
            setting.access.clone(),
            setting.budget,
        );
        ToppedChecker::with_oracle(setting, oracle)
    }

    /// Create a checker with a custom oracle (e.g. carrying view-bound
    /// annotations) — owned, or an `Arc` of one built once and lent to many
    /// checkers.
    pub fn with_oracle(
        setting: &'a RewritingSetting,
        oracle: impl Into<Arc<BoundedOutputOracle>>,
    ) -> Self {
        ToppedChecker {
            setting,
            oracle: oracle.into(),
        }
    }

    /// The views of the setting.
    fn views(&self) -> &ViewSet {
        &self.setting.views
    }

    /// Analyse a conjunctive query.
    pub fn analyze_cq(&self, query: &ConjunctiveQuery) -> Result<ToppedAnalysis> {
        self.analyze(&FoQuery::from_cq(query))
    }

    /// Analyse an FO query: is it topped by `(R, V, A, M)`, and if so, what
    /// is its bounded plan?
    pub fn analyze(&self, query: &FoQuery) -> Result<ToppedAnalysis> {
        // Rename bound variables apart so that value propagation never
        // captures.
        let body = query.body().rename_bound();
        let head = query.head().to_vec();
        let live = live_variables(&body, &head);

        match self.build(&Fragment::unit(), &body, &live) {
            Ok(fragment) => {
                let fragment = match self.finish_head(fragment, &head) {
                    Ok(f) => f,
                    Err(reason) => return Ok(ToppedAnalysis::rejected(reason)),
                };
                let plan = fragment.plan.build()?;
                let size = plan.size();
                Ok(ToppedAnalysis {
                    topped: size <= self.setting.bound_m,
                    plan_size: Some(size),
                    fetch_bound: Some(fragment.fetch_bound),
                    reason: if size <= self.setting.bound_m {
                        None
                    } else {
                        Some(format!(
                            "the generated plan has {size} nodes, exceeding the bound M = {}",
                            self.setting.bound_m
                        ))
                    },
                    plan: Some(plan),
                })
            }
            Err(reason) => Ok(ToppedAnalysis::rejected(reason)),
        }
    }

    /// Project the final fragment onto the query head.
    fn finish_head(
        &self,
        fragment: Fragment,
        head: &[Term],
    ) -> std::result::Result<Fragment, String> {
        let mut fragment = fragment;
        let mut columns = Vec::with_capacity(head.len());
        for t in head {
            match t {
                Term::Var(v) => match fragment.column_of(v) {
                    Some(c) => columns.push(c),
                    None => return Err(format!("head variable `{v}` is not produced by the plan")),
                },
                Term::Const(c) => {
                    // Extend with a constant column.
                    let arity = fragment.columns.len();
                    fragment.plan = fragment.plan.product(Plan::constant(vec![c.clone()]));
                    fragment.columns.push(format!("\u{1}const{arity}"));
                    columns.push(arity);
                }
            }
        }
        fragment.plan = fragment.plan.project(columns);
        fragment.columns = head
            .iter()
            .enumerate()
            .map(|(i, t)| match t {
                Term::Var(v) => v.clone(),
                Term::Const(_) => format!("\u{1}h{i}"),
            })
            .collect();
        Ok(fragment)
    }

    /// `covq(Q_s, Q)` / plan construction for `Q_s ∧ Q`.
    ///
    /// Returns a fragment over the columns of `qs` plus the free variables of
    /// `q`, or a rejection reason.
    fn build(
        &self,
        qs: &Fragment,
        q: &Fo,
        live: &BTreeSet<String>,
    ) -> std::result::Result<Fragment, String> {
        match q {
            // Case (1)/(3): (in)equality conditions.
            Fo::Eq(t1, t2) => self.build_equality(qs, t1, t2, true),
            Fo::Not(inner) => match inner.as_ref() {
                Fo::Eq(t1, t2) => self.build_equality(qs, t1, t2, false),
                // Case (6): Q1 ∧ ¬Q2 — handled by conjunct scheduling; a bare
                // negation is only admissible when its free variables are
                // already produced by the context.
                other => self.build_negation(qs, other, live),
            },
            // Case (2) and (4a)/(7a)/(7b): atoms over views or base relations.
            Fo::Atom(atom) => {
                if self.views().contains(atom.relation()) {
                    self.build_view_atom(qs, atom)
                } else {
                    self.build_base_atom(qs, atom, live)
                }
            }
            // Case (4): conjunction with value propagation.
            Fo::And(_, _) => {
                let mut conjuncts = Vec::new();
                flatten_and(q, &mut conjuncts);
                self.build_conjunction(qs, &conjuncts, live)
            }
            // Case (5): disjunction, both sides over the same free variables.
            Fo::Or(a, b) => self.build_disjunction(qs, a, b, live),
            // Case (7): existential quantification — build then drop columns.
            Fo::Exists(vars, inner) => {
                let fragment = self.build(qs, inner, live)?;
                Ok(self.drop_columns(fragment, vars))
            }
            Fo::Forall(_, _) => Err(
                "universal quantification is outside the topped fragment; rewrite it as ¬∃¬"
                    .to_string(),
            ),
        }
    }

    /// Conditions `x = y`, `x = c`, `x ≠ y`, `x ≠ c` (cases (1) and (3)).
    fn build_equality(
        &self,
        qs: &Fragment,
        t1: &Term,
        t2: &Term,
        positive: bool,
    ) -> std::result::Result<Fragment, String> {
        let mut fragment = qs.clone();
        match (t1, t2) {
            (Term::Const(a), Term::Const(b)) => {
                let holds = (a == b) == positive;
                if holds {
                    Ok(fragment)
                } else {
                    // The condition is unsatisfiable: an empty selection.
                    fragment.plan = fragment.plan.select(vec![SelectCondition::ColNeCol(0, 0)]);
                    if fragment.columns.is_empty() {
                        return Err(
                            "a contradictory constant condition on a Boolean context".into()
                        );
                    }
                    fragment.output_bound = Some(0);
                    Ok(fragment)
                }
            }
            (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => {
                match fragment.column_of(v) {
                    Some(col) => {
                        let cond = if positive {
                            SelectCondition::ColEqConst(col, c.clone())
                        } else {
                            SelectCondition::ColNeConst(col, c.clone())
                        };
                        fragment.plan = fragment.plan.select(vec![cond]);
                        Ok(fragment)
                    }
                    None if positive => {
                        // Introduce the variable as a constant column
                        // (case (1): `z = c` has a 1-bounded plan).
                        fragment.plan = fragment.plan.product(Plan::constant(vec![c.clone()]));
                        fragment.columns.push(v.clone());
                        Ok(fragment)
                    }
                    None => Err(format!(
                        "inequality on `{v}` before any value is bound to it"
                    )),
                }
            }
            (Term::Var(a), Term::Var(b)) => {
                match (fragment.column_of(a), fragment.column_of(b)) {
                    (Some(ca), Some(cb)) => {
                        let cond = if positive {
                            SelectCondition::ColEqCol(ca, cb)
                        } else {
                            SelectCondition::ColNeCol(ca, cb)
                        };
                        fragment.plan = fragment.plan.select(vec![cond]);
                        Ok(fragment)
                    }
                    (Some(c), None) if positive => {
                        // Duplicate the column under the new name.
                        let mut cols: Vec<usize> = (0..fragment.columns.len()).collect();
                        cols.push(c);
                        fragment.plan = fragment.plan.project(cols);
                        fragment.columns.push(b.clone());
                        Ok(fragment)
                    }
                    (None, Some(c)) if positive => {
                        let mut cols: Vec<usize> = (0..fragment.columns.len()).collect();
                        cols.push(c);
                        fragment.plan = fragment.plan.project(cols);
                        fragment.columns.push(a.clone());
                        Ok(fragment)
                    }
                    _ => Err(format!(
                        "condition between `{a}` and `{b}` before either is bound"
                    )),
                }
            }
        }
    }

    /// Case (2): a view atom — join the cached extent with the context.
    fn build_view_atom(&self, qs: &Fragment, atom: &Atom) -> std::result::Result<Fragment, String> {
        let arity = self
            .views()
            .get(atom.relation())
            .map(|d| d.arity())
            .ok_or_else(|| format!("unknown view `{}`", atom.relation()))?;
        if arity != atom.arity() {
            return Err(format!(
                "view `{}` has arity {arity} but the atom has {} arguments",
                atom.relation(),
                atom.arity()
            ));
        }
        let mut view_plan = Plan::view(atom.relation(), arity);
        // Apply constant and repeated-variable constraints on the view columns.
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        let mut conditions = Vec::new();
        for (i, t) in atom.args().iter().enumerate() {
            match t {
                Term::Const(c) => conditions.push(SelectCondition::ColEqConst(i, c.clone())),
                Term::Var(v) => {
                    if let Some(&j) = seen.get(v.as_str()) {
                        conditions.push(SelectCondition::ColEqCol(j, i));
                    } else {
                        seen.insert(v, i);
                    }
                }
            }
        }
        if !conditions.is_empty() {
            view_plan = view_plan.select(conditions);
        }
        let view_bound = self
            .oracle
            .view_bound(atom.relation(), self.views())
            .or_else(|| self.specialized_view_bound(atom));

        // Join with the context on shared variables.
        let shared: Vec<(usize, usize)> = seen
            .iter()
            .filter_map(|(v, &vi)| qs.column_of(v).map(|qi| (qi, vi)))
            .collect();
        let mut fragment = qs.clone();
        let qs_arity = fragment.columns.len();
        fragment.plan = if shared.is_empty() {
            fragment.plan.product(view_plan)
        } else {
            fragment.plan.join_eq(view_plan, &shared)
        };
        // New columns: one per view position holding a variable not yet bound.
        let mut new_columns = Vec::new();
        for i in 0..arity {
            new_columns.push(format!("\u{1}view{i}"));
        }
        for (v, &vi) in &seen {
            if qs.column_of(v).is_none() {
                new_columns[vi] = (*v).to_string();
            } else {
                new_columns[vi] = format!("\u{1}dup_{v}");
            }
        }
        fragment.columns.extend(new_columns);
        // Keep only meaningful columns: the context columns plus first
        // occurrences of new variables.
        let keep: Vec<usize> = (0..fragment.columns.len())
            .filter(|&i| i < qs_arity || atom.args().get(i - qs_arity).is_some_and(|t| {
                matches!(t, Term::Var(v) if qs.column_of(v).is_none() && seen.get(v.as_str()) == Some(&(i - qs_arity)))
            }))
            .collect();
        if keep.len() != fragment.columns.len() {
            fragment.columns = keep.iter().map(|&i| fragment.columns[i].clone()).collect();
            fragment.plan = fragment.plan.project(keep);
        }
        // If the view introduces no new variables it merely filters the
        // context (a semijoin), so the context's bound is preserved; new
        // variables multiply in the view's own bound (when it has one).
        let introduces_new = seen.keys().any(|v| qs.column_of(v).is_none());
        fragment.output_bound = match (qs.output_bound, view_bound, introduces_new) {
            (Some(a), _, false) => Some(a),
            (Some(a), Some(b), true) => Some(a.saturating_mul(b)),
            _ => None,
        };
        Ok(fragment)
    }

    /// When a view atom carries constant arguments, the *specialised* view
    /// `σ_{X = c̄}(V)` may have bounded output even though `V` itself does not
    /// (the situation exploited throughout Section 3's constructions).  For a
    /// CQ-definable view the bound is computed by substituting the constants
    /// into the definition and running the BOP analysis.
    fn specialized_view_bound(&self, atom: &Atom) -> Option<usize> {
        let def = self.views().get(atom.relation())?.as_cq()?;
        let mut map = BTreeMap::new();
        let mut any_constant = false;
        for (i, arg) in atom.args().iter().enumerate() {
            if let Term::Const(c) = arg {
                any_constant = true;
                match def.head().get(i) {
                    Some(Term::Var(v)) => {
                        map.insert(v.clone(), Term::Const(c.clone()));
                    }
                    Some(Term::Const(d)) if d != c => return Some(0),
                    _ => {}
                }
            }
        }
        if !any_constant {
            return None;
        }
        let specialized = def.substitute(&map);
        match bqr_query::bounded_output::cq_output(
            &specialized,
            &self.setting.access,
            &self.setting.schema,
            &self.setting.budget,
        ) {
            Ok(bqr_query::bounded_output::OutputBound::Bounded(n)) => Some(n),
            _ => None,
        }
    }

    /// Cases (4a), (7a), (7b): a base-relation atom, answered by a `fetch`
    /// through some access constraint whose `X` attributes are all already
    /// bound (by constants or by the context), provided the context has
    /// bounded output.
    fn build_base_atom(
        &self,
        qs: &Fragment,
        atom: &Atom,
        live: &BTreeSet<String>,
    ) -> std::result::Result<Fragment, String> {
        let rel_schema = self
            .setting
            .schema
            .relation(atom.relation())
            .ok_or_else(|| format!("unknown relation `{}`", atom.relation()))?;
        if rel_schema.arity() != atom.arity() {
            return Err(format!(
                "atom over `{}` has {} arguments, expected {}",
                atom.relation(),
                atom.arity(),
                rel_schema.arity()
            ));
        }

        let mut last_reason = format!(
            "no access constraint of the access schema can drive a fetch for `{}`",
            atom.relation()
        );
        'constraints: for constraint in self.setting.access.constraints_on(atom.relation()) {
            let xy = constraint.xy();
            // Every argument position outside X ∪ Y must be a "don't care":
            // fetch cannot retrieve or constrain it.
            for (i, attr) in rel_schema.attributes().enumerate() {
                if !xy.iter().any(|a| a == attr) {
                    match &atom.args()[i] {
                        Term::Const(_) => {
                            last_reason = format!(
                                "constraint {constraint} does not cover the constant in position {i} of `{}`",
                                atom.relation()
                            );
                            continue 'constraints;
                        }
                        Term::Var(v) => {
                            // Sound only for a genuine existential don't-care:
                            // a variable that is not bound by the context, not
                            // needed by the head and not shared with any other
                            // literal (the `live` set).
                            if qs.column_of(v).is_some() || live.contains(v) {
                                last_reason = format!(
                                    "constraint {constraint} does not cover the live variable `{v}`"
                                );
                                continue 'constraints;
                            }
                        }
                    }
                }
            }

            // Every X attribute must be bound: by a constant in the atom or by
            // a context column; and the context must have bounded output
            // unless X is empty (case 7a).
            let x_positions: Vec<usize> = match rel_schema.positions(
                &constraint
                    .x()
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<_>>(),
            ) {
                Ok(p) => p,
                Err(_) => continue 'constraints,
            };
            let mut key_source: Vec<KeySource> = Vec::with_capacity(x_positions.len());
            for &p in &x_positions {
                match &atom.args()[p] {
                    Term::Const(c) => key_source.push(KeySource::Constant(c.clone())),
                    Term::Var(v) => match qs.column_of(v) {
                        Some(col) => key_source.push(KeySource::ContextColumn(col)),
                        None => {
                            last_reason = format!(
                                "constraint {constraint} needs `{v}` as an input but no value is propagated to it"
                            );
                            continue 'constraints;
                        }
                    },
                }
            }
            let needs_context = key_source
                .iter()
                .any(|k| matches!(k, KeySource::ContextColumn(_)));
            let context_bound = qs.output_bound;
            if needs_context && context_bound.is_none() {
                last_reason =
                    format!("the context feeding fetch[{constraint}] does not have bounded output");
                continue 'constraints;
            }
            if !needs_context && constraint.x().is_empty() {
                // Case (7a): fetch the whole (bounded) relation fragment.
            }

            // Build the fetch input: the context columns plus one constant
            // column per constant key component, then project the key.
            let mut input = qs.plan.clone();
            let mut input_columns = qs.columns.clone();
            let mut key_columns = Vec::with_capacity(key_source.len());
            for k in &key_source {
                match k {
                    KeySource::ContextColumn(c) => key_columns.push(*c),
                    KeySource::Constant(c) => {
                        input = input.product(Plan::constant(vec![c.clone()]));
                        key_columns.push(input_columns.len());
                        input_columns.push("\u{1}key".to_string());
                    }
                }
            }
            let fetched = Plan::from_node(input.node().clone())
                .project(key_columns.clone())
                .fetch(constraint.clone(), (0..key_columns.len()).collect());

            // Name the fetched columns and apply in-atom constraints.
            let mut fetched_columns: Vec<String> = Vec::with_capacity(xy.len());
            let mut conditions = Vec::new();
            let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
            for (j, attr) in xy.iter().enumerate() {
                let pos = rel_schema
                    .position(attr)
                    .expect("attribute of the relation");
                match &atom.args()[pos] {
                    Term::Const(c) => {
                        conditions.push(SelectCondition::ColEqConst(j, c.clone()));
                        fetched_columns.push(format!("\u{1}c{j}"));
                    }
                    Term::Var(v) => {
                        if let Some(&prev) = seen.get(v.as_str()) {
                            conditions.push(SelectCondition::ColEqCol(prev, j));
                            fetched_columns.push(format!("\u{1}dup{j}"));
                        } else {
                            seen.insert(v, j);
                            fetched_columns.push(v.clone());
                        }
                    }
                }
            }
            let fetched = if conditions.is_empty() {
                fetched
            } else {
                fetched.select(conditions)
            };

            // If every context column was passed through the fetch key, the
            // fetch output already carries all live context values (they are
            // the X columns of the result): the fetch result simply *replaces*
            // the context, exactly as in the chain-shaped plan of Fig. 1.
            // Otherwise the fetch result is joined back with the context so
            // that the remaining context columns survive.
            let key_context_cols: BTreeSet<usize> = key_source
                .iter()
                .filter_map(|k| match k {
                    KeySource::ContextColumn(c) => Some(*c),
                    KeySource::Constant(_) => None,
                })
                .collect();
            let context_subsumed = (0..qs.columns.len()).all(|i| key_context_cols.contains(&i));
            let shared: Vec<(usize, usize)> = fetched_columns
                .iter()
                .enumerate()
                .filter_map(|(j, name)| qs.column_of(name).map(|qi| (qi, j)))
                .collect();
            let mut fragment = qs.clone();
            let qs_arity = fragment.columns.len();
            if qs_arity == 0 || context_subsumed {
                // The fetch result replaces the context.
                fragment.plan = fetched;
                fragment.columns = fetched_columns.clone();
            } else if shared.is_empty() {
                fragment.plan = fragment.plan.product(fetched);
                fragment.columns.extend(fetched_columns.clone());
            } else {
                fragment.plan = fragment.plan.join_eq(fetched, &shared);
                fragment.columns.extend(fetched_columns.clone());
            }
            // Project away helper columns (constants, duplicates, and fetched
            // copies of variables the context already holds).
            let keep: Vec<usize> = (0..fragment.columns.len())
                .filter(|&i| {
                    let name = &fragment.columns[i];
                    if name.starts_with('\u{1}') {
                        return false;
                    }
                    // first occurrence wins
                    fragment.columns.iter().position(|c| c == name) == Some(i)
                })
                .collect();
            if keep.len() != fragment.columns.len() {
                fragment.columns = keep.iter().map(|&i| fragment.columns[i].clone()).collect();
                fragment.plan = fragment.plan.project(keep);
            }

            // Number of index probes: one per distinct key; with an all-constant
            // key there is exactly one probe, otherwise at most the context's
            // output bound.
            let probes = if needs_context {
                context_bound.unwrap_or(1)
            } else {
                1
            };
            let fetched_tuples = probes.saturating_mul(constraint.n());
            fragment.fetch_bound = qs.fetch_bound.saturating_add(fetched_tuples);
            fragment.output_bound = qs.output_bound.map(|b| b.saturating_mul(constraint.n()));
            return Ok(fragment);
        }
        Err(last_reason)
    }

    /// Case (6): `Q_s ∧ ¬Q_2`, admissible when the free variables of `Q_2`
    /// are already produced by the context: the plan is `ξ_s \ ξ_{s∧2}`.
    fn build_negation(
        &self,
        qs: &Fragment,
        inner: &Fo,
        live: &BTreeSet<String>,
    ) -> std::result::Result<Fragment, String> {
        let free = inner.free_variables();
        for v in &free {
            if qs.column_of(v).is_none() {
                return Err(format!(
                    "negated sub-query uses `{v}` before any value is propagated to it"
                ));
            }
        }
        let with_inner = self.build(qs, inner, live)?;
        // Project the positive side onto the context columns.
        let cols: Vec<usize> = qs
            .columns
            .iter()
            .map(|c| with_inner.column_of(c).expect("context columns survive"))
            .collect();
        let projected = Plan::from_node(with_inner.plan.node().clone()).project(cols);
        let mut fragment = qs.clone();
        fragment.plan = fragment.plan.difference(projected);
        fragment.fetch_bound = with_inner.fetch_bound;
        Ok(fragment)
    }

    /// Case (4): conjunction.  Conjuncts are scheduled greedily: at every
    /// step, pick one that the current context can support (this realises the
    /// paper's extension of `Q_s` by already-built conjuncts); positive
    /// conjuncts are preferred over negated ones so that negation sees the
    /// largest possible context.
    fn build_conjunction(
        &self,
        qs: &Fragment,
        conjuncts: &[Fo],
        live: &BTreeSet<String>,
    ) -> std::result::Result<Fragment, String> {
        let mut remaining: Vec<&Fo> = conjuncts.iter().collect();
        let mut fragment = qs.clone();
        let mut last_error = String::from("empty conjunction");
        while !remaining.is_empty() {
            let mut progressed = false;
            // Two passes: positive conjuncts first, then negations.
            for negated_pass in [false, true] {
                let mut idx = 0;
                while idx < remaining.len() {
                    let is_negation = matches!(remaining[idx], Fo::Not(_));
                    if is_negation != negated_pass {
                        idx += 1;
                        continue;
                    }
                    match self.build(&fragment, remaining[idx], live) {
                        Ok(next) => {
                            fragment = next;
                            remaining.remove(idx);
                            progressed = true;
                        }
                        Err(e) => {
                            last_error = e;
                            idx += 1;
                        }
                    }
                }
                if progressed {
                    break;
                }
            }
            if !progressed {
                return Err(format!(
                    "no remaining conjunct can be scheduled: {last_error}"
                ));
            }
        }
        Ok(fragment)
    }

    /// Case (5): disjunction.  Both branches are built from the same context
    /// and must expose the same variables (the paper's safety condition);
    /// the plan is the union of the two branch plans aligned column-wise.
    fn build_disjunction(
        &self,
        qs: &Fragment,
        a: &Fo,
        b: &Fo,
        live: &BTreeSet<String>,
    ) -> std::result::Result<Fragment, String> {
        if a.free_variables() != b.free_variables() {
            return Err(
                "the two sides of a disjunction must have the same free variables".to_string(),
            );
        }
        let left = self.build(qs, a, live)?;
        let right = self.build(qs, b, live)?;
        // Align the right side's columns with the left's.
        let cols: Vec<usize> = left
            .columns
            .iter()
            .map(|c| {
                right
                    .column_of(c)
                    .ok_or_else(|| format!("column `{c}` missing from the right disjunct"))
            })
            .collect::<std::result::Result<_, String>>()?;
        let right_plan = Plan::from_node(right.plan.node().clone()).project(cols);
        let mut fragment = left.clone();
        fragment.plan = fragment.plan.union(right_plan);
        fragment.fetch_bound = left.fetch_bound.saturating_add(right.fetch_bound);
        fragment.output_bound = match (left.output_bound, right.output_bound) {
            (Some(x), Some(y)) => Some(x.saturating_add(y)),
            _ => None,
        };
        Ok(fragment)
    }

    /// Case (7c): drop existentially quantified columns.
    fn drop_columns(&self, fragment: Fragment, vars: &[String]) -> Fragment {
        let drop: BTreeSet<&String> = vars.iter().collect();
        let keep: Vec<usize> = (0..fragment.columns.len())
            .filter(|&i| !drop.contains(&fragment.columns[i]))
            .collect();
        if keep.len() == fragment.columns.len() {
            return fragment;
        }
        let mut fragment = fragment;
        fragment.columns = keep.iter().map(|&i| fragment.columns[i].clone()).collect();
        fragment.plan = fragment.plan.project(keep);
        fragment
    }
}

enum KeySource {
    Constant(Value),
    ContextColumn(usize),
}

/// The *live* variables of a query: those the generated plan must keep —
/// head variables and every variable with more than one occurrence in the
/// body (a shared variable carries a join or filter that a fetch must not
/// silently drop).
fn live_variables(body: &Fo, head: &[Term]) -> BTreeSet<String> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    count_occurrences(body, &mut counts);
    let mut live: BTreeSet<String> = head
        .iter()
        .filter_map(|t| t.as_var().map(str::to_string))
        .collect();
    live.extend(counts.into_iter().filter(|(_, c)| *c >= 2).map(|(v, _)| v));
    live
}

fn count_occurrences(f: &Fo, counts: &mut BTreeMap<String, usize>) {
    match f {
        Fo::Atom(a) => {
            for t in a.args() {
                if let Term::Var(v) = t {
                    *counts.entry(v.clone()).or_insert(0) += 1;
                }
            }
        }
        Fo::Eq(t1, t2) => {
            for t in [t1, t2] {
                if let Term::Var(v) = t {
                    *counts.entry(v.clone()).or_insert(0) += 1;
                }
            }
        }
        Fo::And(a, b) | Fo::Or(a, b) => {
            count_occurrences(a, counts);
            count_occurrences(b, counts);
        }
        Fo::Not(a) | Fo::Exists(_, a) | Fo::Forall(_, a) => count_occurrences(a, counts),
    }
}

/// Flatten nested conjunctions into a list of conjuncts.
fn flatten_and(f: &Fo, out: &mut Vec<Fo>) {
    match f {
        Fo::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::RewritingSetting;
    use bqr_data::{
        tuple, AccessConstraint, AccessSchema, Database, DatabaseSchema, IndexedDatabase,
    };
    use bqr_plan::exec::execute;
    use bqr_query::eval::{eval_cq, eval_fo};
    use bqr_query::parser::parse_cq;

    fn movie_schema() -> DatabaseSchema {
        DatabaseSchema::with_relations(&[
            ("person", &["pid", "name", "affiliation"]),
            ("movie", &["mid", "mname", "studio", "release"]),
            ("rating", &["mid", "rank"]),
            ("like", &["pid", "id", "type"]),
        ])
        .unwrap()
    }

    fn movie_access(n0: usize) -> AccessSchema {
        AccessSchema::new(vec![
            AccessConstraint::new("movie", &["studio", "release"], &["mid"], n0).unwrap(),
            AccessConstraint::new("rating", &["mid"], &["rank"], 1).unwrap(),
        ])
    }

    fn v1_views() -> ViewSet {
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
        views
    }

    fn q0() -> ConjunctiveQuery {
        parse_cq(
            "Q(mid) :- person(xp, xn, 'NASA'), movie(mid, ym, 'Universal', '2014'), \
             like(xp, mid, 'movie'), rating(mid, 5)",
        )
        .unwrap()
    }

    fn movie_instance() -> Database {
        let mut db = Database::empty(movie_schema());
        db.insert("person", tuple![1, "Ann", "NASA"]).unwrap();
        db.insert("person", tuple![2, "Bob", "NASA"]).unwrap();
        db.insert("person", tuple![3, "Cat", "ESA"]).unwrap();
        db.insert("movie", tuple![10, "Lucy", "Universal", "2014"])
            .unwrap();
        db.insert("movie", tuple![11, "Ouija", "Universal", "2014"])
            .unwrap();
        db.insert("movie", tuple![12, "Her", "WB", "2013"]).unwrap();
        db.insert("rating", tuple![10, 5]).unwrap();
        db.insert("rating", tuple![11, 3]).unwrap();
        db.insert("rating", tuple![12, 5]).unwrap();
        db.insert("like", tuple![1, 10, "movie"]).unwrap();
        db.insert("like", tuple![2, 12, "movie"]).unwrap();
        db.insert("like", tuple![3, 11, "movie"]).unwrap();
        db
    }

    /// The constructed plan compiles into the executor pipeline and the
    /// pipeline agrees with the one-shot execute — the compile-once serving
    /// path.
    #[test]
    fn topped_plans_compile_into_the_executor_pipeline() {
        let setting = RewritingSetting::new(movie_schema(), movie_access(100), v1_views(), 40);
        let checker = ToppedChecker::new(&setting);
        let q_xi =
            parse_cq("Q(mid) :- movie(mid, ym, 'Universal', '2014'), V1(mid), rating(mid, 5)")
                .unwrap();
        let analysis = checker.analyze_cq(&q_xi).unwrap();
        let db = movie_instance();
        let cache = v1_views().materialize(&db).unwrap();
        let idb = IndexedDatabase::build(db, movie_access(100)).unwrap();
        let plan = analysis.plan.clone().unwrap();
        let one_shot = execute(&plan, &idb, &cache).unwrap();
        // The prepared handle serves the same answers and observably skips
        // recompilation on the warm path.
        let cache_handle = std::sync::Arc::new(bqr_plan::PipelineCache::new(8));
        let prepared =
            bqr_plan::PreparedPlan::with_cache(plan, std::sync::Arc::clone(&cache_handle));
        assert_eq!(prepared.execute(&idb, &cache).unwrap(), one_shot);
        assert_eq!(prepared.execute(&idb, &cache).unwrap(), one_shot);
        let stats = cache_handle.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "{stats:?}");
        let options = bqr_plan::ExecOptions::default();
        let pipeline = prepared.pipeline(&idb, &cache, &options).unwrap();
        assert!(pipeline.describe().contains("fetch["));
        assert_eq!(pipeline.execute(&idb, &options).unwrap(), one_shot);
    }

    /// Q0 is NOT topped without the view: person/like cannot be fetched.
    #[test]
    fn q0_without_views_is_not_topped() {
        let setting =
            RewritingSetting::new(movie_schema(), movie_access(100), ViewSet::empty(), 20);
        let checker = ToppedChecker::new(&setting);
        let analysis = checker.analyze_cq(&q0()).unwrap();
        assert!(!analysis.topped);
        assert!(analysis.reason.is_some());
        assert!(analysis.plan.is_none());
    }

    /// The rewriting Qξ of Example 2.3 (using V1) IS topped, and the
    /// generated plan computes Q0 while fetching a bounded number of tuples.
    #[test]
    fn example_2_3_rewriting_is_topped_and_correct() {
        let setting = RewritingSetting::new(movie_schema(), movie_access(100), v1_views(), 40);
        let checker = ToppedChecker::new(&setting);
        let q_xi =
            parse_cq("Q(mid) :- movie(mid, ym, 'Universal', '2014'), V1(mid), rating(mid, 5)")
                .unwrap();
        let analysis = checker.analyze_cq(&q_xi).unwrap();
        assert!(analysis.topped, "{:?}", analysis.reason);
        let plan = analysis.plan.clone().unwrap();
        assert!(plan.size() <= 40);
        assert!(analysis.fetch_bound.unwrap() <= 2 * 100, "|Dξ| ≤ 2·N0");

        // Execute the plan and compare with the naive evaluation of Q0.
        let db = movie_instance();
        let cache = v1_views().materialize(&db).unwrap();
        let idb = IndexedDatabase::build(db.clone(), movie_access(100)).unwrap();
        let out = execute(&plan, &idb, &cache).unwrap();
        assert_eq!(out.tuples, eval_cq(&q0(), &db, None).unwrap());
        assert_eq!(out.tuples, vec![tuple![10]]);
        assert_eq!(out.stats.scanned_tuples, 0);
        assert!(out.stats.fetched_tuples <= 4);

        // The generated plan also conforms to A0.
        let conf = crate::check_conformance(
            &plan,
            &setting.access,
            &setting.schema,
            &setting.views,
            &setting.budget,
        )
        .unwrap();
        assert!(conf.is_conforming(), "{conf:?}");
    }

    /// A small M rejects the same query: topped-ness depends on (R, V, A, M).
    #[test]
    fn bound_m_is_enforced() {
        let setting = RewritingSetting::new(movie_schema(), movie_access(100), v1_views(), 3);
        let checker = ToppedChecker::new(&setting);
        let q_xi =
            parse_cq("Q(mid) :- movie(mid, ym, 'Universal', '2014'), V1(mid), rating(mid, 5)")
                .unwrap();
        let analysis = checker.analyze_cq(&q_xi).unwrap();
        assert!(!analysis.topped);
        assert!(
            analysis.plan.is_some(),
            "a plan exists, it is just too large"
        );
        assert!(analysis.plan_size.unwrap() > 3);
        assert!(analysis.reason.unwrap().contains("exceeding the bound"));
    }

    /// Example 3.3(a): the rewriting Q2 of Q0 that uses the view V2 (NASA
    /// employees) and the key on `like` is a bounded rewriting only when
    /// V2's output is known to be bounded (NASA has at most N1 employees).
    #[test]
    fn example_3_3_requires_bounded_view_output() {
        let mut access = movie_access(100);
        access.add(AccessConstraint::new("like", &["pid", "id"], &["type"], 1).unwrap());
        let mut views = ViewSet::empty();
        views
            .add_cq("V2", parse_cq("V2(pid) :- person(pid, n, 'NASA')").unwrap())
            .unwrap();
        let setting = RewritingSetting::new(movie_schema(), access.clone(), views.clone(), 60);
        // Q2 of Example 3.3: Q0 rewritten over V2.
        let q2 = parse_cq(
            "Q(mid) :- V2(xp), like(xp, mid, 'movie'), \
             movie(mid, ym, 'Universal', '2014'), rating(mid, 5)",
        )
        .unwrap();

        // Without an annotation, V2 is unbounded and the `like` atom cannot be
        // fetched (its key needs pid values from V2): not topped.
        let checker = ToppedChecker::new(&setting);
        let analysis = checker.analyze_cq(&q2).unwrap();
        assert!(!analysis.topped, "{:?}", analysis.plan_size);

        // Declaring |V2(D)| ≤ 50 makes the same query topped.
        let mut oracle = BoundedOutputOracle::new(
            setting.schema.clone(),
            setting.access.clone(),
            setting.budget,
        );
        oracle.annotate_view("V2", 50);
        let checker = ToppedChecker::with_oracle(&setting, oracle);
        let analysis = checker.analyze_cq(&q2).unwrap();
        assert!(analysis.topped, "{:?}", analysis.reason);
        // The fetch bound is of the order N1·N0 (Example 3.3 derives
        // N1·N0 + 2·N0; our accounting interleaves slightly differently but
        // stays within a small multiple of that).
        assert!(analysis.fetch_bound.unwrap() <= 3 * 50 * 100 + 2 * 100);

        // And the plan is correct on the example instance: it computes Q0.
        let db = movie_instance();
        let cache = views.materialize(&db).unwrap();
        let idb = IndexedDatabase::build(db.clone(), access).unwrap();
        let out = execute(&analysis.plan.unwrap(), &idb, &cache).unwrap();
        assert_eq!(out.tuples, eval_cq(&q0(), &db, None).unwrap());
    }

    /// Negation (Example 5.3-style): movies rated by someone but such that the
    /// rating is not 5, via a fetch and a set difference.
    #[test]
    fn negation_is_handled_by_difference() {
        let setting =
            RewritingSetting::new(movie_schema(), movie_access(100), ViewSet::empty(), 40);
        let checker = ToppedChecker::new(&setting);
        // Q(m) = ∃n (movie(m, n, 'Universal', '2014')) ∧ ¬ rating(m, 5)
        let body = Fo::and(
            Fo::exists(
                vec!["n".into()],
                Fo::Atom(Atom::new(
                    "movie",
                    vec![
                        Term::var("m"),
                        Term::var("n"),
                        Term::cnst("Universal"),
                        Term::cnst("2014"),
                    ],
                )),
            ),
            Fo::not(Fo::Atom(Atom::new(
                "rating",
                vec![Term::var("m"), Term::cnst(5)],
            ))),
        );
        let q = FoQuery::new(vec![Term::var("m")], body).unwrap();
        let analysis = checker.analyze(&q).unwrap();
        assert!(analysis.topped, "{:?}", analysis.reason);
        let plan = analysis.plan.unwrap();
        assert_eq!(plan.language(), bqr_plan::PlanLanguage::Fo);

        let db = movie_instance();
        let idb = IndexedDatabase::build(db.clone(), movie_access(100)).unwrap();
        let out = execute(&plan, &idb, &bqr_query::MaterializedViews::empty()).unwrap();
        assert_eq!(out.tuples, eval_fo(&q, &db, None).unwrap());
        assert_eq!(
            out.tuples,
            vec![tuple![11]],
            "Ouija is Universal/2014 but rated 3"
        );
    }

    /// Disjunction: movies of either studio, both branches bounded.
    #[test]
    fn disjunction_unions_branch_plans() {
        let mut access = movie_access(100);
        access.add(AccessConstraint::new("movie", &["studio"], &["mid", "release"], 500).unwrap());
        let setting = RewritingSetting::new(movie_schema(), access.clone(), ViewSet::empty(), 40);
        let checker = ToppedChecker::new(&setting);
        let body = Fo::or(
            Fo::exists(
                vec!["n".into(), "r".into()],
                Fo::Atom(Atom::new(
                    "movie",
                    vec![
                        Term::var("m"),
                        Term::var("n"),
                        Term::cnst("Universal"),
                        Term::var("r"),
                    ],
                )),
            ),
            Fo::exists(
                vec!["n2".into(), "r2".into()],
                Fo::Atom(Atom::new(
                    "movie",
                    vec![
                        Term::var("m"),
                        Term::var("n2"),
                        Term::cnst("WB"),
                        Term::var("r2"),
                    ],
                )),
            ),
        );
        let q = FoQuery::new(vec![Term::var("m")], body).unwrap();
        let analysis = checker.analyze(&q).unwrap();
        assert!(analysis.topped, "{:?}", analysis.reason);

        let db = movie_instance();
        let idb = IndexedDatabase::build(db.clone(), access).unwrap();
        let out = execute(
            &analysis.plan.unwrap(),
            &idb,
            &bqr_query::MaterializedViews::empty(),
        )
        .unwrap();
        assert_eq!(out.tuples, eval_fo(&q, &db, None).unwrap());
        assert_eq!(out.tuples.len(), 3);
    }

    /// A query whose only relation has no usable constraint is rejected with a
    /// helpful reason.
    #[test]
    fn unconstrained_relation_rejected() {
        let setting = RewritingSetting::new(movie_schema(), movie_access(10), ViewSet::empty(), 30);
        let checker = ToppedChecker::new(&setting);
        let q = parse_cq("Q(p) :- person(p, n, 'NASA')").unwrap();
        let analysis = checker.analyze_cq(&q).unwrap();
        assert!(!analysis.topped);
        assert!(analysis.reason.unwrap().contains("person"));
    }

    /// Forall is outside the fragment.
    #[test]
    fn forall_is_rejected() {
        let setting = RewritingSetting::new(movie_schema(), movie_access(10), ViewSet::empty(), 30);
        let checker = ToppedChecker::new(&setting);
        let q = FoQuery::boolean(Fo::forall(
            vec!["m".into(), "r".into()],
            Fo::Atom(Atom::new("rating", vec![Term::var("m"), Term::var("r")])),
        ));
        let analysis = checker.analyze(&q).unwrap();
        assert!(!analysis.topped);
        assert!(analysis.reason.unwrap().contains("universal"));
    }
}
