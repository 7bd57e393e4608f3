//! Candidate-plan enumeration: the search space `QP_Q` of the exact decision
//! procedures (Sections 3 and 4).
//!
//! All plans of size at most `M` are generated bottom-up by dynamic
//! programming on size, built from the constants of the query, the views of
//! `V`, the fetches allowed by `A`, and the relational operators of the
//! target plan language.  The space is exponential in `M` (that is the
//! content of the Σᵖ₃ / Cᵖ_{2k+1} lower bounds), so the enumeration is
//! budgeted and meant for the small bounds used throughout the paper's
//! reductions and examples (`M ≤ 8` or so); the *effective syntax* of
//! [`crate::topped`] is the scalable path.
//!
//! Enumeration produces candidates only; each candidate then faces the
//! `A`-equivalence test in [`crate::decide`].

use crate::problem::RewritingSetting;
use bqr_data::Value;
use bqr_plan::{PlanLanguage, PlanNode, QueryPlan, SelectCondition};
use bqr_query::{Budget, QueryError};
use std::collections::BTreeSet;

/// Options controlling the enumeration.
#[derive(Debug, Clone)]
pub struct EnumerationOptions {
    /// Constants candidate plans may mention (per Section 2, the constants of
    /// the query being rewritten).
    pub constants: Vec<Value>,
    /// Target plan language.
    pub language: PlanLanguage,
    /// Maximum output arity kept during the search (plans wider than the
    /// query plus a small margin can never become the final answer).
    pub max_arity: usize,
}

/// Enumerate every structurally distinct plan of size at most `setting.bound_m`.
///
/// Plans are returned in non-decreasing size order.
pub fn enumerate_plans(
    setting: &RewritingSetting,
    options: &EnumerationOptions,
    budget: &Budget,
) -> Result<Vec<QueryPlan>, QueryError> {
    let m = setting.bound_m;
    // by_size[s] holds all candidate nodes of size s (s ≥ 1).
    let mut by_size: Vec<Vec<PlanNode>> = vec![Vec::new(); m + 1];
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut total = 0usize;

    let push = |node: PlanNode,
                size: usize,
                by_size: &mut Vec<Vec<PlanNode>>,
                seen: &mut BTreeSet<String>,
                total: &mut usize|
     -> Result<(), QueryError> {
        if size > m || node.arity() > options.max_arity {
            return Ok(());
        }
        let key = format!("{node:?}");
        if !seen.insert(key) {
            return Ok(());
        }
        *total += 1;
        Budget::check(
            *total,
            budget.max_candidate_plans,
            "enumerating candidate plans",
        )?;
        by_size[size].push(node);
        Ok(())
    };

    // Size-1 leaves: one-column constants, the 0-ary constant (Boolean
    // "true"), and views.
    if m >= 1 {
        push(
            PlanNode::Const(bqr_data::Tuple::unit()),
            1,
            &mut by_size,
            &mut seen,
            &mut total,
        )?;
        for c in &options.constants {
            push(
                PlanNode::Const(bqr_data::Tuple::new(vec![c.clone()])),
                1,
                &mut by_size,
                &mut seen,
                &mut total,
            )?;
        }
        for (name, def) in setting.views.iter() {
            push(
                PlanNode::View {
                    name: name.to_string(),
                    arity: def.arity(),
                },
                1,
                &mut by_size,
                &mut seen,
                &mut total,
            )?;
        }
    }

    for size in 2..=m {
        // Unary operators over children of size `size - 1`.
        let children: Vec<PlanNode> = by_size[size - 1].clone();
        for child in &children {
            let arity = child.arity();
            // Projections: onto each single column, and the empty projection.
            for col in 0..arity {
                push(
                    PlanNode::Project {
                        input: Box::new(child.clone()),
                        columns: vec![col],
                    },
                    size,
                    &mut by_size,
                    &mut seen,
                    &mut total,
                )?;
            }
            if arity > 0 {
                push(
                    PlanNode::Project {
                        input: Box::new(child.clone()),
                        columns: vec![],
                    },
                    size,
                    &mut by_size,
                    &mut seen,
                    &mut total,
                )?;
            }
            // Selections: column = constant, column = column.
            for col in 0..arity {
                for c in &options.constants {
                    push(
                        PlanNode::Select {
                            input: Box::new(child.clone()),
                            conditions: vec![SelectCondition::ColEqConst(col, c.clone())],
                        },
                        size,
                        &mut by_size,
                        &mut seen,
                        &mut total,
                    )?;
                }
            }
            for a in 0..arity {
                for b in (a + 1)..arity {
                    push(
                        PlanNode::Select {
                            input: Box::new(child.clone()),
                            conditions: vec![SelectCondition::ColEqCol(a, b)],
                        },
                        size,
                        &mut by_size,
                        &mut seen,
                        &mut total,
                    )?;
                }
            }
            // Fetches through every constraint, for every ordered choice of
            // key columns.
            for constraint in setting.access.constraints() {
                let k = constraint.x().len();
                for key_columns in ordered_choices(arity, k) {
                    push(
                        PlanNode::Fetch {
                            input: Box::new(child.clone()),
                            constraint: constraint.clone(),
                            key_columns,
                        },
                        size,
                        &mut by_size,
                        &mut seen,
                        &mut total,
                    )?;
                }
            }
        }
        // Binary operators.
        for left_size in 1..(size - 1) {
            let right_size = size - 1 - left_size;
            if right_size < 1 {
                continue;
            }
            let lefts = by_size[left_size].clone();
            let rights = by_size[right_size].clone();
            for l in &lefts {
                for r in &rights {
                    push(
                        PlanNode::Product(Box::new(l.clone()), Box::new(r.clone())),
                        size,
                        &mut by_size,
                        &mut seen,
                        &mut total,
                    )?;
                    if l.arity() == r.arity() && options.language >= PlanLanguage::Ucq {
                        push(
                            PlanNode::Union(Box::new(l.clone()), Box::new(r.clone())),
                            size,
                            &mut by_size,
                            &mut seen,
                            &mut total,
                        )?;
                    }
                    if l.arity() == r.arity() && options.language >= PlanLanguage::Fo {
                        push(
                            PlanNode::Difference(Box::new(l.clone()), Box::new(r.clone())),
                            size,
                            &mut by_size,
                            &mut seen,
                            &mut total,
                        )?;
                    }
                }
            }
        }
    }

    let mut out = Vec::new();
    for nodes in by_size.into_iter() {
        for node in nodes {
            let plan = QueryPlan::new(node).expect("enumerated plans are structurally valid");
            // For the UCQ target, unions must sit at the top of the tree.
            if options.language == PlanLanguage::Ucq && plan.language() > PlanLanguage::Ucq {
                continue;
            }
            if options.language == PlanLanguage::Cq && plan.language() > PlanLanguage::Cq {
                continue;
            }
            if options.language == PlanLanguage::PosFo && plan.language() > PlanLanguage::PosFo {
                continue;
            }
            out.push(plan);
        }
    }
    Ok(out)
}

/// All ordered selections (permutations) of `k` distinct elements from `0..n`.
fn ordered_choices(n: usize, k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    if k > n {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn rec(n: usize, k: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for i in 0..n {
            if current.contains(&i) {
                continue;
            }
            current.push(i);
            rec(n, k, current, out);
            current.pop();
        }
    }
    rec(n, k, &mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqr_data::{AccessConstraint, AccessSchema, DatabaseSchema};
    use bqr_query::parser::parse_cq;
    use bqr_query::ViewSet;

    fn setting(m: usize) -> RewritingSetting {
        let schema = DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])]).unwrap();
        let access = AccessSchema::new(vec![AccessConstraint::new(
            "rating",
            &["mid"],
            &["rank"],
            1,
        )
        .unwrap()]);
        let mut views = ViewSet::empty();
        views
            .add_cq("V", parse_cq("V(m) :- rating(m, 5)").unwrap())
            .unwrap();
        RewritingSetting::new(schema, access, views, m)
    }

    #[test]
    fn ordered_choices_enumeration() {
        assert_eq!(ordered_choices(3, 0), vec![Vec::<usize>::new()]);
        assert_eq!(ordered_choices(2, 3), Vec::<Vec<usize>>::new());
        assert_eq!(ordered_choices(3, 1).len(), 3);
        assert_eq!(ordered_choices(3, 2).len(), 6);
        assert!(ordered_choices(3, 2).contains(&vec![2, 0]));
    }

    #[test]
    fn size_one_plans_are_leaves() {
        let opts = EnumerationOptions {
            constants: vec![Value::int(5)],
            language: PlanLanguage::Cq,
            max_arity: 3,
        };
        let s = setting(1);
        let plans = enumerate_plans(&s, &opts, &Budget::generous()).unwrap();
        // unit constant, {5}, and the view V.
        assert_eq!(plans.len(), 3);
        assert!(plans.iter().all(|p| p.size() == 1));
    }

    #[test]
    fn larger_bound_contains_fetch_plans() {
        let opts = EnumerationOptions {
            constants: vec![Value::int(5), Value::int(7)],
            language: PlanLanguage::Cq,
            max_arity: 3,
        };
        let s = setting(3);
        let plans = enumerate_plans(&s, &opts, &Budget::generous()).unwrap();
        assert!(plans.iter().any(|p| !p.fetches().is_empty()));
        assert!(plans.iter().all(|p| p.size() <= 3));
        assert!(plans.iter().all(|p| p.language() == PlanLanguage::Cq));
        // Sizes are non-decreasing.
        let sizes: Vec<usize> = plans.iter().map(QueryPlan::size).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn language_gates_union_and_difference() {
        let opts_cq = EnumerationOptions {
            constants: vec![Value::int(5)],
            language: PlanLanguage::Cq,
            max_arity: 2,
        };
        let opts_fo = EnumerationOptions {
            constants: vec![Value::int(5)],
            language: PlanLanguage::Fo,
            max_arity: 2,
        };
        let s = setting(3);
        let cq_plans = enumerate_plans(&s, &opts_cq, &Budget::generous()).unwrap();
        let fo_plans = enumerate_plans(&s, &opts_fo, &Budget::generous()).unwrap();
        assert!(cq_plans.iter().all(|p| p.language() == PlanLanguage::Cq));
        assert!(fo_plans.iter().any(|p| p.language() == PlanLanguage::Fo));
        assert!(fo_plans.len() > cq_plans.len());
    }

    #[test]
    fn budget_stops_explosion() {
        let opts = EnumerationOptions {
            constants: (0..10).map(Value::int).collect(),
            language: PlanLanguage::Fo,
            max_arity: 4,
        };
        let s = setting(6);
        assert!(matches!(
            enumerate_plans(&s, &opts, &Budget::tiny()),
            Err(QueryError::BudgetExceeded(_))
        ));
    }
}
