//! The plan tree: nodes, size, arity, language classification and
//! pretty-printing.

use crate::error::PlanError;
use crate::Result;
use bqr_data::{AccessConstraint, Tuple, Value};
use std::fmt;

/// A selection condition on the columns of a node's output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SelectCondition {
    /// Column equals a constant.
    ColEqConst(usize, Value),
    /// Column differs from a constant.
    ColNeConst(usize, Value),
    /// Two columns are equal.
    ColEqCol(usize, usize),
    /// Two columns are different.
    ColNeCol(usize, usize),
}

impl SelectCondition {
    /// Largest column index referenced by the condition.
    pub fn max_column(&self) -> usize {
        match self {
            SelectCondition::ColEqConst(c, _) | SelectCondition::ColNeConst(c, _) => *c,
            SelectCondition::ColEqCol(a, b) | SelectCondition::ColNeCol(a, b) => (*a).max(*b),
        }
    }

    /// Evaluate the condition on a tuple.
    pub fn holds(&self, tuple: &Tuple) -> bool {
        match self {
            SelectCondition::ColEqConst(c, v) => &tuple[*c] == v,
            SelectCondition::ColNeConst(c, v) => &tuple[*c] != v,
            SelectCondition::ColEqCol(a, b) => tuple[*a] == tuple[*b],
            SelectCondition::ColNeCol(a, b) => tuple[*a] != tuple[*b],
        }
    }

    /// The constant the condition compares a column against, if any.
    pub fn constant(&self) -> Option<&Value> {
        match self {
            SelectCondition::ColEqConst(_, v) | SelectCondition::ColNeConst(_, v) => Some(v),
            SelectCondition::ColEqCol(..) | SelectCondition::ColNeCol(..) => None,
        }
    }

    /// True if the condition only uses equality (allowed in CQ/UCQ/∃FO+
    /// plans; inequalities force the FO classification).
    pub fn is_equality(&self) -> bool {
        matches!(
            self,
            SelectCondition::ColEqConst(_, _) | SelectCondition::ColEqCol(_, _)
        )
    }
}

impl fmt::Display for SelectCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectCondition::ColEqConst(c, v) => write!(f, "#{c} = {v}"),
            SelectCondition::ColNeConst(c, v) => write!(f, "#{c} ≠ {v}"),
            SelectCondition::ColEqCol(a, b) => write!(f, "#{a} = #{b}"),
            SelectCondition::ColNeCol(a, b) => write!(f, "#{a} ≠ #{b}"),
        }
    }
}

/// One node of a query plan tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PlanNode {
    /// A constant single-tuple relation `{c̄}`.
    Const(Tuple),
    /// A cached view extent `V(D)`; the arity is recorded so that plans are
    /// self-describing.
    View { name: String, arity: usize },
    /// `fetch(X ∈ S, R, Y)`: for every tuple of the input, project the
    /// `key_columns` to obtain an `X`-value and retrieve `D_{R:XY}(X = ā)`
    /// through the index of `constraint`.  The output columns are the
    /// constraint's `X ∪ Y` attributes in that order.
    Fetch {
        input: Box<PlanNode>,
        constraint: AccessConstraint,
        key_columns: Vec<usize>,
    },
    /// Projection onto the given columns (in the given order).
    Project {
        input: Box<PlanNode>,
        columns: Vec<usize>,
    },
    /// Selection by a conjunction of conditions.
    Select {
        input: Box<PlanNode>,
        conditions: Vec<SelectCondition>,
    },
    /// Cartesian product.
    Product(Box<PlanNode>, Box<PlanNode>),
    /// Set union (children must have equal arity).
    Union(Box<PlanNode>, Box<PlanNode>),
    /// Set difference (children must have equal arity).
    Difference(Box<PlanNode>, Box<PlanNode>),
    /// Renaming.  With positional columns renaming does not change the data;
    /// the node exists so that plan sizes match the paper's counting of `ρ`
    /// operations.
    Rename { input: Box<PlanNode> },
}

/// The plan languages of Section 2 (which queries a plan can express).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlanLanguage {
    /// fetch, π, σ, ×, ρ (and constant / view leaves).
    Cq,
    /// additionally ∪, but only at the top of the tree.
    Ucq,
    /// ∪ anywhere.
    PosFo,
    /// additionally set difference `\` or non-equality selections.
    Fo,
}

impl fmt::Display for PlanLanguage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanLanguage::Cq => write!(f, "CQ"),
            PlanLanguage::Ucq => write!(f, "UCQ"),
            PlanLanguage::PosFo => write!(f, "∃FO+"),
            PlanLanguage::Fo => write!(f, "FO"),
        }
    }
}

impl PlanNode {
    /// Output arity of the node.
    pub fn arity(&self) -> usize {
        match self {
            PlanNode::Const(t) => t.arity(),
            PlanNode::View { arity, .. } => *arity,
            PlanNode::Fetch { constraint, .. } => constraint.xy().len(),
            PlanNode::Project { columns, .. } => columns.len(),
            PlanNode::Select { input, .. } | PlanNode::Rename { input } => input.arity(),
            PlanNode::Product(a, b) => a.arity() + b.arity(),
            PlanNode::Union(a, _) | PlanNode::Difference(a, _) => a.arity(),
        }
    }

    /// Number of nodes in the subtree (the paper's plan size measure).
    pub fn size(&self) -> usize {
        1 + match self {
            PlanNode::Const(_) | PlanNode::View { .. } => 0,
            PlanNode::Fetch { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Select { input, .. }
            | PlanNode::Rename { input } => input.size(),
            PlanNode::Product(a, b) | PlanNode::Union(a, b) | PlanNode::Difference(a, b) => {
                a.size() + b.size()
            }
        }
    }

    /// Validate structural well-formedness: column indices in range, equal
    /// arities for union/difference, fetch keys matching constraint arity.
    pub fn validate(&self) -> Result<()> {
        match self {
            PlanNode::Const(_) | PlanNode::View { .. } => Ok(()),
            PlanNode::Fetch {
                input,
                constraint,
                key_columns,
            } => {
                input.validate()?;
                if key_columns.len() != constraint.x().len() {
                    return Err(PlanError::FetchKeyMismatch {
                        expected: constraint.x().len(),
                        actual: key_columns.len(),
                    });
                }
                for &c in key_columns {
                    if c >= input.arity() {
                        return Err(PlanError::ColumnOutOfRange {
                            column: c,
                            arity: input.arity(),
                        });
                    }
                }
                Ok(())
            }
            PlanNode::Project { input, columns } => {
                input.validate()?;
                for &c in columns {
                    if c >= input.arity() {
                        return Err(PlanError::ColumnOutOfRange {
                            column: c,
                            arity: input.arity(),
                        });
                    }
                }
                Ok(())
            }
            PlanNode::Select { input, conditions } => {
                input.validate()?;
                for cond in conditions {
                    if cond.max_column() >= input.arity() {
                        return Err(PlanError::ColumnOutOfRange {
                            column: cond.max_column(),
                            arity: input.arity(),
                        });
                    }
                }
                Ok(())
            }
            PlanNode::Rename { input } => input.validate(),
            PlanNode::Product(a, b) => {
                a.validate()?;
                b.validate()
            }
            PlanNode::Union(a, b) | PlanNode::Difference(a, b) => {
                a.validate()?;
                b.validate()?;
                if a.arity() != b.arity() {
                    return Err(PlanError::ArityMismatch {
                        left: a.arity(),
                        right: b.arity(),
                    });
                }
                Ok(())
            }
        }
    }

    /// All fetch nodes of the subtree (pre-order).
    pub fn fetches(&self) -> Vec<&PlanNode> {
        let mut out = Vec::new();
        self.visit(&mut |n| {
            if matches!(n, PlanNode::Fetch { .. }) {
                out.push(n);
            }
        });
        out
    }

    /// Names of views used anywhere in the subtree.
    pub fn view_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |n| {
            if let PlanNode::View { name, .. } = n {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        });
        out
    }

    /// Every constant *occurrence* of the subtree, in **slot order**: nodes
    /// in pre-order, and within a node a `Const` leaf's values left to right
    /// or a selection's `Col{Eq,Ne}Const` constants in condition order.  This
    /// is the one order in which a plan's constants are numbered: the
    /// compiled pipeline's constant slots ([`crate::exec`]), the ids a
    /// [`crate::prepared::PreparedPlan`] binds to them, and
    /// [`PlanNode::map_constants`] all follow it (`ρ` holds no constants, so
    /// the numbering is the same wherever renames sit).
    pub fn constant_slots(&self) -> Vec<&Value> {
        let mut out = Vec::new();
        self.visit(&mut |n| match n {
            PlanNode::Const(t) => out.extend(t.iter()),
            PlanNode::Select { conditions, .. } => {
                out.extend(conditions.iter().filter_map(SelectCondition::constant));
            }
            _ => {}
        });
        out
    }

    /// Constants used anywhere in the subtree (in `Const` leaves or selection
    /// conditions), each once — bounded rewritings may only use constants
    /// from the query.
    pub fn constants(&self) -> Vec<Value> {
        let mut out: Vec<Value> = Vec::new();
        for v in self.constant_slots() {
            if !out.contains(v) {
                out.push(v.clone());
            }
        }
        out
    }

    /// The same tree with the constant in slot `k` replaced by
    /// `f(k, current)` — slots numbered as in [`PlanNode::constant_slots`].
    /// Nothing but constants changes, so a valid plan stays valid.
    pub fn map_constants(&self, f: &mut impl FnMut(usize, &Value) -> Value) -> PlanNode {
        fn walk(node: &mut PlanNode, slot: &mut impl FnMut(&Value) -> Value) {
            match node {
                PlanNode::Const(t) => *t = t.iter().map(&mut *slot).collect(),
                PlanNode::View { .. } => {}
                PlanNode::Select { input, conditions } => {
                    for c in conditions.iter_mut() {
                        if let SelectCondition::ColEqConst(_, v)
                        | SelectCondition::ColNeConst(_, v) = c
                        {
                            *v = slot(v);
                        }
                    }
                    walk(input, slot);
                }
                PlanNode::Fetch { input, .. }
                | PlanNode::Project { input, .. }
                | PlanNode::Rename { input } => walk(input, slot),
                PlanNode::Product(a, b) | PlanNode::Union(a, b) | PlanNode::Difference(a, b) => {
                    walk(a, slot);
                    walk(b, slot);
                }
            }
        }
        let (mut out, mut next) = (self.clone(), 0);
        walk(&mut out, &mut |v| {
            next += 1;
            f(next - 1, v)
        });
        out
    }

    /// Visit every node of the subtree (pre-order).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a PlanNode)) {
        f(self);
        match self {
            PlanNode::Const(_) | PlanNode::View { .. } => {}
            PlanNode::Fetch { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Select { input, .. }
            | PlanNode::Rename { input } => input.visit(f),
            PlanNode::Product(a, b) | PlanNode::Union(a, b) | PlanNode::Difference(a, b) => {
                a.visit(f);
                b.visit(f);
            }
        }
    }

    /// The smallest plan language the subtree belongs to.
    pub fn language(&self) -> PlanLanguage {
        fn has_difference_or_inequality(n: &PlanNode) -> bool {
            let mut found = false;
            n.visit(&mut |m| match m {
                PlanNode::Difference(_, _) => found = true,
                PlanNode::Select { conditions, .. }
                    if conditions.iter().any(|c| !c.is_equality()) =>
                {
                    found = true;
                }
                _ => {}
            });
            found
        }
        fn has_union(n: &PlanNode) -> bool {
            let mut found = false;
            n.visit(&mut |m| {
                if matches!(m, PlanNode::Union(_, _)) {
                    found = true;
                }
            });
            found
        }
        /// Unions only along the spine from the root (every ancestor of a
        /// union is a union).
        fn unions_top_level_only(n: &PlanNode) -> bool {
            match n {
                PlanNode::Union(a, b) => unions_top_level_only(a) && unions_top_level_only(b),
                other => !has_union(other),
            }
        }
        if has_difference_or_inequality(self) {
            PlanLanguage::Fo
        } else if !has_union(self) {
            PlanLanguage::Cq
        } else if unions_top_level_only(self) {
            PlanLanguage::Ucq
        } else {
            PlanLanguage::PosFo
        }
    }

    fn render(&self, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match self {
            PlanNode::Const(t) => out.push_str(&format!("{pad}const {t}\n")),
            PlanNode::View { name, arity } => out.push_str(&format!("{pad}view {name}/{arity}\n")),
            PlanNode::Fetch {
                input,
                constraint,
                key_columns,
            } => {
                out.push_str(&format!("{pad}fetch[{constraint}] keys {key_columns:?}\n"));
                input.render(indent + 1, out);
            }
            PlanNode::Project { input, columns } => {
                out.push_str(&format!("{pad}π{columns:?}\n"));
                input.render(indent + 1, out);
            }
            PlanNode::Select { input, conditions } => {
                let conds: Vec<String> = conditions.iter().map(|c| c.to_string()).collect();
                out.push_str(&format!("{pad}σ[{}]\n", conds.join(" ∧ ")));
                input.render(indent + 1, out);
            }
            PlanNode::Rename { input } => {
                out.push_str(&format!("{pad}ρ\n"));
                input.render(indent + 1, out);
            }
            PlanNode::Product(a, b) => {
                out.push_str(&format!("{pad}×\n"));
                a.render(indent + 1, out);
                b.render(indent + 1, out);
            }
            PlanNode::Union(a, b) => {
                out.push_str(&format!("{pad}∪\n"));
                a.render(indent + 1, out);
                b.render(indent + 1, out);
            }
            PlanNode::Difference(a, b) => {
                out.push_str(&format!("{pad}\\\n"));
                a.render(indent + 1, out);
                b.render(indent + 1, out);
            }
        }
    }
}

/// A complete query plan: a validated plan tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryPlan {
    root: PlanNode,
}

impl QueryPlan {
    /// Wrap and validate a plan tree.
    pub fn new(root: PlanNode) -> Result<Self> {
        root.validate()?;
        Ok(QueryPlan { root })
    }

    /// The root node.
    pub fn root(&self) -> &PlanNode {
        &self.root
    }

    /// Plan size (number of nodes), the quantity bounded by `M`.
    pub fn size(&self) -> usize {
        self.root.size()
    }

    /// Output arity.
    pub fn arity(&self) -> usize {
        self.root.arity()
    }

    /// Plan language classification.
    pub fn language(&self) -> PlanLanguage {
        self.root.language()
    }

    /// Views used by the plan.
    pub fn view_names(&self) -> Vec<String> {
        self.root.view_names()
    }

    /// Constants used by the plan, each once.
    pub fn constants(&self) -> Vec<Value> {
        self.root.constants()
    }

    /// Every constant occurrence of the plan in slot order
    /// ([`PlanNode::constant_slots`]).
    pub fn constant_slots(&self) -> Vec<&Value> {
        self.root.constant_slots()
    }

    /// The plan with the constant in slot `k` replaced by `f(k, current)`
    /// ([`PlanNode::map_constants`]): same shape, other constants.
    pub fn map_constants(&self, mut f: impl FnMut(usize, &Value) -> Value) -> QueryPlan {
        QueryPlan {
            root: self.root.map_constants(&mut f),
        }
    }

    /// Fetch nodes of the plan.
    pub fn fetches(&self) -> Vec<&PlanNode> {
        self.root.fetches()
    }

    /// The plan's **shape**, the whole key of the
    /// [`PipelineCache`](crate::prepared::PipelineCache): the plan with every
    /// constant replaced by one fixed placeholder and every `ρ` node removed.
    /// Plans with equal shapes compile to the same operators and share one
    /// cached pipeline, each executing it with its own constants.
    ///
    /// * Constants leave the key with no further argument: a constant
    ///   reaches a compiled pipeline only in a `Const` leaf or a
    ///   `Col{Eq,Ne}Const` condition, and compilation never looks at its
    ///   value.  Their number and places stay, so slots are per occurrence,
    ///   numbered as in [`PlanNode::constant_slots`].  Contrast the engine's
    ///   analysis memo (`bqr-engine`), whose key keeps which constants equal
    ///   each other and the views', because the *checker* does look.
    /// * `ρ` is transparent: with positional columns a renaming never
    ///   changes the data, and the compiled executor erases it.  A `ρ` can
    ///   block the σ-over-view fusion, but the two pipelines are
    ///   execution-equivalent down to the `FetchStats` accounting, which
    ///   `tests/prepared_cache.rs` holds them to.
    pub fn shape(&self) -> QueryPlan {
        fn erase_renames(node: &mut PlanNode) {
            match node {
                PlanNode::Rename { input } => {
                    *node = std::mem::replace(&mut **input, PlanNode::Const(Tuple::default()));
                    erase_renames(node);
                }
                PlanNode::Const(_) | PlanNode::View { .. } => {}
                PlanNode::Fetch { input, .. }
                | PlanNode::Project { input, .. }
                | PlanNode::Select { input, .. } => erase_renames(input),
                PlanNode::Product(a, b) | PlanNode::Union(a, b) | PlanNode::Difference(a, b) => {
                    erase_renames(a);
                    erase_renames(b);
                }
            }
        }
        let mut root = self.root.map_constants(&mut |_, _| Value::Bool(false));
        erase_renames(&mut root);
        QueryPlan { root }
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.root.render(0, &mut out);
        write!(f, "{out}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Plan;
    use bqr_data::tuple;

    fn constraint() -> AccessConstraint {
        AccessConstraint::new("movie", &["studio", "release"], &["mid"], 100).unwrap()
    }

    fn small_fetch() -> PlanNode {
        PlanNode::Fetch {
            input: Box::new(PlanNode::Const(tuple!["Universal", "2014"])),
            constraint: constraint(),
            key_columns: vec![0, 1],
        }
    }

    #[test]
    fn arity_and_size() {
        let fetch = small_fetch();
        assert_eq!(fetch.arity(), 3, "X ∪ Y = studio, release, mid");
        assert_eq!(fetch.size(), 2);
        let project = PlanNode::Project {
            input: Box::new(fetch),
            columns: vec![2],
        };
        assert_eq!(project.arity(), 1);
        assert_eq!(project.size(), 3);
        let view = PlanNode::View {
            name: "V1".into(),
            arity: 1,
        };
        assert_eq!(view.arity(), 1);
        let product = PlanNode::Product(Box::new(project.clone()), Box::new(view.clone()));
        assert_eq!(product.arity(), 2);
        assert_eq!(product.size(), 5);
        let plan = QueryPlan::new(product).unwrap();
        assert_eq!(plan.size(), 5);
        assert_eq!(plan.view_names(), vec!["V1".to_string()]);
        assert!(plan.constants().contains(&Value::str("Universal")));
        assert_eq!(plan.fetches().len(), 1);
    }

    #[test]
    fn validation_catches_errors() {
        let bad_project = PlanNode::Project {
            input: Box::new(PlanNode::Const(tuple![1])),
            columns: vec![2],
        };
        assert!(matches!(
            QueryPlan::new(bad_project),
            Err(PlanError::ColumnOutOfRange { .. })
        ));

        let bad_union = PlanNode::Union(
            Box::new(PlanNode::Const(tuple![1])),
            Box::new(PlanNode::Const(tuple![1, 2])),
        );
        assert!(matches!(
            QueryPlan::new(bad_union),
            Err(PlanError::ArityMismatch { .. })
        ));

        let bad_fetch = PlanNode::Fetch {
            input: Box::new(PlanNode::Const(tuple!["Universal"])),
            constraint: constraint(),
            key_columns: vec![0],
        };
        assert!(matches!(
            QueryPlan::new(bad_fetch),
            Err(PlanError::FetchKeyMismatch { .. })
        ));

        let bad_select = PlanNode::Select {
            input: Box::new(PlanNode::Const(tuple![1])),
            conditions: vec![SelectCondition::ColEqCol(0, 4)],
        };
        assert!(matches!(
            QueryPlan::new(bad_select),
            Err(PlanError::ColumnOutOfRange { .. })
        ));

        let bad_fetch_key = PlanNode::Fetch {
            input: Box::new(PlanNode::Const(tuple!["U"])),
            constraint: AccessConstraint::new("rating", &["mid"], &["rank"], 1).unwrap(),
            key_columns: vec![3],
        };
        assert!(QueryPlan::new(bad_fetch_key).is_err());
    }

    #[test]
    fn language_classification() {
        let cq = small_fetch();
        assert_eq!(cq.language(), PlanLanguage::Cq);

        let union_top = PlanNode::Union(Box::new(cq.clone()), Box::new(small_fetch()));
        assert_eq!(union_top.language(), PlanLanguage::Ucq);

        // A union below a projection is ∃FO+ but not UCQ.
        let nested = PlanNode::Project {
            input: Box::new(union_top.clone()),
            columns: vec![0],
        };
        assert_eq!(nested.language(), PlanLanguage::PosFo);

        let diff = PlanNode::Difference(Box::new(cq.clone()), Box::new(small_fetch()));
        assert_eq!(diff.language(), PlanLanguage::Fo);

        let neq = PlanNode::Select {
            input: Box::new(cq),
            conditions: vec![SelectCondition::ColNeConst(0, Value::int(1))],
        };
        assert_eq!(neq.language(), PlanLanguage::Fo);
        assert!(PlanLanguage::Cq < PlanLanguage::Fo);
        assert_eq!(PlanLanguage::PosFo.to_string(), "∃FO+");
    }

    #[test]
    fn select_conditions() {
        let t = tuple![1, 1, 2];
        assert!(SelectCondition::ColEqCol(0, 1).holds(&t));
        assert!(!SelectCondition::ColEqCol(0, 2).holds(&t));
        assert!(SelectCondition::ColNeCol(1, 2).holds(&t));
        assert!(SelectCondition::ColEqConst(2, Value::int(2)).holds(&t));
        assert!(SelectCondition::ColNeConst(2, Value::int(3)).holds(&t));
        assert!(SelectCondition::ColEqConst(0, Value::int(1)).is_equality());
        assert!(!SelectCondition::ColNeCol(0, 1).is_equality());
        assert_eq!(SelectCondition::ColEqCol(0, 1).max_column(), 1);
        assert_eq!(
            SelectCondition::ColNeConst(4, Value::int(0)).max_column(),
            4
        );
        assert!(SelectCondition::ColEqCol(0, 1).to_string().contains('='));
    }

    #[test]
    fn display_renders_tree() {
        let plan = QueryPlan::new(PlanNode::Project {
            input: Box::new(PlanNode::Select {
                input: Box::new(small_fetch()),
                conditions: vec![SelectCondition::ColEqConst(2, Value::int(1))],
            }),
            columns: vec![2],
        })
        .unwrap();
        let text = plan.to_string();
        assert!(text.contains("π[2]"));
        assert!(text.contains("σ["));
        assert!(text.contains("fetch["));
        assert!(text.contains("const"));
    }

    /// Slot order is pre-order, a node's own constants before its
    /// children's, and `map_constants` numbers them the same way.
    #[test]
    fn constant_slots_and_map_constants_agree_on_the_order() {
        let select = |input: PlanNode, v: i64| PlanNode::Select {
            input: Box::new(input),
            conditions: vec![
                SelectCondition::ColEqCol(0, 0),
                SelectCondition::ColNeConst(0, Value::int(v)),
                SelectCondition::ColEqConst(0, Value::int(v + 1)),
            ],
        };
        let rename = |input: PlanNode| PlanNode::Rename {
            input: Box::new(input),
        };
        let plan = QueryPlan::new(select(
            PlanNode::Union(
                Box::new(rename(PlanNode::Const(tuple![30]))),
                Box::new(select(PlanNode::Const(tuple![10]), 20)),
            ),
            1,
        ))
        .unwrap();
        let ints = |plan: &QueryPlan| -> Vec<i64> {
            let slots = plan.constant_slots();
            slots.iter().map(|v| v.as_int().unwrap()).collect()
        };
        assert_eq!(ints(&plan), vec![1, 2, 30, 20, 21, 10]);
        assert_eq!(plan.constants().len(), 6);
        let mut seen = Vec::new();
        let numbered = plan.map_constants(|slot, v| {
            seen.push(v.clone());
            Value::int(slot as i64)
        });
        assert_eq!(seen.iter().collect::<Vec<_>>(), plan.constant_slots());
        assert_eq!(ints(&numbered), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(plan.map_constants(|_, v| v.clone()), plan);
        // Repeats are separate slots, one constant.
        let twice = QueryPlan::new(PlanNode::Const(tuple![7, 7])).unwrap();
        assert_eq!(twice.constant_slots().len(), 2);
        assert_eq!(twice.constants(), vec![Value::int(7)]);
    }

    #[test]
    fn rename_preserves_arity_and_counts_as_node() {
        let renamed = PlanNode::Rename {
            input: Box::new(PlanNode::Const(tuple![1, 2])),
        };
        assert_eq!(renamed.arity(), 2);
        assert_eq!(renamed.size(), 2);
        assert!(QueryPlan::new(renamed).is_ok());
    }

    fn phi() -> AccessConstraint {
        AccessConstraint::new("movie", &["studio", "release"], &["mid"], 100).unwrap()
    }

    fn sample() -> QueryPlan {
        Plan::constant(vec![Value::str("Universal"), Value::str("2014")])
            .fetch(phi(), vec![0, 1])
            .select_eq_const(2, 10)
            .project(vec![2])
            .build()
            .unwrap()
    }

    #[test]
    fn equal_structure_equal_shape() {
        let (a, b) = (sample(), sample());
        assert_eq!(a.shape(), b.shape());
        assert_eq!(a.shape(), a.clone().shape());
        assert_eq!(a.shape().shape(), a.shape(), "a shape is its own shape");
    }

    #[test]
    fn structural_differences_change_the_shape() {
        let base = sample().shape();
        let with = |constraint: AccessConstraint, keys: Vec<usize>, conds, columns| {
            Plan::constant(vec![Value::str("Universal"), Value::str("2014")])
                .fetch(constraint, keys)
                .select(conds)
                .project(columns)
                .build()
                .unwrap()
                .shape()
        };
        let eq10 = || SelectCondition::ColEqConst(2, Value::int(10));
        assert_eq!(base, with(phi(), vec![0, 1], vec![eq10()], vec![2]));
        // One constant more is a different shape.
        assert_ne!(base, with(phi(), vec![0, 1], vec![eq10(), eq10()], vec![2]));
        // Equality against a constant and inequality against it differ.
        let ne10 = SelectCondition::ColNeConst(2, Value::int(10));
        assert_ne!(base, with(phi(), vec![0, 1], vec![ne10], vec![2]));
        // Another constraint bound, other key columns, another projection.
        let phi50 = AccessConstraint::new("movie", &["studio", "release"], &["mid"], 50).unwrap();
        assert_ne!(base, with(phi50, vec![0, 1], vec![eq10()], vec![2]));
        assert_ne!(base, with(phi(), vec![1, 0], vec![eq10()], vec![2]));
        assert_ne!(base, with(phi(), vec![0, 1], vec![eq10()], vec![0]));
        // Operators over the same leaves, and view names.
        let view = |name: &str| Plan::view(name, 1);
        let u = view("V").union(view("V")).build().unwrap().shape();
        let d = view("V").difference(view("V")).build().unwrap().shape();
        let w = view("V").union(view("W")).build().unwrap().shape();
        assert!(u != d && u != w && d != w);
    }

    /// Constants are not part of the shape: whatever their values or sorts,
    /// and however many of them coincide, plans that differ in nothing else
    /// have one shape.
    #[test]
    fn constants_are_not_part_of_the_shape() {
        let other = Plan::constant(vec![Value::str("WB"), Value::int(2015)])
            .fetch(phi(), vec![0, 1])
            .select_eq_const(2, "WB")
            .project(vec![2])
            .build()
            .unwrap();
        assert_eq!(sample().shape(), other.shape());
        let int1 = Plan::constant(vec![Value::int(1)]).build().unwrap();
        let bool1 = Plan::constant(vec![Value::bool(true)]).build().unwrap();
        assert_eq!(int1.shape(), bool1.shape());
        // The number of constants is.
        let pair = Plan::constant(vec![Value::int(1), Value::int(1)])
            .build()
            .unwrap();
        assert_ne!(int1.shape(), pair.shape());
        assert_eq!(pair.shape().constant_slots().len(), 2);
    }

    #[test]
    fn renames_are_transparent() {
        let plain = Plan::view("V", 2).select_eq_cols(0, 1).build().unwrap();
        let renamed = Plan::view("V", 2)
            .rename()
            .rename()
            .select_eq_cols(0, 1)
            .rename()
            .build()
            .unwrap();
        assert_eq!(plain.shape(), renamed.shape());
        assert_ne!(plain, renamed, "the trees themselves differ");
        assert_eq!(renamed.shape().size(), 2, "no ρ is left");
    }
}
