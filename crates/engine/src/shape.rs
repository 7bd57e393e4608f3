//! Query shapes and the per-shape memo of topped analyses.
//!
//! The paper's effective syntax decides toppedness from the *syntax* of `Q`
//! against `(R, V, A, M)`: a constant of `Q` matters only through where it
//! sits and which other constants — of `Q` or of `V` — it equals.  The
//! checker copies constants into the plan and never computes one.  So two
//! queries that differ by an injective renaming of constants which fixes
//! every constant of `V` have the same analysis up to that renaming, and the
//! engine analyses one representative per **shape**.
//!
//! The shape key is a correctness boundary, not a heuristic.  It is the query
//! exactly as written — relation names, variable names, atom and disjunct
//! order — with each constant that equals *no* constant of any view
//! definition replaced by a parameter.  Parameters are numbered by distinct
//! value in order of first occurrence, so the equality pattern among them is
//! part of the key (`calls(3, 3, x, d)` and `calls(3, 4, x, d)` are two
//! shapes), and so is each parameter's [`Value`] variant.  A constant that
//! does equal a view constant stays in the key as itself: `V(x, 'premium')`
//! and `V(x, 'basic')` may be analysed differently, and are.  The checker
//! does not look at the *order* of constants (`tests/shape_diff.rs` holds it
//! to that, under order-reversing renamings), so the key does not either.
//!
//! Contrast the pipeline cache one layer down (`bqr_plan::QueryPlan::shape`),
//! where constants leave the key with no such argument: compilation never
//! looks at a constant's value at all.

use bqr_core::Query;
use bqr_data::{Value, ValueId};
use bqr_plan::{PreparedPlan, PreparedShape};
use bqr_query::{ConjunctiveQuery, Term};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A CQ/UCQ split into its shape and the constants lifted out of it.
pub(crate) struct QueryShape {
    /// The memo key: a prefix-free (hence injective) encoding of the query
    /// with its liftable constants replaced by parameter markers.
    pub(crate) key: Vec<u8>,
    /// The lifted constants: each distinct value once, by first occurrence.
    pub(crate) params: Vec<Value>,
}

impl QueryShape {
    /// The shape of `query`, keeping every constant in `view_constants`
    /// literal.  `None` for an FO query: those are analysed every time.
    pub(crate) fn of(query: &Query, view_constants: &BTreeSet<Value>) -> Option<QueryShape> {
        let (language, disjuncts) = match query {
            Query::Cq(cq) => (0, std::slice::from_ref(cq)),
            Query::Ucq(ucq) => (1, ucq.disjuncts()),
            Query::Fo(_) => return None,
        };
        let mut shape = QueryShape {
            key: Vec::with_capacity(128),
            params: Vec::new(),
        };
        shape.key.push(language);
        shape.len(disjuncts.len());
        for cq in disjuncts {
            shape.cq(cq, view_constants);
        }
        Some(shape)
    }

    fn len(&mut self, n: usize) {
        self.key.extend_from_slice(&(n as u64).to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.key.extend_from_slice(s.as_bytes());
    }

    fn cq(&mut self, cq: &ConjunctiveQuery, view_constants: &BTreeSet<Value>) {
        self.len(cq.head().len());
        for t in cq.head() {
            self.term(t, view_constants);
        }
        self.len(cq.atoms().len());
        for atom in cq.atoms() {
            self.str(atom.relation());
            self.len(atom.arity());
            for t in atom.args() {
                self.term(t, view_constants);
            }
        }
    }

    fn term(&mut self, term: &Term, view_constants: &BTreeSet<Value>) {
        match term {
            Term::Var(v) => {
                self.key.push(0);
                self.str(v);
            }
            Term::Const(c) => {
                let sort = match c {
                    Value::Bool(_) => 0,
                    Value::Int(_) => 1,
                    Value::Str(_) => 2,
                };
                if view_constants.contains(c) {
                    self.key.extend_from_slice(&[1, sort]);
                    self.str(&c.render());
                } else {
                    let param = self.params.iter().position(|p| p == c).unwrap_or_else(|| {
                        self.params.push(c.clone());
                        self.params.len() - 1
                    });
                    self.key.extend_from_slice(&[2, sort]);
                    self.len(param);
                }
            }
        }
    }
}

/// Where a constant slot of a shape's pipeline gets its value.
#[derive(Debug, Clone, Copy)]
enum SlotSource {
    /// The query's `i`-th lifted constant.
    Param(usize),
    /// A constant every query of the shape has in this place.
    Literal(ValueId),
}

/// What the engine keeps of a shape's first successful analysis: everything
/// a query of that shape needs to execute, or to be reported on, given only
/// its lifted constants.
#[derive(Debug)]
pub(crate) struct AnalysedShape {
    /// The representative's topped plan, prepared: the template every query
    /// of the shape executes through.
    pub(crate) prepared: Arc<PreparedShape>,
    /// One source per constant slot of the plan.
    sources: Vec<SlotSource>,
    /// `size(Q_ε, Q)` — constants do not count.
    pub(crate) plan_size: usize,
    /// The bound on `|D_ξ|` — a function of the constraints used.
    pub(crate) fetch_bound: usize,
}

impl AnalysedShape {
    /// Record the analysis of a representative: `prepared` is its topped
    /// plan, `params` its lifted constants.  Every constant of the plan was
    /// copied from the query, so it is one of `params` or a kept literal
    /// (which no parameter equals, by construction of the key).  Kept
    /// literals are interned here, which fails on a full pool.
    pub(crate) fn new(
        prepared: &PreparedPlan,
        params: &[Value],
        plan_size: usize,
        fetch_bound: usize,
    ) -> bqr_data::Result<AnalysedShape> {
        let sources = prepared
            .plan()
            .constant_slots()
            .into_iter()
            .map(|c| match params.iter().position(|p| p == c) {
                Some(i) => Ok(SlotSource::Param(i)),
                None => ValueId::try_intern(c).map(SlotSource::Literal),
            })
            .collect::<bqr_data::Result<_>>()?;
        Ok(AnalysedShape {
            prepared: Arc::clone(prepared.shape()),
            sources,
            plan_size,
            fetch_bound,
        })
    }

    /// The interned constants of the query of this shape whose lifted
    /// constants are `params`, one per pipeline slot.  A constant the pool
    /// has never seen is minted an id here, so this fails with
    /// [`bqr_data::DataError::ValuePoolExhausted`] on a full pool.
    pub(crate) fn bindings(&self, params: &[Value]) -> bqr_data::Result<Vec<ValueId>> {
        self.sources
            .iter()
            .map(|source| match *source {
                SlotSource::Param(i) => ValueId::try_intern(&params[i]),
                SlotSource::Literal(id) => Ok(id),
            })
            .collect()
    }

    /// That query's own closed plan — the representative's with `params`
    /// substituted — as a handle on the shared shape.
    pub(crate) fn bind(&self, params: &[Value]) -> PreparedPlan {
        self.prepared
            .bind(|slot, literal| match self.sources[slot] {
                SlotSource::Param(i) => params[i].clone(),
                SlotSource::Literal(_) => literal.clone(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqr_query::parser::{parse_cq, parse_ucq};

    fn key(text: &str, kept: &[Value]) -> (Vec<u8>, Vec<Value>) {
        let query = Query::Cq(parse_cq(text).unwrap());
        let shape = QueryShape::of(&query, &kept.iter().cloned().collect()).unwrap();
        (shape.key, shape.params)
    }

    #[test]
    fn constants_are_lifted_by_distinct_value() {
        let (a, pa) = key("Q(x) :- calls(3, 4, x, d)", &[]);
        let (b, pb) = key("Q(x) :- calls(17, 2, x, d)", &[]);
        assert_eq!(a, b);
        assert_eq!(pa, vec![Value::int(3), Value::int(4)]);
        assert_eq!(pb, vec![Value::int(17), Value::int(2)]);
        // Merged parameters are another shape, with one parameter.
        let (merged, pm) = key("Q(x) :- calls(3, 3, x, d)", &[]);
        assert_ne!(a, merged);
        assert_eq!(pm, vec![Value::int(3)]);
        // So is a parameter of another sort, another variable name, another
        // atom order.
        assert_ne!(a, key("Q(x) :- calls(3, '4', x, d)", &[]).0);
        assert_ne!(a, key("Q(y) :- calls(3, 4, y, d)", &[]).0);
        let two = key("Q(x) :- r(x, 1), s(x, 2)", &[]).0;
        assert_ne!(two, key("Q(x) :- s(x, 2), r(x, 1)", &[]).0);
        // A head constant is lifted like any other.
        let (_, head) = key("Q(x, 7) :- calls(3, 7, x, d)", &[]);
        assert_eq!(head, vec![Value::int(7), Value::int(3)]);
    }

    #[test]
    fn view_constants_stay_literal() {
        let kept = [Value::str("premium")];
        let (premium, p) = key("Q(c) :- customer(c, n, 'premium', 'north')", &kept);
        let (basic, b) = key("Q(c) :- customer(c, n, 'basic', 'north')", &kept);
        assert_ne!(premium, basic, "a view constant is not a parameter");
        assert_eq!(p, vec![Value::str("north")]);
        assert_eq!(b, vec![Value::str("basic"), Value::str("north")]);
        let (standard, _) = key("Q(c) :- customer(c, n, 'standard', 'south')", &kept);
        assert_eq!(basic, standard, "two non-view constants are");
    }

    #[test]
    fn unions_key_every_disjunct_and_fo_has_no_shape() {
        let ucq = |text: &str| {
            let query = Query::Ucq(parse_ucq(text).unwrap());
            let shape = QueryShape::of(&query, &BTreeSet::new()).unwrap();
            (shape.key, shape.params)
        };
        let (a, pa) = ucq("Q(x) :- r(x, 1); Q(x) :- s(x, 1)");
        let (b, _) = ucq("Q(x) :- r(x, 5); Q(x) :- s(x, 5)");
        let (c, pc) = ucq("Q(x) :- r(x, 1); Q(x) :- s(x, 2)");
        assert_eq!(a, b);
        assert_ne!(
            a, c,
            "a constant repeated across disjuncts is one parameter"
        );
        assert_eq!((pa.len(), pc.len()), (1, 2));
        let cq = parse_cq("Q(x) :- r(x, 1)").unwrap();
        assert_ne!(a, key("Q(x) :- r(x, 1)", &[]).0);
        let fo = Query::Fo(bqr_query::FoQuery::from_cq(&cq));
        assert!(QueryShape::of(&fo, &BTreeSet::new()).is_none());
    }
}
