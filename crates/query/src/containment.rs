//! Classical query containment (no access schema).
//!
//! * CQ ⊆ CQ is decided by the Chandra–Merlin criterion: `Q1 ⊆ Q2` iff there
//!   is a homomorphism from `Q2` into the canonical instance of `Q1` mapping
//!   the head of `Q2` onto the summary of `Q1`.
//! * CQ ⊆ UCQ and UCQ ⊆ UCQ reduce to the CQ case disjunct by disjunct
//!   (Sagiv–Yannakakis).
//!
//! `A`-relative containment (`Q1 ⊑_A Q2`) lives in [`crate::aequiv`] and is
//! built on element queries plus the tests in this module.
//!
//! Repeated checks should go through a [`ContainmentChecker`], which
//! memoises canonical instances per query and relation indexes per
//! (canonical relation, access pattern) — see the slot engine in
//! [`crate::hom`].

use crate::atom::Term;
use crate::canonical::{canonical_instance, CanonicalInstance};
use crate::cq::ConjunctiveQuery;
use crate::error::QueryError;
use crate::hom::{Assignment, HomSearch};
use crate::planner::PlannerConfig;
use crate::ucq::UnionQuery;
use crate::Result;
use bqr_data::{DatabaseSchema, IndexCache, Relation};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// A containment oracle for one schema, with three layers of memoisation:
///
/// * **canonical instances** — the tableau `(T_Q, ū)` of every left-hand
///   query is built once and reused across checks;
/// * **relation indexes** — the hash indexes probed by the homomorphism
///   search come from a shared [`IndexCache`], keyed by relation epoch, so
///   repeatedly matching into the same canonical instance (the dominant
///   cost of the `A`-equivalence procedures) never rebuilds an index; and
/// * **compiled searches** — the slot machine ([`HomSearch`]) for a
///   `(q1, q2)` pair is compiled once; re-checking the pair only re-runs
///   the backtracking search.  `None` records a head/summary mismatch, for
///   which no search is needed at all.
///
/// The free functions below keep the historical one-shot signatures; create
/// a checker explicitly whenever more than one containment test runs against
/// the same queries or schema.
/// Memo table of compiled searches, keyed `q1 → q2 → search`; `None`
/// records a head/summary mismatch that needs no search at all.  Nested so
/// lookups probe with borrowed queries — cloning happens only on insert.
type SearchMemo = HashMap<ConjunctiveQuery, HashMap<ConjunctiveQuery, Option<Rc<HomSearch>>>>;

pub struct ContainmentChecker<'s> {
    schema: &'s DatabaseSchema,
    cache: IndexCache,
    planner: PlannerConfig,
    canonicals: RefCell<HashMap<ConjunctiveQuery, Rc<CanonicalInstance>>>,
    searches: RefCell<SearchMemo>,
}

/// Process-wide count of checkers ever constructed.  Constructing a checker
/// is cheap, but *using a fresh one per phase* throws away the canonical
/// instances and compiled searches the previous phase memoised — the
/// decision procedures in `bqr-core` are required to construct at most one
/// per top-level call, and their tests pin that with this counter.
static CONSTRUCTED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl<'s> ContainmentChecker<'s> {
    /// A checker with empty caches and the default (auto) join planner.
    pub fn new(schema: &'s DatabaseSchema) -> Self {
        ContainmentChecker::with_planner(schema, PlannerConfig::default())
    }

    /// A checker whose homomorphism searches are planned under `planner`.
    pub fn with_planner(schema: &'s DatabaseSchema, planner: PlannerConfig) -> Self {
        CONSTRUCTED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        ContainmentChecker {
            schema,
            cache: IndexCache::new(),
            planner,
            canonicals: RefCell::new(HashMap::new()),
            searches: RefCell::new(HashMap::new()),
        }
    }

    /// How many checkers this process has constructed so far (both
    /// [`ContainmentChecker::new`] and [`ContainmentChecker::with_planner`]).
    /// Diff two readings around a call to count its constructions.
    pub fn constructed_count() -> u64 {
        CONSTRUCTED.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The shared relation-index cache (e.g. for hit/miss statistics).
    pub fn cache(&self) -> &IndexCache {
        &self.cache
    }

    /// The schema the checker decides containment over.
    pub fn schema(&self) -> &'s DatabaseSchema {
        self.schema
    }

    /// Soft bound on each memo map; exceeding it clears the map.  The memos
    /// are pure caches, so clearing is always sound — it only bounds memory
    /// when a long-running search (e.g. the exact VBRP enumeration) streams
    /// thousands of distinct query pairs through one checker.  Clearing
    /// `searches` also releases the `Rc<InternedAccessIndex>` handles the
    /// compiled machines pin, which the [`IndexCache`]'s own bound cannot
    /// free on its own.
    const MAX_MEMO_ENTRIES: usize = 4096;

    /// The memoised canonical instance of `q`.
    fn canonical(&self, q: &ConjunctiveQuery) -> Result<Rc<CanonicalInstance>> {
        if let Some(c) = self.canonicals.borrow().get(q) {
            return Ok(Rc::clone(c));
        }
        let built = Rc::new(canonical_instance(q, self.schema)?);
        let mut canonicals = self.canonicals.borrow_mut();
        if canonicals.len() >= Self::MAX_MEMO_ENTRIES {
            canonicals.clear();
        }
        canonicals.insert(q.clone(), Rc::clone(&built));
        Ok(built)
    }

    /// Decide `q1 ⊆ q2` (over all instances of the schema).
    pub fn cq_contained_in(&self, q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> Result<bool> {
        if q1.arity() != q2.arity() {
            return Err(QueryError::MismatchedUnionArity {
                expected: q1.arity(),
                actual: q2.arity(),
            });
        }
        let canon = self.canonical(q1)?;
        self.cq_maps_onto(q1, q2, &canon)
    }

    /// Decide `q1 ⊆ u2`: some disjunct of `u2` must map onto the canonical
    /// instance of `q1`.
    pub fn cq_contained_in_ucq(&self, q1: &ConjunctiveQuery, u2: &UnionQuery) -> Result<bool> {
        if q1.arity() != u2.arity() {
            return Err(QueryError::MismatchedUnionArity {
                expected: q1.arity(),
                actual: u2.arity(),
            });
        }
        let canon = self.canonical(q1)?;
        for d in u2.disjuncts() {
            if self.cq_maps_onto(q1, d, &canon)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Decide `u1 ⊆ u2` (disjunct-wise, by Sagiv–Yannakakis).
    pub fn ucq_contained_in(&self, u1: &UnionQuery, u2: &UnionQuery) -> Result<bool> {
        for d in u1.disjuncts() {
            if !self.cq_contained_in_ucq(d, u2)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Decide classical CQ equivalence `q1 ≡ q2`.
    pub fn cq_equivalent(&self, q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> Result<bool> {
        Ok(self.cq_contained_in(q1, q2)? && self.cq_contained_in(q2, q1)?)
    }

    /// Decide classical UCQ equivalence `u1 ≡ u2`.
    pub fn ucq_equivalent(&self, u1: &UnionQuery, u2: &UnionQuery) -> Result<bool> {
        Ok(self.ucq_contained_in(u1, u2)? && self.ucq_contained_in(u2, u1)?)
    }

    /// Decide whether `q` has a homomorphism into the canonical instance of
    /// `q1` that sends its head onto the summary.  The compiled slot machine
    /// for the `(q1, q)` pair is memoised, so repeats only re-run the search.
    fn cq_maps_onto(
        &self,
        q1: &ConjunctiveQuery,
        q: &ConjunctiveQuery,
        canon: &CanonicalInstance,
    ) -> Result<bool> {
        let memoised = self
            .searches
            .borrow()
            .get(q1)
            .and_then(|per_q1| per_q1.get(q))
            .cloned();
        let search = match memoised {
            Some(Some(s)) => s,
            Some(None) => return Ok(false),
            None => {
                let compiled = self.compile_maps_onto(q, canon)?;
                let mut searches = self.searches.borrow_mut();
                if searches.len() >= Self::MAX_MEMO_ENTRIES {
                    searches.clear();
                }
                searches
                    .entry(q1.clone())
                    .or_default()
                    .insert(q.clone(), compiled.clone());
                match compiled {
                    Some(s) => s,
                    None => return Ok(false),
                }
            }
        };
        let mut found = false;
        search.run(|_| {
            found = true;
            std::ops::ControlFlow::Break(())
        })?;
        Ok(found)
    }

    /// Compile the slot machine matching `q` into `canon`; `None` when the
    /// head cannot map onto the summary (constant mismatch or a head
    /// variable forced onto two distinct values).
    fn compile_maps_onto(
        &self,
        q: &ConjunctiveQuery,
        canon: &CanonicalInstance,
    ) -> Result<Option<Rc<HomSearch>>> {
        let db = &canon.database;
        let target = &canon.summary;
        // Seed the assignment with the head: head variables must map to the
        // target values; head constants must equal them.
        let mut initial = Assignment::new();
        for (i, term) in q.head().iter().enumerate() {
            let want = &target[i];
            match term {
                Term::Const(c) => {
                    if c != want {
                        return Ok(None);
                    }
                }
                Term::Var(v) => match initial.get(v) {
                    Some(existing) if existing != want => return Ok(None),
                    _ => {
                        initial.insert(v.clone(), want.clone());
                    }
                },
            }
        }
        let relations: BTreeMap<String, &Relation> = q
            .relation_names()
            .into_iter()
            .map(|name| {
                db.relation(&name)
                    .map(|r| (name.clone(), r))
                    .ok_or(QueryError::UnknownRelation(name))
            })
            .collect::<Result<_>>()?;
        Ok(Some(Rc::new(HomSearch::compile_with(
            q.atoms(),
            &relations,
            &initial,
            &self.cache,
            &self.planner,
        )?)))
    }
}

/// Decide `q1 ⊆ q2` (over all instances of `schema`).
///
/// Both queries must be over base relations only (unfold views first) and
/// have the same arity.  One-shot; see [`ContainmentChecker`] for repeated
/// checks.
pub fn cq_contained_in(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    schema: &DatabaseSchema,
) -> Result<bool> {
    ContainmentChecker::new(schema).cq_contained_in(q1, q2)
}

/// Decide `q1 ⊆ u2` for a CQ `q1` and a UCQ `u2`: some disjunct of `u2` must
/// map onto the canonical instance of `q1`.
pub fn cq_contained_in_ucq(
    q1: &ConjunctiveQuery,
    u2: &UnionQuery,
    schema: &DatabaseSchema,
) -> Result<bool> {
    ContainmentChecker::new(schema).cq_contained_in_ucq(q1, u2)
}

/// Decide `u1 ⊆ u2` for UCQs (disjunct-wise, by Sagiv–Yannakakis).
pub fn ucq_contained_in(u1: &UnionQuery, u2: &UnionQuery, schema: &DatabaseSchema) -> Result<bool> {
    ContainmentChecker::new(schema).ucq_contained_in(u1, u2)
}

/// Decide classical CQ equivalence `q1 ≡ q2`.
pub fn cq_equivalent(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    schema: &DatabaseSchema,
) -> Result<bool> {
    ContainmentChecker::new(schema).cq_equivalent(q1, q2)
}

/// Decide classical UCQ equivalence `u1 ≡ u2`.
pub fn ucq_equivalent(u1: &UnionQuery, u2: &UnionQuery, schema: &DatabaseSchema) -> Result<bool> {
    ContainmentChecker::new(schema).ucq_equivalent(u1, u2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::testutil::{movie_schema, q0, v1};
    use crate::views::ViewSet;
    use bqr_data::DatabaseSchema;

    fn path_schema() -> DatabaseSchema {
        DatabaseSchema::with_relations(&[("e", &["src", "dst"])]).unwrap()
    }

    fn path(len: usize) -> ConjunctiveQuery {
        // Q(x0, xlen) :- e(x0, x1), e(x1, x2), ..., e(x{len-1}, xlen)
        let atoms = (0..len)
            .map(|i| {
                Atom::new(
                    "e",
                    vec![Term::var(format!("x{i}")), Term::var(format!("x{}", i + 1))],
                )
            })
            .collect();
        ConjunctiveQuery::new(vec![Term::var("x0"), Term::var(format!("x{len}"))], atoms).unwrap()
    }

    #[test]
    fn longer_path_contained_in_shorter_boolean() {
        let schema = path_schema();
        // Boolean versions: ∃ path of length 2 ⊆ ∃ path of length 1.
        let p1 = path(1).with_head(vec![]).unwrap();
        let p2 = path(2).with_head(vec![]).unwrap();
        assert!(cq_contained_in(&p2, &p1, &schema).unwrap());
        assert!(!cq_contained_in(&p1, &p2, &schema).unwrap());
        assert!(!cq_equivalent(&p1, &p2, &schema).unwrap());
    }

    #[test]
    fn identical_up_to_renaming_is_equivalent() {
        let schema = path_schema();
        let a = path(2);
        let b = a.rename_apart("_z");
        assert!(cq_equivalent(&a, &b, &schema).unwrap());
    }

    #[test]
    fn redundant_atom_is_absorbed() {
        let schema = path_schema();
        // Q1(x,y) :- e(x,y), e(x,z)   ≡   Q2(x,y) :- e(x,y)
        let q1 = ConjunctiveQuery::new(
            vec![Term::var("x"), Term::var("y")],
            vec![
                Atom::new("e", vec![Term::var("x"), Term::var("y")]),
                Atom::new("e", vec![Term::var("x"), Term::var("z")]),
            ],
        )
        .unwrap();
        let q2 = ConjunctiveQuery::new(
            vec![Term::var("x"), Term::var("y")],
            vec![Atom::new("e", vec![Term::var("x"), Term::var("y")])],
        )
        .unwrap();
        assert!(cq_equivalent(&q1, &q2, &schema).unwrap());
    }

    #[test]
    fn constants_matter_for_containment() {
        let schema = path_schema();
        let general = ConjunctiveQuery::new(
            vec![Term::var("x")],
            vec![Atom::new("e", vec![Term::var("x"), Term::var("y")])],
        )
        .unwrap();
        let specific = ConjunctiveQuery::new(
            vec![Term::var("x")],
            vec![Atom::new("e", vec![Term::var("x"), Term::cnst(1)])],
        )
        .unwrap();
        assert!(cq_contained_in(&specific, &general, &schema).unwrap());
        assert!(!cq_contained_in(&general, &specific, &schema).unwrap());
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let schema = path_schema();
        assert!(cq_contained_in(&path(1), &path(1).with_head(vec![]).unwrap(), &schema).is_err());
    }

    #[test]
    fn q0_contained_in_unfolded_rewriting() {
        // Q0 ⊆ unfold(Qξ) and unfold(Qξ) ⊆ Q0 does NOT hold in general
        // (the rewriting is only A-equivalent), but Q0 ⊆ unfold(Qξ) fails too
        // because Qξ drops the join on `person`... let us check the actual
        // relationship: unfold(Qξ) has all atoms of Q0 except that the movie
        // atom appears twice with different variables; hence unfold(Qξ) ⊆ Q0
        // *and* Q0 ⊆ unfold(Qξ) — they are classically equivalent in this
        // particular example because the second movie atom is unconstrained.
        let schema = movie_schema();
        let mut views = ViewSet::empty();
        views.add_cq("V1", v1()).unwrap();
        let q_xi = ConjunctiveQuery::new(
            vec![Term::var("mid")],
            vec![
                Atom::new(
                    "movie",
                    vec![
                        Term::var("mid"),
                        Term::var("ym"),
                        Term::cnst("Universal"),
                        Term::cnst("2014"),
                    ],
                ),
                Atom::new("V1", vec![Term::var("mid")]),
                Atom::new("rating", vec![Term::var("mid"), Term::cnst(5)]),
            ],
        )
        .unwrap();
        let unfolded = views.unfold_cq(&q_xi).unwrap();
        assert!(cq_contained_in(&unfolded, &q0(), &schema).unwrap());
        assert!(cq_contained_in(&q0(), &unfolded, &schema).unwrap());
    }

    #[test]
    fn checker_memoises_canonical_instances_and_indexes() {
        let schema = path_schema();
        let checker = ContainmentChecker::new(&schema);
        let p1 = path(1).with_head(vec![]).unwrap();
        let p2 = path(2).with_head(vec![]).unwrap();
        for _ in 0..10 {
            assert!(checker.cq_contained_in(&p2, &p1).unwrap());
            assert!(!checker.cq_contained_in(&p1, &p2).unwrap());
        }
        // Two canonical instances and two compiled searches, built on the
        // first round; every further round only re-runs the slot machines,
        // touching neither the canonical store nor the index cache.
        assert_eq!(checker.canonicals.borrow().len(), 2);
        assert_eq!(checker.searches.borrow().len(), 2);
        let misses_after_ten_rounds = checker.cache().misses();
        assert!(checker.cq_contained_in(&p2, &p1).unwrap());
        assert_eq!(checker.cache().misses(), misses_after_ten_rounds);
    }

    #[test]
    fn ucq_containment_disjunctwise() {
        let schema = path_schema();
        let q_const1 = ConjunctiveQuery::new(
            vec![Term::var("x")],
            vec![Atom::new("e", vec![Term::var("x"), Term::cnst(1)])],
        )
        .unwrap();
        let q_const2 = ConjunctiveQuery::new(
            vec![Term::var("x")],
            vec![Atom::new("e", vec![Term::var("x"), Term::cnst(2)])],
        )
        .unwrap();
        let general = ConjunctiveQuery::new(
            vec![Term::var("x")],
            vec![Atom::new("e", vec![Term::var("x"), Term::var("y")])],
        )
        .unwrap();
        let union = UnionQuery::new(vec![q_const1.clone(), q_const2.clone()]).unwrap();
        let general_u = UnionQuery::single(general);
        // {e(x,1)} ∪ {e(x,2)} ⊆ {e(x,y)} but not conversely.
        assert!(ucq_contained_in(&union, &general_u, &schema).unwrap());
        assert!(!ucq_contained_in(&general_u, &union, &schema).unwrap());
        assert!(cq_contained_in_ucq(&q_const1, &union, &schema).unwrap());
        assert!(!ucq_equivalent(&union, &general_u, &schema).unwrap());
        assert!(ucq_equivalent(&union, &union, &schema).unwrap());
    }
}
