//! Naive query evaluation over instances and cached views.
//!
//! This module is the "reference engine" of the reproduction: it computes
//! `Q(D)` for CQ / UCQ / FO queries directly over a [`Database`] (optionally
//! consulting materialised view extents for atoms whose relation name is a
//! view).  It plays two roles:
//!
//! 1. the **baseline** in the benchmarks — its cost grows with `|D|`, which
//!    is exactly what bounded plans avoid; and
//! 2. the **oracle** for correctness tests — every bounded plan produced by
//!    `bqr-core` is checked against it on satisfying instances.
//!
//! CQ/UCQ evaluation drives the slot-based homomorphism engine of
//! [`crate::hom`] through its visitor interface: head tuples are projected
//! straight out of the variable slots, so no intermediate name→value maps
//! are materialised.  An [`Evaluator`] owns a [`bqr_data::IndexCache`] and a
//! result budget; repeated evaluations against the same (unmutated)
//! relations reuse the per-atom hash indexes instead of rebuilding them per
//! call.  The free functions ([`eval_cq`] & friends) keep the historical
//! one-shot signatures and simply run a transient `Evaluator`.
//!
//! FO evaluation uses active-domain semantics, which coincides with the
//! standard semantics for the domain-independent (safe-range) queries used
//! throughout the paper.

use crate::atom::Term;
use crate::cq::ConjunctiveQuery;
use crate::error::QueryError;
use crate::fo::{Fo, FoQuery};
use crate::hom::{Assignment, HomSearch};
use crate::planner::PlannerConfig;
use crate::ucq::UnionQuery;
use crate::views::MaterializedViews;
use crate::Result;
use bqr_data::{Database, FetchStats, IndexCache, Relation, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

/// Default cap on the number of homomorphisms enumerated per CQ evaluation;
/// override it with [`Evaluator::with_max_results`].
pub const DEFAULT_MAX_RESULTS: usize = 10_000_000;

/// A query evaluator with cached relation indexes and a configurable result
/// budget.
///
/// The cache is keyed by relation epoch (see [`bqr_data::IndexCache`]), so
/// holding an `Evaluator` across calls is always sound: mutated relations
/// miss the cache and get fresh indexes automatically.
#[derive(Debug, Default)]
pub struct Evaluator {
    cache: IndexCache,
    max_results: Option<usize>,
    planner: PlannerConfig,
}

impl Evaluator {
    /// An evaluator with an empty cache and the default result budget.
    pub fn new() -> Self {
        Evaluator::default()
    }

    /// Replace the per-evaluation cap on enumerated homomorphisms
    /// (default: [`DEFAULT_MAX_RESULTS`]).
    pub fn with_max_results(mut self, max_results: usize) -> Self {
        self.max_results = Some(max_results);
        self
    }

    /// Replace the join-planner configuration (default:
    /// [`crate::planner::JoinStrategy::Auto`]).
    pub fn with_planner(mut self, planner: PlannerConfig) -> Self {
        self.planner = planner;
        self
    }

    /// The configured planner.
    pub fn planner(&self) -> PlannerConfig {
        self.planner
    }

    /// The configured result budget.
    pub fn max_results(&self) -> usize {
        self.max_results.unwrap_or(DEFAULT_MAX_RESULTS)
    }

    /// The underlying index cache (e.g. for hit/miss statistics).
    pub fn cache(&self) -> &IndexCache {
        &self.cache
    }

    /// Evaluate a conjunctive query, returning its answers as a sorted,
    /// duplicate-free list of tuples.
    pub fn eval_cq(
        &self,
        cq: &ConjunctiveQuery,
        db: &Database,
        views: Option<&MaterializedViews>,
    ) -> Result<Vec<Tuple>> {
        let relations = relation_map(cq.relation_names(), db, views)?;
        let search = HomSearch::compile_with(
            cq.atoms(),
            &relations,
            &Assignment::new(),
            &self.cache,
            &self.planner,
        )?;
        let head = resolve_head(cq, &search);
        run_search(&search, &head, self.max_results())
    }

    /// Evaluate a CQ and record the base tuples a scan-based engine touches.
    pub fn eval_cq_counting(
        &self,
        cq: &ConjunctiveQuery,
        db: &Database,
        views: Option<&MaterializedViews>,
        stats: &mut FetchStats,
    ) -> Result<Vec<Tuple>> {
        charge_scans(cq, db, views, stats)?;
        self.eval_cq(cq, db, views)
    }

    /// Evaluate a union of conjunctive queries.
    pub fn eval_ucq(
        &self,
        ucq: &UnionQuery,
        db: &Database,
        views: Option<&MaterializedViews>,
    ) -> Result<Vec<Tuple>> {
        let mut out = BTreeSet::new();
        for d in ucq.disjuncts() {
            out.extend(self.eval_cq(d, db, views)?);
        }
        Ok(out.into_iter().collect())
    }

    /// Evaluate a UCQ, charging scans for every disjunct.
    pub fn eval_ucq_counting(
        &self,
        ucq: &UnionQuery,
        db: &Database,
        views: Option<&MaterializedViews>,
        stats: &mut FetchStats,
    ) -> Result<Vec<Tuple>> {
        for d in ucq.disjuncts() {
            charge_scans(d, db, views, stats)?;
        }
        self.eval_ucq(ucq, db, views)
    }
}

/// A pre-resolved head term: either a constant or a slot of the compiled
/// search, so projection is a flat copy per match with no name lookups.
enum HeadPart {
    Const(Value),
    Slot(u32),
}

/// Resolve the head terms of `cq` against the slot table of its compiled
/// search.
fn resolve_head(cq: &ConjunctiveQuery, search: &HomSearch) -> Vec<HeadPart> {
    cq.head()
        .iter()
        .map(|t| match t {
            Term::Const(c) => HeadPart::Const(c.clone()),
            Term::Var(v) => HeadPart::Slot(
                search
                    .vars()
                    .slot(v)
                    .expect("safety guarantees every head variable is bound"),
            ),
        })
        .collect()
}

/// Enumerate the search's matches and project the head out of the slots.
fn run_search(search: &HomSearch, head: &[HeadPart], max_results: usize) -> Result<Vec<Tuple>> {
    let mut out = BTreeSet::new();
    let mut matches = 0usize;
    let _ = search.try_run(|m| {
        matches += 1;
        if matches > max_results {
            return Err(QueryError::BudgetExceeded("enumerating homomorphisms"));
        }
        out.insert(
            head.iter()
                .map(|p| match p {
                    HeadPart::Const(c) => c.clone(),
                    HeadPart::Slot(s) => m
                        .value(*s)
                        .expect("head slots are bound in every total match"),
                })
                .collect::<Tuple>(),
        );
        Ok(ControlFlow::Continue(()))
    })?;
    Ok(out.into_iter().collect())
}

/// Resolve a relation name against the base instance and the cached views.
fn resolve<'a>(
    name: &str,
    db: &'a Database,
    views: Option<&'a MaterializedViews>,
) -> Result<&'a Relation> {
    if let Some(rel) = db.relation(name) {
        return Ok(rel);
    }
    if let Some(cache) = views {
        if let Some(rel) = cache.extent(name) {
            return Ok(rel);
        }
    }
    Err(QueryError::UnknownRelation(name.to_string()))
}

fn relation_map<'a>(
    names: impl IntoIterator<Item = String>,
    db: &'a Database,
    views: Option<&'a MaterializedViews>,
) -> Result<BTreeMap<String, &'a Relation>> {
    let mut map = BTreeMap::new();
    for name in names {
        let rel = resolve(&name, db, views)?;
        map.insert(name, rel);
    }
    Ok(map)
}

/// Evaluate a conjunctive query with a transient [`Evaluator`], returning
/// its answers as a sorted, duplicate-free list of tuples.
pub fn eval_cq(
    cq: &ConjunctiveQuery,
    db: &Database,
    views: Option<&MaterializedViews>,
) -> Result<Vec<Tuple>> {
    Evaluator::new().eval_cq(cq, db, views)
}

/// Evaluate a CQ and record the base tuples a scan-based engine touches
/// (every relation referenced by an atom is charged once per atom).
pub fn eval_cq_counting(
    cq: &ConjunctiveQuery,
    db: &Database,
    views: Option<&MaterializedViews>,
    stats: &mut FetchStats,
) -> Result<Vec<Tuple>> {
    Evaluator::new().eval_cq_counting(cq, db, views, stats)
}

/// Evaluate a union of conjunctive queries.
pub fn eval_ucq(
    ucq: &UnionQuery,
    db: &Database,
    views: Option<&MaterializedViews>,
) -> Result<Vec<Tuple>> {
    Evaluator::new().eval_ucq(ucq, db, views)
}

/// Evaluate a UCQ, charging scans for every disjunct.
pub fn eval_ucq_counting(
    ucq: &UnionQuery,
    db: &Database,
    views: Option<&MaterializedViews>,
    stats: &mut FetchStats,
) -> Result<Vec<Tuple>> {
    Evaluator::new().eval_ucq_counting(ucq, db, views, stats)
}

fn charge_scans(
    cq: &ConjunctiveQuery,
    db: &Database,
    views: Option<&MaterializedViews>,
    stats: &mut FetchStats,
) -> Result<()> {
    for atom in cq.atoms() {
        let rel = resolve(atom.relation(), db, views)?;
        if db.relation(atom.relation()).is_some() {
            stats.record_scan(rel.len());
        } else {
            stats.record_view_read(rel.len());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// First-order evaluation (active-domain semantics)
// ---------------------------------------------------------------------------

/// An intermediate FO result: a relation over named variables.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VarRelation {
    vars: Vec<String>,
    rows: BTreeSet<Vec<Value>>,
}

impl VarRelation {
    fn truth(value: bool) -> Self {
        let mut rows = BTreeSet::new();
        if value {
            rows.insert(Vec::new());
        }
        VarRelation {
            vars: Vec::new(),
            rows,
        }
    }

    fn position(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }
}

/// Evaluate an FO query under active-domain semantics.  The active domain is
/// the set of values occurring in `db`, the view extents, and the query
/// itself.
pub fn eval_fo(
    query: &FoQuery,
    db: &Database,
    views: Option<&MaterializedViews>,
) -> Result<Vec<Tuple>> {
    let mut domain: BTreeSet<Value> = db.active_domain();
    if let Some(cache) = views {
        for name in cache.names().map(str::to_string).collect::<Vec<_>>() {
            if let Some(rel) = cache.extent(&name) {
                for t in rel.iter() {
                    for v in t.iter() {
                        domain.insert(v.clone());
                    }
                }
            }
        }
    }
    domain.extend(query.body().constants());
    for t in query.head() {
        if let Term::Const(c) = t {
            domain.insert(c.clone());
        }
    }
    let domain: Vec<Value> = domain.into_iter().collect();
    let rel = eval_formula(query.body(), db, views, &domain)?;
    let mut out = BTreeSet::new();
    for row in &rel.rows {
        let tuple: Tuple = query
            .head()
            .iter()
            .map(|t| match t {
                Term::Const(c) => c.clone(),
                Term::Var(v) => {
                    let pos = rel
                        .position(v)
                        .expect("head variables are free in the body");
                    row[pos].clone()
                }
            })
            .collect();
        out.insert(tuple);
    }
    Ok(out.into_iter().collect())
}

/// Evaluate an FO query, charging a scan of every base relation mentioned in
/// the formula (once per atom occurrence) — the cost model of the naive
/// baseline.
pub fn eval_fo_counting(
    query: &FoQuery,
    db: &Database,
    views: Option<&MaterializedViews>,
    stats: &mut FetchStats,
) -> Result<Vec<Tuple>> {
    fn charge(
        f: &Fo,
        db: &Database,
        views: Option<&MaterializedViews>,
        stats: &mut FetchStats,
    ) -> Result<()> {
        match f {
            Fo::Atom(a) => {
                let rel = resolve(a.relation(), db, views)?;
                if db.relation(a.relation()).is_some() {
                    stats.record_scan(rel.len());
                } else {
                    stats.record_view_read(rel.len());
                }
                Ok(())
            }
            Fo::Eq(_, _) => Ok(()),
            Fo::And(a, b) | Fo::Or(a, b) => {
                charge(a, db, views, stats)?;
                charge(b, db, views, stats)
            }
            Fo::Not(a) | Fo::Exists(_, a) | Fo::Forall(_, a) => charge(a, db, views, stats),
        }
    }
    charge(query.body(), db, views, stats)?;
    eval_fo(query, db, views)
}

fn eval_formula(
    f: &Fo,
    db: &Database,
    views: Option<&MaterializedViews>,
    domain: &[Value],
) -> Result<VarRelation> {
    match f {
        Fo::Atom(atom) => {
            let rel = resolve(atom.relation(), db, views)?;
            if rel.schema().arity() != atom.arity() {
                return Err(QueryError::AtomArity {
                    relation: atom.relation().to_string(),
                    expected: rel.schema().arity(),
                    actual: atom.arity(),
                });
            }
            let vars: Vec<String> = atom.variables().into_iter().collect();
            let mut rows = BTreeSet::new();
            'tuples: for t in rel.iter() {
                let mut binding: BTreeMap<&str, Value> = BTreeMap::new();
                for (pos, term) in atom.args().iter().enumerate() {
                    match term {
                        Term::Const(c) => {
                            if &t[pos] != c {
                                continue 'tuples;
                            }
                        }
                        Term::Var(v) => match binding.get(v.as_str()) {
                            Some(existing) if existing != &t[pos] => continue 'tuples,
                            _ => {
                                binding.insert(v, t[pos].clone());
                            }
                        },
                    }
                }
                rows.insert(vars.iter().map(|v| binding[v.as_str()].clone()).collect());
            }
            Ok(VarRelation { vars, rows })
        }
        Fo::Eq(t1, t2) => match (t1, t2) {
            (Term::Const(a), Term::Const(b)) => Ok(VarRelation::truth(a == b)),
            (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => {
                let mut rows = BTreeSet::new();
                rows.insert(vec![c.clone()]);
                Ok(VarRelation {
                    vars: vec![v.clone()],
                    rows,
                })
            }
            (Term::Var(v1), Term::Var(v2)) => {
                if v1 == v2 {
                    let rows = domain.iter().map(|d| vec![d.clone()]).collect();
                    return Ok(VarRelation {
                        vars: vec![v1.clone()],
                        rows,
                    });
                }
                let vars = vec![v1.clone(), v2.clone()];
                let rows = domain.iter().map(|d| vec![d.clone(), d.clone()]).collect();
                Ok(VarRelation { vars, rows })
            }
        },
        Fo::And(a, b) => {
            let left = eval_formula(a, db, views, domain)?;
            let right = eval_formula(b, db, views, domain)?;
            Ok(join(&left, &right))
        }
        Fo::Or(a, b) => {
            let left = eval_formula(a, db, views, domain)?;
            let right = eval_formula(b, db, views, domain)?;
            let all_vars: Vec<String> = {
                let mut s: BTreeSet<String> = left.vars.iter().cloned().collect();
                s.extend(right.vars.iter().cloned());
                s.into_iter().collect()
            };
            let left = pad(&left, &all_vars, domain);
            let right = pad(&right, &all_vars, domain);
            let mut rows = left.rows;
            rows.extend(right.rows);
            Ok(VarRelation {
                vars: all_vars,
                rows,
            })
        }
        Fo::Not(a) => {
            let inner = eval_formula(a, db, views, domain)?;
            Ok(complement(&inner, domain))
        }
        Fo::Exists(vars, a) => {
            let inner = eval_formula(a, db, views, domain)?;
            Ok(project_out(&inner, vars))
        }
        Fo::Forall(vars, a) => {
            // ∀x φ ≡ ¬∃x ¬φ
            let inner = eval_formula(a, db, views, domain)?;
            let negated = complement(&inner, domain);
            let exists = project_out(&negated, vars);
            Ok(complement(&exists, domain))
        }
    }
}

/// Natural join of two variable relations.
fn join(left: &VarRelation, right: &VarRelation) -> VarRelation {
    let shared: Vec<(usize, usize)> = left
        .vars
        .iter()
        .enumerate()
        .filter_map(|(i, v)| right.position(v).map(|j| (i, j)))
        .collect();
    let right_extra: Vec<usize> = (0..right.vars.len())
        .filter(|j| !left.vars.contains(&right.vars[*j]))
        .collect();
    let mut vars = left.vars.clone();
    vars.extend(right_extra.iter().map(|&j| right.vars[j].clone()));

    // Hash the right side on the shared columns.
    let mut index: BTreeMap<Vec<Value>, Vec<&Vec<Value>>> = BTreeMap::new();
    for row in &right.rows {
        let key: Vec<Value> = shared.iter().map(|&(_, j)| row[j].clone()).collect();
        index.entry(key).or_default().push(row);
    }
    let mut rows = BTreeSet::new();
    for lrow in &left.rows {
        let key: Vec<Value> = shared.iter().map(|&(i, _)| lrow[i].clone()).collect();
        if let Some(matches) = index.get(&key) {
            for rrow in matches {
                let mut row = lrow.clone();
                row.extend(right_extra.iter().map(|&j| rrow[j].clone()));
                rows.insert(row);
            }
        }
    }
    VarRelation { vars, rows }
}

/// Pad a relation to a larger variable set by crossing with the domain.
fn pad(rel: &VarRelation, vars: &[String], domain: &[Value]) -> VarRelation {
    let missing: Vec<&String> = vars.iter().filter(|v| !rel.vars.contains(v)).collect();
    if missing.is_empty() {
        // Re-order columns to `vars`.
        let position = |v: &String| rel.position(v).expect("`rel` misses no variable");
        let positions: Vec<usize> = vars.iter().map(position).collect();
        let rows = rel
            .rows
            .iter()
            .map(|r| positions.iter().map(|&p| r[p].clone()).collect())
            .collect();
        return VarRelation {
            vars: vars.to_vec(),
            rows,
        };
    }
    let mut rows = BTreeSet::new();
    for row in &rel.rows {
        let mut stack: Vec<Vec<Value>> = vec![Vec::new()];
        for _ in 0..missing.len() {
            let mut next = Vec::new();
            for partial in &stack {
                for d in domain {
                    let mut p = partial.clone();
                    p.push(d.clone());
                    next.push(p);
                }
            }
            stack = next;
        }
        for extension in stack {
            let full: Vec<Value> = vars
                .iter()
                .map(|v| match rel.position(v) {
                    Some(p) => row[p].clone(),
                    None => {
                        let k = missing.iter().position(|m| *m == v);
                        extension[k.expect("`v` is in `missing`")].clone()
                    }
                })
                .collect();
            rows.insert(full);
        }
    }
    VarRelation {
        vars: vars.to_vec(),
        rows,
    }
}

/// Complement of a relation with respect to `domain^k`.
fn complement(rel: &VarRelation, domain: &[Value]) -> VarRelation {
    let mut rows = BTreeSet::new();
    let k = rel.vars.len();
    let mut stack: Vec<Vec<Value>> = vec![Vec::new()];
    for _ in 0..k {
        let mut next = Vec::new();
        for partial in &stack {
            for d in domain {
                let mut p = partial.clone();
                p.push(d.clone());
                next.push(p);
            }
        }
        stack = next;
    }
    for candidate in stack {
        if !rel.rows.contains(&candidate) {
            rows.insert(candidate);
        }
    }
    VarRelation {
        vars: rel.vars.clone(),
        rows,
    }
}

/// Existentially project variables out of a relation.
fn project_out(rel: &VarRelation, vars: &[String]) -> VarRelation {
    let keep: Vec<usize> = (0..rel.vars.len())
        .filter(|&i| !vars.contains(&rel.vars[i]))
        .collect();
    let new_vars: Vec<String> = keep.iter().map(|&i| rel.vars[i].clone()).collect();
    let rows = rel
        .rows
        .iter()
        .map(|r| keep.iter().map(|&i| r[i].clone()).collect())
        .collect();
    VarRelation {
        vars: new_vars,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{movie_instance, movie_schema, q0, v1};
    use crate::views::ViewSet;
    use bqr_data::tuple;

    #[test]
    fn q0_on_example_instance() {
        let db = movie_instance();
        // Q0: Universal/2014 movies liked by NASA people and rated 5.
        // Movie 10 (Lucy) is liked by Ann (NASA) and rated 5; movie 11 is
        // rated 3; movie 12 is not Universal/2014.
        let answers = eval_cq(&q0(), &db, None).unwrap();
        assert_eq!(answers, vec![tuple![10]]);
    }

    #[test]
    fn view_v1_on_example_instance() {
        let db = movie_instance();
        let answers = eval_cq(&v1(), &db, None).unwrap();
        assert_eq!(answers, vec![tuple![10], tuple![12]]);
    }

    #[test]
    fn query_over_views_resolves_extents() {
        let db = movie_instance();
        let mut views = ViewSet::empty();
        views.add_cq("V1", v1()).unwrap();
        let cache = views.materialize(&db).unwrap();
        // Q_ξ(mid) :- movie(mid, ym, "Universal", "2014"), V1(mid), rating(mid, 5)
        let q = ConjunctiveQuery::new(
            vec![Term::var("mid")],
            vec![
                crate::atom::Atom::new(
                    "movie",
                    vec![
                        Term::var("mid"),
                        Term::var("ym"),
                        Term::cnst("Universal"),
                        Term::cnst("2014"),
                    ],
                ),
                crate::atom::Atom::new("V1", vec![Term::var("mid")]),
                crate::atom::Atom::new("rating", vec![Term::var("mid"), Term::cnst(5)]),
            ],
        )
        .unwrap();
        let answers = eval_cq(&q, &db, Some(&cache)).unwrap();
        assert_eq!(answers, vec![tuple![10]]);
        // Without the cache the view name is unresolvable.
        assert!(eval_cq(&q, &db, None).is_err());
    }

    #[test]
    fn counting_variant_charges_scans_and_view_reads() {
        let db = movie_instance();
        let mut views = ViewSet::empty();
        views.add_cq("V1", v1()).unwrap();
        let cache = views.materialize(&db).unwrap();
        let q = ConjunctiveQuery::new(
            vec![Term::var("mid")],
            vec![
                crate::atom::Atom::new(
                    "movie",
                    vec![
                        Term::var("mid"),
                        Term::var("ym"),
                        Term::cnst("Universal"),
                        Term::cnst("2014"),
                    ],
                ),
                crate::atom::Atom::new("V1", vec![Term::var("mid")]),
            ],
        )
        .unwrap();
        let mut stats = FetchStats::new();
        let _ = eval_cq_counting(&q, &db, Some(&cache), &mut stats).unwrap();
        assert_eq!(stats.scanned_tuples, db.relation("movie").unwrap().len());
        assert_eq!(stats.view_tuples, 2);
        assert_eq!(stats.fetched_tuples, 0);
    }

    #[test]
    fn ucq_unions_disjunct_answers() {
        let db = movie_instance();
        let d1 = ConjunctiveQuery::new(
            vec![Term::var("m")],
            vec![crate::atom::Atom::new(
                "rating",
                vec![Term::var("m"), Term::cnst(5)],
            )],
        )
        .unwrap();
        let d2 = ConjunctiveQuery::new(
            vec![Term::var("m")],
            vec![crate::atom::Atom::new(
                "rating",
                vec![Term::var("m"), Term::cnst(3)],
            )],
        )
        .unwrap();
        let ucq = UnionQuery::new(vec![d1, d2]).unwrap();
        let answers = eval_ucq(&ucq, &db, None).unwrap();
        assert_eq!(answers, vec![tuple![10], tuple![11], tuple![12]]);
        let mut stats = FetchStats::new();
        let counted = eval_ucq_counting(&ucq, &db, None, &mut stats).unwrap();
        assert_eq!(counted.len(), 3);
        assert_eq!(
            stats.scanned_tuples,
            2 * db.relation("rating").unwrap().len()
        );
    }

    #[test]
    fn fo_evaluation_matches_cq_on_positive_queries() {
        let db = movie_instance();
        let fo = FoQuery::from_cq(&q0());
        let answers = eval_fo(&fo, &db, None).unwrap();
        assert_eq!(answers, eval_cq(&q0(), &db, None).unwrap());
    }

    #[test]
    fn fo_negation_finds_unliked_movies() {
        let db = movie_instance();
        // movies rated 5 that nobody likes: movie 12 is liked (by Bob), movie
        // 10 is liked (by Ann) — so with rating 5 and unliked there are none;
        // with rating 3: movie 11 is liked by Cat, so also none.  Instead ask
        // for movies *not* rated 5: that is movie 11.
        let body = Fo::and(
            Fo::exists(
                vec!["n".into(), "s".into(), "r".into()],
                Fo::Atom(crate::atom::Atom::new(
                    "movie",
                    vec![
                        Term::var("m"),
                        Term::var("n"),
                        Term::var("s"),
                        Term::var("r"),
                    ],
                )),
            ),
            Fo::not(Fo::Atom(crate::atom::Atom::new(
                "rating",
                vec![Term::var("m"), Term::cnst(5)],
            ))),
        );
        let q = FoQuery::new(vec![Term::var("m")], body).unwrap();
        let answers = eval_fo(&q, &db, None).unwrap();
        assert_eq!(answers, vec![tuple![11]]);
    }

    #[test]
    fn fo_universal_quantification() {
        let db = movie_instance();
        // Boolean: every movie listed in `rating` has rank 5 or rank 3.
        let body = Fo::forall(
            vec!["m".into(), "r".into()],
            Fo::or(
                Fo::not(Fo::Atom(crate::atom::Atom::new(
                    "rating",
                    vec![Term::var("m"), Term::var("r")],
                ))),
                Fo::or(
                    Fo::Eq(Term::var("r"), Term::cnst(5)),
                    Fo::Eq(Term::var("r"), Term::cnst(3)),
                ),
            ),
        );
        let q = FoQuery::boolean(body);
        let answers = eval_fo(&q, &db, None).unwrap();
        assert_eq!(
            answers.len(),
            1,
            "the sentence holds on the example instance"
        );

        // Tighten to "every rating is 5": fails because movie 11 is rated 3.
        let body = Fo::forall(
            vec!["m".into(), "r".into()],
            Fo::or(
                Fo::not(Fo::Atom(crate::atom::Atom::new(
                    "rating",
                    vec![Term::var("m"), Term::var("r")],
                ))),
                Fo::Eq(Term::var("r"), Term::cnst(5)),
            ),
        );
        let q = FoQuery::boolean(body);
        assert!(eval_fo(&q, &db, None).unwrap().is_empty());
    }

    #[test]
    fn fo_equality_and_boolean_edge_cases() {
        let db = movie_instance();
        let q = FoQuery::boolean(Fo::Eq(Term::cnst(1), Term::cnst(1)));
        assert_eq!(eval_fo(&q, &db, None).unwrap().len(), 1);
        let q = FoQuery::boolean(Fo::Eq(Term::cnst(1), Term::cnst(2)));
        assert!(eval_fo(&q, &db, None).unwrap().is_empty());
        // Q(x) = x = "NASA" — one answer, by active-domain semantics.
        let q = FoQuery::new(
            vec![Term::var("x")],
            Fo::Eq(Term::var("x"), Term::cnst("NASA")),
        )
        .unwrap();
        assert_eq!(eval_fo(&q, &db, None).unwrap(), vec![tuple!["NASA"]]);
    }

    #[test]
    fn fo_counting_charges_scans() {
        let db = movie_instance();
        let fo = FoQuery::from_cq(&q0());
        let mut stats = FetchStats::new();
        let _ = eval_fo_counting(&fo, &db, None, &mut stats).unwrap();
        assert!(stats.scanned_tuples > 0);
        assert_eq!(stats.fetched_tuples, 0);
    }

    #[test]
    fn evaluator_reuses_cached_indexes_across_calls() {
        let db = movie_instance();
        let evaluator = Evaluator::new();
        let first = evaluator.eval_cq(&q0(), &db, None).unwrap();
        let misses = evaluator.cache().misses();
        for _ in 0..4 {
            assert_eq!(evaluator.eval_cq(&q0(), &db, None).unwrap(), first);
        }
        assert_eq!(
            evaluator.cache().misses(),
            misses,
            "repeat evaluations hit the cache"
        );
        assert!(evaluator.cache().hits() > 0);
        assert_eq!(first, vec![tuple![10]]);
    }

    #[test]
    fn max_results_budget_is_enforced() {
        let db = movie_instance();
        // rating has 3 tuples; a budget of 2 must abort the enumeration.
        let q = ConjunctiveQuery::new(
            vec![Term::var("m")],
            vec![crate::atom::Atom::new(
                "rating",
                vec![Term::var("m"), Term::var("r")],
            )],
        )
        .unwrap();
        let strict = Evaluator::new().with_max_results(2);
        assert!(matches!(
            strict.eval_cq(&q, &db, None),
            Err(QueryError::BudgetExceeded(_))
        ));
        let ample = Evaluator::new().with_max_results(3);
        assert_eq!(ample.eval_cq(&q, &db, None).unwrap().len(), 3);
        assert_eq!(ample.max_results(), 3);
        assert_eq!(Evaluator::new().max_results(), DEFAULT_MAX_RESULTS);
    }

    #[test]
    fn empty_database_yields_empty_answers() {
        let db = Database::empty(movie_schema());
        assert!(eval_cq(&q0(), &db, None).unwrap().is_empty());
        assert!(eval_fo(&FoQuery::from_cq(&q0()), &db, None)
            .unwrap()
            .is_empty());
    }
}
