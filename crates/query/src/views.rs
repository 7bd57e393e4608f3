//! Views: named, `L`-definable queries whose extents are cached.
//!
//! A [`ViewSet`] `V` plays the role of the paper's set of views: each view is
//! a query over the base schema (in CQ, UCQ or FO), and bounded plans may read
//! the cached extent `V(D)` without incurring base-data I/O.
//! [`MaterializedViews`] holds those extents for one instance `D`.

use crate::cq::ConjunctiveQuery;
use crate::error::QueryError;
use crate::fo::{FoQuery, QueryLanguage};
use crate::ucq::UnionQuery;
use crate::Result;
use bqr_data::{Database, DatabaseSchema, Relation, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The definition of one view.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewDefinition {
    /// A conjunctive-query view.
    Cq(ConjunctiveQuery),
    /// A union-of-conjunctive-queries view.
    Ucq(UnionQuery),
    /// A first-order view.
    Fo(FoQuery),
}

impl ViewDefinition {
    /// Output arity of the view.
    pub fn arity(&self) -> usize {
        match self {
            ViewDefinition::Cq(q) => q.arity(),
            ViewDefinition::Ucq(q) => q.arity(),
            ViewDefinition::Fo(q) => q.arity(),
        }
    }

    /// The language the view is defined in.
    pub fn language(&self) -> QueryLanguage {
        match self {
            ViewDefinition::Cq(_) => QueryLanguage::Cq,
            ViewDefinition::Ucq(_) => QueryLanguage::Ucq,
            ViewDefinition::Fo(q) => q.language(),
        }
    }

    /// Base relations mentioned by the definition.
    pub fn relation_names(&self) -> BTreeSet<String> {
        match self {
            ViewDefinition::Cq(q) => q.relation_names(),
            ViewDefinition::Ucq(q) => q.relation_names(),
            ViewDefinition::Fo(q) => q.body().relation_names(),
        }
    }

    /// Constants mentioned by the definition (head or body).
    pub fn constants(&self) -> BTreeSet<Value> {
        match self {
            ViewDefinition::Cq(q) => q.constants(),
            ViewDefinition::Ucq(q) => q.constants(),
            ViewDefinition::Fo(q) => {
                let mut constants = q.body().constants();
                constants.extend(q.head().iter().filter_map(|t| t.as_const().cloned()));
                constants
            }
        }
    }

    /// The definition as a CQ, if it is one.
    pub fn as_cq(&self) -> Option<&ConjunctiveQuery> {
        match self {
            ViewDefinition::Cq(q) => Some(q),
            _ => None,
        }
    }
}

/// A set of named views over one database schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ViewSet {
    views: BTreeMap<String, ViewDefinition>,
}

impl ViewSet {
    /// The empty view set (`V = ∅`).
    pub fn empty() -> Self {
        ViewSet::default()
    }

    /// Add a CQ view.
    pub fn add_cq(&mut self, name: impl Into<String>, def: ConjunctiveQuery) -> Result<()> {
        self.add(name, ViewDefinition::Cq(def))
    }

    /// Add a UCQ view.
    pub fn add_ucq(&mut self, name: impl Into<String>, def: UnionQuery) -> Result<()> {
        self.add(name, ViewDefinition::Ucq(def))
    }

    /// Add an FO view.
    pub fn add_fo(&mut self, name: impl Into<String>, def: FoQuery) -> Result<()> {
        self.add(name, ViewDefinition::Fo(def))
    }

    /// Add a view of any definition kind.
    pub fn add(&mut self, name: impl Into<String>, def: ViewDefinition) -> Result<()> {
        let name = name.into();
        if self.views.contains_key(&name) {
            return Err(QueryError::UnsupportedFragment(format!(
                "view `{name}` is defined twice"
            )));
        }
        self.views.insert(name, def);
        Ok(())
    }

    /// Look up a view definition.
    pub fn get(&self, name: &str) -> Option<&ViewDefinition> {
        self.views.get(name)
    }

    /// True if `name` is a view in this set.
    pub fn contains(&self, name: &str) -> bool {
        self.views.contains_key(name)
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True if there are no views.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// View names in deterministic order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.views.keys().map(String::as_str)
    }

    /// Iterate over `(name, definition)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ViewDefinition)> {
        self.views.iter().map(|(n, d)| (n.as_str(), d))
    }

    /// Every constant occurring in some view definition — the constants a
    /// query's own may *not* be abstracted over when its analysis is shared
    /// between queries (a query atom `customer(c, n, 'premium', r)` matches
    /// `V_premium` because of that constant, not despite it).
    pub fn constants(&self) -> BTreeSet<Value> {
        self.views
            .values()
            .flat_map(ViewDefinition::constants)
            .collect()
    }

    /// Map of view name → arity, as needed by query validation.
    pub fn arities(&self) -> BTreeMap<String, usize> {
        self.views
            .iter()
            .map(|(n, d)| (n.clone(), d.arity()))
            .collect()
    }

    /// The largest language any view is defined in (`CQ ⊆ UCQ ⊆ ∃FO+ ⊆ FO`).
    pub fn language(&self) -> QueryLanguage {
        self.views
            .values()
            .map(ViewDefinition::language)
            .max()
            .unwrap_or(QueryLanguage::Cq)
    }

    /// Materialise every view over `db`, one extent per view: a CQ or UCQ
    /// view through the seedless delta plans of its rules — the engine that
    /// maintains the extent afterwards ([`crate::maintain`]) — and an FO view
    /// through the naive evaluator.  A rule over a relation `db` lacks, or
    /// at another arity, is a typed error.
    pub fn materialize(&self, db: &Database) -> Result<MaterializedViews> {
        let mut out = MaterializedViews::empty();
        for (name, def) in &self.views {
            out.insert(name, crate::maintain::rematerialize(name, def, db, None)?);
        }
        Ok(out)
    }

    /// Unfold every view atom of `cq` by splicing in the (CQ) view
    /// definitions, renaming their existential variables apart.  Fails if a
    /// referenced view is not CQ-definable (use the FO unfolding instead).
    pub fn unfold_cq(&self, cq: &ConjunctiveQuery) -> Result<ConjunctiveQuery> {
        use crate::atom::Term;
        let mut atoms = Vec::new();
        let mut fresh = 0usize;
        // Bindings `caller variable = view-head constant` accumulated across
        // all unfoldings; applied to the whole query at the end so that every
        // occurrence of the variable (head, earlier and later atoms) agrees.
        let mut const_bindings: BTreeMap<String, Term> = BTreeMap::new();
        for atom in cq.atoms() {
            match self.views.get(atom.relation()) {
                None => atoms.push(atom.clone()),
                Some(ViewDefinition::Cq(def)) => {
                    if def.arity() != atom.arity() {
                        return Err(QueryError::AtomArity {
                            relation: atom.relation().to_string(),
                            expected: def.arity(),
                            actual: atom.arity(),
                        });
                    }
                    let def = def.rename_apart(&format!("__v{fresh}"));
                    fresh += 1;
                    // Map the view's head terms to the atom's argument terms.
                    let mut map = BTreeMap::new();
                    for (head_term, arg) in def.head().iter().zip(atom.args()) {
                        match head_term {
                            Term::Var(v) => {
                                map.insert(v.clone(), arg.clone());
                            }
                            Term::Const(c) => match arg {
                                Term::Var(av) => match const_bindings.get(av) {
                                    Some(Term::Const(prev)) if prev != c => {
                                        return Err(QueryError::UnsupportedFragment(
                                            "view unfolding equates two distinct constants"
                                                .to_string(),
                                        ))
                                    }
                                    _ => {
                                        const_bindings.insert(av.clone(), Term::Const(c.clone()));
                                    }
                                },
                                Term::Const(ac) if ac == c => {}
                                Term::Const(_) => {
                                    return Err(QueryError::UnsupportedFragment(
                                        "view unfolding equates two distinct constants".to_string(),
                                    ))
                                }
                            },
                        }
                    }
                    let body = def.substitute(&map);
                    atoms.extend(body.atoms().iter().cloned());
                }
                Some(_) => {
                    return Err(QueryError::UnsupportedFragment(format!(
                        "view `{}` is not CQ-definable; CQ unfolding is not possible",
                        atom.relation()
                    )))
                }
            }
        }
        let unfolded = ConjunctiveQuery::new(cq.head().to_vec(), atoms)?;
        if const_bindings.is_empty() {
            Ok(unfolded)
        } else {
            Ok(unfolded.substitute(&const_bindings))
        }
    }

    /// Validate every view definition against the base schema (views may not
    /// reference other views).
    pub fn validate(&self, schema: &DatabaseSchema) -> Result<()> {
        for (name, def) in &self.views {
            for rel in def.relation_names() {
                if self.views.contains_key(&rel) {
                    return Err(QueryError::UnsupportedFragment(format!(
                        "view `{name}` references view `{rel}`; views must be defined over base relations"
                    )));
                }
                if schema.relation(&rel).is_none() {
                    return Err(QueryError::UnknownRelation(rel));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for ViewSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, def) in &self.views {
            match def {
                ViewDefinition::Cq(q) => writeln!(f, "{name} := {q}")?,
                ViewDefinition::Ucq(q) => writeln!(f, "{name} := {q}")?,
                ViewDefinition::Fo(q) => writeln!(f, "{name} := {q}")?,
            }
        }
        Ok(())
    }
}

/// Materialised view extents for one database instance: one relation per
/// view, which is all maintenance resumes from — a UCQ view's extent is the
/// union of what its disjuncts derive, and [`crate::maintain`] re-derives a
/// removal candidate through every disjunct.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaterializedViews {
    extents: BTreeMap<String, Relation>,
}

impl MaterializedViews {
    /// An empty cache (no views).
    pub fn empty() -> Self {
        MaterializedViews::default()
    }

    /// The extent of one view.
    pub fn extent(&self, name: &str) -> Option<&Relation> {
        self.extents.get(name)
    }

    /// Total number of cached tuples (`Σ |V(D)|`).
    pub fn total_tuples(&self) -> usize {
        self.extents.values().map(Relation::len).sum()
    }

    /// Names of materialised views.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.extents.keys().map(String::as_str)
    }

    /// Insert or replace an extent.
    pub fn insert(&mut self, name: impl Into<String>, relation: Relation) {
        self.extents.insert(name.into(), relation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{movie_instance, movie_schema, q0, v1};
    use bqr_data::tuple;

    #[test]
    fn view_set_basic_operations() {
        let mut views = ViewSet::empty();
        assert!(views.is_empty());
        views.add_cq("V1", v1()).unwrap();
        assert!(views.contains("V1"));
        assert!(!views.contains("V2"));
        assert_eq!(views.len(), 1);
        assert_eq!(views.get("V1").unwrap().arity(), 1);
        assert_eq!(views.arities().get("V1"), Some(&1));
        assert_eq!(views.language(), QueryLanguage::Cq);
        assert!(views.add_cq("V1", v1()).is_err(), "duplicate view rejected");
        assert!(views.to_string().contains("V1 := "));
        assert_eq!(views.names().collect::<Vec<_>>(), vec!["V1"]);
    }

    #[test]
    fn validate_checks_base_relations_only() {
        let mut views = ViewSet::empty();
        views.add_cq("V1", v1()).unwrap();
        assert!(views.validate(&movie_schema()).is_ok());

        // A view over an unknown relation is rejected.
        let mut bad = ViewSet::empty();
        bad.add_cq(
            "V",
            ConjunctiveQuery::new(
                vec![crate::atom::Term::var("x")],
                vec![crate::atom::Atom::new(
                    "nope",
                    vec![crate::atom::Term::var("x")],
                )],
            )
            .unwrap(),
        )
        .unwrap();
        assert!(bad.validate(&movie_schema()).is_err());

        // A view over another view is rejected.
        let mut nested = ViewSet::empty();
        nested.add_cq("V1", v1()).unwrap();
        nested
            .add_cq(
                "V2",
                ConjunctiveQuery::new(
                    vec![crate::atom::Term::var("x")],
                    vec![crate::atom::Atom::new(
                        "V1",
                        vec![crate::atom::Term::var("x")],
                    )],
                )
                .unwrap(),
            )
            .unwrap();
        assert!(nested.validate(&movie_schema()).is_err());
    }

    #[test]
    fn materialize_v1_over_example_instance() {
        let mut views = ViewSet::empty();
        views.add_cq("V1", v1()).unwrap();
        let db = movie_instance();
        let cache = views.materialize(&db).unwrap();
        let ext = cache.extent("V1").unwrap();
        // NASA people (1, 2) like movies 10 and 12; both exist in `movie`.
        assert!(ext.contains(&tuple![10]));
        assert!(ext.contains(&tuple![12]));
        assert_eq!(ext.len(), 2);
        assert_eq!(cache.total_tuples(), 2);
        assert_eq!(cache.names().collect::<Vec<_>>(), vec!["V1"]);
        assert!(cache.extent("V9").is_none());
    }

    #[test]
    fn unfold_cq_splices_view_bodies() {
        let mut views = ViewSet::empty();
        views.add_cq("V1", v1()).unwrap();
        // Q_ξ of Example 2.3: movie(mid, ym, "Universal", "2014") ∧ V1(mid) ∧ rating(mid, 5).
        let q = ConjunctiveQuery::new(
            vec![crate::atom::Term::var("mid")],
            vec![
                crate::atom::Atom::new(
                    "movie",
                    vec![
                        crate::atom::Term::var("mid"),
                        crate::atom::Term::var("ym"),
                        crate::atom::Term::cnst("Universal"),
                        crate::atom::Term::cnst("2014"),
                    ],
                ),
                crate::atom::Atom::new("V1", vec![crate::atom::Term::var("mid")]),
                crate::atom::Atom::new(
                    "rating",
                    vec![crate::atom::Term::var("mid"), crate::atom::Term::cnst(5)],
                ),
            ],
        )
        .unwrap();
        let unfolded = views.unfold_cq(&q).unwrap();
        // The unfolded query mentions only base relations.
        assert!(!unfolded.relation_names().contains("V1"));
        assert!(unfolded.relation_names().contains("person"));
        assert_eq!(unfolded.atoms().len(), 2 + v1().atoms().len());
        // And it shares the original's answer variable.
        assert_eq!(unfolded.head(), q.head());
        // Sanity: the unfolded query is equivalent to Q0 (same atoms modulo
        // the duplicated `movie` atom); checked properly in containment tests.
        assert!(unfolded.relation_names().contains("movie"));
        let _ = q0();
    }

    #[test]
    fn unfold_missing_view_is_identity() {
        let views = ViewSet::empty();
        let q = q0();
        assert_eq!(views.unfold_cq(&q).unwrap(), q);
    }

    #[test]
    fn unfold_rejects_non_cq_views() {
        let mut views = ViewSet::empty();
        views.add_ucq("U", UnionQuery::single(v1())).unwrap();
        let q = ConjunctiveQuery::new(
            vec![crate::atom::Term::var("x")],
            vec![crate::atom::Atom::new(
                "U",
                vec![crate::atom::Term::var("x")],
            )],
        )
        .unwrap();
        assert!(views.unfold_cq(&q).is_err());
    }

    #[test]
    fn materialized_views_insert() {
        let mut cache = MaterializedViews::empty();
        assert_eq!(cache.total_tuples(), 0);
        let schema = bqr_data::RelationSchema::new("V", &["c0"]).unwrap();
        let rel = Relation::from_tuples(schema, vec![tuple![1], tuple![2]]).unwrap();
        cache.insert("V", rel);
        assert_eq!(cache.total_tuples(), 2);
        assert!(cache.extent("V").is_some());
    }
}
