//! Access schemas: cardinality constraints `R(X → Y, N)` with associated
//! indices (Section 2 of the paper).
//!
//! An instance `D` satisfies `R(X → Y, N)` if for every `X`-value `ā`
//! occurring in the instance of `R`, the number of distinct `Y`-projections
//! of tuples with that `X`-value is at most `N`, and there is an index that
//! returns `D_{R:XY}(X = ā)` in `O(N)` time.  The index half lives in
//! [`crate::index`]; this module holds the declarative half.

use crate::database::Database;
use crate::error::DataError;
use crate::schema::DatabaseSchema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A single access constraint `R(X → Y, N)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessConstraint {
    relation: String,
    x: Vec<String>,
    y: Vec<String>,
    n: usize,
}

impl AccessConstraint {
    /// Create a constraint `relation(x → y, n)`.
    ///
    /// `x` may be empty (the constraint then bounds the whole relation's
    /// `Y`-projection, as in `R(∅ → Y, N)`); `y` must not be empty.
    pub fn new(relation: impl Into<String>, x: &[&str], y: &[&str], n: usize) -> Result<Self> {
        if y.is_empty() {
            return Err(DataError::InvalidConstraint(
                "the Y attribute set of an access constraint must be non-empty".to_string(),
            ));
        }
        // X and Y may overlap in principle, but repeated names within one
        // side are meaningless; reject them to catch typos early.
        for (side, names) in [("X", x), ("Y", y)] {
            let mut seen = BTreeSet::new();
            if let Some(a) = names.iter().find(|a| !seen.insert(**a)) {
                return Err(DataError::InvalidConstraint(format!(
                    "attribute `{a}` repeated in {side} of constraint on `{}`",
                    relation.into()
                )));
            }
        }
        Ok(AccessConstraint {
            relation: relation.into(),
            x: x.iter().map(|s| s.to_string()).collect(),
            y: y.iter().map(|s| s.to_string()).collect(),
            n,
        })
    }

    /// A functional dependency `R(X → Y, 1)` with an index — the special case
    /// the paper's PTIME results (Corollary 4.4, Proposition 4.5) rely on.
    pub fn fd(relation: impl Into<String>, x: &[&str], y: &[&str]) -> Result<Self> {
        AccessConstraint::new(relation, x, y, 1)
    }

    /// The constrained relation's name.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// The `X` attributes (index key).
    pub fn x(&self) -> &[String] {
        &self.x
    }

    /// The `Y` attributes (bounded, fetched values).
    pub fn y(&self) -> &[String] {
        &self.y
    }

    /// The cardinality bound `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// True if this constraint is a functional dependency (`N = 1`).
    pub fn is_fd(&self) -> bool {
        self.n == 1
    }

    /// The attributes the index can return, `X ∪ Y`, in `X`-then-`Y` order
    /// without duplicates.
    pub fn xy(&self) -> Vec<String> {
        let mut out = self.x.clone();
        for a in &self.y {
            if !out.contains(a) {
                out.push(a.clone());
            }
        }
        out
    }

    /// Validate the constraint against a schema: the relation and all
    /// attributes must exist.
    pub fn validate(&self, schema: &DatabaseSchema) -> Result<()> {
        let rel = schema.expect_relation(&self.relation)?;
        for a in self.x.iter().chain(self.y.iter()) {
            if rel.position(a).is_none() {
                return Err(DataError::UnknownAttribute {
                    relation: self.relation.clone(),
                    attribute: a.clone(),
                });
            }
        }
        Ok(())
    }

    /// Check whether a database instance satisfies the cardinality half of
    /// this constraint; returns the first violation found, if any.
    pub fn check(&self, db: &Database) -> Result<Option<ConstraintViolation>> {
        let rel = db.expect_relation(&self.relation)?;
        let x_pos = rel.schema().positions(&self.x)?;
        let y_pos = rel.schema().positions(&self.y)?;
        let mut groups: BTreeMap<Tuple, BTreeSet<Tuple>> = BTreeMap::new();
        for t in rel.iter() {
            let key = t.project(&x_pos);
            let y_val = t.project(&y_pos);
            groups.entry(key).or_default().insert(y_val);
        }
        for (key, ys) in groups {
            if ys.len() > self.n {
                return Ok(Some(ConstraintViolation {
                    constraint: self.clone(),
                    x_value: key.into_values(),
                    distinct_y: ys.len(),
                }));
            }
        }
        Ok(None)
    }
}

impl fmt::Display for AccessConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let xs = if self.x.is_empty() {
            "∅".to_string()
        } else {
            self.x.join(",")
        };
        write!(
            f,
            "{}(({xs}) -> ({}), {})",
            self.relation,
            self.y.join(","),
            self.n
        )
    }
}

/// A witnessed violation of an access constraint: an `X`-value with more than
/// `N` distinct `Y`-projections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintViolation {
    /// The violated constraint.
    pub constraint: AccessConstraint,
    /// The offending `X`-value.
    pub x_value: Vec<Value>,
    /// How many distinct `Y`-values that `X`-value has.
    pub distinct_y: usize,
}

impl fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violated: X-value ({}) has {} distinct Y-values (bound {})",
            self.constraint,
            self.x_value
                .iter()
                .map(|v| v.render().into_owned())
                .collect::<Vec<_>>()
                .join(", "),
            self.distinct_y,
            self.constraint.n()
        )
    }
}

/// An access schema `A`: a set of access constraints over one database
/// schema.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessSchema {
    constraints: Vec<AccessConstraint>,
}

impl AccessSchema {
    /// The empty access schema (`A = ∅`).
    pub fn empty() -> Self {
        AccessSchema::default()
    }

    /// Build an access schema from constraints.
    pub fn new(constraints: Vec<AccessConstraint>) -> Self {
        AccessSchema { constraints }
    }

    /// Add a constraint.
    pub fn add(&mut self, constraint: AccessConstraint) {
        self.constraints.push(constraint);
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True if there are no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Iterate over constraints.
    pub fn constraints(&self) -> impl Iterator<Item = &AccessConstraint> {
        self.constraints.iter()
    }

    /// Constraint at an index (stable ordering; indices are referenced by
    /// `fetch` plan nodes).
    pub fn constraint(&self, idx: usize) -> Option<&AccessConstraint> {
        self.constraints.get(idx)
    }

    /// Constraints on a given relation.
    pub fn constraints_on<'a>(
        &'a self,
        relation: &'a str,
    ) -> impl Iterator<Item = &'a AccessConstraint> + 'a {
        self.constraints
            .iter()
            .filter(move |c| c.relation() == relation)
    }

    /// True if every constraint is a functional dependency (`N = 1`) — the
    /// hypothesis of Corollary 4.4 / Proposition 4.5.
    pub fn is_fd_only(&self) -> bool {
        self.constraints.iter().all(AccessConstraint::is_fd)
    }

    /// Validate every constraint against a schema.
    pub fn validate(&self, schema: &DatabaseSchema) -> Result<()> {
        for c in &self.constraints {
            c.validate(schema)?;
        }
        Ok(())
    }

    /// Check whether `D |= A`, returning every violation found.
    pub fn violations(&self, db: &Database) -> Result<Vec<ConstraintViolation>> {
        let mut out = Vec::new();
        for c in &self.constraints {
            if let Some(v) = c.check(db)? {
                out.push(v);
            }
        }
        Ok(out)
    }

    /// Check whether `D |= A`.
    pub fn satisfied_by(&self, db: &Database) -> Result<bool> {
        Ok(self.violations(db)?.is_empty())
    }

    /// The maximum bound `N` appearing in the schema (0 if empty); used to
    /// derive worst-case fetch sizes for plan cost estimates.
    pub fn max_bound(&self) -> usize {
        self.constraints
            .iter()
            .map(AccessConstraint::n)
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for AccessSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<AccessConstraint> for AccessSchema {
    fn from_iter<T: IntoIterator<Item = AccessConstraint>>(iter: T) -> Self {
        AccessSchema::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DatabaseSchema;
    use crate::tuple;

    /// Schema and constraints of Example 1.1 (`R_0`, `A_0`).
    fn movie_setting() -> (DatabaseSchema, AccessSchema) {
        let schema = DatabaseSchema::with_relations(&[
            ("person", &["pid", "name", "affiliation"]),
            ("movie", &["mid", "mname", "studio", "release"]),
            ("rating", &["mid", "rank"]),
            ("like", &["pid", "id", "type"]),
        ])
        .unwrap();
        let phi1 = AccessConstraint::new("movie", &["studio", "release"], &["mid"], 2).unwrap();
        let phi2 = AccessConstraint::new("rating", &["mid"], &["rank"], 1).unwrap();
        (schema, AccessSchema::new(vec![phi1, phi2]))
    }

    #[test]
    fn constructor_validation() {
        assert!(AccessConstraint::new("r", &["a"], &[], 3).is_err());
        assert!(AccessConstraint::new("r", &["a", "a"], &["b"], 3).is_err());
        assert!(AccessConstraint::new("r", &["a"], &["b", "b"], 3).is_err());
        let c = AccessConstraint::new("r", &[], &["b"], 3).unwrap();
        assert_eq!(c.x(), &[] as &[String]);
        assert_eq!(c.n(), 3);
        assert!(!c.is_fd());
        assert!(AccessConstraint::fd("r", &["a"], &["b"]).unwrap().is_fd());
    }

    #[test]
    fn xy_deduplicates_overlap() {
        let c = AccessConstraint::new("r", &["a", "b"], &["b", "c"], 1).unwrap();
        assert_eq!(c.xy(), vec!["a", "b", "c"]);
    }

    #[test]
    fn validate_against_schema() {
        let (schema, access) = movie_setting();
        assert!(access.validate(&schema).is_ok());
        let bad = AccessConstraint::new("movie", &["studio"], &["director"], 1).unwrap();
        assert!(bad.validate(&schema).is_err());
        let bad_rel = AccessConstraint::new("cinema", &["id"], &["city"], 1).unwrap();
        assert!(bad_rel.validate(&schema).is_err());
    }

    #[test]
    fn satisfaction_of_example_1_1() {
        let (schema, access) = movie_setting();
        let mut db = Database::empty(schema);
        db.insert("movie", tuple![1, "Lucy", "Universal", "2014"])
            .unwrap();
        db.insert("movie", tuple![2, "Ouija", "Universal", "2014"])
            .unwrap();
        db.insert("rating", tuple![1, 5]).unwrap();
        db.insert("rating", tuple![2, 3]).unwrap();
        assert!(access.satisfied_by(&db).unwrap());

        // A third Universal/2014 movie breaks φ1 = movie((studio,release) → mid, 2).
        db.insert("movie", tuple![3, "Dracula", "Universal", "2014"])
            .unwrap();
        let violations = access.violations(&db).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].distinct_y, 3);
        assert_eq!(violations[0].constraint.relation(), "movie");
        assert!(violations[0].to_string().contains("violated"));
        assert!(!access.satisfied_by(&db).unwrap());
    }

    #[test]
    fn fd_violation_detected() {
        let (schema, access) = movie_setting();
        let mut db = Database::empty(schema);
        db.insert("rating", tuple![1, 5]).unwrap();
        db.insert("rating", tuple![1, 4]).unwrap();
        assert!(!access.satisfied_by(&db).unwrap());
    }

    #[test]
    fn empty_x_bounds_whole_relation() {
        let schema = DatabaseSchema::with_relations(&[("r01", &["a"])]).unwrap();
        let c = AccessConstraint::new("r01", &[], &["a"], 2).unwrap();
        let access = AccessSchema::new(vec![c]);
        let mut db = Database::empty(schema);
        db.insert("r01", tuple![0]).unwrap();
        db.insert("r01", tuple![1]).unwrap();
        assert!(access.satisfied_by(&db).unwrap());
        db.insert("r01", tuple![2]).unwrap();
        assert!(!access.satisfied_by(&db).unwrap());
    }

    #[test]
    fn schema_helpers() {
        let (_, access) = movie_setting();
        assert_eq!(access.len(), 2);
        assert!(!access.is_empty());
        assert!(!access.is_fd_only());
        assert_eq!(access.max_bound(), 2);
        assert_eq!(access.constraints_on("movie").count(), 1);
        assert_eq!(access.constraints_on("person").count(), 0);
        assert!(access.constraint(0).is_some());
        assert!(access.constraint(7).is_none());
        assert!(AccessSchema::empty().is_fd_only());
        assert_eq!(AccessSchema::empty().max_bound(), 0);
        let display = access.to_string();
        assert!(display.contains("movie"));
        assert!(display.contains("rating"));
    }

    #[test]
    fn empty_database_satisfies_everything() {
        let (schema, access) = movie_setting();
        let db = Database::empty(schema);
        assert!(access.satisfied_by(&db).unwrap());
    }
}
