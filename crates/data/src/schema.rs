//! Relational schemas: relation schemas with named attributes and database
//! schemas `R = (R_1, ..., R_n)`.

use crate::error::DataError;
use crate::Result;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A relation schema: a relation name together with an ordered list of
/// attribute names.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RelationSchema {
    name: Arc<str>,
    attributes: Arc<[Arc<str>]>,
}

impl RelationSchema {
    /// Create a relation schema.
    ///
    /// Returns an error if an attribute name is repeated.
    pub fn new(name: impl AsRef<str>, attributes: &[&str]) -> Result<Self> {
        let mut seen = std::collections::BTreeSet::new();
        for a in attributes {
            if !seen.insert(*a) {
                return Err(DataError::DuplicateAttribute {
                    relation: name.as_ref().to_string(),
                    attribute: (*a).to_string(),
                });
            }
        }
        Ok(RelationSchema {
            name: Arc::from(name.as_ref()),
            attributes: attributes.iter().map(|a| Arc::from(*a)).collect(),
        })
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Attribute names in declaration order.
    pub fn attributes(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().map(|a| a.as_ref())
    }

    /// Position of an attribute, if present.
    pub fn position(&self, attribute: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.as_ref() == attribute)
    }

    /// Positions of a list of attributes, failing on the first unknown one.
    pub fn positions(&self, attributes: &[impl AsRef<str>]) -> Result<Vec<usize>> {
        attributes
            .iter()
            .map(|a| {
                self.position(a.as_ref())
                    .ok_or_else(|| DataError::UnknownAttribute {
                        relation: self.name.to_string(),
                        attribute: a.as_ref().to_string(),
                    })
            })
            .collect()
    }

    /// Attribute name at a position.
    pub fn attribute(&self, i: usize) -> Option<&str> {
        self.attributes.get(i).map(|a| a.as_ref())
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A database schema: a named collection of relation schemas.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatabaseSchema {
    relations: BTreeMap<String, RelationSchema>,
}

impl DatabaseSchema {
    /// The empty schema.
    pub fn new() -> Self {
        DatabaseSchema::default()
    }

    /// Build a schema from `(name, attributes)` pairs.
    pub fn with_relations(relations: &[(&str, &[&str])]) -> Result<Self> {
        let mut schema = DatabaseSchema::new();
        for (name, attrs) in relations {
            schema.add_relation(RelationSchema::new(name, attrs)?)?;
        }
        Ok(schema)
    }

    /// Add a relation schema; rejects duplicates.
    pub fn add_relation(&mut self, relation: RelationSchema) -> Result<()> {
        if self.relations.contains_key(relation.name()) {
            return Err(DataError::DuplicateRelation(relation.name().to_string()));
        }
        self.relations.insert(relation.name().to_string(), relation);
        Ok(())
    }

    /// Look up a relation schema by name.
    pub fn relation(&self, name: &str) -> Option<&RelationSchema> {
        self.relations.get(name)
    }

    /// Look up a relation schema by name, returning an error if absent.
    pub fn expect_relation(&self, name: &str) -> Result<&RelationSchema> {
        self.relation(name)
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// Number of relations in the schema.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if the schema has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Iterate over relation schemas in name order.
    pub fn relations(&self) -> impl Iterator<Item = &RelationSchema> {
        self.relations.values()
    }

    /// Relation names in deterministic (sorted) order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(|k| k.as_str())
    }

    /// Total number of attribute positions across all relations; used by the
    /// effective-syntax machinery to bound variable counts (`|R|` in the
    /// paper's complexity statements).
    pub fn total_arity(&self) -> usize {
        self.relations.values().map(|r| r.arity()).sum()
    }
}

impl fmt::Display for DatabaseSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.relations.values().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn movie_schema() -> DatabaseSchema {
        DatabaseSchema::with_relations(&[
            ("person", &["pid", "name", "affiliation"]),
            ("movie", &["mid", "mname", "studio", "release"]),
            ("rating", &["mid", "rank"]),
            ("like", &["pid", "id", "type"]),
        ])
        .unwrap()
    }

    #[test]
    fn relation_schema_positions() {
        let r = RelationSchema::new("movie", &["mid", "mname", "studio", "release"]).unwrap();
        assert_eq!(r.arity(), 4);
        assert_eq!(r.position("studio"), Some(2));
        assert_eq!(r.position("nope"), None);
        assert_eq!(r.positions(&["release", "mid"]).unwrap(), vec![3, 0]);
        assert!(r.positions(&["release", "nope"]).is_err());
        assert_eq!(r.attribute(1), Some("mname"));
        assert_eq!(r.attribute(9), None);
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = RelationSchema::new("r", &["a", "b", "a"]).unwrap_err();
        assert!(matches!(err, DataError::DuplicateAttribute { .. }));
    }

    #[test]
    fn database_schema_lookup() {
        let s = movie_schema();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(s.relation("movie").is_some());
        assert!(s.relation("unknown").is_none());
        assert!(s.expect_relation("rating").is_ok());
        assert!(matches!(
            s.expect_relation("unknown"),
            Err(DataError::UnknownRelation(_))
        ));
        assert_eq!(s.total_arity(), 3 + 4 + 2 + 3);
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut s = movie_schema();
        let err = s
            .add_relation(RelationSchema::new("movie", &["a"]).unwrap())
            .unwrap_err();
        assert!(matches!(err, DataError::DuplicateRelation(_)));
    }

    #[test]
    fn names_are_sorted() {
        let s = movie_schema();
        let names: Vec<_> = s.relation_names().collect();
        assert_eq!(names, vec!["like", "movie", "person", "rating"]);
    }

    #[test]
    fn display_formats() {
        let r = RelationSchema::new("rating", &["mid", "rank"]).unwrap();
        assert_eq!(r.to_string(), "rating(mid, rank)");
        let s = DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])]).unwrap();
        assert_eq!(s.to_string(), "rating(mid, rank)");
    }
}
