//! View extents: the materialised `V(D)` of a view set over one instance.

use crate::relation::Relation;
use std::collections::BTreeMap;

/// Materialised view extents for one database instance: one relation per
/// view, which is all maintenance resumes from — a UCQ view's extent is the
/// union of what its disjuncts derive, and `bqr_query::maintain` re-derives a
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
    use crate::schema::RelationSchema;
    use crate::tuple;

    #[test]
    fn materialized_views_insert() {
        let mut cache = MaterializedViews::empty();
        assert_eq!(cache.total_tuples(), 0);
        let schema = RelationSchema::new("V", &["c0"]).unwrap();
        let rel = Relation::from_tuples(schema, vec![tuple![1], tuple![2]]).unwrap();
        cache.insert("V", rel);
        assert_eq!(cache.total_tuples(), 2);
        assert!(cache.extent("V").is_some());
    }
}
