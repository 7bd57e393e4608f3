//! Per-relation write deltas captured during a mutation.
//!
//! A [`DeltaLog`] records, for every relation a mutation changed, *what*
//! changed: an exact [`RelationDelta`], the net inserted and removed tuple
//! sets, disjoint by construction.  Every delta is exact.  A relation
//! written in place records its own as it goes, in `O(|Δ|)`; one the
//! closure assigned wholesale is diffed against its previous version
//! (`O(|R|)`, paid by that relation only).  Downstream consumers —
//! semi-naive view maintenance, the publish — therefore have one path.

use crate::tuple::Tuple;
use std::collections::{BTreeMap, BTreeSet};

/// The net content change of one relation across a mutation: tuples that are
/// in the new instance but not the old one (`inserted`) and vice versa
/// (`removed`).  The two sets are disjoint — an insert-then-remove (or
/// remove-then-reinsert) of the same tuple cancels out during recording.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelationDelta {
    /// Tuples present after the mutation but not before: `R_new ∖ R_old`.
    pub inserted: BTreeSet<Tuple>,
    /// Tuples present before the mutation but not after: `R_old ∖ R_new`.
    pub removed: BTreeSet<Tuple>,
}

impl RelationDelta {
    /// True when the mutation was a net no-op on this relation.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.removed.is_empty()
    }

    /// `|Δ|`: the number of tuples that changed either way.
    pub fn len(&self) -> usize {
        self.inserted.len() + self.removed.len()
    }
}

/// The full write set of one mutation: every *changed* relation mapped to
/// its [`RelationDelta`].  Relations absent from the log are guaranteed
/// untouched — their epochs (and therefore every epoch-keyed derived
/// artifact) remain valid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaLog {
    changes: BTreeMap<String, RelationDelta>,
}

impl DeltaLog {
    /// An empty log (the mutation was a no-op).
    pub fn new() -> Self {
        DeltaLog::default()
    }

    /// Record the delta of one relation.  Empty deltas are dropped — a net
    /// no-op is indistinguishable from "untouched".
    pub fn record(&mut self, relation: impl Into<String>, delta: RelationDelta) {
        if !delta.is_empty() {
            self.changes.insert(relation.into(), delta);
        }
    }

    /// True when no relation changed at all.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// True when `relation` changed.
    pub fn touches(&self, relation: &str) -> bool {
        self.changes.contains_key(relation)
    }

    /// The delta of `relation`, if it changed.
    pub fn get(&self, relation: &str) -> Option<&RelationDelta> {
        self.changes.get(relation)
    }

    /// Iterate over the changed relations and their deltas in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RelationDelta)> {
        self.changes.iter().map(|(n, d)| (n.as_str(), d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn empty_exact_deltas_are_dropped() {
        let mut log = DeltaLog::new();
        log.record("r", RelationDelta::default());
        assert!(log.is_empty());
        assert!(!log.touches("r"));
    }

    #[test]
    fn a_log_maps_each_changed_relation_to_its_delta() {
        let mut log = DeltaLog::new();
        let mut d = RelationDelta::default();
        d.inserted.insert(tuple![1]);
        log.record("a", d.clone());
        d.removed.insert(tuple![2]);
        log.record("b", d.clone());
        assert!(log.touches("a") && log.touches("b") && !log.touches("c"));
        assert_eq!(log.get("b"), Some(&d));
        assert_eq!(log.get("c"), None);
        let names: Vec<&str> = log.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
