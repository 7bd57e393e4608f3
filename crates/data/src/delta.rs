//! Per-relation write deltas captured during a mutation.
//!
//! A [`DeltaLog`] records, for every relation touched inside an
//! `Engine::mutate` closure, *what* changed: either an exact
//! [`RelationDelta`] (the net inserted and removed tuple sets, disjoint by
//! construction) or [`RelationChange::Unknown`] when the relation was
//! replaced wholesale and the per-tuple history is lost.  Downstream
//! consumers — semi-naive view maintenance, in-place index patching — pay
//! `O(|Δ|)` for exact deltas and fall back to `O(|R|)` re-derivation only
//! for `Unknown` ones.

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

/// What happened to one relation during a mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationChange {
    /// The exact net delta is known; `O(|Δ|)` maintenance applies.
    Delta(RelationDelta),
    /// The relation changed but the per-tuple history was lost (e.g. the
    /// closure replaced the instance wholesale through `relation_mut`).
    /// Consumers must re-derive anything depending on this relation.
    Unknown,
}

/// The full write set of one mutation: every *changed* relation mapped to
/// its [`RelationChange`].  Relations absent from the log are guaranteed
/// untouched — their epochs (and therefore every epoch-keyed derived
/// artifact) remain valid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaLog {
    changes: BTreeMap<String, RelationChange>,
}

impl DeltaLog {
    /// An empty log (the mutation was a no-op).
    pub fn new() -> Self {
        DeltaLog::default()
    }

    /// Record the change of one relation.  Empty exact deltas are dropped —
    /// a net no-op is indistinguishable from "untouched".
    pub fn record(&mut self, relation: impl Into<String>, change: RelationChange) {
        if let RelationChange::Delta(d) = &change {
            if d.is_empty() {
                return;
            }
        }
        self.changes.insert(relation.into(), change);
    }

    /// True when no relation changed at all.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// True when `relation` changed in any way.
    pub fn touches(&self, relation: &str) -> bool {
        self.changes.contains_key(relation)
    }

    /// The exact delta for `relation`, if it changed and the per-tuple
    /// history survived.  `None` means either untouched (see
    /// [`DeltaLog::touches`]) or [`RelationChange::Unknown`].
    pub fn exact(&self, relation: &str) -> Option<&RelationDelta> {
        match self.changes.get(relation) {
            Some(RelationChange::Delta(d)) => Some(d),
            _ => None,
        }
    }

    /// True when `relation` changed but the exact delta was lost.
    pub fn is_unknown(&self, relation: &str) -> bool {
        matches!(self.changes.get(relation), Some(RelationChange::Unknown))
    }

    /// Iterate over the changed relations in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RelationChange)> {
        self.changes.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Names of the changed relations, in name order.
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        self.changes.keys().map(String::as_str)
    }

    /// Total `|Δ|` across all exact deltas (unknown changes count 0).
    pub fn size(&self) -> usize {
        self.changes
            .values()
            .map(|c| match c {
                RelationChange::Delta(d) => d.len(),
                RelationChange::Unknown => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn empty_exact_deltas_are_dropped() {
        let mut log = DeltaLog::new();
        log.record("r", RelationChange::Delta(RelationDelta::default()));
        assert!(log.is_empty());
        assert!(!log.touches("r"));
    }

    #[test]
    fn exact_and_unknown_are_distinguished() {
        let mut log = DeltaLog::new();
        let mut d = RelationDelta::default();
        d.inserted.insert(tuple![1]);
        log.record("a", RelationChange::Delta(d.clone()));
        log.record("b", RelationChange::Unknown);
        assert!(log.touches("a") && log.touches("b") && !log.touches("c"));
        assert_eq!(log.exact("a"), Some(&d));
        assert_eq!(log.exact("b"), None);
        assert!(log.is_unknown("b") && !log.is_unknown("a"));
        assert_eq!(log.size(), 1);
        assert_eq!(log.relations().collect::<Vec<_>>(), vec!["a", "b"]);
    }
}
