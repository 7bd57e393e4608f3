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

    /// Add a later write of `tuple` — made `present`, or absent — to the
    /// net change.  A write that undoes an earlier one cancels out, so the
    /// delta always satisfies inserted = new∖old, removed = old∖new.
    pub fn record(&mut self, tuple: Tuple, present: bool) {
        let (undone, done) = match present {
            true => (&mut self.removed, &mut self.inserted),
            false => (&mut self.inserted, &mut self.removed),
        };
        if !undone.remove(&tuple) {
            done.insert(tuple);
        }
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

    /// Record the delta of one relation, replacing any earlier one.  An
    /// empty delta leaves the relation out — a net no-op is
    /// indistinguishable from "untouched".
    pub fn record(&mut self, relation: impl Into<String>, delta: RelationDelta) {
        let relation = relation.into();
        if delta.is_empty() {
            self.changes.remove(&relation);
        } else {
            self.changes.insert(relation, delta);
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

    /// Fold a later change of `relation` into its entry, tuple by tuple
    /// with [`RelationDelta::record`]'s cancel rule: the entry then holds
    /// the net change across both, and leaves the log when that is
    /// nothing.  A relation the log does not hold yet takes `later` whole.
    pub fn fold(&mut self, relation: &str, later: RelationDelta) {
        let Some(net) = self.changes.get_mut(relation) else {
            return self.record(relation, later);
        };
        for t in later.inserted {
            net.record(t, true);
        }
        for t in later.removed {
            net.record(t, false);
        }
        if net.is_empty() {
            self.changes.remove(relation);
        }
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
    fn folding_nets_out_and_an_empty_record_drops_the_entry() {
        let mut log = DeltaLog::new();
        let mut first = RelationDelta::default();
        first.inserted.insert(tuple![1]);
        first.removed.insert(tuple![2]);
        log.fold("r", first.clone());
        assert_eq!(log.get("r"), Some(&first), "taken whole");
        let mut later = RelationDelta::default();
        later.removed.insert(tuple![1]);
        later.inserted.insert(tuple![3]);
        log.fold("r", later);
        let net = log.get("r").unwrap();
        assert_eq!(net.inserted.iter().collect::<Vec<_>>(), [&tuple![3]]);
        assert_eq!(net.removed.iter().collect::<Vec<_>>(), [&tuple![2]]);
        let mut undo = RelationDelta::default();
        undo.removed.insert(tuple![3]);
        undo.inserted.insert(tuple![2]);
        log.fold("r", undo);
        assert!(!log.touches("r"), "netted to nothing");
        log.fold("r", first);
        log.record("r", RelationDelta::default());
        assert!(log.is_empty());
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
