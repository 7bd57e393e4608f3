//! Database instances: named collections of relation instances over a
//! database schema.

use crate::delta::DeltaLog;
use crate::error::DataError;
use crate::relation::Relation;
use crate::schema::DatabaseSchema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;
use std::collections::BTreeMap;
use std::fmt;

/// An instance `D` of a database schema `R`: one relation instance per
/// relation schema (missing relations are treated as empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Database {
    schema: DatabaseSchema,
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// An empty instance of the given schema.
    pub fn empty(schema: DatabaseSchema) -> Self {
        let relations = schema
            .relations()
            .map(|r| (r.name().to_string(), Relation::empty(r.clone())))
            .collect();
        Database { schema, relations }
    }

    /// The database schema.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// Total number of tuples across all relations — `|D|` in the paper.
    pub fn size(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// True if every relation is empty.
    pub fn is_empty(&self) -> bool {
        self.size() == 0
    }

    /// The instance of a relation, if the relation exists in the schema.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// The instance of a relation, or an error if it is not in the schema.
    pub fn expect_relation(&self, name: &str) -> Result<&Relation> {
        self.relation(name)
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// Mutable access to a relation instance.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// Insert a tuple into a relation.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<bool> {
        self.relation_mut(relation)?.insert(tuple)
    }

    /// Insert a tuple given as convertible values.
    pub fn insert_values<V: Into<Value>>(
        &mut self,
        relation: &str,
        values: Vec<V>,
    ) -> Result<bool> {
        self.relation_mut(relation)?.insert_values(values)
    }

    /// Remove a tuple from a relation; returns `true` if it was present.
    pub fn remove(&mut self, relation: &str, tuple: &Tuple) -> Result<bool> {
        self.relation_mut(relation)?.remove(tuple)
    }

    /// Begin recording per-relation write deltas on every relation instance
    /// (see [`Relation::begin_delta_tracking`]).  Collect the result with
    /// [`Database::take_delta`].
    pub fn begin_delta_tracking(&mut self) {
        for rel in self.relations.values_mut() {
            rel.begin_delta_tracking();
        }
    }

    /// Stop delta tracking and return the net write set since `previous` —
    /// the instance this one was cloned from before tracking began — one
    /// exact delta per changed relation ([`Relation::take_delta`]).
    ///
    /// Per relation: an untouched epoch means untouched contents (epochs are
    /// globally unique) and the relation stays out of the log.  A relation
    /// written in place reports the delta it recorded, `O(|Δ|)`; one assigned
    /// wholesale is diffed against its previous version, `O(|R|)`.  A
    /// relation whose delta comes out empty — a do-undo closure, a
    /// replacement with equal contents — becomes its previous version again,
    /// epoch included, so it leaves no observable trace.  A relation
    /// `previous` lacks is diffed against an empty one.
    pub fn take_delta(&mut self, previous: &Database) -> DeltaLog {
        let mut log = DeltaLog::new();
        for (name, rel) in &mut self.relations {
            let delta = match previous.relation(name) {
                Some(prev) => rel.take_delta(prev),
                None => rel.take_delta(&Relation::empty(rel.schema().clone())),
            };
            log.record(name.clone(), delta);
        }
        log
    }

    /// The net write set since `previous` so far, with tracking kept on:
    /// what [`Database::take_delta`] would return now, at the cost of copying
    /// it — `O(|Δ|)`, never touching tuple storage, unless a relation was
    /// assigned wholesale since the last checkpoint, which one diff pays
    /// for.  Undo everything written after the capture with
    /// [`Database::rollback_to`].  Batched mutation takes one before each
    /// closure, to isolate a failing one without an `O(#chunks)`
    /// [`Database::clone`] per closure (which would also keep every chunk
    /// shared, so each closure's writes would fork their chunks anew).
    pub fn delta_checkpoint(&mut self, previous: &Database) -> DeltaLog {
        let mut log = DeltaLog::new();
        for (name, rel) in &mut self.relations {
            if let Some(prev) = previous.relation(name) {
                if rel.epoch() != prev.epoch() {
                    log.record(name.clone(), rel.delta_since(prev).clone());
                }
            }
        }
        log
    }

    /// Undo every write issued since `checkpoint` was taken against
    /// `previous`: become `previous` again — its schema, relations and
    /// epochs — and replay the checkpoint's delta through the ordinary
    /// mutators, with tracking on.  `O(|Δ| at the checkpoint)` plus an
    /// `O(#chunks)` clone, whatever the undone span did: writes in place, a
    /// wholesale assignment or a change of schema alike.
    pub fn rollback_to(&mut self, previous: &Database, checkpoint: &DeltaLog) {
        *self = previous.clone();
        self.begin_delta_tracking();
        for (name, delta) in checkpoint.iter() {
            let rel = self
                .relations
                .get_mut(name)
                .expect("a checkpoint names relations of the instance it was taken against");
            // Every replayed tuple was stored in this relation before, so
            // its arity fits and its values are interned: neither mutator
            // can fail.
            for t in &delta.removed {
                rel.remove(t).expect("a stored tuple's arity fits");
            }
            for t in &delta.inserted {
                rel.insert(t.clone())
                    .expect("a stored tuple's values are interned");
            }
        }
    }

    /// Iterate over relation instances in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// The epoch of every relation instance, in name order — the instance's
    /// *epoch vector*.  Two databases with equal epoch vectors are guaranteed
    /// to have identical contents (epochs are globally unique stamps, see
    /// [`Relation::epoch`]), which is what lets derived artifacts — cached
    /// indexes, relation statistics, compiled plan pipelines — be keyed by
    /// epochs alone and re-validated in `O(#relations)` instead of `O(|D|)`.
    pub fn epochs(&self) -> impl Iterator<Item = (&str, u64)> {
        self.relations.values().map(|r| (r.name(), r.epoch()))
    }

    /// The active domain of the instance: every value occurring anywhere in
    /// `D`.  Used by the FO evaluator (safe-range semantics) and by the
    /// reductions' counterexample constructions.
    pub fn active_domain(&self) -> std::collections::BTreeSet<Value> {
        let mut dom = std::collections::BTreeSet::new();
        for rel in self.relations.values() {
            for t in rel.iter() {
                for v in t.iter() {
                    dom.insert(v.clone());
                }
            }
        }
        dom
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rel in self.relations.values() {
            write!(f, "{rel}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn movie_db() -> Database {
        let schema = DatabaseSchema::with_relations(&[
            ("movie", &["mid", "mname", "studio", "release"]),
            ("rating", &["mid", "rank"]),
        ])
        .unwrap();
        let mut db = Database::empty(schema);
        db.insert("movie", tuple![1, "Lucy", "Universal", "2014"])
            .unwrap();
        db.insert("movie", tuple![2, "Ouija", "Universal", "2014"])
            .unwrap();
        db.insert("rating", tuple![1, 5]).unwrap();
        db.insert("rating", tuple![2, 3]).unwrap();
        db
    }

    #[test]
    fn empty_database_has_all_relations() {
        let schema = DatabaseSchema::with_relations(&[("a", &["x"]), ("b", &["y"])]).unwrap();
        let db = Database::empty(schema);
        assert!(db.is_empty());
        assert_eq!(db.size(), 0);
        assert!(db.relation("a").is_some());
        assert!(db.relation("b").is_some());
        assert!(db.relation("c").is_none());
    }

    #[test]
    fn size_counts_all_relations() {
        let db = movie_db();
        assert_eq!(db.size(), 4);
        assert!(!db.is_empty());
        assert_eq!(db.relation("movie").unwrap().len(), 2);
    }

    #[test]
    fn insert_into_unknown_relation_fails() {
        let mut db = movie_db();
        assert!(matches!(
            db.insert("person", tuple![1]),
            Err(DataError::UnknownRelation(_))
        ));
        assert!(db.expect_relation("movie").is_ok());
        assert!(db.expect_relation("person").is_err());
    }

    #[test]
    fn epoch_vector_tracks_per_relation_mutation() {
        let mut db = movie_db();
        let names: Vec<&str> = db.epochs().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["movie", "rating"], "name order");
        let before: Vec<u64> = db.epochs().map(|(_, e)| e).collect();
        // Unmutated clones share the whole epoch vector.
        let clone = db.clone();
        assert_eq!(before, clone.epochs().map(|(_, e)| e).collect::<Vec<_>>());
        // A mutation re-stamps exactly the touched relation.
        db.insert("rating", tuple![3, 4]).unwrap();
        let after: Vec<u64> = db.epochs().map(|(_, e)| e).collect();
        assert_eq!(before[0], after[0], "movie untouched");
        assert!(after[1] > before[1], "rating re-stamped, monotonically");
    }

    #[test]
    fn active_domain_collects_every_value() {
        let db = movie_db();
        let dom = db.active_domain();
        assert!(dom.contains(&Value::str("Universal")));
        assert!(dom.contains(&Value::int(5)));
        assert!(dom.contains(&Value::int(1)));
        assert!(!dom.contains(&Value::str("Paramount")));
    }

    /// Rollback restores contents AND tracking state through every
    /// cancellation case: a fresh insert, a removal of a base tuple, the
    /// re-removal of a pre-checkpoint insert, and the re-insert of a
    /// pre-checkpoint removal.
    #[test]
    fn rollback_to_checkpoint_inverts_the_span_exactly() {
        let previous = movie_db();
        let mut db = previous.clone();
        db.begin_delta_tracking();
        // Pre-checkpoint span: one insert, one removal of a base tuple.
        db.insert("rating", tuple![3, 4]).unwrap();
        db.remove("rating", &tuple![1, 5]).unwrap();
        let golden = db.clone();
        let checkpoint = db.delta_checkpoint(&previous);

        // Post-checkpoint span, hitting all four inverse cases.
        db.insert("rating", tuple![4, 2]).unwrap(); // fresh insert
        db.remove("rating", &tuple![2, 3]).unwrap(); // remove a base tuple
        db.remove("rating", &tuple![3, 4]).unwrap(); // undo a tracked insert
        db.insert("rating", tuple![1, 5]).unwrap(); // undo a tracked removal
        db.insert("movie", tuple![9, "Split", "Universal", "2016"])
            .unwrap();
        assert_ne!(db, golden);

        db.rollback_to(&previous, &checkpoint);
        assert_eq!(db, golden, "contents restored");
        // The tracked delta is restored too: take_delta still reports the
        // pre-checkpoint span exactly, as if the rest never happened.
        let log = db.take_delta(&previous);
        let delta = log.get("rating").expect("rating changed");
        assert_eq!(delta.inserted.iter().collect::<Vec<_>>(), [&tuple![3, 4]]);
        assert_eq!(delta.removed.iter().collect::<Vec<_>>(), [&tuple![1, 5]]);
        assert!(!log.touches("movie"), "movie rolled back to a no-op");
    }

    #[test]
    fn rollback_is_a_noop_when_nothing_changed() {
        let previous = movie_db();
        let mut db = previous.clone();
        db.begin_delta_tracking();
        let epochs: Vec<u64> = db.epochs().map(|(_, e)| e).collect();
        let checkpoint = db.delta_checkpoint(&previous);
        db.rollback_to(&previous, &checkpoint);
        assert_eq!(
            epochs,
            db.epochs().map(|(_, e)| e).collect::<Vec<u64>>(),
            "untouched relations keep their epochs"
        );
    }

    /// A wholesale assignment since the checkpoint is undone like any other
    /// write: the instance is reset and the checkpoint's delta replayed.
    #[test]
    fn rollback_undoes_a_wholesale_replacement() {
        let previous = movie_db();
        let mut db = previous.clone();
        db.begin_delta_tracking();
        db.insert("rating", tuple![3, 4]).unwrap();
        let golden = db.clone();
        let checkpoint = db.delta_checkpoint(&previous);
        let replacement = Relation::from_tuples(
            db.relation("rating").unwrap().schema().clone(),
            [tuple![7, 7]],
        )
        .unwrap();
        *db.relation_mut("rating").unwrap() = replacement;
        db.rollback_to(&previous, &checkpoint);
        assert_eq!(db, golden, "contents restored");
        let log = db.take_delta(&previous);
        let delta = log.get("rating").expect("rating changed");
        assert_eq!(delta.inserted.iter().collect::<Vec<_>>(), [&tuple![3, 4]]);
        assert!(delta.removed.is_empty());
    }

    #[test]
    fn take_delta_reports_exact_changes_and_spares_untouched_relations() {
        let previous = movie_db();
        let mut db = previous.clone();
        db.begin_delta_tracking();
        db.insert("rating", tuple![3, 4]).unwrap();
        db.remove("rating", &tuple![1, 5]).unwrap();
        let log = db.take_delta(&previous);
        assert!(!log.touches("movie"));
        let d = log.get("rating").unwrap();
        assert_eq!(d.inserted.iter().collect::<Vec<_>>(), [&tuple![3, 4]]);
        assert_eq!(d.removed.iter().collect::<Vec<_>>(), [&tuple![1, 5]]);
        assert_eq!(
            db.relation("movie").unwrap().epoch(),
            previous.relation("movie").unwrap().epoch(),
            "untouched relation keeps its epoch"
        );
    }

    #[test]
    fn take_delta_restores_epochs_for_net_noops() {
        let previous = movie_db();
        let mut db = previous.clone();
        db.begin_delta_tracking();
        db.insert("rating", tuple![3, 4]).unwrap();
        db.remove("rating", &tuple![3, 4]).unwrap();
        db.insert("movie", tuple![1, "Lucy", "Universal", "2014"])
            .unwrap(); // already present
        let log = db.take_delta(&previous);
        assert!(log.is_empty());
        assert_eq!(
            previous.epochs().collect::<Vec<_>>(),
            db.epochs().collect::<Vec<_>>(),
            "a do-undo mutation leaves no observable trace"
        );
    }

    /// A relation assigned wholesale is diffed against its previous
    /// version; a checkpoint keeps the diff as the tracking state, and later
    /// writes record onto it.
    #[test]
    fn wholesale_replacement_yields_the_exact_diff() {
        let previous = movie_db();
        let mut db = previous.clone();
        db.begin_delta_tracking();
        let schema = previous.relation("rating").unwrap().schema().clone();
        *db.relation_mut("rating").unwrap() =
            Relation::from_tuples(schema, vec![tuple![7, 7], tuple![2, 3]]).unwrap();
        let checkpoint = db.delta_checkpoint(&previous);
        let diff = checkpoint.get("rating").expect("rating changed");
        assert_eq!(diff.inserted.iter().collect::<Vec<_>>(), [&tuple![7, 7]]);
        assert_eq!(diff.removed.iter().collect::<Vec<_>>(), [&tuple![1, 5]]);
        db.insert("rating", tuple![1, 5]).unwrap();
        db.remove("rating", &tuple![2, 3]).unwrap();
        let log = db.take_delta(&previous);
        let delta = log.get("rating").expect("rating changed");
        assert_eq!(delta.inserted.iter().collect::<Vec<_>>(), [&tuple![7, 7]]);
        assert_eq!(delta.removed.iter().collect::<Vec<_>>(), [&tuple![2, 3]]);
        assert!(!log.touches("movie"));
    }

    #[test]
    fn wholesale_replacement_with_shared_storage_short_circuits_to_equal() {
        let previous = movie_db();
        let mut db = previous.clone();
        db.begin_delta_tracking();
        // A replacement that shares tuple storage with the previous
        // instance but presents a different epoch: pointer-equal chunks
        // prove content equality without comparing a tuple.
        let mut replacement = previous.relation("rating").unwrap().clone();
        replacement.restamp();
        assert!(replacement.shares_storage(previous.relation("rating").unwrap()));
        *db.relation_mut("rating").unwrap() = replacement;
        let log = db.take_delta(&previous);
        assert!(log.is_empty(), "shared storage proves equality");
        assert_eq!(
            db.relation("rating").unwrap().epoch(),
            previous.relation("rating").unwrap().epoch(),
            "previous epoch restored"
        );
    }

    #[test]
    fn display_contains_relations() {
        let text = movie_db().to_string();
        assert!(text.contains("movie"));
        assert!(text.contains("rating"));
    }
}
