//! Database instances: named collections of relation instances over a
//! database schema.

use crate::delta::{DeltaLog, RelationChange, RelationDelta};
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

    /// Stop delta tracking and return the net write set since
    /// [`Database::begin_delta_tracking`], validated against `previous` —
    /// the instance this one was cloned from before tracking began.
    ///
    /// Per relation: an untouched epoch means untouched contents (epochs are
    /// globally unique) and the relation stays out of the log.  A tracked
    /// mutation whose recorded base epoch matches `previous` yields an exact
    /// [`RelationChange::Delta`]; a net-empty one additionally restores the
    /// previous epoch, so a do-undo closure leaves no observable trace.
    /// Anything else — the instance was replaced wholesale and its history
    /// lost — is recorded as [`RelationChange::Unknown`], unless the
    /// replacement's contents equal the previous ones, in which case the
    /// previous epoch is restored and nothing is logged.
    pub fn take_delta(&mut self, previous: &Database) -> DeltaLog {
        let mut log = DeltaLog::new();
        for (name, rel) in &mut self.relations {
            let state = rel.end_delta_tracking();
            let Some(prev_rel) = previous.relation(name) else {
                log.record(name.clone(), RelationChange::Unknown);
                continue;
            };
            let prev_epoch = prev_rel.epoch();
            if rel.epoch() == prev_epoch {
                continue;
            }
            match state {
                Some((base_epoch, delta)) if base_epoch == prev_epoch => {
                    if delta.is_empty() {
                        // Net no-op: contents are back to exactly what they
                        // were under the previous epoch.
                        rel.revert_to(prev_rel);
                    } else {
                        log.record(name.clone(), RelationChange::Delta(delta));
                    }
                }
                // History lost (wholesale replacement).  A content compare
                // keeps a replace-with-equal-contents from re-stamping the
                // epoch and invalidating downstream caches — but the O(|R|)
                // tuple comparison runs only when cheaper evidence is
                // inconclusive: a length mismatch proves inequality in O(1)
                // and pointer-equal chunks prove equality in O(#chunks)
                // (both inside `Relation::eq`).
                _ => {
                    if rel == prev_rel {
                        rel.revert_to(prev_rel);
                    } else {
                        log.record(name.clone(), RelationChange::Unknown);
                    }
                }
            }
        }
        log
    }

    /// Capture a cheap, invertible checkpoint of the current tracked write
    /// state: each relation's epoch plus a copy of its net delta so far —
    /// `O(|Δ|)` total, never touching tuple storage.  Undo everything
    /// written after the capture with [`Database::rollback_to`].  Only
    /// meaningful between [`Database::begin_delta_tracking`] and
    /// [`Database::take_delta`]; batched mutation uses it to isolate one
    /// failing closure without an `O(#chunks)` [`Database::clone`] per
    /// closure (which would also keep every chunk shared, so each closure's
    /// writes would fork their chunks anew).
    pub fn delta_checkpoint(&self) -> DeltaCheckpoint {
        DeltaCheckpoint {
            states: self
                .relations
                .iter()
                .map(|(name, rel)| {
                    let tracked = rel
                        .tracking_state()
                        .map(|(base, delta)| (base, delta.clone()));
                    (name.clone(), (rel.epoch(), tracked))
                })
                .collect(),
        }
    }

    /// Undo every write issued since `checkpoint` by applying inverse
    /// operations, restoring both relation contents and tracking state to
    /// exactly what [`Database::delta_checkpoint`] captured — `O(|writes
    /// since the checkpoint|)`.
    ///
    /// Fails with [`DataError::RollbackHistoryLost`] if a relation was
    /// replaced wholesale since the checkpoint (its tracking state lost or
    /// restarted), in which case the writes cannot be inverted; the database
    /// is left with all rollbacks up to the offending relation applied, so
    /// callers must treat the whole instance as unusable on error.
    pub fn rollback_to(&mut self, checkpoint: &DeltaCheckpoint) -> Result<()> {
        for (name, rel) in &mut self.relations {
            let Some((epoch, saved)) = checkpoint.states.get(name) else {
                return Err(DataError::RollbackHistoryLost(name.clone()));
            };
            if rel.epoch() == *epoch {
                // Epochs are globally unique: an unchanged epoch proves the
                // relation (contents and tracking) is untouched.
                continue;
            }
            let Some(((_, now), (_, then))) = (rel.tracking_state().zip(saved.as_ref()))
                .filter(|((base_now, _), (base_then, _))| base_now == base_then)
            else {
                return Err(DataError::RollbackHistoryLost(name.clone()));
            };
            let now = now.clone();
            // The four ways a tuple's net-delta membership can have changed,
            // each inverted through the ordinary mutators — whose
            // cancellation arithmetic restores the tracked delta as a side
            // effect of restoring the contents:
            //   inserted now, not then → the span inserted a non-base tuple.
            //   inserted then, not now → the span removed it again.
            //   removed now, not then  → the span removed a base tuple.
            //   removed then, not now  → the span re-inserted it.
            for t in now.inserted.difference(&then.inserted) {
                rel.remove(t)?;
            }
            for t in then.inserted.difference(&now.inserted) {
                rel.insert(t.clone())?;
            }
            for t in now.removed.difference(&then.removed) {
                rel.insert(t.clone())?;
            }
            for t in then.removed.difference(&now.removed) {
                rel.remove(t)?;
            }
            debug_assert_eq!(
                rel.tracking_state().map(|(_, d)| d),
                Some(then),
                "rollback must restore the tracked delta exactly"
            );
        }
        Ok(())
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

/// A point-in-time capture of a tracked database's write state, produced by
/// [`Database::delta_checkpoint`] and consumed by [`Database::rollback_to`].
/// Holds per-relation epochs and net-delta copies only — `O(|Δ|)`, no tuple
/// storage — so capturing one never causes a copy-on-write fork.
#[derive(Debug, Clone)]
pub struct DeltaCheckpoint {
    /// Per relation: the epoch at capture, plus the live tracking state
    /// (`base epoch`, net delta) if tracking was on.
    states: BTreeMap<String, (u64, Option<(u64, RelationDelta)>)>,
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
        let checkpoint = db.delta_checkpoint();

        // Post-checkpoint span, hitting all four inverse cases.
        db.insert("rating", tuple![4, 2]).unwrap(); // fresh insert
        db.remove("rating", &tuple![2, 3]).unwrap(); // remove a base tuple
        db.remove("rating", &tuple![3, 4]).unwrap(); // undo a tracked insert
        db.insert("rating", tuple![1, 5]).unwrap(); // undo a tracked removal
        db.insert("movie", tuple![9, "Split", "Universal", "2016"])
            .unwrap();
        assert_ne!(db, golden);

        db.rollback_to(&checkpoint).unwrap();
        assert_eq!(db, golden, "contents restored");
        // The tracked delta is restored too: take_delta still reports the
        // pre-checkpoint span exactly, as if the rest never happened.
        let log = db.take_delta(&previous);
        let delta = log.exact("rating").expect("rating has an exact delta");
        assert_eq!(delta.inserted.iter().collect::<Vec<_>>(), [&tuple![3, 4]]);
        assert_eq!(delta.removed.iter().collect::<Vec<_>>(), [&tuple![1, 5]]);
        assert!(log.exact("movie").is_none(), "movie rolled back to a no-op");
    }

    #[test]
    fn rollback_is_a_noop_when_nothing_changed() {
        let mut db = movie_db();
        db.begin_delta_tracking();
        let epochs: Vec<u64> = db.epochs().map(|(_, e)| e).collect();
        let checkpoint = db.delta_checkpoint();
        db.rollback_to(&checkpoint).unwrap();
        assert_eq!(
            epochs,
            db.epochs().map(|(_, e)| e).collect::<Vec<u64>>(),
            "untouched relations keep their epochs"
        );
    }

    #[test]
    fn rollback_fails_typed_when_write_history_was_lost() {
        let mut db = movie_db();
        db.begin_delta_tracking();
        let checkpoint = db.delta_checkpoint();
        // Wholesale replacement: tracking state is lost for `rating`.
        let replacement = Relation::from_tuples(
            db.relation("rating").unwrap().schema().clone(),
            [tuple![7, 7]],
        )
        .unwrap();
        *db.relation_mut("rating").unwrap() = replacement;
        assert!(matches!(
            db.rollback_to(&checkpoint),
            Err(DataError::RollbackHistoryLost(rel)) if rel == "rating"
        ));
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
        let d = log.exact("rating").unwrap();
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

    #[test]
    fn wholesale_replacement_degrades_to_unknown() {
        let previous = movie_db();
        let mut db = previous.clone();
        db.begin_delta_tracking();
        let schema = previous.relation("rating").unwrap().schema().clone();
        *db.relation_mut("rating").unwrap() =
            Relation::from_tuples(schema, vec![tuple![7, 7]]).unwrap();
        let log = db.take_delta(&previous);
        assert!(log.is_unknown("rating"));
        assert!(log.exact("rating").is_none());
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
