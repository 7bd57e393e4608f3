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
            if !delta.is_empty() {
                log.record(name.clone(), delta);
            }
        }
        log
    }

    /// Stop delta tracking and fold the writes made since it began into
    /// `log`, the net write set since `previous` as it stood then; `start`
    /// is this instance's [`Database::epochs`] at that moment, in order.
    ///
    /// Per relation: one still at its start epoch was not written.  One
    /// written in place folds in the delta it recorded
    /// ([`DeltaLog::fold`]), `O(|Δ|)` of this span.  One assigned
    /// wholesale has its entry replaced by a diff against `previous`,
    /// `O(|R|)`.  So spans taken one after another on one instance — a
    /// batch of mutations — cost the sum of their writes, and none forks
    /// the instance.  A relation `previous` lacks is diffed against an
    /// empty one.
    pub fn fold_delta(&mut self, start: &[u64], previous: &Database, log: &mut DeltaLog) {
        for (i, (name, rel)) in self.relations.iter_mut().enumerate() {
            let start = start.get(i).copied();
            let tracked = rel.take_tracked(start);
            if start == Some(rel.epoch()) {
                continue;
            }
            match (tracked, previous.relation(name)) {
                (Some(delta), _) => log.fold(name, delta),
                (None, Some(prev)) => log.record(name.as_str(), rel.diff(prev)),
                (None, None) => {
                    let empty = Relation::empty(rel.schema().clone());
                    log.record(name.as_str(), rel.diff(&empty));
                }
            }
        }
    }

    /// Write `log` into this instance through the ordinary mutators: each
    /// relation's removals, then its insertions, `O(|Δ|)`.  Applied to the
    /// instance `log` was taken against, it rebuilds the instance `log` led
    /// to, with fresh epochs on the relations it names.
    pub fn apply(&mut self, log: &DeltaLog) -> Result<()> {
        for (name, delta) in log.iter() {
            let rel = self.relation_mut(name)?;
            for t in &delta.removed {
                rel.remove(t)?;
            }
            for t in &delta.inserted {
                rel.insert(t.clone())?;
            }
        }
        Ok(())
    }

    /// Make every relation `log` does not touch `previous`'s version again,
    /// epoch included.  With `log` the net write set since `previous`, built
    /// up over several spans ([`Database::fold_delta`]), writes that net to
    /// nothing across them leave no trace, as they leave none within one.
    /// `O(#relations)`.
    pub fn reset_untouched(&mut self, previous: &Database, log: &DeltaLog) {
        for (name, rel) in &mut self.relations {
            match previous.relation(name) {
                Some(prev) if !log.touches(name) && rel.epoch() != prev.epoch() => {
                    *rel = prev.clone();
                }
                _ => {}
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

    /// Writes split over three tracked spans on one instance, some undoing
    /// others and one assigning a relation wholesale: the folded log is
    /// the net change across them, replaying it on the previous instance
    /// rebuilds this one, and a relation it nets to nothing on becomes its
    /// previous version again.
    #[test]
    fn folded_spans_net_out_and_reset_leaves_no_trace() {
        let previous = movie_db();
        let mut db = previous.clone();
        let mut log = DeltaLog::new();
        let span = |db: &mut Database, log: &mut DeltaLog, writes: &dyn Fn(&mut Database)| {
            let start: Vec<u64> = db.epochs().map(|(_, e)| e).collect();
            db.begin_delta_tracking();
            writes(db);
            db.fold_delta(&start, &previous, log);
        };
        span(&mut db, &mut log, &|db| {
            db.insert("rating", tuple![3, 4]).unwrap();
            db.remove("rating", &tuple![1, 5]).unwrap();
            db.insert("movie", tuple![9, "Split", "Universal", "2016"])
                .unwrap();
        });
        span(&mut db, &mut log, &|db| {
            db.insert("rating", tuple![4, 2]).unwrap(); // fresh insert
            db.remove("rating", &tuple![2, 3]).unwrap(); // remove a base tuple
            db.remove("rating", &tuple![3, 4]).unwrap(); // undo an earlier insert
            db.insert("rating", tuple![1, 5]).unwrap(); // undo an earlier removal
            db.remove("movie", &tuple![9, "Split", "Universal", "2016"])
                .unwrap();
        });
        let delta = log.get("rating").expect("rating changed");
        assert_eq!(delta.inserted.iter().collect::<Vec<_>>(), [&tuple![4, 2]]);
        assert_eq!(delta.removed.iter().collect::<Vec<_>>(), [&tuple![2, 3]]);
        assert!(!log.touches("movie"), "movie netted to a no-op");

        // A wholesale assignment — of a copy re-tracked after a write, so
        // its own record misses that write — is diffed against `previous`.
        span(&mut db, &mut log, &|db| {
            db.insert("rating", tuple![5, 5]).unwrap();
            let mut copy = db.relation("rating").unwrap().clone();
            copy.begin_delta_tracking();
            copy.insert(tuple![6, 6]).unwrap();
            *db.relation_mut("rating").unwrap() = copy;
        });
        let delta = log.get("rating").expect("rating changed");
        let inserted = [&tuple![4, 2], &tuple![5, 5], &tuple![6, 6]];
        assert_eq!(delta.inserted.iter().collect::<Vec<_>>(), inserted);
        assert_eq!(delta.removed.iter().collect::<Vec<_>>(), [&tuple![2, 3]]);

        let mut replayed = previous.clone();
        replayed.apply(&log).unwrap();
        assert_eq!(replayed, db);

        let movie = |db: &Database| db.relation("movie").unwrap().epoch();
        assert_ne!(movie(&db), movie(&previous));
        db.reset_untouched(&previous, &log);
        assert_eq!(movie(&db), movie(&previous), "movie is previous's again");
        assert_ne!(
            db.relation("rating").unwrap().epoch(),
            previous.relation("rating").unwrap().epoch()
        );
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
    /// version, writes after the assignment included.
    #[test]
    fn wholesale_replacement_yields_the_exact_diff() {
        let previous = movie_db();
        let mut db = previous.clone();
        db.begin_delta_tracking();
        let schema = previous.relation("rating").unwrap().schema().clone();
        *db.relation_mut("rating").unwrap() =
            Relation::from_tuples(schema, vec![tuple![7, 7], tuple![2, 3]]).unwrap();
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
