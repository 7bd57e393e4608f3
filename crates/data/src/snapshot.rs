//! Immutable relation snapshots, owned by the relation version they freeze.
//!
//! An [`InternedSnapshot`] freezes one relation epoch as a flat, row-major
//! `Vec<ValueId>` (see [`crate::intern`]) plus its [`RelationStats`].  It is
//! the storage format the slot-based homomorphism engine executes over: the
//! inner search loop touches only dense `u32` ids, never `Value`s.
//!
//! The relation already stores its tuples as id rows, interned when they
//! were inserted, so a snapshot is the concatenation of its chunks: copied,
//! never interned.  Every [`Relation`] owns a cell for the snapshot of its
//! contents, filled on the first [`snapshot_of`] call and shared by
//! unmutated clones: any number of [`crate::IndexCache`]s, threads and data
//! versions holding the same relation version receive the same `Arc`, so
//! the rows are copied and the statistics counted once per epoch.  A
//! mutation gives the
//! mutated instance an empty cell; the old snapshot lives exactly as long
//! as some clone of the old version (or a consumer's `Arc`) does.  Nothing
//! is built for a relation no one snapshots — a fact table reached only
//! through its access indexes never pays for one — and no write carries one
//! forward: nothing on the write path reads snapshots (view maintenance
//! probes the relations' sorted storage and keyed indexes), so the successor
//! of a written relation is snapshotted again, in one `O(|R| · arity)` pass,
//! only when a scan of it asks.

use crate::intern::ValueId;
use crate::relation::Relation;
use crate::stats::RelationStats;
use std::sync::Arc;

/// An immutable copy of one relation epoch's id rows, in the relation's
/// sorted iteration order.
#[derive(Debug)]
pub struct InternedSnapshot {
    epoch: u64,
    arity: usize,
    rows: usize,
    /// Row-major: row `i` occupies `data[i*arity .. (i+1)*arity]`.
    data: Vec<ValueId>,
    stats: RelationStats,
}

impl InternedSnapshot {
    fn build(relation: &Relation) -> Self {
        let arity = relation.schema().arity();
        let data = relation.id_chunks().collect::<Vec<_>>().concat();
        InternedSnapshot {
            epoch: relation.epoch(),
            arity,
            rows: relation.len(),
            stats: RelationStats::of_rows(relation.len(), arity, &data),
            data,
        }
    }

    /// The epoch this snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Attribute count.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the snapshot holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i` as a slice of interned ids.
    pub fn row(&self, i: u32) -> &[ValueId] {
        let start = i as usize * self.arity;
        &self.data[start..start + self.arity]
    }

    /// The flat row-major id data: `len() * arity()` ids.  This is what a
    /// plan's scan copies (one `memcpy`) and its fused filter reads in batches.
    pub fn id_rows(&self) -> &[ValueId] {
        &self.data
    }

    /// The snapshot's cardinality statistics.
    pub fn stats(&self) -> &RelationStats {
        &self.stats
    }
}

/// The shared snapshot of `relation`'s current contents, built on first
/// request and kept in the relation's own cell: every caller — every
/// [`crate::IndexCache`] on every thread, through any unmutated clone —
/// receives the same `Arc`.  Concurrent first requests build once; the
/// others wait for that build.
pub fn snapshot_of(relation: &Relation) -> Arc<InternedSnapshot> {
    Arc::clone(relation.snapshot_cell().get_or_init(|| build(relation)))
}

fn build(relation: &Relation) -> Arc<InternedSnapshot> {
    // The copy is infallible, so this failpoint is panic-only: an injected
    // `Error` kind also surfaces as a panic here (the cell stays empty).
    if let Err(e) = crate::faults::check(crate::faults::sites::SNAPSHOT_INTERN) {
        panic!("{e}");
    }
    Arc::new(InternedSnapshot::build(relation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tuple;
    use crate::value::Value;

    fn rating() -> Relation {
        let schema = RelationSchema::new("rating", &["mid", "rank"]).unwrap();
        Relation::from_tuples(schema, vec![tuple![1, 5], tuple![2, 4], tuple![3, 5]]).unwrap()
    }

    #[test]
    fn snapshot_rows_are_interned_in_iteration_order() {
        let r = rating();
        let snap = snapshot_of(&r);
        assert_eq!(snap.arity(), 2);
        assert_eq!(snap.len(), 3);
        assert!(!snap.is_empty());
        assert_eq!(snap.epoch(), r.epoch());
        // Row 0 is the smallest tuple (1, 5); ids round-trip to the values.
        let row0: Vec<Value> = snap.row(0).iter().map(|id| id.value()).collect();
        assert_eq!(row0, vec![Value::int(1), Value::int(5)]);
        assert_eq!(snap.stats().tuples(), 3);
        assert_eq!(snap.stats().distinct(1), 2);
    }

    #[test]
    fn same_epoch_shares_one_snapshot() {
        let r = rating();
        let a = snapshot_of(&r);
        let b = snapshot_of(&r);
        assert!(Arc::ptr_eq(&a, &b), "one epoch, one snapshot");
        let clone = r.clone();
        let c = snapshot_of(&clone);
        assert!(Arc::ptr_eq(&a, &c), "unmutated clones share the epoch");
    }

    #[test]
    fn mutation_yields_a_fresh_snapshot() {
        let mut r = rating();
        let before = snapshot_of(&r);
        r.insert(tuple![4, 5]).unwrap();
        let after = snapshot_of(&r);
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(before.len(), 3, "old snapshot is frozen");
        assert_eq!(after.len(), 4);
    }

    #[test]
    fn snapshot_lives_exactly_as_long_as_its_relation_version() {
        let r = rating();
        assert!(!r.has_snapshot(), "nothing is built until someone asks");
        let first = snapshot_of(&r);
        let weak = Arc::downgrade(&first);
        drop(first);
        // The relation version owns its snapshot: a consumer dropping its
        // handle frees nothing, and the next request is the same object.
        assert!(r.has_snapshot());
        assert!(Arc::ptr_eq(&snapshot_of(&r), &weak.upgrade().unwrap()));
        // A mutated clone starts cold; the old version keeps its snapshot.
        let mut next = r.clone();
        next.insert(tuple![4, 4]).unwrap();
        assert!(!next.has_snapshot() && r.has_snapshot());
        // The snapshot dies with the last clone of its version.
        drop(r);
        assert!(weak.upgrade().is_none(), "freed with its relation version");
    }

    #[test]
    fn concurrent_readers_share_one_snapshot() {
        let r = rating();
        let snap = snapshot_of(&r);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&snap);
                let rel = r.clone();
                std::thread::spawn(move || {
                    let local = snapshot_of(&rel);
                    assert!(Arc::ptr_eq(&local, &s), "threads share the epoch snapshot");
                    // Concurrent reads resolve consistently.
                    (0..local.len() as u32)
                        .map(|i| local.row(i)[0].value())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            let firsts = h.join().unwrap();
            assert_eq!(firsts, vec![Value::int(1), Value::int(2), Value::int(3)]);
        }
    }
}
