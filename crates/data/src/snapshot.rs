//! Interned, immutable relation snapshots, owned by the relation version
//! they freeze.
//!
//! An [`InternedSnapshot`] freezes one relation epoch as a flat, row-major
//! `Vec<ValueId>` (see [`crate::intern`]) plus its [`RelationStats`].  It is
//! the storage format the slot-based homomorphism engine executes over: the
//! inner search loop touches only dense `u32` ids, never `Value`s.
//!
//! Every [`Relation`] owns a cell for the snapshot of its contents, filled
//! on the first [`snapshot_of`] call and shared by unmutated clones: any
//! number of [`crate::IndexCache`]s, threads and data versions holding the
//! same relation version receive the same `Arc`, so the tuple data and
//! statistics are interned exactly once per epoch.  A mutation gives the
//! mutated instance an empty cell; the old snapshot lives exactly as long
//! as some clone of the old version (or a consumer's `Arc`) does.  Nothing
//! is built for a relation no one snapshots — a fact table reached only
//! through its access indexes never pays for one.
//!
//! Successive epochs of the same relation need not rebuild from scratch:
//! given the predecessor snapshot and the exact [`RelationDelta`] of the
//! mutation, [`patched_snapshot_of`] derives the successor by copying the
//! predecessor's flat id array and occurrence counts and patching the delta
//! in — `O(|R|)` id copies but only `O(|Δ|)` interning and hashing, against
//! the `O(|R| · arity)` of a cold build.

use crate::delta::RelationDelta;
use crate::intern::ValueId;
use crate::relation::Relation;
use crate::stats::RelationStats;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// An immutable, interned copy of one relation epoch.  Rows appear in
/// deterministic *first-seen* order: a from-scratch build interns in the
/// relation's sorted iteration order, and a delta-patched successor (see
/// [`InternedSnapshot::apply_delta`]) keeps its predecessor's order minus
/// the removed rows, with insertions appended.  Consumers may rely on the
/// order being deterministic per epoch, not on it being sorted — answer
/// sets are re-sorted at plan boundaries.
#[derive(Debug)]
pub struct InternedSnapshot {
    epoch: u64,
    arity: usize,
    rows: usize,
    /// Row-major: row `i` occupies `data[i*arity .. (i+1)*arity]`.
    data: Vec<ValueId>,
    stats: RelationStats,
    /// Exact per-position occurrence counts: `counts[p][id]` is the number
    /// of rows holding `id` at position `p`, so `counts[p].len()` is the
    /// distinct count reported by `stats`.  Carrying the full multiset
    /// (rather than just the distinct totals) is what lets
    /// [`InternedSnapshot::apply_delta`] keep the statistics exact under
    /// removals without re-scanning the surviving rows.
    counts: Vec<HashMap<ValueId, u32>>,
}

impl InternedSnapshot {
    fn build(relation: &Relation) -> Self {
        let arity = relation.schema().arity();
        let mut data = Vec::with_capacity(relation.len() * arity);
        for tuple in relation.iter() {
            for value in tuple.iter() {
                data.push(ValueId::intern(value));
            }
        }
        Self::from_data(relation.epoch(), arity, relation.len(), data)
    }

    fn from_data(epoch: u64, arity: usize, rows: usize, data: Vec<ValueId>) -> Self {
        debug_assert_eq!(data.len(), rows * arity);
        let mut counts: Vec<HashMap<ValueId, u32>> = vec![HashMap::new(); arity];
        for (pos, c) in counts.iter_mut().enumerate() {
            for row in 0..rows {
                *c.entry(data[row * arity + pos]).or_insert(0) += 1;
            }
        }
        let stats = RelationStats::from_parts(rows, counts.iter().map(HashMap::len).collect());
        InternedSnapshot {
            epoch,
            arity,
            rows,
            data,
            stats,
            counts,
        }
    }

    /// The successor snapshot for `relation = predecessor + delta`, built by
    /// patching a copy of this snapshot instead of re-interning `|R|` tuples:
    /// removed rows are filtered out of the flat row array, interned inserted
    /// rows are appended (in their sorted delta order), and the per-position
    /// occurrence counts — and through them the [`RelationStats`] distinct
    /// counts — are adjusted incrementally.
    ///
    /// Cost: only the `O(|Δ| · arity)` delta values are interned, but the
    /// copy is `O(|R|)` — the id array is memcpy'd (or, with removals,
    /// re-scanned row by row against the hashed removed set) and the
    /// occurrence maps are cloned.  That is paid only for relations whose
    /// predecessor snapshot someone built (see [`patched_snapshot_of`]).
    ///
    /// Returns `None` when the inputs do not reconcile (the delta applied
    /// to this snapshot does not yield exactly `relation`'s cardinality, a
    /// removed tuple has no matching row, or the relation is nullary) — the
    /// caller falls back to a from-scratch build with identical contents.
    pub fn apply_delta(
        &self,
        relation: &Relation,
        delta: &RelationDelta,
    ) -> Option<InternedSnapshot> {
        let arity = self.arity;
        let expected = (self.rows + delta.inserted.len()).checked_sub(delta.removed.len())?;
        if arity == 0 || relation.schema().arity() != arity || expected != relation.len() {
            return None;
        }
        let rows = relation.len();
        let mut counts = self.counts.clone();
        let mut data: Vec<ValueId> = Vec::with_capacity(rows.max(self.rows) * arity);
        if delta.removed.is_empty() {
            data.extend_from_slice(&self.data);
        } else {
            // Intern the removed tuples once, then filter their rows out
            // while keeping every survivor in predecessor order.
            let mut removed: HashSet<Vec<ValueId>> = delta
                .removed
                .iter()
                .filter(|t| t.arity() == arity)
                .map(|t| t.iter().map(ValueId::intern).collect())
                .collect();
            if removed.len() != delta.removed.len() {
                return None;
            }
            for row in self.data.chunks_exact(arity) {
                if removed.take(row).is_some() {
                    for (pos, id) in row.iter().enumerate() {
                        match counts[pos].get_mut(id) {
                            Some(n) if *n > 1 => *n -= 1,
                            Some(_) => {
                                counts[pos].remove(id);
                            }
                            None => return None,
                        }
                    }
                } else {
                    data.extend_from_slice(row);
                }
            }
            if !removed.is_empty() {
                // A removed tuple had no matching row: the delta does not
                // describe this snapshot's contents.
                return None;
            }
        }
        for t in &delta.inserted {
            if t.arity() != arity {
                return None;
            }
            for (pos, value) in t.iter().enumerate() {
                let id = ValueId::intern(value);
                data.push(id);
                *counts[pos].entry(id).or_insert(0) += 1;
            }
        }
        debug_assert_eq!(data.len(), rows * arity);
        let stats = RelationStats::from_parts(rows, counts.iter().map(HashMap::len).collect());
        Some(InternedSnapshot {
            epoch: relation.epoch(),
            arity,
            rows,
            data,
            stats,
            counts,
        })
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

    /// The flat row-major id data: `len() * arity()` ids.  This is the view
    /// the plan executor copies from (one `memcpy`, no per-row work).
    pub fn id_rows(&self) -> &[ValueId] {
        &self.data
    }

    /// The snapshot's cardinality statistics.
    pub fn stats(&self) -> &RelationStats {
        &self.stats
    }

    /// The flat id data of rows `range.start .. range.end` — the batch view
    /// vectorised kernels scan (`(range.end - range.start) * arity()` ids,
    /// no per-row indirection).
    pub fn batch(&self, range: std::ops::Range<usize>) -> &[ValueId] {
        &self.data[range.start * self.arity..range.end * self.arity]
    }
}

/// Split `rows` into at most `shards` contiguous, near-equal `[start, end)`
/// ranges (fewer when `rows < shards`; never an empty range unless
/// `rows == 0`, which yields one empty range so callers still run their
/// merge path).  Pure function of `(rows, shards)` — the basis of
/// deterministic sharded evaluation.
pub fn shard_ranges(rows: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1).min(rows.max(1));
    let base = rows / shards;
    let extra = rows % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
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
    // Interning is infallible, so this failpoint is panic-only: an injected
    // `Error` kind also surfaces as a panic here (the cell stays empty).
    if let Err(e) = crate::faults::check(crate::faults::sites::SNAPSHOT_INTERN) {
        panic!("{e}");
    }
    Arc::new(InternedSnapshot::build(relation))
}

/// The shared snapshot of `relation`'s current contents, built — unless the
/// relation already holds one — by patching `prev`, the snapshot of the
/// predecessor contents, with the exact `delta` separating the two
/// versions ([`InternedSnapshot::apply_delta`]: `O(|Δ|)` interning on top of
/// an `O(|R|)` id copy, instead of the `O(|R| · arity)` re-intern of a cold
/// [`snapshot_of`]).  The result lands in the relation's cell like any
/// other, so every later [`snapshot_of`] serves the same `Arc`.
/// [`crate::IndexedDatabase::apply_delta`] calls this for exactly the
/// touched relations whose predecessor snapshot exists: a relation nobody
/// snapshots is never patched either.
///
/// Falls back to the from-scratch build — identical contents, identical
/// statistics — whenever the patch cannot be applied: inconsistent inputs,
/// or an active [`crate::faults::sites::SNAPSHOT_PATCH`] `Error` fault.
pub fn patched_snapshot_of(
    relation: &Relation,
    prev: &InternedSnapshot,
    delta: &RelationDelta,
) -> Arc<InternedSnapshot> {
    Arc::clone(relation.snapshot_cell().get_or_init(|| {
        if crate::faults::check(crate::faults::sites::SNAPSHOT_PATCH).is_err() {
            return build(relation);
        }
        match prev.apply_delta(relation, delta) {
            Some(patched) => Arc::new(patched),
            None => build(relation),
        }
    }))
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

    /// Mutate `rel` under delta tracking and return the recorded delta.
    fn tracked(rel: &mut Relation, f: impl FnOnce(&mut Relation)) -> RelationDelta {
        rel.begin_delta_tracking();
        f(rel);
        rel.end_delta_tracking().unwrap().1
    }

    #[test]
    fn patched_snapshot_matches_a_from_scratch_build() {
        let mut r = rating();
        let before = snapshot_of(&r);
        let delta = tracked(&mut r, |r| {
            r.insert(tuple![9, 4]).unwrap();
            r.insert(tuple![0, 5]).unwrap();
            r.remove(&tuple![2, 4]).unwrap();
        });
        let patched = before.apply_delta(&r, &delta).unwrap();
        let rebuilt = InternedSnapshot::build(&r);
        assert_eq!(patched.epoch(), r.epoch());
        assert_eq!(patched.len(), rebuilt.len());
        assert_eq!(
            patched.stats(),
            rebuilt.stats(),
            "exact stats under removals"
        );
        // Same row *set*; the patched snapshot keeps first-seen order
        // (predecessor order minus removals, insertions appended).
        let rows = |s: &InternedSnapshot| -> Vec<Vec<ValueId>> {
            (0..s.len() as u32).map(|i| s.row(i).to_vec()).collect()
        };
        let mut a = rows(&patched);
        let mut b = rows(&rebuilt);
        let first: Vec<Value> = patched.row(0).iter().map(|id| id.value()).collect();
        assert_eq!(first, vec![Value::int(1), Value::int(5)], "survivor order");
        let last: Vec<Value> = patched
            .row(patched.len() as u32 - 1)
            .iter()
            .map(|id| id.value())
            .collect();
        assert_eq!(last, vec![Value::int(9), Value::int(4)], "inserts appended");
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn inconsistent_deltas_refuse_to_patch() {
        let r = rating();
        let snap = snapshot_of(&r);
        // A removed tuple that never existed cannot be reconciled.
        let mut bogus = RelationDelta::default();
        bogus.removed.insert(tuple![77, 1]);
        bogus.inserted.insert(tuple![78, 1]);
        assert!(snap.apply_delta(&r, &bogus).is_none());
        // A delta whose cardinality math does not land on |R| is rejected.
        let mut short = RelationDelta::default();
        short.inserted.insert(tuple![77, 1]);
        assert!(snap.apply_delta(&r, &short).is_none());
    }

    #[test]
    fn patched_snapshot_of_registers_and_shares() {
        let mut r = rating();
        let before = snapshot_of(&r);
        let delta = tracked(&mut r, |r| {
            r.insert(tuple![6, 2]).unwrap();
        });
        let patched = patched_snapshot_of(&r, &before, &delta);
        assert_eq!(patched.epoch(), r.epoch());
        assert_eq!(patched.len(), 4);
        // Siblings resolving the same version share the patched Arc.
        let again = snapshot_of(&r.clone());
        assert!(Arc::ptr_eq(&patched, &again));
        // A repeat request for the same version never re-patches.
        let fresh = patched_snapshot_of(&r, &before, &RelationDelta::default());
        assert!(
            Arc::ptr_eq(&fresh, &patched),
            "a filled cell short-circuits"
        );
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        assert_eq!(shard_ranges(0, 4), vec![(0, 0)]);
        assert_eq!(shard_ranges(3, 1), vec![(0, 3)]);
        assert_eq!(shard_ranges(2, 4), vec![(0, 1), (1, 2)], "never empty");
        assert_eq!(shard_ranges(10, 4), vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        assert_eq!(shard_ranges(10, 0), vec![(0, 10)], "0 shards clamps to 1");
        // Every partition covers [0, rows) without gaps or overlaps.
        for rows in [0usize, 1, 7, 100, 101] {
            for shards in [1usize, 2, 3, 4, 8] {
                let ranges = shard_ranges(rows, shards);
                let mut expect = 0;
                for (s, e) in &ranges {
                    assert_eq!(*s, expect);
                    assert!(e >= s);
                    expect = *e;
                }
                assert_eq!(expect, rows);
            }
        }
    }

    #[test]
    fn batch_views_tile_the_snapshot() {
        let r = rating();
        let snap = snapshot_of(&r);
        assert_eq!(snap.batch(0..3), snap.id_rows());
        assert_eq!(snap.batch(1..2), snap.row(1));
        assert!(snap.batch(2..2).is_empty());
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
