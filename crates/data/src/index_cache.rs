//! Cached per-access-pattern hash indexes over relation versions.
//!
//! Every hot path of the reproduction — homomorphism search, CQ containment
//! (thousands of Chandra–Merlin tests against the same canonical instance),
//! naive `Q(D)` evaluation — probes relations through a hash index keyed on
//! some subset of attribute positions.  Building such an index is `O(|R|)`;
//! before this module existed it was rebuilt on *every* call, so a workload
//! of repeated containment checks paid index construction thousands of times
//! over.
//!
//! [`IndexCache`] memoises [`InternedAccessIndex`]es — whole tuples keyed on
//! the given positions, the index [`Relation::keyed_index`] builds, by the
//! same function — under the key `(relation epoch, key positions)`, and the
//! planner's [`RelationStats`] under the epoch.  The epoch (see
//! [`Relation::epoch`]) is a globally unique stamp refreshed on every
//! mutation, which gives invalidation for free: a mutated relation presents
//! a new epoch, its stale entries are simply never looked up again.
//!
//! The indexes are the cache's own, not the relation's keyed indexes: a
//! relation carries those across every later write (patching each one), so
//! an index the search probes once would tax every write to its relation for
//! as long as the relation lives.  A cached index is frozen at its epoch and
//! freed with the cache.
//!
//! The cache uses `Rc`/`RefCell` interior mutability: callers share an
//! `&IndexCache` and receive `Rc<InternedAccessIndex>` handles that stay
//! valid across further cache activity.  It is single-threaded by design,
//! like the rest of the decision procedures.

use crate::index::{InternedAccessIndex, Layout};
use crate::relation::Relation;
use crate::stats::RelationStats;
use crate::Result;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Cache key: a relation epoch plus the indexed key positions.
type IndexKey = (u64, Vec<usize>);

/// Memoisation of [`InternedAccessIndex`]es keyed by `(epoch, key
/// positions)`, and of [`RelationStats`] keyed by epoch.
#[derive(Debug, Default)]
pub struct IndexCache {
    indexes: RefCell<HashMap<IndexKey, Rc<InternedAccessIndex>>>,
    stats: RefCell<HashMap<u64, RelationStats>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

/// Soft bound on cached indexes (and, separately, statistics); exceeding it
/// clears the cache.  Long-running searches over ever-fresh canonical
/// instances would otherwise accumulate entries for epochs that are never
/// probed again.
const MAX_CACHED_INDEXES: usize = 4096;

impl IndexCache {
    /// An empty cache.
    pub fn new() -> Self {
        IndexCache::default()
    }

    /// The statistics of `relation`'s current epoch, computed from its
    /// stored rows at most once per epoch in this cache.
    pub fn stats(&self, relation: &Relation) -> RelationStats {
        let epoch = relation.epoch();
        if let Some(stats) = self.stats.borrow().get(&epoch) {
            return stats.clone();
        }
        let stats = RelationStats::of_rows(relation);
        let mut memo = self.stats.borrow_mut();
        if memo.len() >= MAX_CACHED_INDEXES {
            memo.clear();
        }
        memo.insert(epoch, stats.clone());
        stats
    }

    /// The index of `relation`'s tuples, whole, keyed on `key_positions`:
    /// probing it with the interned values of those positions returns the
    /// matching tuples as flat id rows.  Built at most once per (epoch,
    /// access pattern) in this cache.  On a nullary relation, whose rows no
    /// index holds, or a position outside the schema: `IndexPositions`.
    pub fn interned_index_for(
        &self,
        relation: &Relation,
        key_positions: &[usize],
    ) -> Result<Rc<InternedAccessIndex>> {
        let epoch = relation.epoch();
        if let Some(idx) = self.indexes.borrow().get(&(epoch, key_positions.to_vec())) {
            self.hits.set(self.hits.get() + 1);
            return Ok(Rc::clone(idx));
        }
        let layout = Layout::keyed(relation.schema(), key_positions)?;
        self.misses.set(self.misses.get() + 1);
        if self.indexes.borrow().len() >= MAX_CACHED_INDEXES {
            self.clear();
        }
        let idx = Rc::new(InternedAccessIndex::from_relation(relation, &layout));
        self.indexes
            .borrow_mut()
            .insert((epoch, key_positions.to_vec()), Rc::clone(&idx));
        Ok(idx)
    }

    /// Cache hits so far (index served without building).
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses so far (index built).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Number of indexes currently cached.
    pub fn len(&self) -> usize {
        self.indexes.borrow().len()
    }

    /// True when no index is cached.
    pub fn is_empty(&self) -> bool {
        self.indexes.borrow().is_empty()
    }

    /// Drop every cached index and statistic (hit and miss counts are kept).
    pub fn clear(&self) {
        self.indexes.borrow_mut().clear();
        self.stats.borrow_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::ValueId;
    use crate::schema::RelationSchema;
    use crate::tuple;
    use crate::value::Value;

    fn rating() -> Relation {
        let schema = RelationSchema::new("rating", &["mid", "rank"]).unwrap();
        Relation::from_tuples(schema, vec![tuple![1, 5], tuple![2, 4], tuple![3, 5]]).unwrap()
    }

    fn id(v: i64) -> ValueId {
        ValueId::intern(&Value::int(v))
    }

    /// The values at `position` of the rows a probe returned, sorted.
    fn column(rows: &[ValueId], position: usize) -> Vec<Value> {
        let mut values: Vec<Value> = rows.chunks_exact(2).map(|r| r[position].value()).collect();
        values.sort();
        values
    }

    #[test]
    fn probe_groups_by_key() {
        let cache = IndexCache::new();
        let r = rating();
        let idx = cache.interned_index_for(&r, &[1]).unwrap();
        assert_eq!(idx.total_rows(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(
            column(idx.probe(&[id(5)]), 0),
            [Value::int(1), Value::int(3)]
        );
        assert!(idx.probe(&[id(9)]).is_empty());
        // A composite key groups by the pair, in key-position order.
        let pair = cache.interned_index_for(&r, &[1, 0]).unwrap();
        assert_eq!(pair.distinct_keys(), 3);
        assert_eq!(pair.probe(&[id(5), id(3)]), &[id(3), id(5)]);
        assert!(pair.probe(&[id(3), id(5)]).is_empty());
    }

    #[test]
    fn empty_key_positions_index_everything_under_the_unit_key() {
        let r = rating();
        let idx = IndexCache::new().interned_index_for(&r, &[]).unwrap();
        assert_eq!(idx.probe_len(&[]), 3);
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn cache_hits_on_repeated_lookups() {
        let cache = IndexCache::new();
        let r = rating();
        let a = cache.interned_index_for(&r, &[0]).unwrap();
        let b = cache.interned_index_for(&r, &[0]).unwrap();
        assert!(
            Rc::ptr_eq(&a, &b),
            "second lookup must reuse the built index"
        );
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A different access pattern is a different index.
        let c = cache.interned_index_for(&r, &[1]).unwrap();
        assert!(!Rc::ptr_eq(&a, &c));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn mutation_invalidates_via_epoch() {
        let cache = IndexCache::new();
        let mut r = rating();
        let before = cache.interned_index_for(&r, &[1]).unwrap();
        assert_eq!(before.probe_len(&[id(5)]), 2);
        assert_eq!(cache.stats(&r).tuples(), 3);

        r.insert(tuple![4, 5]).unwrap();
        let after = cache.interned_index_for(&r, &[1]).unwrap();
        assert!(!Rc::ptr_eq(&before, &after), "mutation must miss the cache");
        assert_eq!(
            after.probe_len(&[id(5)]),
            3,
            "fresh index sees the new tuple"
        );
        assert_eq!(cache.stats(&r).tuples(), 4, "so do fresh statistics");
        // The stale index is untouched: frozen at its epoch.
        assert_eq!(before.probe_len(&[id(5)]), 2);
    }

    #[test]
    fn unmutated_clone_shares_cached_index() {
        let cache = IndexCache::new();
        let r = rating();
        let a = cache.interned_index_for(&r, &[0]).unwrap();
        let clone = r.clone();
        let b = cache.interned_index_for(&clone, &[0]).unwrap();
        assert!(
            Rc::ptr_eq(&a, &b),
            "clone with identical contents may share the index"
        );
    }

    #[test]
    fn interned_index_probes_by_id() {
        let cache = IndexCache::new();
        let r = rating();
        let idx = cache.interned_index_for(&r, &[1]).unwrap();
        assert_eq!(idx.arity(), 2, "whole tuples");
        assert_eq!(idx.distinct_keys(), 2);
        let hits = idx.probe(&[id(5)]);
        assert_eq!(hits.len(), 2 * 2);
        assert_eq!(column(hits, 1), [Value::int(5), Value::int(5)]);
        let nine = ValueId::intern(&Value::int(9));
        assert!(idx.probe(&[nine]).is_empty());
        // The same contents as the relation's own keyed index, one built
        // by the same function.
        assert_eq!(*idx, *r.keyed_index(&[1]).unwrap());
    }

    #[test]
    fn caches_build_their_own_indexes_and_invalidate_by_epoch() {
        let cache = IndexCache::new();
        let other_cache = IndexCache::new();
        let mut r = rating();
        let a = cache.interned_index_for(&r, &[0]).unwrap();
        let c = other_cache.interned_index_for(&r, &[0]).unwrap();
        assert!(!Rc::ptr_eq(&a, &c), "each cache builds its own");
        assert_eq!(a, c);
        assert!(
            r.keyed_index_if_built(&[0]).is_none(),
            "the relation keeps none"
        );
        let again = cache.interned_index_for(&r, &[0]).unwrap();
        assert!(Rc::ptr_eq(&a, &again), "repeat lookups hit the cache");

        r.insert(tuple![4, 5]).unwrap();
        let fresh = cache.interned_index_for(&r, &[0]).unwrap();
        assert!(!Rc::ptr_eq(&a, &fresh), "mutation must miss the cache");
        assert_eq!(fresh.total_rows(), 4);
        assert_eq!(a.total_rows(), 3, "the stale index is frozen");
    }

    #[test]
    fn clear_resets_entries() {
        let cache = IndexCache::new();
        let r = rating();
        let _ = cache.interned_index_for(&r, &[0]).unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        let _ = cache.interned_index_for(&r, &[0]).unwrap();
        assert_eq!(cache.misses(), 2);
    }
}
