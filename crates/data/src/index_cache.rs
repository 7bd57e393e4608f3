//! Cached per-access-pattern hash indexes over relation instances.
//!
//! Every hot path of the reproduction — homomorphism search, CQ containment
//! (thousands of Chandra–Merlin tests against the same canonical instance),
//! naive `Q(D)` evaluation — probes relations through a hash index keyed on
//! some subset of attribute positions.  Building such an index is `O(|R|)`;
//! before this module existed it was rebuilt on *every* call, so a workload
//! of repeated containment checks paid index construction thousands of times
//! over.
//!
//! [`IndexCache`] memoises [`InternedIndex`]es under the key
//! `(relation epoch, key positions)`.  The epoch (see [`Relation::epoch`])
//! is a globally unique stamp refreshed on every mutation, which gives
//! invalidation for free: a mutated relation presents a new epoch, its stale
//! indexes are simply never looked up again.  The indexes of one epoch share
//! the relation's interned snapshot ([`snapshot_of`]), so indexing the same
//! relation under several access patterns interns its tuples once.
//!
//! The cache uses `Rc`/`RefCell` interior mutability: callers share an
//! `&IndexCache` and receive `Rc<InternedIndex>` handles that stay valid
//! across further cache activity.  It is single-threaded by design, like the
//! rest of the decision procedures.

use crate::intern::ValueId;
use crate::relation::Relation;
use crate::snapshot::{snapshot_of, InternedSnapshot};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// A hash index over an [`InternedSnapshot`], keyed on a fixed list of
/// attribute positions.  This is the index shape the slot-based homomorphism
/// engine probes: keys and payloads are dense `u32` ids, so hashing an
/// integer key and comparing candidates never touches a
/// [`Value`](crate::Value).
#[derive(Debug)]
pub struct InternedIndex {
    key_positions: Vec<usize>,
    snapshot: Arc<InternedSnapshot>,
    map: HashMap<Vec<ValueId>, Vec<u32>>,
}

impl InternedIndex {
    fn build(snapshot: Arc<InternedSnapshot>, key_positions: &[usize]) -> Self {
        let mut map: HashMap<Vec<ValueId>, Vec<u32>> = HashMap::new();
        for i in 0..snapshot.len() as u32 {
            let row = snapshot.row(i);
            let key: Vec<ValueId> = key_positions.iter().map(|&p| row[p]).collect();
            map.entry(key).or_default().push(i);
        }
        InternedIndex {
            key_positions: key_positions.to_vec(),
            snapshot,
            map,
        }
    }

    /// The positions this index is keyed on.
    pub fn key_positions(&self) -> &[usize] {
        &self.key_positions
    }

    /// The snapshot the index is built over.
    pub fn snapshot(&self) -> &Arc<InternedSnapshot> {
        &self.snapshot
    }

    /// Row indexes (for [`InternedIndex::row`]) of the rows matching `key`.
    pub fn probe(&self, key: &[ValueId]) -> &[u32] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The row at snapshot position `i` (as returned by `probe`).
    pub fn row(&self, i: u32) -> &[ValueId] {
        self.snapshot.row(i)
    }

    /// Number of rows in the underlying snapshot.
    pub fn len(&self) -> usize {
        self.snapshot.len()
    }

    /// True when the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_empty()
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

/// Cache key: a relation epoch plus the indexed key positions.
type IndexKey = (u64, Vec<usize>);

/// Memoisation of [`InternedIndex`]es keyed by `(epoch, key positions)`.
/// Interned snapshots themselves belong to the relation version they freeze
/// (see [`crate::snapshot`]), so they are shared *across* cache instances;
/// the per-cache map below only memoises the indexes built over them.
#[derive(Debug, Default)]
pub struct IndexCache {
    interned: RefCell<HashMap<IndexKey, Rc<InternedIndex>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

/// Soft bound on cached indexes; exceeding it clears the cache.  Long-running
/// searches over ever-fresh canonical instances would otherwise accumulate
/// entries for epochs that are never probed again.
const MAX_CACHED_INDEXES: usize = 4096;

impl IndexCache {
    /// An empty cache.
    pub fn new() -> Self {
        IndexCache::default()
    }

    /// The shared interned snapshot of `relation`'s current epoch (built at
    /// most once per epoch *process-wide*, not per cache).
    pub fn snapshot(&self, relation: &Relation) -> Arc<InternedSnapshot> {
        snapshot_of(relation)
    }

    /// The interned index for `relation` keyed on `key_positions`, built at
    /// most once per (epoch, access pattern) in this cache; the underlying
    /// snapshot is shared across caches.
    pub fn interned_index_for(
        &self,
        relation: &Relation,
        key_positions: &[usize],
    ) -> Rc<InternedIndex> {
        let epoch = relation.epoch();
        if let Some(idx) = self.interned.borrow().get(&(epoch, key_positions.to_vec())) {
            self.hits.set(self.hits.get() + 1);
            return Rc::clone(idx);
        }
        self.misses.set(self.misses.get() + 1);
        if self.interned.borrow().len() >= MAX_CACHED_INDEXES {
            self.clear();
        }
        let idx = Rc::new(InternedIndex::build(snapshot_of(relation), key_positions));
        self.interned
            .borrow_mut()
            .insert((epoch, key_positions.to_vec()), Rc::clone(&idx));
        idx
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
        self.interned.borrow().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.interned.borrow().is_empty()
    }

    /// Drop every cached index (statistics are kept).
    pub fn clear(&self) {
        self.interned.borrow_mut().clear();
    }
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

    fn id(v: i64) -> ValueId {
        ValueId::intern(&Value::int(v))
    }

    #[test]
    fn probe_groups_by_key() {
        let cache = IndexCache::new();
        let r = rating();
        let idx = cache.interned_index_for(&r, &[1]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        let hits = idx.probe(&[id(5)]);
        let mids: Vec<ValueId> = hits.iter().map(|&i| idx.row(i)[0]).collect();
        assert_eq!(mids, vec![id(1), id(3)]);
        assert!(idx.probe(&[id(9)]).is_empty());
        // A composite key groups by the pair, in key-position order.
        let pair = cache.interned_index_for(&r, &[1, 0]);
        assert_eq!(pair.distinct_keys(), 3);
        assert_eq!(pair.probe(&[id(5), id(3)]), &[2]);
        assert!(pair.probe(&[id(3), id(5)]).is_empty());
    }

    #[test]
    fn empty_key_positions_index_everything_under_the_unit_key() {
        let r = rating();
        let idx = IndexCache::new().interned_index_for(&r, &[]);
        assert_eq!(idx.probe(&[]).len(), 3);
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn cache_hits_on_repeated_lookups() {
        let cache = IndexCache::new();
        let r = rating();
        let a = cache.interned_index_for(&r, &[0]);
        let b = cache.interned_index_for(&r, &[0]);
        assert!(
            Rc::ptr_eq(&a, &b),
            "second lookup must reuse the built index"
        );
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A different access pattern is a different index.
        let c = cache.interned_index_for(&r, &[1]);
        assert!(!Rc::ptr_eq(&a, &c));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn mutation_invalidates_via_epoch() {
        let cache = IndexCache::new();
        let mut r = rating();
        let before = cache.interned_index_for(&r, &[1]);
        assert_eq!(before.probe(&[id(5)]).len(), 2);

        r.insert(tuple![4, 5]).unwrap();
        let after = cache.interned_index_for(&r, &[1]);
        assert!(!Rc::ptr_eq(&before, &after), "mutation must miss the cache");
        assert_eq!(
            after.probe(&[id(5)]).len(),
            3,
            "fresh index sees the new tuple"
        );
        // The stale index is untouched (snapshot semantics).
        assert_eq!(before.probe(&[id(5)]).len(), 2);
    }

    #[test]
    fn unmutated_clone_shares_cached_index() {
        let cache = IndexCache::new();
        let r = rating();
        let a = cache.interned_index_for(&r, &[0]);
        let clone = r.clone();
        let b = cache.interned_index_for(&clone, &[0]);
        assert!(
            Rc::ptr_eq(&a, &b),
            "clone with identical contents may share the index"
        );
    }

    #[test]
    fn interned_index_probes_by_id() {
        let cache = IndexCache::new();
        let r = rating();
        let idx = cache.interned_index_for(&r, &[1]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.key_positions(), &[1]);
        let five = crate::intern::ValueId::intern(&Value::int(5));
        let hits = idx.probe(&[five]);
        assert_eq!(hits.len(), 2);
        let mids: Vec<Value> = hits.iter().map(|&i| idx.row(i)[0].value()).collect();
        assert_eq!(mids, vec![Value::int(1), Value::int(3)]);
        let nine = crate::intern::ValueId::intern(&Value::int(9));
        assert!(idx.probe(&[nine]).is_empty());
    }

    #[test]
    fn interned_indexes_share_the_snapshot_and_invalidate_by_epoch() {
        let cache = IndexCache::new();
        let other_cache = IndexCache::new();
        let mut r = rating();
        let a = cache.interned_index_for(&r, &[0]);
        let b = cache.interned_index_for(&r, &[1]);
        assert!(
            std::sync::Arc::ptr_eq(a.snapshot(), b.snapshot()),
            "two access patterns share one interned snapshot"
        );
        let c = other_cache.interned_index_for(&r, &[0]);
        assert!(
            std::sync::Arc::ptr_eq(a.snapshot(), c.snapshot()),
            "snapshots are shared across cache instances"
        );
        let again = cache.interned_index_for(&r, &[0]);
        assert!(Rc::ptr_eq(&a, &again), "repeat lookups hit the cache");

        r.insert(tuple![4, 5]).unwrap();
        let fresh = cache.interned_index_for(&r, &[0]);
        assert!(!Rc::ptr_eq(&a, &fresh), "mutation must miss the cache");
        assert_eq!(fresh.len(), 4);
        assert_eq!(a.len(), 3, "stale index keeps its frozen snapshot");
    }

    #[test]
    fn clear_resets_entries() {
        let cache = IndexCache::new();
        let r = rating();
        let _ = cache.interned_index_for(&r, &[0]);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        let _ = cache.interned_index_for(&r, &[0]);
        assert_eq!(cache.misses(), 2);
    }
}
