//! Relation instances: sets of tuples over a relation schema, with indexes.

use crate::delta::RelationDelta;
use crate::error::DataError;
use crate::index::{InternedAccessIndex, Layout};
use crate::intern::ValueId;
use crate::schema::RelationSchema;
use crate::tree::{Leaves, Tree};
use crate::tuple::{cmp_rows, Tuple, TupleRef};
use crate::value::Value;
use crate::Result;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Global epoch counter: every stamp is issued exactly once, so two
/// relations share an epoch only when one is an unmutated clone of the
/// other — i.e. when their contents are guaranteed identical.  This is what
/// lets [`crate::IndexCache`] key cached indexes by epoch alone.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Iterator over a relation's tuples in sorted order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    leaves: Leaves<'a>,
    /// The rows of the current leaf not yet yielded.
    current: &'a [ValueId],
    arity: usize,
    remaining: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = TupleRef<'a>;

    fn next(&mut self) -> Option<TupleRef<'a>> {
        if self.remaining == 0 {
            return None;
        }
        // Leaves are never empty, and a nullary relation's one tuple is
        // the empty row, which needs no leaf to read from.
        if self.current.is_empty() && self.arity > 0 {
            self.current = self.leaves.next()?;
        }
        self.remaining -= 1;
        let (row, rest) = self.current.split_at(self.arity);
        self.current = rest;
        Some(TupleRef::new(row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// A relation instance `D` of a single relation schema `R`, with set
/// semantics and deterministic (sorted) iteration order.
///
/// Each instance carries an *epoch*: a globally unique stamp refreshed on
/// every content mutation.  Derived structures (indexes, statistics) can
/// therefore be cached under the epoch and are implicitly invalidated the
/// moment the relation changes.  Clones share the epoch of their source —
/// sound, because a clone has identical contents until it is itself mutated
/// (which re-stamps it).
///
/// Tuples are stored as rows of interned [`ValueId`]s, not as [`Tuple`]s:
/// [`Relation::insert`] interns a tuple's values once, and the same id row
/// is what the storage, the keyed indexes and the constraint indexes built
/// from the relation hold — none of them interns again.
/// The rows are still kept in the tuples' value order, so iteration order,
/// `Display` and every answer read off a relation are what a set of
/// [`Tuple`]s would give; reading them yields [`TupleRef`]s, which index
/// to `&Value` through the pool.
///
/// Tuple storage is structurally shared: the sorted set is a persistent
/// B+-tree whose leaves are chunks of at most 512 rows, every node behind
/// its own [`Arc`].  Cloning a relation (and hence a whole
/// [`crate::Database`]) is one reference count on the tree, whatever its
/// size, and copies no tuple; a genuine write to a shared instance copies
/// the nodes on its root-to-leaf path — `O(log |R|)` inner nodes of a few
/// dozen children, and the one chunk it lands in, plus at most one node per
/// level when chunks split or merge — never the relation; dropping a
/// version frees only the nodes it did not share.
///
/// A relation owns its indexes, one per layout: keyed indexes
/// ([`Relation::keyed_index`]) and the access-constraint indexes
/// [`crate::IndexedDatabase::build`] put there.  **A relation's cell holds
/// indexes of exactly its contents:** [`Relation::insert`] / `remove` patch
/// every index the written version inherited (the one place a write reaches
/// an index); a net no-op write re-shares its predecessor's cell; a relation
/// replaced wholesale brings its own; a `KEYED_CARRY` `Error` empties it.
/// Unmutated clones share the cell.  Nothing else copies a relation: a
/// reader that wants its rows reads the leaves ([`Relation::id_chunks`]).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: RelationSchema,
    tuples: Tree,
    epoch: u64,
    /// Present only between `begin_delta_tracking` / `take_delta`: the net
    /// write set accumulated since tracking began.
    tracking: Option<DeltaState>,
    /// The indexes of exactly these contents, by layout, each present once
    /// someone asked for it.  Shared by unmutated clones; a mutation takes a
    /// patched copy along.
    indexes: Arc<RwLock<Indexes>>,
}

pub(crate) type Indexes = Vec<(Layout, Arc<InternedAccessIndex>)>;

#[derive(Debug, Clone)]
struct DeltaState {
    /// The epoch at the moment tracking began.
    base_epoch: u64,
    delta: RelationDelta,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        // The epoch is an identity stamp, not content: equal-content
        // relations must compare equal regardless of their mutation history.
        self.schema == other.schema && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

impl Relation {
    /// An empty instance of the given schema.
    pub fn empty(schema: RelationSchema) -> Self {
        Relation {
            tuples: Tree::new(schema.arity()),
            schema,
            epoch: fresh_epoch(),
            tracking: None,
            indexes: Arc::default(),
        }
    }

    /// The relation's current epoch: a globally unique stamp that changes on
    /// every mutation.  Two relations with the same epoch are guaranteed to
    /// have identical contents.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Build a relation from an iterator of tuples, validating arity.
    pub fn from_tuples(
        schema: RelationSchema,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self> {
        let mut rel = Relation::empty(schema);
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Relation name (shorthand for `schema().name()`).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.len() == 0
    }

    /// Insert a tuple; returns `true` if it was not already present.  This
    /// is where a stored value is interned: a value the pool has never seen
    /// is minted an id here, or the insert fails with
    /// [`DataError::ValuePoolExhausted`] and changes nothing.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        self.check_arity(&tuple)?;
        let row = tuple
            .iter()
            .map(ValueId::try_intern)
            .collect::<Result<Vec<_>>>()?;
        // The membership test comes first so a no-op insert neither copies
        // shared storage nor re-stamps the epoch.
        if self.tuples.contains(&row) {
            return Ok(false);
        }
        self.carry_indexes(&row, true);
        if let Some(state) = self.tracking.as_mut() {
            state.delta.record(tuple, true);
        }
        self.tuples.insert(&row);
        self.epoch = fresh_epoch();
        Ok(true)
    }

    /// Remove a tuple; returns `true` if it was present.
    pub fn remove(&mut self, tuple: &Tuple) -> Result<bool> {
        self.check_arity(tuple)?;
        let Some(row) = self
            .lookup_row(tuple)
            .filter(|row| self.tuples.contains(row))
        else {
            return Ok(false);
        };
        self.carry_indexes(&row, false);
        if let Some(state) = self.tracking.as_mut() {
            state.delta.record(tuple.clone(), false);
        }
        self.tuples.remove(&row);
        self.epoch = fresh_epoch();
        Ok(true)
    }

    /// The id row `tuple` would be stored as, if every one of its values is
    /// interned and its arity is this relation's; `None` proves it absent.
    /// Mints nothing.
    fn lookup_row(&self, tuple: &Tuple) -> Option<Vec<ValueId>> {
        let fits = tuple.arity() == self.schema.arity();
        fits.then(|| tuple.iter().map(ValueId::lookup).collect())?
    }

    /// Take the indexes along across a write of `row`: it is made `present`
    /// in, or absent from, every index this version inherited — one copied
    /// shard each, so `O(|R| / #shards)` ids per index, whether or not
    /// anything is about to probe it.  Runs before the write touches
    /// anything else, so a fault here leaves the instance as it was.
    ///
    /// An active [`crate::faults::sites::KEYED_CARRY`] `Error` fault drops
    /// the indexes instead: the next request rebuilds them from the
    /// relation, with identical contents.
    fn carry_indexes(&mut self, row: &[ValueId], present: bool) {
        let indexes = self.own_indexes();
        if indexes.is_empty() {
            return;
        }
        if crate::faults::check(crate::faults::sites::KEYED_CARRY).is_err() {
            indexes.clear();
            return;
        }
        for (layout, index) in indexes {
            let (key, projected) = layout.project(row);
            // A genuine write: an insert adds a source to every index, a
            // removal takes one each holds, so the patch cannot miss.
            Arc::make_mut(index).patch(key, &projected, present);
        }
    }

    /// This version's index cell, parted from its clones' on first use:
    /// the predecessor's indexes are kept by pointer.
    pub(crate) fn own_indexes(&mut self) -> &mut Indexes {
        if Arc::get_mut(&mut self.indexes).is_none() {
            let cell = self
                .indexes
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            self.indexes = Arc::new(RwLock::new(cell));
        }
        Arc::get_mut(&mut self.indexes)
            .expect("the cell was just made this instance's own")
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn check_arity(&self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(DataError::ArityMismatch {
                relation: self.schema.name().to_string(),
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        Ok(())
    }

    /// Begin recording the net write set of this instance: every
    /// [`Relation::insert`] / `remove` from now on adds its tuple to it,
    /// cancelling against earlier writes, until [`Relation::take_delta`].  Any previous tracking state is discarded.
    /// Assigning the instance wholesale replaces its tracking too; the delta
    /// is then found by a diff instead.
    pub fn begin_delta_tracking(&mut self) {
        self.tracking = Some(DeltaState {
            base_epoch: self.epoch,
            delta: RelationDelta::default(),
        });
    }

    /// Stop recording and return the net write set since `previous`, the
    /// version this one succeeds: the delta recorded since tracking began on
    /// `previous`'s epoch, or — tracking missing or begun on another epoch,
    /// as after a wholesale assignment — a diff of the two (`O(|R|)`).  An
    /// empty delta makes this relation `previous` again: its epoch, its
    /// storage and its indexes, so a do-undo or an equal replacement leaves
    /// no trace.
    pub fn take_delta(&mut self, previous: &Relation) -> RelationDelta {
        let tracked = self.take_tracked(Some(previous.epoch));
        if self.epoch == previous.epoch {
            // Epochs are globally unique: the contents are `previous`'s.
            return RelationDelta::default();
        }
        let delta = tracked.unwrap_or_else(|| self.diff(previous));
        if delta.is_empty() {
            *self = previous.clone();
            self.tracking = None;
        }
        delta
    }

    /// Stop recording and return what was recorded, when tracking began at
    /// the epoch `start`: then it is the exact net write set since the
    /// version that held `start`.  `None` when tracking is missing or began
    /// at another epoch, as after a wholesale assignment.
    pub(crate) fn take_tracked(&mut self, start: Option<u64>) -> Option<RelationDelta> {
        let tracked = self.tracking.take()?;
        (Some(tracked.base_epoch) == start).then_some(tracked.delta)
    }

    /// This relation against `previous` as a delta: one merge of the two
    /// value-ordered row sequences, `O(|R|)` — or none at all when the two
    /// share their storage.
    pub(crate) fn diff(&self, previous: &Relation) -> RelationDelta {
        let mut delta = RelationDelta::default();
        if self.shares_storage(previous) {
            return delta;
        }
        use std::cmp::Ordering::{Equal, Greater, Less};
        let (mut new, mut old) = (self.iter().peekable(), previous.iter().peekable());
        loop {
            let order = match (new.peek(), old.peek()) {
                (None, None) => return delta,
                (Some(_), None) => Less,
                (None, Some(_)) => Greater,
                (Some(n), Some(o)) => n.cmp(o),
            };
            match order {
                Less => delta.inserted.extend(new.next().map(|t| t.to_tuple())),
                Greater => delta.removed.extend(old.next().map(|t| t.to_tuple())),
                Equal => {
                    new.next();
                    old.next();
                }
            }
        }
    }

    /// True when `self` and `other` are the very same storage: one tree,
    /// which copy-on-write has not forked apart.  Shared storage implies
    /// identical contents; the converse does not hold.  One pointer
    /// comparison; no tuple is compared.
    pub fn shares_storage(&self, other: &Relation) -> bool {
        self.tuples.shares(&other.tuples)
    }

    /// Number of storage chunks: the leaves of the tree.
    pub fn chunk_count(&self) -> usize {
        self.tuples.leaves().count()
    }

    /// Levels of the storage tree, its root to its leaves: 1 while the
    /// relation fits one chunk, 0 when it is empty.
    pub fn storage_height(&self) -> usize {
        self.tuples.height()
    }

    /// How many nodes of this relation's storage tree — inner nodes and
    /// chunks alike — are not nodes of `other`'s:
    /// [`Relation::shares_storage`] generalised to partial sharing.  Against
    /// `previous`, the number of nodes the writes since `previous` copied
    /// or made; 0 for an unwritten clone.
    pub fn unshared_nodes(&self, other: &Relation) -> usize {
        self.tuples.unshared_nodes(&other.tuples)
    }

    /// The index of this version's tuples on `positions`: probing it with
    /// the interned values of those positions returns every matching tuple,
    /// whole, as flat id rows — a hash to one of 256 shards and a binary
    /// search over the shard's sorted keys ([`InternedAccessIndex`]).  Built
    /// on the first request — one `O(|R|)` pass over the stored id rows,
    /// interning nothing — and kept in the version's own cell: every
    /// unmutated clone serves the same `Arc`, and a mutated clone takes a
    /// patched copy along (see [`Relation`]), so a relation is indexed once
    /// per key, not once per version.  View maintenance probes base
    /// relations this way, and the plan executor a view extent under an
    /// equi-join — its build side, kept instead of rebuilt per read.  An
    /// index costs memory of the order of the relation for as long as a
    /// version holds it, and one copied shard per write.
    ///
    /// Fails with [`DataError::IndexPositions`] for a position outside the
    /// schema, or any positions on a nullary relation; and with an injected
    /// [`crate::faults::sites::KEYED_BUILD`] `Error`.
    pub fn keyed_index(&self, positions: &[usize]) -> Result<Arc<InternedAccessIndex>> {
        match self.keyed_index_if_built(positions) {
            Some(index) => Ok(index),
            None => self.index(Layout::keyed(&self.schema, positions)?),
        }
    }

    /// The keyed index on `positions` if this version holds one — built
    /// here or carried over from its predecessor — without building it.
    pub fn keyed_index_if_built(&self, positions: &[usize]) -> Option<Arc<InternedAccessIndex>> {
        let indexes = self.indexes.read().unwrap_or_else(PoisonError::into_inner);
        let arity = self.schema.arity();
        let found = indexes.iter().find(|(l, _)| l.is_keyed(arity, positions));
        found.map(|(_, index)| Arc::clone(index))
    }

    /// The index of `layout` this version holds, built from the stored rows
    /// into its cell — shared with its unmutated clones — if it holds none.
    pub(crate) fn index(&self, layout: Layout) -> Result<Arc<InternedAccessIndex>> {
        let mut indexes = self.indexes.write().unwrap_or_else(PoisonError::into_inner);
        // Under the write lock, so two first requests build it once.
        if let Some((_, index)) = indexes.iter().find(|(l, _)| *l == layout) {
            return Ok(Arc::clone(index));
        }
        crate::faults::check(crate::faults::sites::KEYED_BUILD)?;
        let index = Arc::new(InternedAccessIndex::from_relation(self, &layout));
        indexes.push((layout, Arc::clone(&index)));
        Ok(index)
    }

    /// A fresh epoch over unchanged contents and storage.
    #[cfg(test)]
    pub(crate) fn restamp(&mut self) {
        self.epoch = fresh_epoch();
    }

    /// Insert a tuple built from values convertible into [`Value`].
    pub fn insert_values<V: Into<Value>>(&mut self, values: Vec<V>) -> Result<bool> {
        self.insert(Tuple::new(values.into_iter().map(Into::into).collect()))
    }

    /// Membership test.  Looks `tuple`'s values up without interning them:
    /// a value the pool has never seen is in no relation.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        let row = self.lookup_row(tuple);
        row.is_some_and(|row| self.tuples.contains(&row))
    }

    /// Iterate over the tuples in sorted (value) order, each a [`TupleRef`]
    /// borrowing its stored id row.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            leaves: self.tuples.leaves(),
            current: &[],
            arity: self.schema.arity(),
            remaining: self.len(),
        }
    }

    /// The stored id rows chunk by chunk, row-major and in iteration order —
    /// the relation's own storage, read in place.  A nullary relation holding
    /// the empty tuple has one chunk of no ids, so count rows with
    /// [`Relation::len`], not from the ids.
    pub fn id_chunks(&self) -> impl Iterator<Item = &[ValueId]> {
        self.tuples.leaves()
    }

    /// The tuples whose first `prefix.len()` fields are the interned values
    /// `prefix`, in sorted order: a contiguous run of the sorted storage,
    /// found by one binary search per tree level (`O(log |R|)`) and walked
    /// (`O(matches)`) — an index on every leading run of attributes that
    /// costs no memory and no maintenance.  The empty prefix yields the
    /// whole relation; a prefix longer than the arity yields nothing.
    pub fn prefix_range<'r: 'p, 'p>(
        &'r self,
        prefix: &'p [ValueId],
    ) -> impl Iterator<Item = TupleRef<'r>> + 'p {
        let arity = self.schema.arity();
        let (head, rest) = match prefix.len() <= arity {
            true => self
                .tuples
                .seek(|r| cmp_rows(&r[..prefix.len()], prefix).is_lt()),
            false => (&[][..], Leaves::default()),
        };
        let rows = std::iter::once(head)
            .chain(rest)
            .flat_map(move |leaf| leaf.chunks_exact(arity.max(1)));
        // A nullary relation's one tuple is the empty row.
        let unit = (arity == 0 && prefix.is_empty() && self.len() == 1).then_some(&[][..]);
        let from_bound = rows.chain(unit).map(TupleRef::new);
        from_bound.take_while(move |t| t.ids().starts_with(prefix))
    }

    /// Project every tuple onto the given attribute names, deduplicating.
    pub fn project(&self, attributes: &[&str]) -> Result<Vec<Tuple>> {
        let positions = self.schema.positions(attributes)?;
        let mut out = BTreeSet::new();
        for t in self.iter() {
            out.insert(positions.iter().map(|&p| t[p].clone()).collect::<Tuple>());
        }
        Ok(out.into_iter().collect())
    }

    /// All tuples `t` with `t[X] = key` where `X` is given by attribute
    /// positions, in sorted order.  Linear scan, comparing ids — a key value
    /// the pool has never seen matches nothing; the indexed access paths are
    /// [`Relation::keyed_index`] and [`crate::IndexedDatabase::fetch`].
    pub fn select_eq(&self, positions: &[usize], key: &[Value]) -> Vec<TupleRef<'_>> {
        let Some(key) = key.iter().map(ValueId::lookup).collect::<Option<Vec<_>>>() else {
            return Vec::new();
        };
        let matches = |t: &TupleRef| positions.iter().zip(&key).all(|(&p, id)| t.ids()[p] == *id);
        self.iter().filter(matches).collect()
    }

    /// Distinct values of the attribute at `position`.
    pub fn distinct_values(&self, position: usize) -> BTreeSet<Value> {
        self.iter().map(|t| t[position].clone()).collect()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} tuples]", self.schema, self.len())?;
        for t in self.iter() {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = TupleRef<'a>;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::CHUNK_MAX;
    use crate::tuple;

    fn rating() -> Relation {
        let schema = RelationSchema::new("rating", &["mid", "rank"]).unwrap();
        Relation::from_tuples(
            schema,
            vec![tuple![1, 5], tuple![2, 4], tuple![3, 5], tuple![2, 4]],
        )
        .unwrap()
    }

    #[test]
    fn set_semantics_dedup() {
        let r = rating();
        assert_eq!(r.len(), 3, "duplicate tuple must be deduplicated");
        assert!(r.contains(&tuple![1, 5]));
        assert!(!r.contains(&tuple![1, 4]));
    }

    #[test]
    fn arity_checked_on_insert() {
        let mut r = rating();
        let err = r.insert(tuple![1, 2, 3]).unwrap_err();
        assert!(matches!(
            err,
            DataError::ArityMismatch {
                expected: 2,
                actual: 3,
                ..
            }
        ));
        assert!(r.insert(tuple![9, 1]).unwrap());
        assert!(!r.insert(tuple![9, 1]).unwrap(), "re-insert reports false");
    }

    #[test]
    fn insert_values_converts() {
        let schema = RelationSchema::new("person", &["pid", "name", "affiliation"]).unwrap();
        let mut r = Relation::empty(schema);
        r.insert_values(vec![
            Value::from(1),
            Value::from("Ann"),
            Value::from("NASA"),
        ])
        .unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn projection_dedups() {
        let r = rating();
        let ranks = r.project(&["rank"]).unwrap();
        assert_eq!(ranks, vec![tuple![4], tuple![5]]);
        assert!(r.project(&["bogus"]).is_err());
    }

    #[test]
    fn select_eq_scans() {
        let r = rating();
        let hits = r.select_eq(&[1], &[Value::int(5)]);
        assert_eq!(hits.len(), 2);
        let hits = r.select_eq(&[0, 1], &[Value::int(2), Value::int(4)]);
        assert_eq!(hits.len(), 1);
        let hits = r.select_eq(&[0], &[Value::int(42)]);
        assert!(hits.is_empty());
    }

    #[test]
    fn distinct_values_sorted() {
        let r = rating();
        let vals: Vec<_> = r.distinct_values(1).into_iter().collect();
        assert_eq!(vals, vec![Value::int(4), Value::int(5)]);
    }

    #[test]
    fn epoch_changes_on_mutation_only() {
        let mut r = rating();
        let e0 = r.epoch();
        // Re-inserting an existing tuple leaves the contents (and epoch) alone.
        assert!(!r.insert(tuple![1, 5]).unwrap());
        assert_eq!(r.epoch(), e0);
        // A genuine insertion re-stamps the relation.
        assert!(r.insert(tuple![7, 7]).unwrap());
        assert_ne!(r.epoch(), e0);
    }

    #[test]
    fn epoch_is_shared_by_clones_until_divergence() {
        let r = rating();
        let mut c = r.clone();
        assert_eq!(
            r.epoch(),
            c.epoch(),
            "unmutated clone has identical contents"
        );
        c.insert(tuple![8, 1]).unwrap();
        assert_ne!(r.epoch(), c.epoch(), "divergent clone must be re-stamped");
        // Epochs are globally unique: two fresh relations never collide.
        let schema = RelationSchema::new("x", &["a"]).unwrap();
        assert_ne!(
            Relation::empty(schema.clone()).epoch(),
            Relation::empty(schema).epoch()
        );
    }

    #[test]
    fn equality_ignores_epoch() {
        let a = rating();
        let b = rating();
        assert_ne!(a.epoch(), b.epoch());
        assert_eq!(a, b, "content equality must ignore the identity stamp");
    }

    #[test]
    fn remove_mirrors_insert() {
        let mut r = rating();
        let e0 = r.epoch();
        assert!(!r.remove(&tuple![42, 1]).unwrap(), "absent tuple");
        assert_eq!(r.epoch(), e0, "no-op remove keeps the epoch");
        assert!(r.remove(&tuple![1, 5]).unwrap());
        assert_ne!(r.epoch(), e0);
        assert_eq!(r.len(), 2);
        assert!(r.remove(&tuple![1, 2, 3]).is_err(), "arity checked");
    }

    #[test]
    fn clones_share_storage_until_first_write() {
        let r = rating();
        let mut c = r.clone();
        assert!(r.shares_storage(&c));
        // No-op writes must not fork the storage.
        assert!(!c.insert(tuple![1, 5]).unwrap());
        assert!(!c.remove(&tuple![42, 1]).unwrap());
        assert!(r.shares_storage(&c));
        // The first genuine write copies.
        c.insert(tuple![8, 8]).unwrap();
        assert!(!r.shares_storage(&c));
        assert_eq!(r.len(), 3);
        assert_eq!(c.len(), 4);
    }

    fn numbers(values: impl IntoIterator<Item = i64>) -> Relation {
        let schema = RelationSchema::new("n", &["v"]).unwrap();
        Relation::from_tuples(schema, values.into_iter().map(|v| tuple![v])).unwrap()
    }

    /// The tree is well formed, and its chunks add up to `len`.
    fn check_chunks(r: &Relation) {
        r.tuples.check();
        let ids: usize = r.id_chunks().map(<[ValueId]>::len).sum();
        assert_eq!(ids, r.len() * r.schema().arity());
        assert!(r.iter().zip(r.iter().skip(1)).all(|(a, b)| a < b));
        assert_eq!(r.iter().len(), r.len());
    }

    #[test]
    fn equality_compares_contents_not_chunk_layout() {
        // Ascending loads fill chunks completely, descending loads split
        // them in half: same set, different chunk boundaries.
        let up = numbers(0..3000);
        let down = numbers((0..3000).rev());
        assert_ne!(up.chunk_count(), down.chunk_count());
        assert_eq!(up.unshared_nodes(&down), up.chunk_count() + 1, "and a root");
        assert_eq!(up, down);
        assert!(up.iter().eq(down.iter()));
        let mut other = down.clone();
        other.remove(&tuple![1500]).unwrap();
        other.insert(tuple![9999]).unwrap();
        assert_eq!(other.len(), up.len());
        assert_ne!(up, other);
    }

    #[test]
    fn chunk_edges_split_merge_and_empty_out() {
        let mut r = numbers((0..2 * CHUNK_MAX as i64).map(|v| v * 2));
        assert_eq!(r.chunk_count(), 2, "a sorted load fills its chunks");
        // Past the full last chunk: a new chunk.  Then on both sides of the
        // inner boundary, into full chunks: two splits.  Then before the
        // first tuple, into a chunk with room.
        let edge = 2 * CHUNK_MAX as i64;
        for (v, chunks) in [(2 * edge, 3), (edge - 1, 4), (edge + 1, 5), (-1, 5)] {
            assert!(r.insert(tuple![v]).unwrap());
            assert!(r.contains(&tuple![v]));
            check_chunks(&r);
            assert_eq!(r.chunk_count(), chunks, "after inserting {v}");
        }
        // Drain from the front: chunks underflow, merge, and disappear.
        let all: Vec<Tuple> = r.iter().map(|t| t.to_tuple()).collect();
        let mut most = 0;
        for (i, t) in all.iter().enumerate() {
            assert!(r.remove(t).unwrap());
            assert!(!r.contains(t));
            assert_eq!(r.len(), all.len() - i - 1);
            check_chunks(&r);
            most = most.max(r.chunk_count());
        }
        assert!(most <= 5, "removals never add chunks");
        assert!(r.is_empty() && r.chunk_count() == 0 && r.iter().next().is_none());
        // An emptied relation takes inserts again.
        assert!(r.insert(tuple![7]).unwrap());
        assert_eq!(r.iter().collect::<Vec<_>>(), [tuple![7]]);
    }

    #[test]
    fn a_write_forks_only_the_chunk_it_lands_in() {
        let base = numbers((0..20_000).map(|v| v * 2));
        let frozen: Vec<Tuple> = base.iter().map(|t| t.to_tuple()).collect();
        let mut next = base.clone();
        assert_eq!(next.unshared_nodes(&base), 0);
        // 40 full chunks: a root over two inner nodes, of 16 and 24.
        assert_eq!(base.storage_height(), 3);
        next.insert(tuple![10_001]).unwrap();
        assert!(!next.shares_storage(&base));
        // The path of three, and the new half of the full chunk.
        assert_eq!(next.unshared_nodes(&base), 4);
        // The other inner node, and the chunk under it.
        next.remove(&tuple![30_000]).unwrap();
        assert_eq!(next.unshared_nodes(&base), 6);
        // The predecessor reads exactly as before.
        assert!(base.iter().map(TupleRef::to_tuple).eq(frozen));
        assert!(!base.contains(&tuple![10_001]) && base.contains(&tuple![30_000]));
        check_chunks(&next);
    }

    /// Random inserts and removals, then a random drain, with a version
    /// kept every few thousand writes: the tree stays well formed through
    /// chunk and inner-node splits and merges and a root that gains and
    /// gives up levels, and every kept version reads as it did.
    #[test]
    fn random_writes_keep_every_version_a_well_formed_tree() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut below = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as i64
        };
        let mut r = numbers([]);
        let mut model = BTreeSet::new();
        let mut kept = Vec::new();
        let mut heights = BTreeSet::new();
        for step in 0..80_000u32 {
            let v = below(40_000);
            match model.insert(v) {
                true => assert!(r.insert(tuple![v]).unwrap()),
                false => assert!(r.remove(&tuple![v]).unwrap() && model.remove(&v)),
            }
            if step.is_multiple_of(4_000) {
                check_chunks(&r);
                kept.push((r.clone(), model.clone()));
            }
            heights.insert(r.storage_height());
        }
        let mut live: Vec<i64> = model.iter().copied().collect();
        while !live.is_empty() {
            let v = live.swap_remove(below(live.len() as u64) as usize);
            assert!(r.remove(&tuple![v]).unwrap());
            if live.len().is_multiple_of(2_000) {
                check_chunks(&r);
            }
        }
        assert!(r.is_empty() && r.storage_height() == 0);
        assert_eq!(heights.last(), Some(&3), "{heights:?}");
        for (version, model) in &kept {
            check_chunks(version);
            let ints = version.iter().map(|t| t[0].clone());
            assert!(ints.eq(model.iter().map(|&v| Value::int(v))));
        }
    }

    #[test]
    fn delta_tracking_records_the_net_write_set() {
        let mut r = rating();
        let previous = r.clone();
        r.begin_delta_tracking();
        r.insert(tuple![9, 9]).unwrap();
        r.remove(&tuple![1, 5]).unwrap();
        // Cancelling pairs: net no-ops on both sides.
        r.insert(tuple![7, 7]).unwrap();
        r.remove(&tuple![7, 7]).unwrap();
        r.remove(&tuple![2, 4]).unwrap();
        r.insert(tuple![2, 4]).unwrap();
        let delta = r.take_delta(&previous);
        assert_eq!(delta.inserted.iter().collect::<Vec<_>>(), [&tuple![9, 9]]);
        assert_eq!(delta.removed.iter().collect::<Vec<_>>(), [&tuple![1, 5]]);
        assert!(r.tracking.is_none(), "tracking is one-shot");
    }

    #[test]
    fn rows_are_stored_in_value_order_whatever_the_id_order() {
        // Mint the ids in descending value order, then store ascending.
        let words = ["zeta-7c1", "mu-7c1", "alpha-7c1"];
        let ids: Vec<ValueId> = words
            .iter()
            .map(|w| ValueId::intern(&Value::str(w)))
            .collect();
        assert!(ids.is_sorted(), "minted in this order");
        let schema = RelationSchema::new("w", &["word", "n"]).unwrap();
        let tuples = words.iter().map(|w| tuple![*w, 1]);
        let r = Relation::from_tuples(schema, tuples.chain([tuple!["mu-7c1", 0]])).unwrap();
        let read: Vec<Tuple> = r.iter().map(TupleRef::to_tuple).collect();
        let expected = [
            tuple!["alpha-7c1", 1],
            tuple!["mu-7c1", 0],
            tuple!["mu-7c1", 1],
            tuple!["zeta-7c1", 1],
        ];
        assert_eq!(read, expected);
        assert!(r.iter().zip(r.iter().skip(1)).all(|(a, b)| a < b));
        assert_eq!(r.iter().nth(1).unwrap()[0], Value::str("mu-7c1"));
        assert!(r.contains(&tuple!["mu-7c1", 0]) && !r.contains(&tuple!["mu-7c1", 2]));
    }

    #[test]
    fn looking_up_a_never_interned_value_mints_nothing() {
        let mut r = rating();
        let ghost = Value::str("relation-test-ghost-5d2e");
        let absent = Tuple::new(vec![ghost.clone(), Value::int(5)]);
        assert!(!r.contains(&absent));
        assert!(!r.remove(&absent).unwrap());
        assert!(r.select_eq(&[0], std::slice::from_ref(&ghost)).is_empty());
        assert_eq!(ValueId::lookup(&ghost), None);
        assert!(r.insert(absent.clone()).unwrap(), "an insert interns");
        assert!(ValueId::lookup(&ghost).is_some() && r.contains(&absent));
    }

    #[test]
    fn a_nullary_relation_holds_the_empty_tuple_once() {
        let mut r = Relation::empty(RelationSchema::new("b", &[]).unwrap());
        assert!(!r.contains(&Tuple::unit()) && r.iter().next().is_none());
        assert!(r.insert(Tuple::unit()).unwrap());
        assert!(!r.insert(Tuple::unit()).unwrap());
        assert_eq!((r.len(), r.chunk_count()), (1, 1));
        assert_eq!(r.iter().collect::<Vec<_>>(), [Tuple::unit()]);
        assert_eq!(r.prefix_range(&[]).count(), 1);
        assert_eq!(r.to_string(), "b() [1 tuples]\n  ()\n");
        assert!(r.remove(&Tuple::unit()).unwrap());
        assert!(r.is_empty() && r.chunk_count() == 0 && r.iter().next().is_none());
    }

    #[test]
    fn keyed_index_positions_outside_the_schema_are_typed_errors() {
        let r = rating();
        let err = r.keyed_index(&[0, 2]).unwrap_err();
        assert_eq!(err, DataError::IndexPositions("rating".into(), vec![0, 2]));
        let unit = Relation::empty(RelationSchema::new("b", &[]).unwrap());
        assert!(unit.keyed_index(&[]).is_err(), "a nullary relation");
        assert!(r.keyed_index(&[1]).is_ok());
    }

    #[test]
    fn a_clone_kept_across_an_index_build_carries_no_constraint_index() {
        use crate::{AccessConstraint, AccessSchema, Database, DatabaseSchema, IndexedDatabase};
        let schema = DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])]).unwrap();
        let mut db = Database::empty(schema);
        *db.relation_mut("rating").unwrap() = rating();
        db.relation("rating").unwrap().keyed_index(&[1]).unwrap();
        let kept = db.clone();
        // `rank → mid` projects and reorders: not a whole-tuple layout.
        let by_rank = AccessConstraint::new("rating", &["rank"], &["mid"], 2).unwrap();
        let idb = IndexedDatabase::build(db, AccessSchema::new(vec![by_rank])).unwrap();
        let layouts = |db: &Database| {
            let cell = &db.relation("rating").unwrap().indexes;
            cell.read().unwrap().len()
        };
        assert_eq!(layouts(&kept), 1, "the keyed index only");
        assert_eq!(layouts(idb.database()), 2, "and the constraint's");
        // A write to the indexed version carries the constraint index.
        let mut next = idb.database().clone();
        next.insert("rating", tuple![4, 4]).unwrap();
        let carried = &next.relation("rating").unwrap().indexes.read().unwrap()[1].1;
        let key = [ValueId::lookup(&Value::int(4)).unwrap()];
        assert_eq!(carried.probe_len(&key), 2);
        assert_eq!(
            idb.index(0).unwrap().probe_len(&key),
            1,
            "the predecessor's"
        );
    }

    #[test]
    fn display_mentions_cardinality() {
        let text = rating().to_string();
        assert!(text.contains("[3 tuples]"));
        assert!(text.contains("(1, 5)"));
    }
}
