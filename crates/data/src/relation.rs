//! Relation instances: sets of tuples over a relation schema, with indexes.

use crate::delta::RelationDelta;
use crate::error::DataError;
use crate::index::{InternedAccessIndex, Layout};
use crate::intern::ValueId;
use crate::schema::RelationSchema;
use crate::tuple::{cmp_rows, Tuple, TupleRef};
use crate::value::Value;
use crate::Result;
use std::collections::{BTreeSet, HashSet};
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

/// Most tuples one storage chunk holds; an insert into a full chunk splits
/// it in two.
const CHUNK_MAX: usize = 512;

/// A chunk that shrinks below this is folded into a neighbour when the pair
/// fits one chunk.  A quarter of [`CHUNK_MAX`], so a freshly split chunk is
/// far from merging again and a freshly merged one far from splitting.
const CHUNK_MIN: usize = CHUNK_MAX / 4;

/// One run of consecutive tuples, sorted, never empty: row-major, `arity`
/// interned ids per tuple.
type Chunk = Arc<Vec<ValueId>>;

/// The tuple set of a [`Relation`]: sorted runs of at most [`CHUNK_MAX`]
/// id rows, each behind its own `Arc`.  Cloning copies one pointer per
/// chunk, a write forks only the chunk it lands in (plus a neighbour when
/// chunks merge), and dropping a version frees only the chunks no other
/// version still shares.
///
/// Rows are kept in the lexicographic order of their *values*, compared
/// through the pool ([`cmp_rows`]), not of their ids: the order a relation
/// iterates in is the order of its tuples, whatever order their values
/// happened to be interned in.
#[derive(Debug, Clone)]
struct Chunks {
    chunks: Vec<Chunk>,
    len: usize,
    arity: usize,
}

/// Rows in a chunk of `arity`-wide rows.  A nullary relation holds at most
/// the empty tuple, in a chunk of no ids.
fn rows_in(arity: usize, chunk: &[ValueId]) -> usize {
    chunk.len().checked_div(arity).unwrap_or(1)
}

impl Chunks {
    fn new(arity: usize) -> Self {
        Chunks {
            chunks: Vec::new(),
            len: 0,
            arity,
        }
    }

    fn rows(&self, chunk: &[ValueId]) -> usize {
        rows_in(self.arity, chunk)
    }

    /// Row `i` of `chunk`.
    fn row<'c>(&self, chunk: &'c [ValueId], i: usize) -> &'c [ValueId] {
        &chunk[i * self.arity..(i + 1) * self.arity]
    }

    /// The first row of `chunk` for which `below` is false — `below` being
    /// true on a prefix of the rows.
    fn partition_rows(&self, chunk: &[ValueId], below: impl Fn(&[ValueId]) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.rows(chunk));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match below(self.row(chunk, mid)) {
                true => lo = mid + 1,
                false => hi = mid,
            }
        }
        lo
    }

    /// The chunk `row` belongs to, and its position in that chunk: `Ok`
    /// when present, `Err` with the insertion point when absent.
    fn locate(&self, row: &[ValueId]) -> (usize, std::result::Result<usize, usize>) {
        // The last chunk starting at or before the row (the first chunk for
        // a row smaller than everything stored).
        let ci = self
            .chunks
            .partition_point(|c| cmp_rows(self.row(c, 0), row).is_le())
            .saturating_sub(1);
        let Some(chunk) = self.chunks.get(ci) else {
            return (0, Err(0));
        };
        let pos = self.partition_rows(chunk, |r| cmp_rows(r, row).is_lt());
        let found = pos < self.rows(chunk) && self.row(chunk, pos) == row;
        (ci, if found { Ok(pos) } else { Err(pos) })
    }

    /// The position of the first row whose leading ids are not below
    /// `prefix` — where the run of rows starting with `prefix` begins, if
    /// there is one.  Two binary searches, like [`Chunks::locate`].
    fn lower_bound(&self, prefix: &[ValueId]) -> (usize, usize) {
        let below = |r: &[ValueId]| cmp_rows(&r[..prefix.len()], prefix).is_lt();
        // The run may start in the tail of the last chunk whose head is
        // still below the prefix.
        let ci = self
            .chunks
            .partition_point(|c| below(self.row(c, 0)))
            .saturating_sub(1);
        let pos = self
            .chunks
            .get(ci)
            .map_or(0, |c| self.partition_rows(c, below));
        (ci, pos)
    }

    /// Insert an absent row at the position [`Chunks::locate`] reported.
    fn insert_at(&mut self, ci: usize, pos: usize, row: &[ValueId]) {
        self.len += 1;
        let arity = self.arity;
        // Appending past a full last chunk (or into no chunk at all) starts
        // a new one instead of splitting, so sorted loads fill their chunks
        // completely.
        let past_full = |chunk: &Chunk| pos == rows_in(arity, chunk) && pos >= CHUNK_MAX;
        if ci + 1 >= self.chunks.len() && self.chunks.last().is_none_or(past_full) {
            self.chunks.push(Arc::new(row.to_vec()));
            return;
        }
        let chunk = Arc::make_mut(&mut self.chunks[ci]);
        chunk.extend_from_slice(row);
        chunk[pos * arity..].rotate_right(arity);
        let rows = rows_in(arity, chunk);
        if rows > CHUNK_MAX {
            let tail = chunk.split_off(rows / 2 * arity);
            chunk.shrink_to(CHUNK_MAX * arity);
            self.chunks.insert(ci + 1, Arc::new(tail));
        }
    }

    /// Remove the row at a position [`Chunks::locate`] reported as `Ok`.
    fn remove_at(&mut self, ci: usize, pos: usize) {
        self.len -= 1;
        let arity = self.arity;
        if self.rows(&self.chunks[ci]) == 1 {
            self.chunks.remove(ci);
            return;
        }
        let chunk = Arc::make_mut(&mut self.chunks[ci]);
        chunk.drain(pos * arity..(pos + 1) * arity);
        if rows_in(arity, chunk) >= CHUNK_MIN {
            return;
        }
        let neighbour = if ci + 1 < self.chunks.len() {
            ci + 1
        } else if ci > 0 {
            ci - 1
        } else {
            return;
        };
        if self.rows(&self.chunks[ci]) + self.rows(&self.chunks[neighbour]) > CHUNK_MAX {
            return;
        }
        let tail = self.chunks.remove(ci.max(neighbour));
        Arc::make_mut(&mut self.chunks[ci.min(neighbour)]).extend_from_slice(&tail);
    }

    fn iter(&self) -> Iter<'_> {
        Iter {
            chunks: self.chunks.iter(),
            current: &[],
            arity: self.arity,
            remaining: self.len,
        }
    }

    /// Every stored id, row-major and in order.
    fn ids(&self) -> impl Iterator<Item = &ValueId> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// True when both sets are the very same chunks, pointer for pointer.
    fn same_chunks(&self, other: &Chunks) -> bool {
        self.chunks.len() == other.chunks.len()
            && self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }
}

impl PartialEq for Chunks {
    /// By content: equal sets compare equal however their insert histories
    /// happened to cut them into chunks.  Ids compare as their values do.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && (self.same_chunks(other) || self.ids().eq(other.ids()))
    }
}

/// Iterator over a relation's tuples in sorted order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    chunks: std::slice::Iter<'a, Chunk>,
    /// The rows of the current chunk not yet yielded.
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
        // Chunks are never empty, and a nullary relation's one tuple is
        // the empty row, which needs no chunk to read from.
        if self.current.is_empty() && self.arity > 0 {
            self.current = self.chunks.next()?.as_slice();
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
/// every content mutation.  Derived structures (hash indexes, statistics) can
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
/// Tuple storage is structurally shared: the sorted set is cut into chunks
/// of at most 512 rows, each behind its own [`Arc`].  Cloning a relation
/// (and hence a whole [`crate::Database`]) copies `O(#chunks)` pointers and
/// no tuple; a genuine write to a shared instance copies the one chunk it
/// lands in (`O(log |R|)` to find it, at most two chunks when an underfull
/// chunk merges with its neighbour), never the relation; dropping a version
/// frees only the chunks it did not share.
///
/// A relation owns its indexes, one per layout: keyed indexes
/// ([`Relation::keyed_index`]) and the access-constraint indexes
/// [`crate::IndexedDatabase::build`] put there.  **A relation's cell holds
/// indexes of exactly its contents:** [`Relation::insert`] / `remove` patch
/// every index the written version inherited (the one place a write reaches
/// an index); a net no-op write re-shares its predecessor's cell; a relation
/// replaced wholesale brings its own; a `KEYED_CARRY` `Error` empties it.
/// Unmutated clones share the cell.  Nothing else copies a relation: a
/// reader that wants its rows reads the chunks ([`Relation::id_chunks`]).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: RelationSchema,
    tuples: Chunks,
    epoch: u64,
    /// Present only between `begin_delta_tracking` / `end_delta_tracking`:
    /// the net write set accumulated since tracking began.
    tracking: Option<Box<DeltaState>>,
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
            tuples: Chunks::new(schema.arity()),
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
        self.tuples.len
    }

    /// True if the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.len == 0
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
        let (chunk, Err(pos)) = self.tuples.locate(&row) else {
            return Ok(false);
        };
        self.carry_indexes(&row, true);
        if let Some(state) = self.tracking.as_deref_mut() {
            // An insert that undoes a tracked removal cancels out: the net
            // delta always satisfies inserted = new∖old, removed = old∖new.
            if !state.delta.removed.remove(&tuple) {
                state.delta.inserted.insert(tuple.clone());
            }
        }
        self.tuples.insert_at(chunk, pos, &row);
        self.epoch = fresh_epoch();
        Ok(true)
    }

    /// Remove a tuple; returns `true` if it was present.
    pub fn remove(&mut self, tuple: &Tuple) -> Result<bool> {
        self.check_arity(tuple)?;
        let Some(row) = self.lookup_row(tuple) else {
            return Ok(false);
        };
        let (chunk, Ok(pos)) = self.tuples.locate(&row) else {
            return Ok(false);
        };
        self.carry_indexes(&row, false);
        if let Some(state) = self.tracking.as_deref_mut() {
            if !state.delta.inserted.remove(tuple) {
                state.delta.removed.insert(tuple.clone());
            }
        }
        self.tuples.remove_at(chunk, pos);
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
    /// in, or absent from, every index this version inherited — one forked
    /// shard each, so `O(#shards + |groups| / #shards)` per index, whether
    /// or not anything is about to probe it.  Runs before the write touches
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

    /// Begin recording the net write set of this instance.  Any previous
    /// tracking state is discarded.
    pub fn begin_delta_tracking(&mut self) {
        self.tracking = Some(Box::new(DeltaState {
            base_epoch: self.epoch,
            delta: RelationDelta::default(),
        }));
    }

    /// Stop recording and return `(base_epoch, net delta)` — the epoch the
    /// relation had when tracking began plus everything that changed since.
    /// Returns `None` if tracking state was lost, which happens exactly when
    /// the instance was replaced wholesale (e.g. by assignment through
    /// `Database::relation_mut`) rather than mutated in place.
    pub fn end_delta_tracking(&mut self) -> Option<(u64, RelationDelta)> {
        self.tracking.take().map(|s| (s.base_epoch, s.delta))
    }

    /// The live tracking state — `(base epoch, net delta so far)` — without
    /// consuming it.  `None` when tracking is off or was lost to a wholesale
    /// replacement.  This is what [`crate::Database::delta_checkpoint`]
    /// captures to make a span of writes invertible.
    pub fn tracking_state(&self) -> Option<(u64, &RelationDelta)> {
        self.tracking.as_deref().map(|s| (s.base_epoch, &s.delta))
    }

    /// Become `previous` again — its epoch, its storage, its indexes —
    /// with tracking off.  Only sound when the caller can prove the contents are
    /// identical to `previous`'s, e.g. after a tracked mutation whose net
    /// delta came out empty; re-sharing the storage also frees whatever
    /// chunks the cancelled writes forked.
    pub(crate) fn revert_to(&mut self, previous: &Relation) {
        *self = previous.clone();
        self.tracking = None;
    }

    /// True when `self` and `other` are the very same storage: every chunk
    /// pointer-equal (copy-on-write has not forked a single one apart).
    /// Shared storage implies identical contents; the converse does not
    /// hold.  `O(#chunks)`, no tuple is compared.
    pub fn shares_storage(&self, other: &Relation) -> bool {
        self.tuples.same_chunks(&other.tuples)
    }

    /// Number of storage chunks.
    pub fn chunk_count(&self) -> usize {
        self.tuples.chunks.len()
    }

    /// How many of this relation's chunks are the same allocation as a
    /// chunk of `other` — [`Relation::shares_storage`] generalised to
    /// partial sharing: `chunk_count() - shared_chunks(&previous)` is the
    /// number of chunks the writes since `previous` forked or created.
    pub fn shared_chunks(&self, other: &Relation) -> usize {
        let theirs: HashSet<*const Vec<ValueId>> =
            other.tuples.chunks.iter().map(Arc::as_ptr).collect();
        let shared = |c: &&Chunk| theirs.contains(&Arc::as_ptr(c));
        self.tuples.chunks.iter().filter(shared).count()
    }

    /// The hash index of this version's tuples on `positions`: probing it
    /// with the interned values of those positions returns every matching
    /// tuple, whole, as flat id rows.  Built on the first request — one
    /// `O(|R|)` pass over the stored id rows, interning nothing — and kept in the
    /// version's own cell: every unmutated clone serves the same `Arc`, and
    /// a mutated clone takes a patched copy along (see [`Relation`]), so a
    /// relation is indexed once per key, not once per version.  View
    /// maintenance probes base relations this way, and the plan executor a
    /// view extent under an equi-join — its build side, kept instead of
    /// rebuilt per read.  An index costs memory of the order of the relation
    /// for as long as a version holds it, and one forked shard per write.
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
        row.is_some_and(|row| self.tuples.locate(&row).1.is_ok())
    }

    /// Iterate over the tuples in sorted (value) order, each a [`TupleRef`]
    /// borrowing its stored id row.
    pub fn iter(&self) -> Iter<'_> {
        self.tuples.iter()
    }

    /// The stored id rows chunk by chunk, row-major and in iteration order —
    /// the relation's own storage, read in place.  A nullary relation holding
    /// the empty tuple has one chunk of no ids, so count rows with
    /// [`Relation::len`], not from the ids.
    pub fn id_chunks(&self) -> impl Iterator<Item = &[ValueId]> {
        self.tuples.chunks.iter().map(|chunk| chunk.as_slice())
    }

    /// The tuples whose first `prefix.len()` fields are the interned values
    /// `prefix`, in sorted order: a contiguous run of the sorted storage,
    /// found by binary search (`O(log |R|)`) and walked (`O(matches)`) — an
    /// index on every leading run of attributes that costs no memory and no
    /// maintenance.  The empty prefix yields the whole relation; a prefix
    /// longer than the arity yields nothing.
    pub fn prefix_range<'r: 'p, 'p>(
        &'r self,
        prefix: &'p [ValueId],
    ) -> impl Iterator<Item = TupleRef<'r>> + 'p {
        let (ci, pos) = match prefix.len() <= self.schema.arity() {
            true => self.tuples.lower_bound(prefix),
            false => (self.tuples.chunks.len(), 0),
        };
        let arity = self.tuples.arity;
        let chunks = self.tuples.chunks.get(ci..).unwrap_or_default();
        let skip = move |(i, chunk): (usize, &'r Chunk)| {
            let from = if i == 0 { pos * arity } else { 0 };
            let rows = chunk[from..].chunks_exact(arity.max(1));
            // A nullary relation's one tuple is the empty row.
            let empty = (arity == 0).then_some(&[][..]);
            rows.chain(empty).map(TupleRef::new)
        };
        let from_bound = chunks.iter().enumerate().flat_map(skip);
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

    /// Chunks are sorted, non-empty, within bounds, and add up to `len`.
    fn check_chunks(r: &Relation) {
        let rows = |c: &Chunk| r.tuples.rows(c);
        let chunks = &r.tuples.chunks;
        assert!(chunks.iter().all(|c| !c.is_empty() && rows(c) <= CHUNK_MAX));
        assert_eq!(chunks.iter().map(rows).sum::<usize>(), r.len());
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
        assert_eq!(up.shared_chunks(&down), 0);
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
        assert_eq!(next.shared_chunks(&base), base.chunk_count());
        next.insert(tuple![10_001]).unwrap();
        assert!(!next.shares_storage(&base));
        assert!(next.chunk_count() - next.shared_chunks(&base) <= 2, "split");
        next.remove(&tuple![30_000]).unwrap();
        assert!(next.chunk_count() - next.shared_chunks(&base) <= 4);
        // The predecessor reads exactly as before.
        assert!(base.iter().map(TupleRef::to_tuple).eq(frozen));
        assert!(!base.contains(&tuple![10_001]) && base.contains(&tuple![30_000]));
        check_chunks(&next);
    }

    #[test]
    fn delta_tracking_records_the_net_write_set() {
        let mut r = rating();
        let e0 = r.epoch();
        r.begin_delta_tracking();
        r.insert(tuple![9, 9]).unwrap();
        r.remove(&tuple![1, 5]).unwrap();
        // Cancelling pairs: net no-ops on both sides.
        r.insert(tuple![7, 7]).unwrap();
        r.remove(&tuple![7, 7]).unwrap();
        r.remove(&tuple![2, 4]).unwrap();
        r.insert(tuple![2, 4]).unwrap();
        let (base, delta) = r.end_delta_tracking().unwrap();
        assert_eq!(base, e0);
        assert_eq!(delta.inserted.iter().collect::<Vec<_>>(), [&tuple![9, 9]]);
        assert_eq!(delta.removed.iter().collect::<Vec<_>>(), [&tuple![1, 5]]);
        assert!(r.end_delta_tracking().is_none(), "tracking is one-shot");
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
