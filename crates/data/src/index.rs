//! Constraint-backed indices and the `fetch` primitive.
//!
//! Each access constraint `R(X → Y, N)` comes with an index that, given an
//! `X`-value `ā`, returns `D_{R:XY}(X = ā)` — the `X∪Y` projections of the
//! tuples of `R` matching `ā` — in time `O(N)`.  [`InternedAccessIndex`] is
//! the one index realising that contract: keyed and valued by interned ids
//! only, its keys hashed to one of 256 shards and binary-searched there, each
//! shard three flat sorted arrays.  [`IndexedDatabase`] bundles a
//! [`Database`] with one such index per constraint of an [`AccessSchema`],
//! which is what bounded query plans execute against.  Each is one more
//! index its [`Relation`] carries through every write, built like a keyed
//! one ([`Relation::keyed_index`]).

use crate::access::{AccessConstraint, AccessSchema};
use crate::database::Database;
use crate::delta::DeltaLog;
use crate::error::DataError;
use crate::intern::ValueId;
use crate::relation::Relation;
use crate::schema::RelationSchema;
use crate::stats::FetchStats;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::ops::Range;
use std::sync::Arc;

/// Fan-out of the sharded groups: every index has this many shard slots,
/// however small the relation, so a key's shard never moves between
/// versions.  Only the slots some key lands in hold a shard.
const SHARDS: usize = 256;

/// Shard slots per page.  An index keeps its slots in `SHARDS / PAGE`
/// copy-on-write pages, so the clone a write makes of an index copies 16
/// page pointers, and the write forks one page of 16 slots — not 256 slot
/// pointers, each a reference count on a cache line of its own.
const PAGE: usize = 16;

/// One page of shard slots.
type Page = [Option<Arc<Shard>>; PAGE];

/// The shard a key lives in.  Deterministic, so an index and every version
/// patched from it agree on the placement.
fn shard_of<T: Hash>(key: &[T]) -> usize {
    let mut hasher = ShardHasher(0);
    key.hash(&mut hasher);
    (hasher.0 >> 32) as usize % SHARDS
}

/// A multiply-rotate hash: a few cycles per word where SipHash takes tens of
/// nanoseconds, which would double the cost of a probe.  It only spreads
/// keys over shards — a skewed spread costs sharing, never correctness — so
/// it need not resist crafted keys.
struct ShardHasher(u64);

impl Hasher for ShardHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(byte.into());
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One shard of an [`InternedAccessIndex`]: the groups of the keys that hash
/// here, in ascending key order, as three flat arrays — no allocation per
/// key or per group, so copying a shard is three copies.
#[derive(Debug, PartialEq, Eq)]
struct Shard {
    /// The keys, `key_len` ids each, ascending by id.
    keys: Vec<ValueId>,
    /// Row offsets into `rows`, one per key and a last one past the end:
    /// key `i`'s group is rows `starts[i]..starts[i + 1]`.
    starts: Vec<u32>,
    /// The groups back to back, row-major, each one's rows in ascending id
    /// order.
    rows: Vec<ValueId>,
}

/// The source counts beside one [`Shard`]: each row of its groups that more
/// than one source tuple projects to, with that number (≥ 2).  A row a group
/// holds and this map does not has exactly one source.
type SourceShard = HashMap<Box<[ValueId]>, usize>;

/// `old` with `at` replaced by `with`, allocated at exactly its new length.
fn spliced<T: Copy>(old: &[T], at: Range<usize>, with: &[T]) -> Vec<T> {
    [&old[..at.start], with, &old[at.end..]].concat()
}

/// One row into or out of a shard, as the splices that make it — with its
/// key when the row is its group's first or last.
struct Edit<'a> {
    /// The key's position; `starts[..=at]` stay.
    at: usize,
    /// Where the old offsets resume, each shifted by one row: `at` when the
    /// key enters, `at + 1` when it stays, `at + 2` when it leaves.
    from: usize,
    /// The ids of `keys` replaced, and their replacement; likewise `rows`.
    keys: (Range<usize>, &'a [ValueId]),
    rows: (Range<usize>, &'a [ValueId]),
    /// A row enters (later offsets move up) or leaves (down).
    insert: bool,
}

impl Edit<'_> {
    fn shift(&self, start: u32) -> u32 {
        if self.insert {
            start + 1
        } else {
            start - 1
        }
    }
}

impl Shard {
    /// A shard with room for exactly `keys` keys of `key_ids` ids in all,
    /// and `row_ids` ids of rows.
    fn with_capacity(key_ids: usize, keys: usize, row_ids: usize) -> Self {
        let mut starts = Vec::with_capacity(keys + 1);
        starts.push(0);
        let (keys, rows) = (Vec::with_capacity(key_ids), Vec::with_capacity(row_ids));
        Shard { keys, starts, rows }
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Where `key` is, or would go, among the keys: a binary search.
    fn find(&self, key: &[ValueId]) -> std::result::Result<usize, usize> {
        let (k, mut lo, mut hi) = (key.len(), 0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.keys[mid * k..][..k].cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Key `i`'s group, as a range of rows.
    fn group(&self, i: usize) -> Range<usize> {
        self.starts[i] as usize..self.starts[i + 1] as usize
    }

    /// This shard after `edit`, built at exactly its new size, for a shard
    /// another version shares and keeps as it is.
    fn edited(&self, edit: &Edit) -> Shard {
        let (kept, shifted) = (&self.starts[..=edit.at], &self.starts[edit.from..]);
        let mut starts = Vec::with_capacity(kept.len() + shifted.len());
        starts.extend_from_slice(kept);
        starts.extend(shifted.iter().map(|&s| edit.shift(s)));
        let keys = spliced(&self.keys, edit.keys.0.clone(), edit.keys.1);
        let rows = spliced(&self.rows, edit.rows.0.clone(), edit.rows.1);
        Shard { keys, starts, rows }
    }

    /// Apply `edit` in place, to a shard this version owns.
    fn edit(&mut self, edit: &Edit) {
        let (keys, rows, at) = (&edit.keys, &edit.rows, edit.at);
        self.keys.splice(keys.0.clone(), keys.1.iter().copied());
        self.rows.splice(rows.0.clone(), rows.1.iter().copied());
        match edit.from.cmp(&(at + 1)) {
            Ordering::Less => self.starts.insert(at + 1, self.starts[at]),
            Ordering::Greater => drop(self.starts.remove(at + 1)),
            Ordering::Equal => {}
        }
        for start in &mut self.starts[at + 1..] {
            *start = edit.shift(*start);
        }
    }
}

/// An id-native index: probing with an interned key returns the whole group
/// under it as a flat row-major id slice, rows in ascending id order — a
/// canonical order, so a patched index equals a rebuilt one.  One structure
/// and one builder, over a layout, serve both things indexed this way:
///
/// * an access constraint ([`IndexedDatabase::index`]): a row is a tuple's
///   `X ∪ Y` projection, its key the row's first `|X|` ids, a group
///   `D_{R:XY}(X = ā)`.  This is what the compiled plan executor fetches
///   through — the hot loop never touches a [`Value`], yet every probe
///   accounts `|D_ξ|` tuple by tuple (the group's row count);
/// * a relation's tuples on arbitrary key positions
///   ([`Relation::keyed_index`]): a row is the whole tuple.  This is what
///   view maintenance probes, and the executor on a view extent.
///
/// A key hashes to one of 256 shards, and a shard is three flat arrays —
/// its keys in ascending id order, one row offset per key, and the groups
/// back to back — so a probe is a hash and a binary search over ids, and
/// the index is its ids plus four bytes per key, with no allocation per key
/// or per group.
///
/// A group holds each projection once, however many source tuples project
/// to it.  What keeps removals patchable is counted *beside* the groups, in
/// a map sharded like them: a projection with several sources has an entry
/// there, a removal decrements it, and only the last source's removal takes
/// the row out of its group.  A probe reads the groups alone, so a read
/// never sees the counts; and the map is empty wherever `X ∪ Y` covers the
/// relation — every keyed index, since a relation's tuples are a set.
///
/// Shards are copy-on-write: a successor version shares every shard its
/// delta did not touch, and a write copies the one shard it touches (and
/// the page of 16 slots that points to it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedAccessIndex {
    /// Ids per row — always ≥ 1 (constraints require a non-empty `Y`, keyed
    /// indexes a non-nullary relation).
    arity: usize,
    /// Ids per key: `|X|`, or the number of key positions; 0 for `X = ∅`.
    key_len: usize,
    /// The shard slots, [`PAGE`] to a page: `None` for a shard holding no
    /// group, so a small relation's index allocates only the shards its
    /// keys land in.  A shard a patch empties goes back to `None`, so a
    /// patched index equals a rebuilt one.
    pages: [Arc<Page>; SHARDS / PAGE],
    /// The source counts of shard `i`'s groups, copy-on-write like them,
    /// `None` where there are none — and behind one more `Arc`, so cloning
    /// an index whose counts no write moves (every keyed index, every
    /// constraint whose `X ∪ Y` covers its relation) copies one pointer for
    /// them, not one per shard.
    sources: Arc<Vec<Option<Arc<SourceShard>>>>,
    /// Number of distinct keys, and of indexed rows, across all shards —
    /// maintained as counters so patching never has to re-count.
    keys: usize,
    rows: usize,
}

/// The map in `slot`, allocated (empty) if the slot holds none and forked
/// if it is shared.
fn make_mut<T: Clone + Default>(slot: &mut Option<Arc<T>>) -> &mut T {
    Arc::make_mut(slot.get_or_insert_with(Arc::default))
}

/// True when two slots are the same allocation, or both unallocated.
fn same_slot<T>(a: &Option<Arc<T>>, b: &Option<Arc<T>>) -> bool {
    a.as_ref().map(Arc::as_ptr) == b.as_ref().map(Arc::as_ptr)
}

/// The ids of `row` at `positions`.
fn key_of<'a>(row: &'a [ValueId], positions: &'a [usize]) -> impl Iterator<Item = ValueId> + 'a {
    positions.iter().map(|&p| row[p])
}

/// What an index holds and keys on: the relation's positions a row keeps,
/// and the key's positions in that row.  A keyed index holds whole tuples; a
/// constraint's holds `X ∪ Y` projections keyed on their first `|X|` ids —
/// the same layout when `X ∪ Y` lists every position in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Layout {
    row: Vec<usize>,
    key: Vec<usize>,
}

impl Layout {
    /// Whole tuples of a relation of `schema`, keyed on `positions`.  Fails
    /// with [`DataError::IndexPositions`] for a position outside the schema,
    /// or any positions on a nullary relation, whose rows no index holds.
    pub(crate) fn keyed(schema: &RelationSchema, positions: &[usize]) -> Result<Self> {
        let (arity, key) = (schema.arity(), positions.to_vec());
        if arity == 0 || key.iter().any(|&p| p >= arity) {
            return Err(DataError::IndexPositions(schema.name().to_string(), key));
        }
        let row = (0..arity).collect();
        Ok(Layout { row, key })
    }

    /// The `X ∪ Y` projections of constraint `c` over `schema`, keyed on `X`.
    pub(crate) fn constraint(c: &AccessConstraint, schema: &RelationSchema) -> Result<Self> {
        let (row, key) = (schema.positions(&c.xy())?, (0..c.x().len()).collect());
        Ok(Layout { row, key })
    }

    /// True for whole tuples of a relation of `arity`, keyed on `positions`.
    pub(crate) fn is_keyed(&self, arity: usize, positions: &[usize]) -> bool {
        self.key == positions && self.row.iter().copied().eq(0..arity)
    }

    /// The key and the row a stored tuple projects to.
    pub(crate) fn project(&self, tuple: &[ValueId]) -> (Vec<ValueId>, Vec<ValueId>) {
        let row: Vec<ValueId> = key_of(tuple, &self.row).collect();
        (key_of(&row, &self.key).collect(), row)
    }
}

impl InternedAccessIndex {
    /// Index the tuples of `relation` under `layout`.  One pass copies the
    /// row of every stored id tuple — interned when it was inserted, so
    /// nothing is interned here — into a flat buffer; sorting the rows by
    /// key, then by row, cuts the buffer into key groups in ascending id
    /// order with duplicate projections adjacent.  So the groups arrive in
    /// key order and each is appended to its shard's arrays as it comes —
    /// sized exactly by a first pass that only counts — and a projection
    /// with several sources costs one count.
    pub(crate) fn from_relation(relation: &Relation, layout: &Layout) -> Self {
        let (arity, key_in_row) = (layout.row.len(), &layout.key[..]);
        let key_len = key_in_row.len();
        let mut flat = Vec::with_capacity(relation.len() * arity);
        for tuple in relation.iter() {
            flat.extend(layout.row.iter().map(|&p| tuple.ids()[p]));
        }
        let mut rows: Vec<&[ValueId]> = flat.chunks_exact(arity).collect();
        rows.sort_unstable_by(|a, b| {
            let by_key = key_of(a, key_in_row).cmp(key_of(b, key_in_row));
            by_key.then_with(|| a.cmp(b))
        });
        let same_key =
            |a: &&[ValueId], b: &&[ValueId]| key_of(a, key_in_row).eq(key_of(b, key_in_row));
        let shard_of_group =
            |group: &[&[ValueId]]| shard_of(&key_of(group[0], key_in_row).collect::<Vec<_>>());
        let mut sizes = [(0, 0); SHARDS];
        for group in rows.chunk_by(same_key) {
            let size = &mut sizes[shard_of_group(group)];
            *size = (size.0 + 1, size.1 + group.chunk_by(|a, b| a == b).count());
        }
        let mut shards: Vec<Shard> = sizes
            .iter()
            .map(|&(keys, rows)| Shard::with_capacity(keys * key_len, keys, rows * arity))
            .collect();
        let mut sources: Vec<Option<Arc<SourceShard>>> = vec![None; SHARDS];
        let mut group_rows = Vec::new();
        for group in rows.chunk_by(same_key) {
            let shard = shard_of_group(group);
            group_rows.clear();
            for copies in group.chunk_by(|a, b| a == b) {
                group_rows.extend_from_slice(copies[0]);
                if copies.len() > 1 {
                    make_mut(&mut sources[shard]).insert(copies[0].into(), copies.len());
                }
            }
            let shard = &mut shards[shard];
            shard.keys.extend(key_of(group[0], key_in_row));
            shard.rows.extend_from_slice(&group_rows);
            let rows = u32::try_from(shard.rows.len() / arity);
            shard
                .starts
                .push(rows.expect("a shard holds fewer than 2^32 rows"));
        }
        let (keys, rows) = sizes.iter().fold((0, 0), |(k, r), s| (k + s.0, r + s.1));
        let mut slots: Vec<_> = shards
            .into_iter()
            .map(|s| (s.len() > 0).then(|| Arc::new(s)))
            .collect();
        let page = |p: usize| Arc::new(std::array::from_fn(|i| slots[p * PAGE + i].take()));
        InternedAccessIndex {
            arity,
            key_len,
            pages: std::array::from_fn(page),
            sources: Arc::new(sources),
            keys,
            rows,
        }
    }

    /// Count one more (`insert`) or one fewer source tuple projecting to
    /// `row` under `key`.  The row enters its group, in id order, with its
    /// first source and leaves with its last — the key with its last row;
    /// in between only its count beside the group moves; a removal of a row
    /// the group does not hold changes nothing.  Copies at most one shard
    /// of the groups or of the counts — at exactly its new size when
    /// another version shares it, in place when this version owns it — so
    /// `O(|shard|)`.
    pub(crate) fn patch(&mut self, key: Vec<ValueId>, row: &[ValueId], insert: bool) {
        let (arity, k, shard) = (self.arity, key.len(), shard_of(&key));
        let held = self.slot(shard).as_deref();
        let at = held.map_or(Err(0), |s| s.find(&key));
        let group = match (held, at) {
            (Some(s), Ok(at)) => s.group(at),
            (Some(s), Err(at)) => s.starts[at] as usize..s.starts[at] as usize,
            (None, _) => 0..0,
        };
        let rows = held.map_or(&[][..], |s| &s.rows[group.start * arity..group.end * arity]);
        let found = rows
            .chunks_exact(arity)
            .collect::<Vec<_>>()
            .binary_search(&row);
        let counts = self.sources[shard].as_deref();
        let count = counts.and_then(|c| c.get(row)).copied().unwrap_or(1);
        let (r, enters, leaves) = match (found, insert) {
            (Err(_), false) => return,
            (Err(r), true) => (r, at.is_err(), false),
            (Ok(r), false) if count == 1 => (r, false, group.len() == 1),
            (Ok(_), _) => {
                // Another source projects to the row too: it stays put.
                let count = if insert { count + 1 } else { count - 1 };
                let slot = &mut Arc::make_mut(&mut self.sources)[shard];
                match count {
                    1 => make_mut(slot).remove(row),
                    _ => make_mut(slot).insert(row.into(), count),
                };
                if slot.as_ref().is_some_and(|counts| counts.is_empty()) {
                    *slot = None;
                }
                return;
            }
        };
        let (at, row_at) = (at.unwrap_or_else(|at| at), (group.start + r) * arity);
        let edit = Edit {
            at,
            from: at + 1 + usize::from(leaves) - usize::from(enters),
            keys: (
                at * k..(at + usize::from(leaves)) * k,
                if enters { &key } else { &[] },
            ),
            rows: (
                row_at..row_at + usize::from(!insert) * arity,
                if insert { row } else { &[] },
            ),
            insert,
        };
        let slot = &mut Arc::make_mut(&mut self.pages[shard / PAGE])[shard % PAGE];
        match slot.as_mut().and_then(Arc::get_mut) {
            Some(owned) => owned.edit(&edit),
            None => {
                let empty = Shard::with_capacity(0, 0, 0);
                *slot = Some(Arc::new(slot.as_deref().unwrap_or(&empty).edited(&edit)));
            }
        }
        if slot.as_deref().is_some_and(|s| s.len() == 0) {
            *slot = None;
        }
        self.rows = if insert { self.rows + 1 } else { self.rows - 1 };
        self.keys = self.keys + usize::from(enters) - usize::from(leaves);
    }

    /// The slot of shard `shard`.
    fn slot(&self, shard: usize) -> &Option<Arc<Shard>> {
        &self.pages[shard / PAGE][shard % PAGE]
    }

    /// Arity of the returned rows (`|X ∪ Y|`, or the relation's arity).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Retrieve the group under `key` as a flat id slice of `n · arity()`
    /// ids (`n` tuples, in ascending id order).  Empty for absent keys, and
    /// for a key of another length than the index's.
    pub fn probe(&self, key: &[ValueId]) -> &[ValueId] {
        if key.len() != self.key_len {
            return &[];
        }
        let Some(shard) = self.slot(shard_of(key)).as_deref() else {
            return &[];
        };
        match shard.find(key) {
            Ok(at) => {
                let group = shard.group(at);
                &shard.rows[group.start * self.arity..group.end * self.arity]
            }
            Err(_) => &[],
        }
    }

    /// Number of tuples a probe result holds.
    pub fn probe_len(&self, key: &[ValueId]) -> usize {
        self.probe(key).len() / self.arity
    }

    /// The rows more than one source tuple projects to, each with its
    /// number of sources (≥ 2), in no particular order — the bookkeeping
    /// that makes removals patchable, exposed for the differential tests.
    pub fn multiplicities(&self) -> impl Iterator<Item = (&[ValueId], usize)> {
        let counts = self.sources.iter().flatten().flat_map(|shard| shard.iter());
        counts.map(|(row, &count)| (&**row, count))
    }

    /// Number of distinct keys indexed.
    pub fn distinct_keys(&self) -> usize {
        self.keys
    }

    /// Total number of indexed tuples (across all groups).
    pub fn total_rows(&self) -> usize {
        self.rows
    }

    /// The bytes this index holds on the heap: its ids (keys and rows), the
    /// row offsets, the shard headers and slots, and the source counts —
    /// their rows exactly, their hash maps estimated as one entry and one
    /// control byte per unit of capacity.  Shards and counts a version
    /// shares with another are counted in full by each.
    pub fn heap_bytes(&self) -> usize {
        let slots = self.pages.iter().flat_map(|page| page.iter().flatten());
        let shard = |s: &Shard| {
            let ids = s.keys.capacity() + s.rows.capacity() + s.starts.capacity();
            2 * size_of::<usize>() + size_of::<Shard>() + 4 * ids
        };
        let shards: usize = slots.map(|s| shard(s)).sum();
        let entry = size_of::<(Box<[ValueId]>, usize)>() + 1;
        let counts = |map: &SourceShard| {
            2 * size_of::<usize>()
                + size_of::<SourceShard>()
                + map.capacity() * entry
                + map.len() * self.arity * size_of::<ValueId>()
        };
        let sources: usize = self.sources.iter().flatten().map(|m| counts(m)).sum();
        let pages = self.pages.len() * (2 * size_of::<usize>() + size_of::<Page>());
        let counts = 2 * size_of::<usize>()
            + self.sources.capacity() * size_of::<Option<Arc<SourceShard>>>();
        pages + counts + shards + sources
    }

    /// How many shards — groups and counts alike — are the same allocation
    /// as `other`'s in the same position, or unallocated in both (out of
    /// [`InternedAccessIndex::shard_count`]): what a patched version still
    /// shares with its predecessor.
    pub fn shared_shards(&self, other: &InternedAccessIndex) -> usize {
        let shared = |i: &usize| {
            same_slot(self.slot(*i), other.slot(*i))
                && same_slot(&self.sources[*i], &other.sources[*i])
        };
        (0..SHARDS).filter(shared).count()
    }

    /// The fixed number of shards.
    pub fn shard_count(&self) -> usize {
        SHARDS
    }

    /// The keys shard `shard` holds, in its (ascending id) order — where
    /// the groups sit, exposed for the differential tests.
    pub fn shard_keys(&self, shard: usize) -> impl Iterator<Item = &[ValueId]> {
        let held = (shard < SHARDS).then(|| self.slot(shard).as_deref());
        let (held, k) = (held.flatten(), self.key_len);
        let keys = held.map(|s| (0..s.len()).map(move |i| &s.keys[i * k..][..k]));
        keys.into_iter().flatten()
    }
}

/// A database together with the indices of an access schema.  This is the
/// runtime object bounded query plans execute against: views are cached
/// separately (see `bqr-plan`), and base data is reachable *only* through
/// the constraint indexes: [`IndexedDatabase::index`], whose
/// [`probe`](InternedAccessIndex::probe) the executor's fetch calls once per
/// distinct key, and the `Value` form [`IndexedDatabase::fetch`].
#[derive(Debug, Clone)]
pub struct IndexedDatabase {
    db: Database,
    access: AccessSchema,
    /// One index per constraint, in the order of `access.constraints()`:
    /// the handles of the indexes `db`'s relations carry, resolved once so
    /// a fetch takes no lock.
    indexes: Vec<Arc<InternedAccessIndex>>,
}

impl IndexedDatabase {
    /// Build all indices for `access` over `db`, eagerly and in full, from
    /// the id rows the relations store — nothing is interned here, and no
    /// read builds a constraint index.  Each is built afresh into its
    /// relation's own cell, parted first from its clones' cells.
    ///
    /// This does *not* require `db |= access`; callers that need the
    /// cardinality guarantee should check
    /// [`AccessSchema::satisfied_by`] first (the decision procedures only
    /// promise bounded fetches on satisfying instances).
    pub fn build(mut db: Database, access: AccessSchema) -> Result<Self> {
        crate::faults::check(crate::faults::sites::INDEX_BUILD)?;
        access.validate(db.schema())?;
        let indexes = access
            .constraints()
            .map(|c| {
                let relation = db.relation_mut(c.relation())?;
                let layout = Layout::constraint(c, relation.schema())?;
                relation.own_indexes().retain(|(l, _)| *l != layout);
                relation.index(layout)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(IndexedDatabase {
            db,
            access,
            indexes,
        })
    }

    /// Index `db`, the successor of this instance's database, with the
    /// indexes its relations carry ([`Relation::insert`] patched them); only
    /// one a relation lacks — replaced wholesale, or its carry dropped by a
    /// fault — is built from the rows.  The delta is not read.
    pub fn apply_delta(&self, db: Database, _delta: &DeltaLog) -> Result<Self> {
        crate::faults::check(crate::faults::sites::INDEX_BUILD)?;
        let indexes = self
            .access
            .constraints()
            .map(|c| {
                let relation = db.expect_relation(c.relation())?;
                relation.index(Layout::constraint(c, relation.schema())?)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(IndexedDatabase {
            db,
            access: self.access.clone(),
            indexes,
        })
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The access schema whose indices are maintained.
    pub fn access_schema(&self) -> &AccessSchema {
        &self.access
    }

    /// The index of the `idx`-th constraint of the access schema.  Callers
    /// that record their own [`FetchStats`] — e.g. the executor's probe
    /// loops — probe it directly.
    pub fn index(&self, idx: usize) -> Result<&InternedAccessIndex> {
        self.indexes
            .get(idx)
            .map(Arc::as_ref)
            .ok_or_else(|| DataError::NoIndexForConstraint(format!("constraint #{idx}")))
    }

    /// Locate a constraint (by content) and return its position, if indexed.
    pub fn constraint_position(&self, constraint: &AccessConstraint) -> Option<usize> {
        self.access.constraints().position(|c| c == constraint)
    }

    /// `fetch(X ∈ S, R, Y)` for one `X`-value, in `Value`s, for callers
    /// outside the executor (`exec::reference`, tests): the key is looked
    /// up in the value pool — a value it never saw is in no group — and
    /// the group's rows are resolved, in the group's id order.  The same
    /// `|D_ξ|` accounting, to the tuple.
    pub fn fetch(
        &self,
        constraint_idx: usize,
        key: &[Value],
        stats: &mut FetchStats,
    ) -> Result<Vec<Tuple>> {
        let index = self.index(constraint_idx)?;
        let key: Option<Vec<ValueId>> = key.iter().map(ValueId::lookup).collect();
        let rows = key.map_or(&[][..], |key| index.probe(&key));
        stats.record_fetch(rows.len() / index.arity());
        let resolve = |row: &[ValueId]| row.iter().map(|id| id.value()).collect();
        Ok(rows.chunks_exact(index.arity()).map(resolve).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DatabaseSchema;
    use crate::tuple;

    fn movie_db() -> (Database, AccessSchema) {
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
        db.insert("movie", tuple![3, "Her", "WB", "2013"]).unwrap();
        db.insert("rating", tuple![1, 5]).unwrap();
        db.insert("rating", tuple![2, 3]).unwrap();
        db.insert("rating", tuple![3, 5]).unwrap();
        let access = AccessSchema::new(vec![
            AccessConstraint::new("movie", &["studio", "release"], &["mid"], 2).unwrap(),
            AccessConstraint::new("rating", &["mid"], &["rank"], 1).unwrap(),
        ]);
        (db, access)
    }

    fn intern_key(key: &[Value]) -> Vec<ValueId> {
        key.iter().map(ValueId::intern).collect()
    }

    fn ids(t: &Tuple) -> Vec<ValueId> {
        intern_key(t.values())
    }

    /// The `like(pid, id, type)` instance whose `pid → id` projections have
    /// two sources for `(1, 10)`.
    fn likes() -> (Database, AccessSchema) {
        let schema = DatabaseSchema::with_relations(&[("like", &["pid", "id", "type"])]).unwrap();
        let mut db = Database::empty(schema);
        db.insert("like", tuple![1, 10, "movie"]).unwrap();
        db.insert("like", tuple![1, 10, "page"]).unwrap();
        db.insert("like", tuple![1, 11, "movie"]).unwrap();
        let access = AccessSchema::new(vec![
            AccessConstraint::new("like", &["pid"], &["id"], 5).unwrap()
        ]);
        (db, access)
    }

    /// `relation`'s tuples, whole, on `positions`, built afresh.
    fn fresh_keyed(relation: &Relation, positions: &[usize]) -> InternedAccessIndex {
        let layout = Layout::keyed(relation.schema(), positions).unwrap();
        InternedAccessIndex::from_relation(relation, &layout)
    }

    /// Whether two versions hold the `idx`-th constraint's very same index.
    fn same_index(a: &IndexedDatabase, b: &IndexedDatabase, idx: usize) -> bool {
        std::ptr::eq(a.index(idx).unwrap(), b.index(idx).unwrap())
    }

    /// The rows with several sources, with their counts, sorted.
    fn multiplicities(index: &InternedAccessIndex) -> Vec<(Vec<ValueId>, usize)> {
        let mut counts: Vec<_> = index
            .multiplicities()
            .map(|(r, n)| (r.to_vec(), n))
            .collect();
        counts.sort();
        counts
    }

    #[test]
    fn index_groups_by_key() {
        let (db, access) = movie_db();
        let idb = IndexedDatabase::build(db, access).unwrap();
        let idx = idb.index(0).unwrap();
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(
            (idx.arity(), idx.total_rows()),
            (3, 3),
            "studio, release, mid"
        );
        let mut stats = FetchStats::new();
        let hits = idb
            .fetch(
                0,
                &[Value::str("Universal"), Value::str("2014")],
                &mut stats,
            )
            .unwrap();
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&tuple!["Universal", "2014", 1]));
        assert!(hits.contains(&tuple!["Universal", "2014", 2]));
        assert!(idb
            .fetch(0, &[Value::str("MGM"), Value::str("1999")], &mut stats)
            .unwrap()
            .is_empty());
        assert_eq!(idx.multiplicities().count(), 0, "X ∪ Y is a key");
    }

    #[test]
    fn index_deduplicates_projections() {
        let (db, access) = likes();
        let idb = IndexedDatabase::build(db, access).unwrap();
        // Two tuples project to (pid=1, id=10); the set semantics of the
        // index must collapse them, and count the two sources beside it.
        let mut stats = FetchStats::new();
        let hits = idb.fetch(0, &[Value::int(1)], &mut stats).unwrap();
        assert_eq!(hits, [tuple![1, 10], tuple![1, 11]]);
        let index = idb.index(0).unwrap();
        assert_eq!(index.total_rows(), 2);
        assert_eq!(multiplicities(index), [(ids(&tuple![1, 10]), 2)]);
    }

    #[test]
    fn fetch_records_stats() {
        let (db, access) = movie_db();
        let idb = IndexedDatabase::build(db, access).unwrap();
        assert!(idb.access_schema().satisfied_by(idb.database()).unwrap());
        let mut stats = FetchStats::new();
        let hits = idb
            .fetch(
                0,
                &[Value::str("Universal"), Value::str("2014")],
                &mut stats,
            )
            .unwrap();
        assert_eq!(hits.len(), 2);
        let hits = idb.fetch(1, &[Value::int(1)], &mut stats).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(stats.fetch_calls, 2);
        assert_eq!(stats.fetched_tuples, 3);
        assert_eq!(stats.scanned_tuples, 0);
    }

    #[test]
    fn interned_fetch_agrees_with_value_fetch() {
        let (db, access) = movie_db();
        let idb = IndexedDatabase::build(db, access).unwrap();
        let mut stats = FetchStats::new();
        let key = [Value::str("Universal"), Value::str("2014")];
        let tuples = idb.fetch(0, &key, &mut stats).unwrap();

        let id_key = intern_key(&key);
        let mut id_stats = FetchStats::new();
        let index = idb.index(0).unwrap();
        let probe = |key: &[ValueId], stats: &mut FetchStats| {
            let rows = index.probe(key);
            stats.record_fetch(rows.len() / index.arity());
            rows
        };
        let rows = probe(&id_key, &mut id_stats);
        let arity = index.arity();
        assert_eq!(arity, 3, "studio, release, mid");
        // Same tuples, in the same group order, resolved out of the pool.
        let resolved: Vec<Tuple> = rows
            .chunks(arity)
            .map(|r| Tuple::new(r.iter().map(|id| id.value()).collect()))
            .collect();
        assert_eq!(resolved, tuples);
        // Identical |D_ξ| accounting, preserved to the tuple.
        assert_eq!(id_stats, stats);

        // Absent keys fetch zero tuples but still count the probe — on both
        // faces, also for a value the pool never saw.
        let ghost = [Value::str("MGM"), Value::str("never-interned-9c1e")];
        assert!(probe(&intern_key(&ghost[..1]), &mut id_stats).is_empty());
        assert_eq!(id_stats.fetch_calls, 2);
        assert_eq!(id_stats.fetched_tuples, 2);
        assert!(idb.fetch(0, &ghost, &mut stats).unwrap().is_empty());
        assert_eq!(ValueId::lookup(&ghost[1]), None, "fetch mints no id");
        assert_eq!((stats.fetch_calls, stats.fetched_tuples), (2, 2));

        assert_eq!(index.distinct_keys(), 2);
        assert_eq!(index.probe_len(&id_key), 2);
        assert!(matches!(
            idb.index(9),
            Err(DataError::NoIndexForConstraint(_))
        ));
    }

    #[test]
    fn probe_with_empty_key_arity() {
        let schema = DatabaseSchema::with_relations(&[("r01", &["a"])]).unwrap();
        let mut db = Database::empty(schema);
        db.insert("r01", tuple![0]).unwrap();
        db.insert("r01", tuple![1]).unwrap();
        let access = AccessSchema::new(vec![AccessConstraint::new("r01", &[], &["a"], 2).unwrap()]);
        let idb = IndexedDatabase::build(db, access).unwrap();
        let index = idb.index(0).unwrap();
        // X = ∅: the one key is the empty one, and it holds every row.
        assert_eq!((index.probe(&[]).len(), index.arity()), (2, 1));
        assert_eq!(index.probe_len(&[]), 2);
        let mut stats = FetchStats::new();
        assert_eq!(idb.fetch(0, &[], &mut stats).unwrap().len(), 2);
        assert_eq!((stats.fetch_calls, stats.fetched_tuples), (1, 2));
        assert_eq!((index.total_rows(), index.distinct_keys()), (2, 1));
    }

    #[test]
    fn fetch_unknown_constraint_errors() {
        let (db, access) = movie_db();
        let idb = IndexedDatabase::build(db, access).unwrap();
        let mut stats = FetchStats::new();
        assert!(matches!(
            idb.fetch(9, &[], &mut stats),
            Err(DataError::NoIndexForConstraint(_))
        ));
    }

    #[test]
    fn build_rejects_invalid_constraints() {
        let (db, _) = movie_db();
        let access = AccessSchema::new(vec![AccessConstraint::new(
            "movie",
            &["studio"],
            &["director"],
            1,
        )
        .unwrap()]);
        assert!(IndexedDatabase::build(db, access).is_err());
    }

    #[test]
    fn constraint_position_lookup() {
        let (db, access) = movie_db();
        let c0 = access.constraint(0).unwrap().clone();
        let idb = IndexedDatabase::build(db, access).unwrap();
        assert_eq!(idb.constraint_position(&c0), Some(0));
        let other = AccessConstraint::new("rating", &["rank"], &["mid"], 1).unwrap();
        assert_eq!(idb.constraint_position(&other), None);
        assert!(idb.index(0).is_ok());
        assert!(idb.index(5).is_err());
        assert_eq!(idb.database().size(), 6);
        assert_eq!(idb.access_schema().len(), 2);
    }

    #[test]
    fn apply_delta_patches_touched_indexes_and_shares_the_rest() {
        let (db, access) = movie_db();
        let idb = IndexedDatabase::build(db, access).unwrap();
        let db = idb.database().clone();

        // Insert-only delta on `rating`: its index is patched, movie's is
        // the identical shared object.
        let mut next = db.clone();
        next.begin_delta_tracking();
        next.insert("rating", tuple![4, 2]).unwrap();
        let log = next.take_delta(&db);
        let patched = idb.apply_delta(next.clone(), &log).unwrap();
        assert!(same_index(&patched, &idb, 0), "movie untouched");
        assert!(!same_index(&patched, &idb, 1), "rating patched");
        let rebuilt = IndexedDatabase::build(next.clone(), idb.access_schema().clone()).unwrap();
        let (mut a, mut b) = (FetchStats::new(), FetchStats::new());
        for key in [vec![Value::int(4)], vec![Value::int(1)]] {
            assert_eq!(
                patched.fetch(1, &key, &mut a).unwrap(),
                rebuilt.fetch(1, &key, &mut b).unwrap()
            );
        }
        assert_eq!(a, b);

        // A delta with removals patches that index too (source counts, no
        // rebuild): the removed key's group disappears, the untouched
        // constraint still shares its index.
        let mut shrunk = next.clone();
        shrunk.begin_delta_tracking();
        shrunk.remove("rating", &tuple![1, 5]).unwrap();
        let log = shrunk.take_delta(&next);
        let after = patched.apply_delta(shrunk.clone(), &log).unwrap();
        assert!(same_index(&after, &patched, 0));
        let mut stats = FetchStats::new();
        assert!(after
            .fetch(1, &[Value::int(1)], &mut stats)
            .unwrap()
            .is_empty());
        assert_eq!(
            after.fetch(1, &[Value::int(4)], &mut stats).unwrap().len(),
            1
        );
        // The patched index, statistics included, equals a rebuild.
        let rebuilt = IndexedDatabase::build(shrunk.clone(), idb.access_schema().clone()).unwrap();
        assert_eq!(after.index(1).unwrap(), rebuilt.index(1).unwrap());
        assert_eq!(after.index(1).unwrap().distinct_keys(), 3);
    }

    #[test]
    fn removal_patch_respects_source_multiplicities() {
        // Two source tuples project to the same (pid, id) entry; removing
        // one must keep the entry alive, removing the second must drop it —
        // exactly what a rebuild over the shrunken relation would produce.
        let (db, access) = likes();
        let idb = IndexedDatabase::build(db, access).unwrap();
        let db = idb.database().clone();
        let key = [Value::int(1)];
        let shared = ids(&tuple![1, 10]);
        assert_eq!(multiplicities(idb.index(0).unwrap()), [(shared.clone(), 2)]);

        // Drop the first supporting source: the entry survives, uncounted.
        let mut v1 = db.clone();
        v1.begin_delta_tracking();
        v1.remove("like", &tuple![1, 10, "movie"]).unwrap();
        let log = v1.take_delta(&db);
        let idb1 = idb.apply_delta(v1.clone(), &log).unwrap();
        let rebuilt1 = IndexedDatabase::build(v1.clone(), idb.access_schema().clone()).unwrap();
        assert_eq!(idb1.index(0).unwrap(), rebuilt1.index(0).unwrap());
        let mut stats = FetchStats::new();
        assert_eq!(
            idb1.fetch(0, &key, &mut stats).unwrap(),
            [tuple![1, 10], tuple![1, 11]]
        );
        assert!(multiplicities(idb1.index(0).unwrap()).is_empty());

        // Drop the last supporting source: the entry goes, bit-identically
        // to the rebuild.
        let mut v2 = v1.clone();
        v2.begin_delta_tracking();
        v2.remove("like", &tuple![1, 10, "page"]).unwrap();
        let log = v2.take_delta(&v1);
        let idb2 = idb1.apply_delta(v2.clone(), &log).unwrap();
        let rebuilt2 = IndexedDatabase::build(v2.clone(), idb.access_schema().clone()).unwrap();
        assert_eq!(idb2.index(0).unwrap(), rebuilt2.index(0).unwrap());
        assert_eq!(idb2.fetch(0, &key, &mut stats).unwrap(), [tuple![1, 11]]);

        // And a second source arriving counts again, without a new row.
        let mut v3 = v2.clone();
        v3.begin_delta_tracking();
        v3.insert("like", tuple![1, 11, "page"]).unwrap();
        let log = v3.take_delta(&v2);
        let idb3 = idb2.apply_delta(v3.clone(), &log).unwrap();
        let index = idb3.index(0).unwrap();
        assert_eq!(multiplicities(index), [(ids(&tuple![1, 11]), 2)]);
        assert_eq!(index.total_rows(), 1);
        let rebuilt3 = IndexedDatabase::build(v3, idb.access_schema().clone()).unwrap();
        assert_eq!(index, rebuilt3.index(0).unwrap());
    }

    #[test]
    fn removal_patch_drops_emptied_keys_like_a_rebuild() {
        // A mixed delta (remove the whole group of one key, insert a new
        // key) patched in one pass agrees with a rebuild on every probe,
        // both faces of it, and every statistic.
        let (db, access) = movie_db();
        let idb = IndexedDatabase::build(db, access).unwrap();
        let db = idb.database().clone();
        let mut next = db.clone();
        next.begin_delta_tracking();
        next.remove("rating", &tuple![2, 3]).unwrap();
        next.remove("rating", &tuple![3, 5]).unwrap();
        next.insert("rating", tuple![7, 1]).unwrap();
        let log = next.take_delta(&db);
        assert!(log.touches("rating"));
        let patched = idb.apply_delta(next.clone(), &log).unwrap();
        let rebuilt = IndexedDatabase::build(next.clone(), idb.access_schema().clone()).unwrap();
        assert_eq!(patched.index(1).unwrap(), rebuilt.index(1).unwrap());
        assert_eq!(patched.index(1).unwrap().distinct_keys(), 2);
        for mid in 1..=7 {
            let key = [Value::int(mid)];
            let (mut a, mut b) = (FetchStats::new(), FetchStats::new());
            assert_eq!(
                patched.fetch(1, &key, &mut a).unwrap(),
                rebuilt.fetch(1, &key, &mut b).unwrap()
            );
            assert_eq!(a, b);
            let id_key = intern_key(&key);
            assert_eq!(
                patched.index(1).unwrap().probe(&id_key),
                rebuilt.index(1).unwrap().probe(&id_key)
            );
        }
    }

    #[test]
    fn writes_carry_keyed_indexes() {
        let (db, access) = movie_db();
        let idb = IndexedDatabase::build(db, access).unwrap();
        let db = idb.database().clone();
        // Someone (view maintenance, say) probes `rating` by rank; nobody
        // touches `movie`.
        let by_rank = db.relation("rating").unwrap().keyed_index(&[1]).unwrap();
        let ids = |t: &Tuple| t.iter().map(ValueId::intern).collect::<Vec<_>>();
        assert_eq!(by_rank.probe(&ids(&tuple![5])).len(), 2 * 2);

        let mut v1 = db.clone();
        v1.begin_delta_tracking();
        v1.insert("rating", tuple![4, 2]).unwrap();
        v1.remove("rating", &tuple![1, 5]).unwrap();
        v1.insert("movie", tuple![4, "Nope", "Universal", "2022"])
            .unwrap();
        let log = v1.take_delta(&db);
        let idb1 = idb.apply_delta(v1, &log).unwrap();
        let (rating, movie) = (
            idb1.database().relation("rating").unwrap(),
            idb1.database().relation("movie").unwrap(),
        );
        // The written relation took its keyed index along, patched — equal
        // to one built from scratch — and the predecessor's still reads as
        // before.
        let carried = rating.keyed_index_if_built(&[1]).expect("carried");
        assert_eq!(*carried, fresh_keyed(rating, &[1]));
        assert_eq!(carried.probe(&ids(&tuple![5])), ids(&tuple![3, 5]));
        assert_eq!(carried.probe(&ids(&tuple![2])), ids(&tuple![4, 2]));
        assert_eq!((carried.distinct_keys(), carried.total_rows()), (3, 3));
        assert_eq!(by_rank.probe(&ids(&tuple![5])).len(), 2 * 2);
        assert!(by_rank.probe(&ids(&tuple![2])).is_empty());
        // The relation nobody indexed stays bare.
        assert!(movie.keyed_index_if_built(&[2]).is_none());

        // Untouched relations are the same version in the successor, so the
        // same index serves both.
        let mut v2 = idb1.database().clone();
        v2.begin_delta_tracking();
        v2.insert("movie", tuple![5, "Tar", "Focus", "2022"])
            .unwrap();
        let log = v2.take_delta(idb1.database());
        let idb2 = idb1.apply_delta(v2, &log).unwrap();
        let rating2 = idb2.database().relation("rating").unwrap();
        assert!(rating2.shares_storage(rating));
        assert!(Arc::ptr_eq(&rating2.keyed_index(&[1]).unwrap(), &carried));
    }

    #[test]
    fn keyed_index_groups_whole_tuples_and_patches_like_a_rebuild() {
        let schema = DatabaseSchema::with_relations(&[("like", &["pid", "id", "type"])]).unwrap();
        let mut db = Database::empty(schema);
        for (pid, id) in [(1, 10), (2, 10), (3, 11), (1, 11)] {
            db.insert("like", tuple![pid, id, "movie"]).unwrap();
        }
        db.insert("like", tuple![1, 10, "page"]).unwrap();
        let like = db.relation("like").unwrap();
        let ids = |t: &Tuple| t.iter().map(ValueId::intern).collect::<Vec<_>>();
        let by_id_type = like.keyed_index(&[1, 2]).unwrap();
        assert_eq!(by_id_type.arity(), 3, "whole tuples");
        assert_eq!(
            (by_id_type.distinct_keys(), by_id_type.total_rows()),
            (3, 5)
        );
        let group = by_id_type.probe(&ids(&tuple![10, "movie"]));
        let mut expected = [ids(&tuple![1, 10, "movie"]), ids(&tuple![2, 10, "movie"])];
        expected.sort();
        assert_eq!(group, expected.concat(), "ascending id order");
        assert!(by_id_type.probe(&ids(&tuple![12, "movie"])).is_empty());
        // One request, one index: clones of the version share it.
        assert!(Arc::ptr_eq(
            &by_id_type,
            &like.clone().keyed_index(&[1, 2]).unwrap()
        ));
        // Every write carries it: inserts into new and live groups, removals
        // that shrink and that empty a group, no-ops.  After each, the
        // carried index equals a rebuild and forked at most one shard.
        let mut next = like.clone();
        let writes = [
            (true, tuple![4, 12, "movie"]),
            (true, tuple![4, 10, "movie"]),
            (true, tuple![4, 10, "movie"]),
            (false, tuple![1, 10, "movie"]),
            (false, tuple![1, 10, "page"]),
            (false, tuple![9, 9, "page"]),
        ];
        for (insert, t) in writes {
            let before = next.keyed_index_if_built(&[1, 2]).unwrap();
            match insert {
                true => next.insert(t.clone()).unwrap(),
                false => next.remove(&t).unwrap(),
            };
            let carried = next.keyed_index_if_built(&[1, 2]).expect("carried");
            assert_eq!(*carried, fresh_keyed(&next, &[1, 2]), "{t}");
            assert!(carried.shared_shards(&before) >= carried.shard_count() - 1);
        }
        assert_eq!(*by_id_type, fresh_keyed(like, &[1, 2]), "frozen");
    }

    #[test]
    fn apply_delta_builds_only_the_indexes_a_relation_lacks() {
        let (db, access) = movie_db();
        let idb = IndexedDatabase::build(db, access.clone()).unwrap();
        // `rating` replaced wholesale: a relation built from tuples carries
        // nothing, so its index is built from its rows; `movie` is carried.
        let mut next = idb.database().clone();
        let schema = next.schema().relation("rating").unwrap().clone();
        *next.relation_mut("rating").unwrap() =
            Relation::from_tuples(schema, [tuple![1, 2], tuple![8, 5]]).unwrap();
        let log = next.take_delta(idb.database());
        let replaced = idb.apply_delta(next.clone(), &log).unwrap();
        assert!(same_index(&replaced, &idb, 0));
        let rebuilt = IndexedDatabase::build(next, access).unwrap();
        assert_eq!(replaced.index(1).unwrap(), rebuilt.index(1).unwrap());
        // Once built, the relation carries it: the next version shares it.
        let again = replaced
            .apply_delta(replaced.database().clone(), &log)
            .unwrap();
        assert!(same_index(&again, &replaced, 1));
    }

    #[test]
    fn heap_bytes_counts_ids_offsets_headers_and_source_counts() {
        // Slots: 16 pages of 16 shard pointers, each in an `Arc`, and 256
        // count pointers in one more.
        let slots = 16 * (16 + 16 * 8) + 16 + 256 * 8;
        // One shard — an `Arc` (16) around three vectors (72) — per key.
        let shard = |key_ids: usize, keys: usize, row_ids: usize| {
            16 + 72 + 4 * (key_ids + keys + 1 + row_ids)
        };

        // `X = ∅`: the one (empty) key, two rows of one id.
        let schema = DatabaseSchema::with_relations(&[("r01", &["a"])]).unwrap();
        let mut db = Database::empty(schema);
        db.insert("r01", tuple![0]).unwrap();
        db.insert("r01", tuple![1]).unwrap();
        let c = AccessConstraint::new("r01", &[], &["a"], 2).unwrap();
        let idb = IndexedDatabase::build(db, AccessSchema::new(vec![c])).unwrap();
        assert_eq!(shard(0, 1, 2), 104);
        assert_eq!(idb.index(0).unwrap().heap_bytes(), slots + 104);

        // `like(pid → id)`: one key, rows (1, 10) and (1, 11), and (1, 10)
        // counted beside them — a map of capacity 3, one boxed row.
        let (db, access) = likes();
        let idb = IndexedDatabase::build(db, access).unwrap();
        let index = idb.index(0).unwrap();
        let entry = size_of::<(Box<[ValueId]>, usize)>() + 1;
        let counts = 16 + size_of::<SourceShard>() + 3 * entry + 2 * 4;
        assert_eq!(shard(1, 1, 4), 116);
        assert_eq!(index.heap_bytes(), slots + 116 + counts);
    }

    #[test]
    fn empty_key_constraint_probe() {
        let schema = DatabaseSchema::with_relations(&[("r01", &["a"])]).unwrap();
        let mut db = Database::empty(schema);
        db.insert("r01", tuple![0]).unwrap();
        db.insert("r01", tuple![1]).unwrap();
        let c = AccessConstraint::new("r01", &[], &["a"], 2).unwrap();
        let idb = IndexedDatabase::build(db, AccessSchema::new(vec![c])).unwrap();
        // With X = ∅ the single key is the empty tuple and probing it returns
        // the whole (bounded) relation.
        let index = idb.index(0).unwrap();
        assert_eq!(index.probe_len(&[]), 2);
        assert_eq!(index.distinct_keys(), 1);
    }
}
